//! The decoder shares payloads by content (`src/intern.rs`); nothing a
//! caller can observe may depend on whether a decode found its payload
//! in the table or built it.
//!
//! `fuzz_codec.rs` draws every payload at random, so almost every one of
//! its decodes is a miss. The strategies here draw payloads from a pool
//! of eight, so from the second case on almost every decode is a hit on
//! a payload an earlier case (or an earlier record of the same frame)
//! left behind — and the values must still be the ones encoded. The
//! plain tests below pin what sharing adds: two holders of one
//! allocation, copy-on-write between them, and errors that do not care.
//! (That the table forgets payloads nobody holds is a unit test beside
//! it: the table is private.)

use proptest::prelude::*;
use tamp_wire::codec::{self, DecodeError};
use tamp_wire::{
    DirectoryExchange, Gossip, GossipEntry, Heartbeat, MemberEvent, Message, MessageView, NodeId,
    NodeRecord, PartitionSet, RelayedRecord, SeqEvent, ServiceDecl, SwimPing, SwimState,
    SwimUpdate, SyncResponse, UpdateMsg,
};

/// Payload `shape` of the pool: distinct services and attributes per
/// shape, the empty payload included.
fn pooled(node: u32, incarnation: u64, shape: u8) -> NodeRecord {
    let mut r = NodeRecord::new(NodeId(node), incarnation);
    for s in 0..shape % 4 {
        let mut decl = ServiceDecl::new(
            format!("svc{shape}-{s}"),
            PartitionSet::from_iter(0..u16::from(shape)),
        );
        decl.attrs.push(("port".into(), format!("80{s}")));
        r.services.push(decl);
    }
    for a in 0..shape / 2 {
        r.attrs.push((format!("k{a}"), "v".repeat(shape.into())));
    }
    r
}

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (any::<u32>(), 0u64..4, 0u8..8).prop_map(|(n, i, shape)| pooled(n, i, shape))
}

fn arb_relayed() -> impl Strategy<Value = Vec<RelayedRecord>> {
    proptest::collection::vec((arb_record(), proptest::option::of(any::<u32>())), 0..6).prop_map(
        |v| {
            v.into_iter()
                .map(|(record, by)| RelayedRecord {
                    record,
                    relayed_by: by.map(NodeId),
                })
                .collect()
        },
    )
}

/// Every message kind that carries records.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_record(), any::<u64>()).prop_map(|(record, seq)| Message::Heartbeat(Heartbeat {
            from: record.node,
            level: 0,
            seq,
            is_leader: seq % 2 == 0,
            backup: None,
            latest_update_seq: seq / 2,
            record,
        })),
        proptest::collection::vec((arb_record(), any::<bool>()), 0..4).prop_map(|v| {
            Message::Update(UpdateMsg {
                origin: NodeId(1),
                events: v
                    .into_iter()
                    .zip(0..)
                    .map(|((r, join), seq)| SeqEvent {
                        seq,
                        event: if join {
                            MemberEvent::Join(r)
                        } else {
                            MemberEvent::Refute(r)
                        },
                    })
                    .collect(),
            })
        }),
        arb_relayed().prop_map(|records| Message::SyncResponse(SyncResponse {
            from: NodeId(2),
            latest_seq: 9,
            records,
        })),
        arb_relayed().prop_map(|records| Message::DirectoryExchange(DirectoryExchange {
            from: NodeId(3),
            reply_wanted: true,
            latest_seq: 4,
            records,
        })),
        proptest::collection::vec(arb_record(), 0..4).prop_map(|v| Message::Gossip(Gossip {
            from: NodeId(4),
            entries: v
                .into_iter()
                .map(|record| GossipEntry {
                    record,
                    heartbeat_counter: 7,
                })
                .collect(),
        })),
        proptest::collection::vec(arb_record(), 0..4).prop_map(|v| Message::SwimPing(SwimPing {
            from: NodeId(5),
            seq: 1,
            updates: v
                .into_iter()
                .map(|record| SwimUpdate {
                    state: SwimState::Alive,
                    record,
                })
                .collect(),
        })),
    ]
}

proptest! {
    /// Both materialising paths against the value that was encoded, with
    /// the table warm.
    #[test]
    fn decodes_equal_what_was_encoded_hit_or_miss(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        let owned = codec::decode(&bytes).unwrap();
        prop_assert_eq!(&owned, &msg);
        let view = MessageView::parse(&bytes).unwrap();
        prop_assert_eq!(&view.to_owned(), &msg);
        let pairs: Vec<(NodeRecord, &NodeRecord)> = match &owned {
            Message::Heartbeat(h) => {
                vec![(view.as_heartbeat().unwrap().record.to_record(), &h.record)]
            }
            Message::SyncResponse(s) => view
                .as_sync_response()
                .unwrap()
                .records
                .map(|v| v.record.to_record())
                .zip(s.records.iter().map(|r| &r.record))
                .collect(),
            Message::DirectoryExchange(d) => view
                .as_directory_exchange()
                .unwrap()
                .records
                .map(|v| v.record.to_record())
                .zip(d.records.iter().map(|r| &r.record))
                .collect(),
            _ => Vec::new(),
        };
        for (from_view, from_decode) in pairs {
            prop_assert_eq!(&from_view, from_decode);
            // One function behind both paths, one table behind it.
            prop_assert!(from_view.shares_payload_with(from_decode));
        }
        // Encoding what came back gives the frame again.
        prop_assert_eq!(codec::encode(&owned), bytes);
    }
}

fn heartbeat(record: NodeRecord) -> Vec<u8> {
    codec::encode(&Message::Heartbeat(Heartbeat {
        from: record.node,
        level: 0,
        seq: 1,
        is_leader: false,
        backup: None,
        latest_update_seq: 0,
        record,
    }))
}

fn record_of(frame: &[u8]) -> NodeRecord {
    match codec::decode(frame).unwrap() {
        Message::Heartbeat(h) => h.record,
        other => panic!("not a heartbeat: {other:?}"),
    }
}

#[test]
fn two_decodes_of_one_frame_share_a_payload() {
    let frame = heartbeat(pooled(7, 1, 5));
    let a = record_of(&frame);
    let b = record_of(&frame);
    assert!(a.shares_payload_with(&b));
    // Identity is not content: another node with the same payload shares
    // it too, at another incarnation.
    let c = record_of(&heartbeat(pooled(8, 3, 5)));
    assert!(a.shares_payload_with(&c));
    assert_ne!(a, c);
    let view = MessageView::parse(&frame).unwrap();
    assert!(view
        .as_heartbeat()
        .unwrap()
        .record
        .to_record()
        .shares_payload_with(&a));
}

#[test]
fn an_edit_stays_with_the_holder_that_made_it() {
    let sent = pooled(7, 1, 6);
    let frame = heartbeat(sent.clone());
    let mut a = record_of(&frame);
    let b = record_of(&frame);
    a.attrs.push(("edited".into(), "yes".into()));
    assert!(!a.shares_payload_with(&b));
    assert_eq!(b, sent);
    let next = record_of(&frame);
    assert_eq!(next, sent);
    assert!(next.shares_payload_with(&b));
    // The edited record encodes as edited, and decodes back to itself.
    assert_eq!(record_of(&heartbeat(a.clone())), a);

    // A sole holder's edit moves the payload out from under the table
    // instead of cloning it; the next decode must not see the edit.
    let sent = pooled(9, 1, 7);
    let frame = heartbeat(sent.clone());
    let mut only = record_of(&frame);
    only.services.clear();
    assert_ne!(only, sent);
    assert_eq!(record_of(&frame), sent);
}

/// `decode` and `parse` on `data`, on a thread of its own: an empty
/// table, so every record is a miss.
fn cold(data: &[u8]) -> (Result<Message, DecodeError>, Result<Message, DecodeError>) {
    let data = data.to_vec();
    std::thread::spawn(move || both(&data)).join().unwrap()
}

fn both(data: &[u8]) -> (Result<Message, DecodeError>, Result<Message, DecodeError>) {
    (
        codec::decode(data),
        MessageView::parse(data).map(|v| v.to_owned()),
    )
}

#[test]
fn errors_are_the_same_on_a_hit_as_on_a_miss() {
    let records: Vec<RelayedRecord> = (0..3)
        .map(|i| RelayedRecord {
            record: pooled(i, 1, 5 + i as u8),
            relayed_by: Some(NodeId(0)),
        })
        .collect();
    let frame = codec::encode(&Message::SyncResponse(SyncResponse {
        from: NodeId(0),
        latest_seq: 3,
        records: records.clone(),
    }));
    // Keep the payloads alive so this thread's decodes below find them.
    let warm = codec::decode(&frame).unwrap();

    // Every truncation: those that end inside the second or third
    // record come after one or two hits here and after as many misses
    // on the cold thread.
    for len in 0..frame.len() {
        let here = both(&frame[..len]);
        assert!(here.0.is_err(), "prefix {len} decoded");
        assert_eq!(here, cold(&frame[..len]), "prefix {len}");
    }
    // Bad UTF-8 in the last record's last string, after two hits.
    let mut bad = frame.clone();
    let last_string_byte = frame.len() - 1 - 5; // before `relayed_by`
    bad[last_string_byte] = 0xff;
    let here = both(&bad);
    assert_eq!(here.0, Err(DecodeError::BadUtf8));
    assert_eq!(here, cold(&bad));
    // And a frame that is fine decodes to the same value either way.
    assert_eq!(both(&frame), cold(&frame));
    assert_eq!(both(&frame).0.unwrap(), warm);
}
