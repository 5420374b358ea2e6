//! Codec fuzz / property / differential suite.
//!
//! Three locks, one file:
//!
//! 1. **Totality** — neither the owned decoder nor the borrowed view
//!    parser may panic on any input, however hostile.
//! 2. **Equivalence** — `codec::decode` and `MessageView::parse` are
//!    independent implementations of the same wire grammar; they must
//!    accept and reject *identically* (same `DecodeError` value), and a
//!    view must materialize (`to_owned`) to exactly what `decode`
//!    returns. Exercised on clean encodings of every message kind and
//!    on adversarial mutations: truncations, bit flips, random byte
//!    stomps, and length-field lies.
//! 3. **Size accounting** — `encoded_len(msg) == encode(msg).len()` for
//!    every message kind (including `Alert` events and the SWIM
//!    messages), which is the invariant the simulator's per-send byte
//!    accounting and the cached record-payload length both ride on.
//!
//! The strategies below cover all 15 message tags and all 5 member-event
//! variants. Hand-shrunken regressions from fuzzing sit at the bottom as
//! plain `#[test]`s; proptest additionally persists failing seeds to
//! `fuzz_codec.proptest-regressions` next to this file.

use proptest::prelude::*;
use tamp_wire::codec::{self, DecodeError};
use tamp_wire::{
    DcId, DigestEntry, DigestMsg, DirectoryExchange, ElectionMsg, Gossip, GossipEntry, Heartbeat,
    MemberEvent, Message, MessageView, NodeId, NodeRecord, PartitionSet, ProxySummary, ProxyUpdate,
    RelayedRecord, SeqEvent, ServiceAvail, ServiceDecl, ServiceRequest, ServiceResponse,
    SummaryEvent, SwimAck, SwimPing, SwimPingReq, SwimState, SwimUpdate, SyncRequest, SyncResponse,
    UpdateMsg,
};

// ------------------------------------------------------------ strategies

fn arb_node_id() -> impl Strategy<Value = NodeId> {
    any::<u32>().prop_map(NodeId)
}

fn arb_partitions() -> impl Strategy<Value = PartitionSet> {
    proptest::collection::vec(0u16..512, 0..8).prop_map(|v| {
        let mut p = PartitionSet::empty();
        for x in v {
            p.insert(x);
        }
        p
    })
}

fn arb_kv() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9]{0,16}"), 0..4)
}

fn arb_service_decl() -> impl Strategy<Value = ServiceDecl> {
    ("[a-z]{1,12}", arb_partitions(), arb_kv()).prop_map(|(name, partitions, attrs)| ServiceDecl {
        name,
        partitions,
        attrs,
    })
}

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (
        arb_node_id(),
        any::<u64>(),
        proptest::collection::vec(arb_service_decl(), 0..4),
        arb_kv(),
    )
        .prop_map(|(node, incarnation, services, attrs)| {
            NodeRecord::from_parts(node, incarnation, services, attrs)
        })
}

/// Every `MemberEvent` variant, including `Suspect`, `Refute`, and
/// `Alert` (the variants the pre-PR strategies never generated).
fn arb_event() -> impl Strategy<Value = MemberEvent> {
    prop_oneof![
        arb_record().prop_map(MemberEvent::Join),
        (arb_node_id(), any::<u64>()).prop_map(|(n, i)| MemberEvent::Leave(n, i)),
        (arb_node_id(), any::<u64>()).prop_map(|(n, i)| MemberEvent::Suspect(n, i)),
        arb_record().prop_map(MemberEvent::Refute),
        (arb_node_id(), any::<u64>(), arb_node_id()).prop_map(|(n, i, rep)| MemberEvent::Alert {
            subject: n,
            incarnation: i,
            reporter: rep,
        }),
    ]
}

fn arb_seq_events() -> impl Strategy<Value = Vec<SeqEvent>> {
    proptest::collection::vec((any::<u64>(), arb_event()), 0..5).prop_map(|evs| {
        evs.into_iter()
            .map(|(seq, event)| SeqEvent { seq, event })
            .collect()
    })
}

fn arb_relayed() -> impl Strategy<Value = Vec<RelayedRecord>> {
    proptest::collection::vec((arb_record(), proptest::option::of(arb_node_id())), 0..4).prop_map(
        |recs| {
            recs.into_iter()
                .map(|(record, relayed_by)| RelayedRecord { record, relayed_by })
                .collect()
        },
    )
}

fn arb_swim_updates() -> impl Strategy<Value = Vec<SwimUpdate>> {
    proptest::collection::vec((any::<u8>(), arb_record()), 0..4).prop_map(|v| {
        v.into_iter()
            .map(|(s, record)| SwimUpdate {
                state: match s % 3 {
                    0 => SwimState::Alive,
                    1 => SwimState::Suspect,
                    _ => SwimState::Confirm,
                },
                record,
            })
            .collect()
    })
}

fn arb_avail() -> impl Strategy<Value = ServiceAvail> {
    ("[a-z]{1,12}", arb_partitions(), any::<u16>()).prop_map(|(name, partitions, instances)| {
        ServiceAvail {
            name,
            partitions,
            instances,
        }
    })
}

/// All 15 message kinds, every variant reachable.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            arb_node_id(),
            any::<u8>(),
            any::<u64>(),
            any::<bool>(),
            proptest::option::of(arb_node_id()),
            any::<u64>(),
            arb_record()
        )
            .prop_map(|(from, level, seq, is_leader, backup, latest, record)| {
                Message::Heartbeat(Heartbeat {
                    from,
                    level,
                    seq,
                    is_leader,
                    backup,
                    latest_update_seq: latest,
                    record,
                })
            }),
        (arb_node_id(), arb_seq_events())
            .prop_map(|(origin, events)| Message::Update(UpdateMsg { origin, events })),
        (arb_node_id(), any::<bool>(), any::<u64>(), arb_relayed()).prop_map(
            |(from, reply_wanted, latest_seq, records)| {
                Message::DirectoryExchange(DirectoryExchange {
                    from,
                    reply_wanted,
                    latest_seq,
                    records,
                })
            }
        ),
        (arb_node_id(), any::<u64>())
            .prop_map(|(from, since_seq)| Message::SyncRequest(SyncRequest { from, since_seq })),
        (arb_node_id(), any::<u64>(), arb_relayed()).prop_map(|(from, latest_seq, records)| {
            Message::SyncResponse(SyncResponse {
                from,
                latest_seq,
                records,
            })
        }),
        (
            arb_node_id(),
            any::<u8>(),
            any::<u8>(),
            proptest::option::of(arb_node_id())
        )
            .prop_map(|(from, level, kind, backup)| {
                let kind = match kind % 3 {
                    0 => ElectionMsg::Election { from, level },
                    1 => ElectionMsg::Alive { from, level },
                    _ => ElectionMsg::Coordinator {
                        from,
                        level,
                        backup,
                    },
                };
                Message::Election(kind)
            }),
        (
            arb_node_id(),
            proptest::collection::vec((arb_record(), any::<u64>()), 0..4)
        )
            .prop_map(|(from, entries)| {
                Message::Gossip(Gossip {
                    from,
                    entries: entries
                        .into_iter()
                        .map(|(record, heartbeat_counter)| GossipEntry {
                            record,
                            heartbeat_counter,
                        })
                        .collect(),
                })
            }),
        (
            any::<u16>(),
            any::<u64>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(arb_avail(), 0..4)
        )
            .prop_map(|(dc, seq, part, total_parts, services)| {
                Message::ProxySummary(ProxySummary {
                    dc: DcId(dc),
                    seq,
                    part,
                    total_parts,
                    services,
                })
            }),
        (
            any::<u16>(),
            any::<u64>(),
            proptest::collection::vec(
                prop_oneof![
                    arb_avail().prop_map(SummaryEvent::Avail),
                    "[a-z]{1,12}".prop_map(|name| SummaryEvent::Gone { name }),
                ],
                0..4
            )
        )
            .prop_map(|(dc, seq, events)| {
                Message::ProxyUpdate(ProxyUpdate {
                    dc: DcId(dc),
                    seq,
                    events,
                })
            }),
        (
            any::<u64>(),
            arb_node_id(),
            "[a-z]{1,12}",
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..32),
            any::<u8>()
        )
            .prop_map(|(id, from, service, partition, payload, hops_left)| {
                Message::ServiceRequest(ServiceRequest {
                    id,
                    from,
                    service,
                    partition,
                    payload,
                    hops_left,
                })
            }),
        (
            any::<u64>(),
            arb_node_id(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(id, from, ok, payload)| {
                Message::ServiceResponse(ServiceResponse {
                    id,
                    from,
                    ok,
                    payload,
                })
            }),
        (
            arb_node_id(),
            any::<u8>(),
            proptest::collection::vec((arb_node_id(), any::<u64>()), 0..6)
        )
            .prop_map(|(from, level, entries)| {
                Message::Digest(DigestMsg {
                    from,
                    level,
                    entries: entries
                        .into_iter()
                        .map(|(node, incarnation)| DigestEntry { node, incarnation })
                        .collect(),
                })
            }),
        (arb_node_id(), any::<u64>(), arb_swim_updates())
            .prop_map(|(from, seq, updates)| Message::SwimPing(SwimPing { from, seq, updates })),
        (
            arb_node_id(),
            arb_node_id(),
            any::<u64>(),
            arb_swim_updates(),
            arb_swim_updates()
        )
            .prop_map(|(from, subject, seq, updates, sync)| {
                Message::SwimAck(SwimAck {
                    from,
                    subject,
                    seq,
                    updates,
                    sync,
                })
            }),
        (
            arb_node_id(),
            arb_node_id(),
            any::<u64>(),
            arb_swim_updates()
        )
            .prop_map(|(from, target, seq, updates)| {
                Message::SwimPingReq(SwimPingReq {
                    from,
                    target,
                    seq,
                    updates,
                })
            }),
    ]
}

/// A borrowed record list against the owned one it encodes: same
/// length, same identities and relayers, and each view materializes to,
/// and matches, its owned record.
fn assert_records_agree(
    views: tamp_wire::RelayedRecords<'_>,
    owned: &[tamp_wire::RelayedRecord],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(views.len(), owned.len());
    for (v, o) in views.zip(owned) {
        prop_assert_eq!(v.relayed_by, o.relayed_by);
        prop_assert_eq!(v.record.to_record(), o.record.clone());
        prop_assert!(v.record.matches(&o.record));
    }
    Ok(())
}

/// Both decoders on the same input: panic on either is a test failure
/// (proptest catches unwinds), and the results must agree exactly.
fn assert_decoders_agree(data: &[u8]) -> Result<(), TestCaseError> {
    let owned = codec::decode(data);
    let view = MessageView::parse(data);
    match (owned, view) {
        (Ok(msg), Ok(v)) => {
            if v.to_owned() != msg {
                return Err(TestCaseError::fail("view materializes differently"));
            }
            if v.kind() != msg.kind() {
                return Err(TestCaseError::fail("view kind label differs"));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            if a != b {
                return Err(TestCaseError::fail(format!(
                    "decoders reject differently: decode={a:?} view={b:?}"
                )));
            }
            Ok(())
        }
        (Ok(_), Err(e)) => Err(TestCaseError::fail(format!(
            "decode accepted, view rejected with {e:?}"
        ))),
        (Err(e), Ok(_)) => Err(TestCaseError::fail(format!(
            "view accepted, decode rejected with {e:?}"
        ))),
    }
}

proptest! {
    /// Owned roundtrip over every message kind.
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(msg, back);
    }

    /// The size-accounting pin: `encoded_len` must agree with the real
    /// encoder for every kind — this is what the simulator charges per
    /// send and what the cached payload length feeds.
    #[test]
    fn encoded_len_matches_encode(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        prop_assert_eq!(bytes.len(), codec::encoded_len(&msg));
        // Same answer when the payload cache is warm (second call).
        prop_assert_eq!(bytes.len(), codec::encoded_len(&msg));
    }

    /// Borrowed roundtrip: encode → view → to_owned is the identity.
    #[test]
    fn view_roundtrip(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        let view = MessageView::parse(&bytes).unwrap();
        prop_assert_eq!(view.kind(), msg.kind());
        prop_assert_eq!(view.to_owned(), msg);
    }

    /// Heartbeat and digest fast-path accessors agree field-for-field
    /// with the owned decode, and `RecordView::matches` is exact on
    /// self-produced encodings.
    #[test]
    fn views_agree_with_owned_fields(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        let view = MessageView::parse(&bytes).unwrap();
        match &msg {
            Message::Heartbeat(hb) => {
                let v = view.as_heartbeat().unwrap();
                prop_assert_eq!(v.from, hb.from);
                prop_assert_eq!(v.level, hb.level);
                prop_assert_eq!(v.seq, hb.seq);
                prop_assert_eq!(v.is_leader, hb.is_leader);
                prop_assert_eq!(v.backup, hb.backup);
                prop_assert_eq!(v.latest_update_seq, hb.latest_update_seq);
                prop_assert_eq!(v.record.node, hb.record.node);
                prop_assert_eq!(v.record.incarnation, hb.record.incarnation);
                prop_assert_eq!(v.record.to_record(), hb.record.clone());
                prop_assert!(v.record.matches(&hb.record));
                let mut bumped = hb.record.clone();
                bumped.incarnation = bumped.incarnation.wrapping_add(1);
                prop_assert!(!v.record.matches(&bumped));
            }
            Message::Digest(d) => {
                let v = view.as_digest().unwrap();
                prop_assert_eq!(v.from, d.from);
                prop_assert_eq!(v.level, d.level);
                prop_assert_eq!(v.entries().collect::<Vec<_>>(), d.entries.clone());
            }
            Message::SyncResponse(r) => {
                let v = view.as_sync_response().unwrap();
                prop_assert_eq!((v.from, v.latest_seq), (r.from, r.latest_seq));
                assert_records_agree(v.records, &r.records)?;
            }
            Message::DirectoryExchange(d) => {
                let v = view.as_directory_exchange().unwrap();
                prop_assert_eq!(
                    (v.from, v.reply_wanted, v.latest_seq),
                    (d.from, d.reply_wanted, d.latest_seq)
                );
                assert_records_agree(v.records, &d.records)?;
            }
            _ => {
                prop_assert!(view.as_heartbeat().is_none());
                prop_assert!(view.as_digest().is_none());
                prop_assert!(view.as_sync_response().is_none());
                prop_assert!(view.as_directory_exchange().is_none());
            }
        }
    }

    /// Totality + equivalence on arbitrary garbage.
    #[test]
    fn decoders_agree_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_decoders_agree(&data)?;
    }

    /// Truncation: every well-formed message, cut anywhere, must be
    /// rejected by both decoders with the same error.
    #[test]
    fn decoders_agree_on_truncations(msg in arb_message(), cut in any::<u16>()) {
        let bytes = codec::encode(&msg);
        let cut = cut as usize % bytes.len().max(1);
        prop_assert!(codec::decode(&bytes[..cut]).is_err(), "prefix decoded");
        assert_decoders_agree(&bytes[..cut])?;
    }

    /// Bit flips: a single flipped bit anywhere in a valid encoding must
    /// leave both decoders agreeing (either both accept the mutant or
    /// both reject it identically).
    #[test]
    fn decoders_agree_on_bit_flips(msg in arb_message(), pos in any::<u32>(), bit in 0u8..8) {
        let mut bytes = codec::encode(&msg);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert_decoders_agree(&bytes)?;
    }

    /// Length-field lies: stomp a 32-bit window with an extreme value —
    /// hitting string lengths and element counts often — plus random
    /// byte stomps. Hostile counts must never cause a panic or a huge
    /// allocation, and both decoders must still agree.
    #[test]
    fn decoders_agree_on_length_lies(
        msg in arb_message(),
        pos in any::<u32>(),
        lie in prop_oneof![
            Just(u32::MAX),
            Just(u32::MAX / 2),
            Just(0x0100_0000u32),
            any::<u32>(),
        ],
    ) {
        let mut bytes = codec::encode(&msg);
        let pos = pos as usize % bytes.len();
        let end = (pos + 4).min(bytes.len());
        bytes[pos..end].copy_from_slice(&lie.to_le_bytes()[..end - pos]);
        assert_decoders_agree(&bytes)?;
    }

    /// Splices: concatenations and mid-message cuts of two valid
    /// encodings — exercises TrailingBytes and tag confusion.
    #[test]
    fn decoders_agree_on_splices(a in arb_message(), b in arb_message(), cut in any::<u16>()) {
        let (ea, eb) = (codec::encode(&a), codec::encode(&b));
        let cut = cut as usize % ea.len().max(1);
        let mut spliced = ea[..cut].to_vec();
        spliced.extend_from_slice(&eb);
        assert_decoders_agree(&spliced)?;
    }
}

// ------------------------------------------------- shrunken regressions
//
// Minimal adversarial inputs, shrunk by hand from fuzz classes above;
// each pins one rejection path and the exact error both decoders must
// produce.

#[test]
fn regression_empty_input() {
    assert_eq!(codec::decode(&[]), Err(DecodeError::Truncated));
    assert_eq!(
        MessageView::parse(&[]).map(|_| ()),
        Err(DecodeError::Truncated)
    );
}

#[test]
fn regression_unknown_tag() {
    assert_eq!(codec::decode(&[0x10]), Err(DecodeError::BadTag(0x10)));
    assert_eq!(
        MessageView::parse(&[0x10]).map(|_| ()),
        Err(DecodeError::BadTag(0x10))
    );
    assert_eq!(codec::decode(&[0x00]), Err(DecodeError::BadTag(0x00)));
}

#[test]
fn regression_kv_count_lie() {
    // Minimal heartbeat (44 bytes) with the trailing attr count (last 4
    // bytes) lying: claims u32::MAX pairs with no bytes behind them.
    let msg = Message::Heartbeat(Heartbeat {
        from: NodeId(0),
        level: 0,
        seq: 0,
        is_leader: false,
        backup: None,
        latest_update_seq: 0,
        record: NodeRecord::new(NodeId(0), 0),
    });
    let mut bytes = codec::encode(&msg);
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(codec::decode(&bytes), Err(DecodeError::BadLength));
    assert_eq!(
        MessageView::parse(&bytes).map(|_| ()),
        Err(DecodeError::BadLength)
    );
}

#[test]
fn regression_string_length_lie_inside_budget() {
    // A service-request whose string length lies *within* the remaining
    // buffer: the decoder must consume it and then fail on the next
    // field, not misread.
    let msg = Message::ServiceRequest(ServiceRequest {
        id: 1,
        from: NodeId(2),
        service: "ab".into(),
        partition: 3,
        payload: vec![9, 9, 9, 9],
        hops_left: 1,
    });
    let mut bytes = codec::encode(&msg);
    // String length field sits after tag(1)+id(8)+from(4).
    bytes[13..17].copy_from_slice(&3u32.to_le_bytes());
    let owned = codec::decode(&bytes);
    let view = MessageView::parse(&bytes).map(|_| ());
    assert!(owned.is_err());
    assert_eq!(owned.err(), view.err());
}

#[test]
fn regression_bad_utf8_string() {
    let msg = Message::ServiceRequest(ServiceRequest {
        id: 1,
        from: NodeId(2),
        service: "ab".into(),
        partition: 3,
        payload: vec![],
        hops_left: 1,
    });
    let mut bytes = codec::encode(&msg);
    bytes[17] = 0xff; // first byte of "ab"
    assert_eq!(codec::decode(&bytes), Err(DecodeError::BadUtf8));
    assert_eq!(
        MessageView::parse(&bytes).map(|_| ()),
        Err(DecodeError::BadUtf8)
    );
}

#[test]
fn regression_trailing_byte() {
    let mut bytes = codec::encode(&Message::SyncRequest(SyncRequest {
        from: NodeId(1),
        since_seq: 2,
    }));
    bytes.push(0);
    assert_eq!(codec::decode(&bytes), Err(DecodeError::TrailingBytes));
    assert_eq!(
        MessageView::parse(&bytes).map(|_| ()),
        Err(DecodeError::TrailingBytes)
    );
}

#[test]
fn regression_election_bad_subtag_after_header() {
    // Election sub-tag 3 is invalid, but both decoders read from+level
    // first — a truncated body must therefore report Truncated, not
    // BadTag.
    assert_eq!(codec::decode(&[0x06, 3]), Err(DecodeError::Truncated));
    assert_eq!(
        MessageView::parse(&[0x06, 3]).map(|_| ()),
        Err(DecodeError::Truncated)
    );
    // With the full header present the sub-tag check fires.
    assert_eq!(
        codec::decode(&[0x06, 3, 0, 0, 0, 0, 0]),
        Err(DecodeError::BadTag(3))
    );
    assert_eq!(
        MessageView::parse(&[0x06, 3, 0, 0, 0, 0, 0]).map(|_| ()),
        Err(DecodeError::BadTag(3))
    );
}

#[test]
fn regression_digest_count_lie() {
    let bytes = [
        0x0c, // tag
        1, 0, 0, 0, // from
        0, // level
        0xff, 0xff, 0xff, 0xff, // entry count lie
    ];
    assert_eq!(codec::decode(&bytes), Err(DecodeError::BadLength));
    assert_eq!(
        MessageView::parse(&bytes).map(|_| ()),
        Err(DecodeError::BadLength)
    );
}
