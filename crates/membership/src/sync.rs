//! Anti-entropy and loss repair: the pull half of the protocol.
//!
//! * **Digests** — each group leader periodically multicasts an
//!   (id, incarnation) digest of its directory; members reconcile
//!   against it (refresh what it vouches for, pull what they miss, drop
//!   what it no longer vouches for, push back deaths it has not heard
//!   of) and echo their own.
//! * **Sync polls** — a gap in an origin's update sequence, or a digest
//!   listing something we lack, asks that peer for a backfill from its
//!   update log or, beyond the window, a full directory image.
//! * **Directory exchanges** — the two-way bootstrap handshake with the
//!   first leader heard, and a new leader's provenance re-stamp.
//!
//! Full-view transfers are the one place relayed records meet the
//! evidence book: a snapshot row vouches for a suspected node exactly as
//! a relayed `Join` does ([`MembershipNode::record_vouches`]).

use crate::node::MembershipNode;
use tamp_directory::{Provenance, Reconcile};
use tamp_netsim::{Context, PacketMeta, ProtocolEvent};
use tamp_wire::{
    DigestEntry, DigestMsg, DirectoryExchange, MemberEvent, Message, NodeId, RecordSource,
    SyncRequest, SyncResponse,
};

impl MembershipNode {
    /// Poll `peer` for a full directory image, at most once per two
    /// heartbeat periods (a response is probably already in flight).
    pub(crate) fn maybe_sync_poll(&mut self, ctx: &mut Context, peer: NodeId) {
        let now = ctx.now();
        let recently = self
            .sync_polls
            .get(&peer)
            .is_some_and(|&t| now.saturating_sub(t) < 2 * self.cfg.heartbeat_period);
        if recently {
            return;
        }
        self.sync_polls.insert(peer, now);
        ctx.count("membership", "sync_polls_sent", 1);
        ctx.emit(ProtocolEvent::SyncPoll { peer: peer.0 });
        let since_seq = self.seqs.last_applied(peer).unwrap_or(0);
        ctx.send_unicast(
            peer,
            Message::SyncRequest(SyncRequest {
                from: self.me,
                since_seq,
            }),
        );
    }

    /// Our whole view as one exchange message.
    pub(crate) fn snapshot_exchange(&self, reply_wanted: bool) -> DirectoryExchange {
        DirectoryExchange {
            from: self.me,
            reply_wanted,
            latest_seq: self.log.latest_seq(),
            records: self.directory.read(|d| d.snapshot()),
        }
    }

    pub(crate) fn own_digest_entries(&self) -> Vec<DigestEntry> {
        // The directory maintains this incrementally (sorted by node id);
        // per tick we only pay for the copy into the outgoing message.
        self.directory.read(|d| d.digest().to_vec())
    }

    fn digest_msg(&self, level: u8, entries: Vec<DigestEntry>) -> Message {
        Message::Digest(DigestMsg {
            from: self.me,
            level,
            entries,
        })
    }

    /// Anti-entropy tick: multicast an (id, incarnation) digest into
    /// every group we lead.
    pub(crate) fn send_digests(&mut self, ctx: &mut Context) {
        let entries: Vec<DigestEntry> = self.own_digest_entries();
        for l in 0..self.groups.len() as u8 {
            if self.am_leader(l) {
                ctx.count("membership", "digests_sent", 1);
                self.multicast(ctx, l, self.digest_msg(l, entries.clone()));
            }
        }
    }

    /// Reconcile against a leader's digest: pull what we miss, drop what
    /// this relayer no longer vouches for. One implementation behind the
    /// owned message and the borrowed wire view (whose entry iterator
    /// decodes 12-byte chunks in place — no `Vec<DigestEntry>` is ever
    /// allocated).
    pub(crate) fn handle_digest(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        from: NodeId,
        level: u8,
        entries: impl Iterator<Item = DigestEntry> + Clone,
    ) {
        if from == self.me {
            return;
        }
        let now = ctx.now();
        if let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) {
            g.heard(from, now, false, 0);
        }
        let me = self.me;
        let settled = 3 * self.cfg.heartbeat_period;
        let stale_before = now.saturating_sub(self.cfg.anti_entropy_period / 2);
        // A digest is the leader vouching for everything it lists: the
        // reconcile refreshes matching entries in place, so vouched-for
        // relayed knowledge never hits the staleness expiry (sweep's
        // relayed-entry rot), and reports what is left to do — all in
        // one walk of the directory in step with the digest.
        let Reconcile {
            dead_listed,
            missing,
            orphans,
        } = self.directory.update(|dir| {
            let r = dir.reconcile_digest(me, from, entries, now, settled, stale_before);
            (false, r)
        });
        // Death knowledge must flow *against* the vouching direction
        // too: if the digest lists a node we hold a fresh tombstone for,
        // the digesting leader is advertising a ghost — push the death
        // back at it before our tombstone ages out and the ghost
        // re-infects us. (Presence propagates by pull; without this,
        // absence always loses the race after a partition of knowledge —
        // found by the `views_always_converge_to_live_set` property.)
        // Settling gate (`settled`): a *young* tombstone may be a false
        // positive about to be refuted by the victim's own heartbeats —
        // pushing it would amplify a local mistake into a global one.
        // After a few heartbeat periods of continued silence, the death
        // is considered confirmed.
        if !dead_listed.is_empty() {
            let mut events = Vec::new();
            for (n, inc) in dead_listed {
                let window = self.log.push(MemberEvent::Leave(n, inc), now);
                events.push(window.into_iter().last().unwrap());
            }
            ctx.send_unicast(from, self.update_msg(events));
        }
        // Anything the leader knows that we lack (or only know at an
        // older incarnation) is worth a full pull — ignoring nodes whose
        // death we just pushed back.
        if missing {
            self.maybe_sync_poll(ctx, from);
        }
        // Entries we hold *on this leader's word* that it no longer
        // vouches for are orphans: drop them (no tombstone — the node may
        // be alive and will come back via the normal paths if so). The
        // freshness gate (`stale_before`) matters under heavy loss: an
        // entry refreshed since the digest was cut (a sync response or
        // update racing the digest) must not be dropped on the digest's
        // older word.
        if !orphans.is_empty() {
            let mut events = Vec::new();
            for n in orphans {
                let removed = self.directory.update(|dir| {
                    let r = dir.remove(n);
                    (r.is_some(), r)
                });
                if let Some(rec) = removed {
                    ctx.observe_removed(n);
                    events.push(MemberEvent::Leave(n, rec.incarnation));
                }
            }
            let levels = self.relay_levels(level);
            self.relay_events(ctx, events, levels);
        }

        // Digests are bidirectional: a *multicast* digest from our group
        // leader gets a unicast digest echo, so the leader's entries are
        // vouched too (in particular the tree root, which no one else
        // digests to), and the death back-push above also fires in the
        // member → leader direction at the leader's side.
        if meta.channel.is_some() {
            let echo = self.digest_msg(level, self.own_digest_entries());
            ctx.send_unicast(from, echo);
        }
        self.update_probe();
    }

    /// Apply the records of a full-view transfer from `relayer`, owned
    /// or still in wire form, and return the `Join`s worth relaying on.
    /// One directory update per message, so readers see a whole sync or
    /// none of it; a record already held is compared in place and never
    /// materialized.
    pub(crate) fn apply_relayed_records<R: RecordSource>(
        &mut self,
        ctx: &mut Context,
        relayer: NodeId,
        records: impl Iterator<Item = R>,
    ) -> Vec<MemberEvent> {
        let now = ctx.now();
        let mut fresh = Vec::new();
        // The write lock is held across the loop through a second
        // handle, which leaves `self` free for the suspicion book.
        self.directory.clone().update(|d| {
            for rr in records {
                let node = rr.node();
                if node == self.me {
                    continue;
                }
                let provenance = if node == relayer {
                    Provenance::Direct
                } else {
                    Provenance::Relayed(relayer)
                };
                // Filled exactly when the directory stores the record.
                let mut stored = None;
                let (_, was_known) = d.apply_join_with(
                    node,
                    rr.incarnation(),
                    provenance,
                    now,
                    || stored.insert(rr.to_record()).clone(),
                    |held| rr.same_payload(held),
                );
                if let Some(rec) = stored {
                    if !was_known {
                        ctx.observe_added(node);
                    }
                    fresh.push(MemberEvent::Join(rec));
                }
                self.record_vouches(ctx, node, rr.incarnation());
            }
            (!fresh.is_empty(), ())
        });
        fresh
    }

    pub(crate) fn handle_exchange<R: RecordSource>(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        from: NodeId,
        reply_wanted: bool,
        latest_seq: u64,
        records: impl Iterator<Item = R>,
    ) {
        if from == self.me {
            return;
        }
        // Adopt the sender's update baseline: its past updates are
        // subsumed by this snapshot and must not register as gaps.
        self.seqs.advance(from, latest_seq);
        // Only a *unicast* reply from our group leader completes the
        // bootstrap handshake. A leader's multicast snapshot (provenance
        // re-stamping after takeover) must not: the paper's bootstrap is
        // two-way — "the group leader also asks the new node for the
        // membership information that it is aware of" — and our offer has
        // not been made yet.
        if !reply_wanted && meta.channel.is_none() {
            for g in self.groups.iter_mut().flatten() {
                if g.leader == Some(from) {
                    g.bootstrapped = true;
                }
            }
        }
        let fresh = self.apply_relayed_records(ctx, from, records);
        // Anything new travels onward: up the tree and into every group
        // we lead (the exchange was point-to-point, so no group already
        // carried it).
        let levels = self.relay_levels_all();
        self.relay_events(ctx, fresh, levels);
        if reply_wanted {
            let reply = self.snapshot_exchange(false);
            ctx.send_unicast(from, Message::DirectoryExchange(reply));
        }
        self.update_probe();
    }

    pub(crate) fn handle_sync_request(&mut self, ctx: &mut Context, q: &SyncRequest) {
        // Cheap path: if the requester's gap fits inside our retained
        // piggyback window, backfill with just those events — this is
        // what bounds the cost of ≤ window-1 consecutive losses (§3.1.2).
        // Only beyond-window gaps pay for a full directory image.
        let now = ctx.now();
        if q.since_seq < self.log.latest_seq() && self.log.can_backfill(q.since_seq, now) {
            let events = self.log.events_after(q.since_seq, now);
            if !events.is_empty() {
                ctx.count("membership", "backfills_served", 1);
                ctx.send_unicast(q.from, self.update_msg(events));
                return;
            }
        }
        ctx.count("membership", "full_syncs_served", 1);
        let records = self.directory.read(|d| d.snapshot());
        ctx.send_unicast(
            q.from,
            Message::SyncResponse(SyncResponse {
                from: self.me,
                latest_seq: self.log.latest_seq(),
                records,
            }),
        );
    }

    pub(crate) fn handle_sync_response<R: RecordSource>(
        &mut self,
        ctx: &mut Context,
        from: NodeId,
        latest_seq: u64,
        records: impl Iterator<Item = R>,
    ) {
        let fresh = self.apply_relayed_records(ctx, from, records);
        self.seqs.advance(from, latest_seq);
        let levels = self.relay_levels_all();
        self.relay_events(ctx, fresh, levels);
        self.update_probe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{drive, from_leader, sent, sync_response, synced_node, LEADER};
    use tamp_netsim::{Actor, ChannelId};
    use tamp_wire::NodeRecord;

    #[test]
    fn a_sync_bumps_the_directory_version_once_or_not_at_all() {
        let mut node = synced_node();
        // Seven records went in (1..=8 without our own) under one bump
        // on top of `on_start`'s: a reader sees the whole sync or none.
        let v = node.directory.version();
        assert_eq!(v, 2);
        // The same image again changes nothing and says so.
        let again = sync_response(1..=8);
        drive(&mut node, 2, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &again)
        });
        assert_eq!(node.directory.version(), v);
        // Three more members: one more bump, not three.
        let wider = sync_response(1..=11);
        drive(&mut node, 3, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &wider)
        });
        assert_eq!(node.directory.read(|d| d.len()), 11);
        assert_eq!(node.directory.version(), v + 1);
    }

    #[test]
    fn held_records_of_a_borrowed_sync_frame_are_not_materialized() {
        use std::cell::Cell;
        /// A wire record that counts its decodes.
        struct Counted<'a>(tamp_wire::RecordView<'a>, &'a Cell<usize>);
        impl RecordSource for Counted<'_> {
            fn node(&self) -> NodeId {
                self.0.node
            }
            fn incarnation(&self) -> u64 {
                self.0.incarnation
            }
            fn to_record(&self) -> NodeRecord {
                self.1.set(self.1.get() + 1);
                self.0.to_record()
            }
            fn same_payload(&self, held: &tamp_wire::RecordPayload) -> bool {
                self.0.same_payload(held)
            }
        }
        let decodes = Cell::new(0);
        let apply = |node: &mut MembershipNode, now: u64, msg: &Message| {
            let frame = tamp_wire::codec::encode(msg);
            let view = tamp_wire::MessageView::parse(&frame).unwrap();
            let sync = view.as_sync_response().unwrap();
            let records = sync.records.map(|r| Counted(r.record, &decodes));
            let mut fresh = Vec::new();
            drive(node, now, |n, ctx| {
                fresh = n.apply_relayed_records(ctx, sync.from, records)
            });
            fresh
        };

        let mut node = synced_node();
        let v = node.directory.version();
        // Everything offered is already held: compared in place,
        // refreshed, never decoded.
        assert!(apply(&mut node, 9, &sync_response(1..=8)).is_empty());
        assert_eq!(decodes.get(), 0);
        assert_eq!(node.directory.version(), v);
        node.directory.read(|d| {
            assert!(d
                .entries()
                .all(|e| e.last_refresh == 9 || e.node == node.me));
        });
        // Two newcomers among the eight held: two decodes, and the
        // relayed `Join`s share the stored records' payloads.
        let fresh = apply(&mut node, 10, &sync_response(1..=10));
        assert_eq!(decodes.get(), 2);
        assert_eq!(fresh.len(), 2);
        for ev in &fresh {
            let MemberEvent::Join(rec) = ev else {
                panic!("a sync relays joins, got {ev:?}");
            };
            node.directory.read(|d| {
                assert!(d.get(rec.node).unwrap().record().shares_payload_with(rec));
            });
        }

        // The dispatch takes that path: a borrowed frame leaves the same
        // directory behind as the owned message.
        let mut owned = synced_node();
        let mut borrowed = synced_node();
        let msg = sync_response(4..=12);
        let frame = tamp_wire::codec::encode(&msg);
        let view = tamp_wire::MessageView::parse(&frame).unwrap();
        let a = drive(&mut owned, 20, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &msg)
        });
        let b = drive(&mut borrowed, 20, |n, ctx| {
            n.on_packet_view(ctx, from_leader(None), &view)
        });
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            owned.directory.read(|d| d.clone()),
            borrowed.directory.read(|d| d.clone())
        );
    }

    #[test]
    fn a_converged_digest_refreshes_in_place_and_is_echoed_once() {
        let mut node = synced_node();
        let v = node.directory.version();
        // The leader lists exactly what we hold, our own entry included.
        let digest = Message::Digest(DigestMsg {
            from: LEADER,
            level: 0,
            entries: node.own_digest_entries(),
        });
        let now = 7 * tamp_topology::SECS;
        let multicast = from_leader(Some(ChannelId(0)));
        let effects = drive(&mut node, now, |n, ctx| {
            n.on_packet(ctx, multicast, &digest)
        });
        node.directory.read(|d| {
            assert_eq!(d.len(), 8);
            assert!(d.entries().all(|e| e.last_refresh == now));
        });
        assert_eq!(node.directory.version(), v, "a refresh is not a change");
        // One unicast echo of our own digest back at the leader; no sync
        // poll, no death push, nothing relayed.
        let echo = Message::Digest(DigestMsg {
            from: node.me,
            level: 0,
            entries: node.own_digest_entries(),
        });
        assert_eq!(sent(&effects), vec![(Some(LEADER.0), &echo)]);

        // The same digest by unicast is itself an echo: nothing is sent.
        let effects = drive(&mut node, now + 1, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &digest)
        });
        assert_eq!(sent(&effects), vec![]);
        node.directory.read(|d| {
            assert!(d.entries().all(|e| e.last_refresh == now + 1));
        });
        assert_eq!(node.directory.version(), v);
    }
}
