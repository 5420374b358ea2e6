//! From silence to removal: what the node does with a peer its failure
//! detector timed out, and with the three books' sweep-time verdicts.
//!
//! ```text
//! timeout ─┬─ Remove ──────────────────────────────┐
//!          ├─ Suspect ─ arm ─(window, unrefuted)─ confirm ─ declare_peer_dead
//!          └─ Vote ── Alert votes ─(stable cut)────┘         │ level > 0
//!                                                    quarantine_subtree
//!                                                  (lift │ purge at deadline)
//! ```
//!
//! Every rule that crosses between books is a method here, written
//! once: [`arm`](MembershipNode::arm) (suspicion + its three effects),
//! [`refute`](MembershipNode::refute) (evidence book, and the cut book
//! when the proof is decisive), [`record_vouches`](MembershipNode::record_vouches),
//! `confirm`, [`record_cut_report`](MembershipNode::record_cut_report)
//! (a first vote arms an advisory suspicion).

use crate::cuts::Vote;
use crate::evidence::Raiser;
use crate::node::{MembershipNode, OnTimeout};
use crate::quarantine::Settled;
use std::collections::HashSet;
use tamp_directory::Provenance;
use tamp_netsim::telemetry::{Cause, Declared};
use tamp_netsim::{Context, ProtocolEvent};
use tamp_wire::{MemberEvent, NodeId, NodeRecord};

impl MembershipNode {
    // ------------------------------------------------ cross-book rules

    /// Arm a suspicion of `subject` (if the evidence book takes it) and
    /// make it visible: one event, which is also the oracle's
    /// observation.
    pub(crate) fn arm(
        &mut self,
        ctx: &mut Context,
        subject: NodeId,
        inc: u64,
        level: u8,
        by: Raiser,
    ) -> bool {
        if !self.evidence.arm(subject, inc, level, ctx.now(), by) {
            return false;
        }
        ctx.emit(ProtocolEvent::SuspicionArmed { subject: subject.0 });
        true
    }

    /// Resolve an open suspicion of `node` as refuted by proof of life at
    /// `inc` (see [`Evidence::refute`](crate::evidence::Evidence::refute)
    /// for `fresh`); returns whether there was a suspicion to clear.
    /// Decisive proof also clears the subject's cut votes — and only
    /// decisive proof: genuinely alive subjects are cleared by the
    /// direct-liveness sweep in [`MembershipNode::process_cuts`], and
    /// votes nobody re-asserts expire. Full-view transfers call this
    /// with the directory write lock held: it must not read the
    /// directory.
    pub(crate) fn refute(
        &mut self,
        ctx: &mut Context,
        node: NodeId,
        inc: u64,
        fresh: bool,
    ) -> bool {
        let Some(refuted) = self.evidence.refute(node, inc, fresh, ctx.now()) else {
            return false;
        };
        if refuted.decisive {
            self.cuts.forget(node);
        }
        ctx.emit(ProtocolEvent::SuspicionRefuted { subject: node.0 });
        true
    }

    /// A relayed record of `node` at `inc` (a `Join` event, a snapshot
    /// row) refutes an open suspicion where
    /// [`Evidence::vouches`](crate::evidence::Evidence::vouches) says so
    /// — as history, not as fresh proof.
    pub(crate) fn record_vouches(&mut self, ctx: &mut Context, node: NodeId, inc: u64) {
        if self.evidence.vouches(node, inc) {
            self.refute(ctx, node, inc, false);
        }
    }

    /// An unrefuted suspicion (or a stable cut) becomes a removal.
    fn confirm(&mut self, ctx: &mut Context, peer: NodeId, level: u8, evidence: Declared) {
        self.evidence.close(peer);
        ctx.emit(ProtocolEvent::SuspicionConfirmed { subject: peer.0 });
        self.declare_peer_dead(ctx, peer, level, evidence);
    }

    /// Record one cut-detection vote; returns whether it was new (worth
    /// relaying). A first vote against a subject also arms an advisory
    /// suspicion, so the strict oracle's suspect-before-remove ordering
    /// holds and the refutation machinery clears cut state on proof of
    /// life.
    pub(crate) fn record_cut_report(
        &mut self,
        ctx: &mut Context,
        vote: Vote,
        reporter: NodeId,
    ) -> bool {
        if !self.cuts.record(vote, reporter, ctx.now()) {
            return false;
        }
        ctx.emit(ProtocolEvent::CutReport {
            subject: vote.subject.0,
            incarnation: vote.incarnation,
            reporter: reporter.0,
        });
        self.arm(
            ctx,
            vote.subject,
            vote.incarnation,
            vote.level,
            Raiser::Relayed,
        );
        true
    }

    // ------------------------------------------------- local detection

    /// A peer stopped being heard in our level-`level` group. What that
    /// turns into is [`OnTimeout`]: the paper's immediate removal, a
    /// refutable suspicion confirmed by
    /// [`MembershipNode::process_suspicions`] if no proof of life
    /// arrives within the window, or one `Alert` vote.
    pub(crate) fn handle_peer_timeout(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        // Still heard elsewhere? Then it is not dead, we just fell out of
        // one shared channel (e.g. it abdicated a leadership).
        if self.heard_anywhere(peer) {
            return;
        }
        // The peer just left group coverage: entries it covered may now be
        // catch-all eligible, so re-arm the throttled scan.
        self.next_catchall = 0;
        match self.on_timeout {
            OnTimeout::Remove => self.declare_peer_dead(ctx, peer, level, Declared::Detector),
            OnTimeout::Suspect => self.raise_suspicion(ctx, peer, level),
            OnTimeout::Vote => self.report_cut(ctx, peer, level),
        }
    }

    /// The incarnation of `peer` an accusation of ours would name; when
    /// its entry is already gone there is nothing to accuse.
    fn accusable(&mut self, peer: NodeId) -> Option<u64> {
        let inc = self.directory.read(|d| d.get(peer).map(|e| e.incarnation));
        if inc.is_none() {
            self.seqs.forget(peer);
        }
        inc
    }

    /// Enter the refutable `Suspect` state instead of removing, and tell
    /// the tree.
    fn raise_suspicion(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        if self.evidence.own_open(peer) {
            return; // already suspected by our own detector
        }
        let Some(inc) = self.accusable(peer) else {
            return;
        };
        let window = self.cfg.suspicion(level);
        self.arm(ctx, peer, inc, level, Raiser::OwnDetector(window));
        let levels = self.relay_levels(level);
        self.relay_events(ctx, vec![MemberEvent::Suspect(peer, inc)], levels);
    }

    /// Cut-detection mode: we do not arm a removal of our own — we
    /// record and multicast one `Alert` vote and leave the removal to
    /// [`MembershipNode::process_cuts`].
    fn report_cut(&mut self, ctx: &mut Context, peer: NodeId, level: u8) {
        let Some(incarnation) = self.accusable(peer) else {
            return;
        };
        let vote = Vote {
            subject: peer,
            incarnation,
            level,
        };
        if self.record_cut_report(ctx, vote, self.me) {
            self.flood_vote(ctx, vote);
        }
    }

    /// Multicast our own vote into the detecting group itself (so
    /// co-observers can aggregate it) plus the usual upward/led relay set.
    fn flood_vote(&mut self, ctx: &mut Context, vote: Vote) {
        let mut levels = self.relay_levels(vote.level);
        levels.push(vote.level);
        let alert = MemberEvent::Alert {
            subject: vote.subject,
            incarnation: vote.incarnation,
            reporter: self.me,
        };
        self.relay_events(ctx, vec![alert], levels);
    }

    /// Confirmed death of `peer` (suspicion window expired unrefuted, a
    /// stable cut, or the suspicion layer is disabled): remove it, and
    /// deal with the subtree it may have been relaying. The death is
    /// recorded whether or not the directory still held `peer`.
    fn declare_peer_dead(
        &mut self,
        ctx: &mut Context,
        peer: NodeId,
        level: u8,
        evidence: Declared,
    ) {
        let now = ctx.now();
        let mut events: Vec<MemberEvent> = Vec::new();

        // Direct death: remove from the directory.
        let inc = self.directory.read(|d| d.get(peer).map(|e| e.incarnation));
        let removed = inc.is_some_and(|inc| {
            self.directory.update(|d| {
                let changed = d.apply_leave(peer, inc, now).changed();
                (changed, changed)
            })
        });
        ctx.emit(ProtocolEvent::DeathDeclared {
            subject: peer.0,
            incarnation: inc.unwrap_or(0),
            evidence,
            removed,
        });
        if let (true, Some(inc)) = (removed, inc) {
            events.push(MemberEvent::Leave(peer, inc));
        }

        // Timeout protocol: a dead node detected at level > 0 used to
        // take down everything it relayed to us (switch/partition
        // detection). With a quarantine window the subtree is instead
        // held in escrow for a successor to re-vouch; only an expired
        // quarantine purges. At level 0 the relayed entries survive
        // either way — the backup leader re-stamps them after takeover.
        if level > 0 {
            if self.cfg.quarantine_window > 0 {
                self.quarantine_subtree(ctx, peer);
            } else {
                for r in self.purge_relayed_by(peer) {
                    ctx.emit(ProtocolEvent::Removed {
                        subject: r.node.0,
                        incarnation: r.incarnation,
                        cause: Cause::Relayer,
                        source: Some(peer.0),
                    });
                    events.push(MemberEvent::Leave(r.node, r.incarnation));
                    self.seqs.forget(r.node);
                }
            }
        }

        self.seqs.forget(peer);
        let levels = self.relay_levels(level);
        self.relay_events(ctx, events, levels);
    }

    fn purge_relayed_by(&mut self, relayer: NodeId) -> Vec<NodeRecord> {
        self.directory.update(|d| {
            let v = d.purge_relayed_by(relayer);
            (!v.is_empty(), v)
        })
    }

    /// Subtree quarantine: hold everything the dead `relayer` vouched
    /// for in the quarantine book instead of purging it, and tell the
    /// rest of the tree the subtree is in doubt, so observers that later
    /// apply our purge's `Leave`s saw the suspicion first.
    fn quarantine_subtree(&mut self, ctx: &mut Context, relayer: NodeId) {
        let members: Vec<(NodeId, u64)> = self.directory.read(|d| {
            d.entries()
                .filter(|e| e.provenance == Provenance::Relayed(relayer))
                .map(|e| (e.node, e.incarnation))
                .collect()
        });
        if members.is_empty() {
            return;
        }
        ctx.emit(ProtocolEvent::SubtreeQuarantined {
            relayer: relayer.0,
            members: members.len() as u32,
        });
        let mut events = Vec::with_capacity(members.len());
        for &(m, inc) in &members {
            ctx.emit(ProtocolEvent::QuarantineSuspected {
                subject: m.0,
                incarnation: inc,
                relayer: relayer.0,
            });
            events.push(MemberEvent::Suspect(m, inc));
        }
        self.quarantine.escrow(
            relayer,
            members.iter().map(|&(m, _)| m).collect(),
            ctx.now() + self.cfg.quarantine_window,
        );
        let levels = self.relay_levels_all();
        self.relay_events(ctx, events, levels);
    }

    // ------------------------------------------- sweep-time verdicts

    /// Confirm unrefuted own-detector suspicions whose
    /// (distress-stretched) window has passed; the evidence book ages
    /// out the rest of its bookkeeping.
    pub(crate) fn process_suspicions(&mut self, ctx: &mut Context) {
        if self.evidence.is_idle() {
            return;
        }
        let now = ctx.now();
        let stretch = self.distress_stretch(now);
        for (peer, incarnation, level) in self.evidence.sweep(now, stretch) {
            let dir_inc = self.directory.read(|d| d.get(peer).map(|e| e.incarnation));
            match dir_inc {
                // Already removed (a relayed Leave beat us to it).
                None => self.evidence.close(peer),
                // Back among the living (or reborn at a higher
                // incarnation): refutation wins.
                Some(inc) if self.heard_anywhere(peer) || inc > incarnation => {
                    self.refute(ctx, peer, inc.max(incarnation), true);
                }
                Some(_) => self.confirm(ctx, peer, level, Declared::Detector),
            }
        }
    }

    /// Sweep-time cut processing: refute subjects we can still hear,
    /// keep our own votes asserted, let the book expire votes nobody
    /// re-asserts, and — when this node removes by cut detection —
    /// apply the stable cut as one batched view change.
    pub(crate) fn process_cuts(&mut self, ctx: &mut Context) {
        if self.cuts.is_empty() {
            return;
        }
        let now = ctx.now();
        // Fresh direct liveness is counter-evidence, not a vote: clear
        // the subject's reports and refute on its behalf.
        let alive: Vec<(NodeId, u64)> = self
            .cuts
            .accused()
            .filter(|&(n, _)| self.heard_recently(n, now))
            .collect();
        for (n, inc) in alive {
            self.cuts.forget(n);
            if self.refute(ctx, n, inc, true) {
                if let Some(rec) = self.proof_of_life(n, 0) {
                    let levels = self.relay_levels_all();
                    self.relay_events(ctx, vec![MemberEvent::Refute(rec)], levels);
                }
            }
        }
        for vote in self.cuts.tend(self.me, now) {
            self.flood_vote(ctx, vote);
        }
        if self.on_timeout != OnTimeout::Vote {
            return; // aggregation hygiene only; removal stays timeout-driven
        }
        let ready = self.cuts.stable_cut(now, |level| {
            let peers = self.groups.get(level as usize).and_then(|g| g.as_ref());
            1 + peers.map_or(0, |g| g.peers().len())
        });
        if ready.is_empty() {
            return;
        }
        ctx.emit(ProtocolEvent::CutBatch {
            subjects: ready.len() as u32,
        });
        for (n, level) in ready {
            self.cuts.forget(n);
            self.confirm(ctx, n, level, Declared::Cut);
        }
    }

    /// Sweep-time quarantine processing: lift quarantines whose relayer
    /// returned, purge what is still attributed to those whose deadline
    /// passed.
    pub(crate) fn process_quarantines(&mut self, ctx: &mut Context) {
        if self.quarantine.is_empty() {
            return;
        }
        let now = ctx.now();
        for relayer in self.quarantine.relayers() {
            let back = self.directory.read(|d| d.contains(relayer));
            let (members, purged) = match self.quarantine.settle(relayer, back, now) {
                None => continue,
                Some(Settled::Lifted(members)) => {
                    ctx.emit(ProtocolEvent::QuarantineLifted {
                        relayer: relayer.0,
                        members: members.len() as u32,
                    });
                    (members, Vec::new())
                }
                Some(Settled::Expired(members)) => (members, self.purge_relayed_by(relayer)),
            };
            let purged_ids: HashSet<NodeId> = purged.iter().map(|r| r.node).collect();
            let mut events = Vec::new();
            for r in &purged {
                ctx.emit(ProtocolEvent::Removed {
                    subject: r.node.0,
                    incarnation: r.incarnation,
                    cause: Cause::Quarantine,
                    source: Some(relayer.0),
                });
                events.push(MemberEvent::Leave(r.node, r.incarnation));
                self.seqs.forget(r.node);
                self.evidence.close(r.node);
            }
            for m in members {
                if !purged_ids.contains(&m) && self.directory.read(|d| d.contains(m)) {
                    // Never orphaned, or re-vouched.
                    ctx.emit(ProtocolEvent::QuarantineCleared {
                        subject: m.0,
                        relayer: relayer.0,
                    });
                }
            }
            let levels = self.relay_levels_all();
            self.relay_events(ctx, events, levels);
        }
    }

    /// Catch-all expiry for direct entries no longer covered by any
    /// group (rare; e.g. heard during a transient overlap). The scan
    /// walks the whole directory, so it only runs when an entry could
    /// actually have rotted: `next_catchall` is re-armed from the
    /// earliest surviving deadline, capped by `top_timeout` (coverage
    /// changes also force a rescan via `next_catchall = 0`).
    pub(crate) fn expire_uncovered(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        if now < self.next_catchall {
            return;
        }
        let top_timeout = 2 * self.cfg.timeout(self.cfg.top_level());
        let in_groups: std::collections::HashSet<NodeId> = self
            .groups
            .iter()
            .flatten()
            .flat_map(|g| g.peers().keys().copied())
            .collect();
        // Relayed entries must be re-vouched by *somebody's* digest
        // within a few anti-entropy periods, or they rot: the last line
        // of defense against ghost members that no live node actually
        // hears. Disabled together with anti-entropy (paper mode keeps
        // relayed lifetimes purely relayer-bound).
        let relayed_rot = if self.cfg.anti_entropy_period > 0 {
            6 * self.cfg.anti_entropy_period
        } else {
            u64::MAX
        };
        let (removed, next_due) = self.directory.update(|d| {
            let (v, next) = d.expire_with_next(now, |e| match e.provenance {
                Provenance::Local => u64::MAX,
                Provenance::Relayed(_) => relayed_rot,
                Provenance::Direct => {
                    if in_groups.contains(&e.node) {
                        u64::MAX // group sweeps own this entry
                    } else {
                        top_timeout
                    }
                }
            });
            (!v.is_empty(), (v, next))
        });
        self.next_catchall = next_due
            .min(now.saturating_add(top_timeout))
            .max(now.saturating_add(self.cfg.sweep_period));
        let mut events = Vec::new();
        for r in removed {
            ctx.emit(ProtocolEvent::Removed {
                subject: r.node.0,
                incarnation: r.incarnation,
                cause: Cause::Expiry,
                source: None,
            });
            events.push(MemberEvent::Leave(r.node, r.incarnation));
        }
        let levels = self.relay_levels(u8::MAX); // lateral only: groups we lead
        self.relay_events(ctx, events, levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MembershipConfig, RemovalDiscipline};
    use crate::node::tests::{
        drive, emitted, from_leader, hear, sync_response, synced_node, synced_node_with, update,
        LEADER,
    };
    use tamp_netsim::telemetry::REMOVAL_KINDS;
    use tamp_netsim::Actor;
    use tamp_topology::SECS;
    use tamp_wire::{Message, SyncResponse};

    const DEAD: NodeId = NodeId(8);

    /// What `synced_node` holds on [`LEADER`]'s word.
    const RELAYED: [u32; 6] = [1, 2, 4, 6, 7, 8];

    fn removed(subject: u32, cause: Cause, source: Option<NodeId>) -> ProtocolEvent {
        ProtocolEvent::Removed {
            subject,
            incarnation: 1,
            cause,
            source: source.map(|n| n.0),
        }
    }

    fn death(subject: NodeId, evidence: Declared) -> ProtocolEvent {
        ProtocolEvent::DeathDeclared {
            subject: subject.0,
            incarnation: 1,
            evidence,
            removed: true,
        }
    }

    #[test]
    fn an_unrefuted_suspicion_is_a_death_on_own_evidence() {
        let mut node = synced_node();
        drive(&mut node, 10 * SECS, |n, ctx| {
            n.handle_peer_timeout(ctx, DEAD, 0)
        });
        let fx = drive(&mut node, 15 * SECS, |n, ctx| n.process_suspicions(ctx));
        assert_eq!(
            emitted(&fx, &REMOVAL_KINDS),
            [death(DEAD, Declared::Detector)]
        );
        // A second word on a death the directory no longer holds is
        // still a declaration, and no removal.
        let fx = drive(&mut node, 16 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, DEAD, 0, Declared::Detector)
        });
        let again = ProtocolEvent::DeathDeclared {
            subject: DEAD.0,
            incarnation: 0,
            evidence: Declared::Detector,
            removed: false,
        };
        assert_eq!(emitted(&fx, &REMOVAL_KINDS), [again]);
    }

    #[test]
    fn a_stable_cut_is_a_death_on_the_cut_batch() {
        let mut node = synced_node_with(MembershipConfig {
            removal_discipline: RemovalDiscipline::CutDetection,
            ..MembershipConfig::default()
        });
        let fx = update(&mut node, SECS, 1, vec![alert(3), alert(4)]);
        let report = |reporter| ProtocolEvent::CutReport {
            subject: DEAD.0,
            incarnation: 1,
            reporter,
        };
        assert_eq!(emitted(&fx, &["cut-report"]), [report(3), report(4)]);
        let fx = drive(&mut node, 3 * SECS, |n, ctx| n.process_cuts(ctx));
        assert_eq!(
            emitted(&fx, &["cut-batch", "death-declared"]),
            [
                ProtocolEvent::CutBatch { subjects: 1 },
                death(DEAD, Declared::Cut)
            ]
        );
    }

    #[test]
    fn a_dead_relayer_without_quarantine_takes_its_subtree_with_it() {
        let mut node = synced_node_with(MembershipConfig {
            quarantine_window: 0,
            ..MembershipConfig::default()
        });
        let fx = drive(&mut node, 10 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, LEADER, 1, Declared::Detector)
        });
        let mut want = vec![death(LEADER, Declared::Detector)];
        want.extend(RELAYED.map(|m| removed(m, Cause::Relayer, Some(LEADER))));
        assert_eq!(emitted(&fx, &REMOVAL_KINDS), want);
        assert!(holds(&node, &[5]));
    }

    #[test]
    fn an_expired_quarantine_removes_on_the_relayers_account() {
        let mut node = synced_node();
        let window = node.cfg.quarantine_window;
        let fx = drive(&mut node, 10 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, LEADER, 1, Declared::Detector)
        });
        let doubted = RELAYED.map(|m| ProtocolEvent::QuarantineSuspected {
            subject: m,
            incarnation: 1,
            relayer: LEADER.0,
        });
        assert_eq!(emitted(&fx, &["quarantine-suspected"]), doubted);
        let fx = drive(&mut node, 10 * SECS + window, |n, ctx| {
            n.process_quarantines(ctx)
        });
        let want = RELAYED.map(|m| removed(m, Cause::Quarantine, Some(LEADER)));
        assert_eq!(emitted(&fx, &REMOVAL_KINDS), want);
    }

    #[test]
    fn an_entry_nobody_re_vouches_for_expires() {
        let mut node = synced_node();
        let rot = 6 * node.cfg.anti_entropy_period;
        let fx = drive(&mut node, 1 + rot, |n, ctx| n.expire_uncovered(ctx));
        // LEADER's own entry is direct and outside any group: it rots on
        // the catch-all's shorter clock, before its subtree does.
        let mut want = vec![removed(LEADER.0, Cause::Expiry, None)];
        want.extend(RELAYED.map(|m| removed(m, Cause::Expiry, None)));
        want.sort_by_key(|e| match e {
            ProtocolEvent::Removed { subject, .. } => *subject,
            _ => unreachable!(),
        });
        assert_eq!(emitted(&fx, &REMOVAL_KINDS), want);
    }

    fn alert(reporter: u32) -> MemberEvent {
        MemberEvent::Alert {
            subject: DEAD,
            incarnation: 1,
            reporter: NodeId(reporter),
        }
    }

    fn holds(node: &MembershipNode, ids: &[u32]) -> bool {
        let held: Vec<u32> = node
            .directory
            .read(|d| d.entries().map(|e| e.node.0).collect());
        held == ids
    }

    #[test]
    fn the_alert_floods_own_echo_keeps_the_votes_and_fresh_liveness_wipes_them() {
        let mut node = synced_node_with(MembershipConfig {
            removal_discipline: RemovalDiscipline::CutDetection,
            ..MembershipConfig::default()
        });
        update(&mut node, SECS, 1, vec![alert(3), alert(4)]);
        assert_eq!(node.cuts.votes(DEAD), 2);
        assert!(!node.evidence.is_idle(), "a first vote arms a suspicion");
        // The flood's echo: every directory still carries the dead
        // node's record at its last incarnation, and a sync snapshot (or
        // a replayed `Join`) re-vouches it within milliseconds. That
        // closes the advisory suspicion — and must not touch the votes
        // (PR 10), nor arm the Leave-blocker.
        let echo = sync_response(1..=8);
        drive(&mut node, SECS + 1, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &echo)
        });
        assert!(node.evidence.is_idle());
        assert_eq!(node.cuts.votes(DEAD), 2);
        assert!(!node.evidence.recently_refuted(DEAD, 1, SECS + 1));
        let replayed = MemberEvent::Join(tamp_wire::NodeRecord::new(DEAD, 1));
        update(&mut node, SECS + 2, 3, vec![replayed, alert(6)]);
        assert_eq!(node.cuts.votes(DEAD), 3);
        // Fresh direct liveness is decisive: votes and suspicion go.
        hear(&mut node, 2 * SECS, DEAD.0, false, 0);
        assert_eq!(node.cuts.votes(DEAD), 0);
        assert!(node.evidence.recently_refuted(DEAD, 1, 2 * SECS));
        // …and from then on an accusation is answered, not recorded.
        update(&mut node, 2 * SECS + 1, 5, vec![alert(7)]);
        assert!(node.cuts.is_empty());
    }

    #[test]
    fn an_expired_quarantine_purges_only_what_is_still_attributed_to_the_relayer() {
        let mut node = synced_node();
        let window = node.cfg.quarantine_window;
        drive(&mut node, 10 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, LEADER, 1, Declared::Detector)
        });
        assert!(holds(&node, &[1, 2, 4, 5, 6, 7, 8]), "held in escrow");
        // A successor re-vouches for 6 and 7 (and itself).
        let records = [2, 6, 7]
            .map(|i| tamp_wire::RelayedRecord {
                record: tamp_wire::NodeRecord::new(NodeId(i), 1).with_attr("rack", format!("r{i}")),
                relayed_by: None,
            })
            .to_vec();
        let revouch = Message::SyncResponse(SyncResponse {
            from: NodeId(2),
            latest_seq: 0,
            records,
        });
        let mut meta = from_leader(None);
        meta.src = tamp_topology::HostId(2);
        drive(&mut node, 12 * SECS, |n, ctx| {
            n.on_packet(ctx, meta, &revouch)
        });
        drive(&mut node, 10 * SECS + window - 1, |n, ctx| {
            n.process_quarantines(ctx)
        });
        assert!(holds(&node, &[1, 2, 4, 5, 6, 7, 8]), "purged early");
        drive(&mut node, 10 * SECS + window, |n, ctx| {
            n.process_quarantines(ctx)
        });
        assert!(holds(&node, &[2, 5, 6, 7]));
        assert!(node.quarantine.is_empty());
    }

    #[test]
    fn a_quarantine_lifts_untouched_when_the_relayer_is_back() {
        let mut node = synced_node();
        drive(&mut node, 10 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, LEADER, 1, Declared::Detector)
        });
        // A fast restart: the tombstone yields to the next incarnation.
        let reborn = MemberEvent::Join(tamp_wire::NodeRecord::new(LEADER, 2));
        update(&mut node, 11 * SECS, 1, vec![reborn]);
        drive(&mut node, 60 * SECS, |n, ctx| n.process_quarantines(ctx));
        assert!(holds(&node, &[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(node.quarantine.is_empty());
    }

    #[test]
    fn a_restart_resets_every_book() {
        let mut node = synced_node();
        update(&mut node, SECS, 1, vec![alert(3)]);
        drive(&mut node, 2 * SECS, |n, ctx| {
            n.declare_peer_dead(ctx, LEADER, 1, Declared::Detector);
            n.distress_stretch(ctx.now());
        });
        node.evidence.stretch(true, 2 * SECS);
        node.next_catchall = 50 * SECS;
        assert!(!node.cuts.is_empty() && !node.quarantine.is_empty());
        node.on_crash();
        drive(&mut node, 3 * SECS, |n, ctx| n.on_start(ctx));
        assert!(node.evidence.is_idle() && node.cuts.is_empty() && node.quarantine.is_empty());
        assert_eq!(
            node.evidence.stretch(false, 3 * SECS),
            1.0,
            "latch survived"
        );
        assert_eq!(node.next_catchall, 0);
    }
}
