//! The update handler (§3.1.2 update propagation + loss detection):
//! apply a relayed batch of membership events, one arm per kind of
//! claim, and forward exactly the events that had an effect here.
//!
//! An accusation (`Leave` / `Suspect` / `Alert`) meets evidence before
//! it meets the directory: one naming *us* is refuted by re-incarnating;
//! one naming a node we hold proof of life for is answered with that
//! proof. `Refute` and `Join` are the proof travelling the other way.

use crate::cuts::Vote;
use crate::evidence::Raiser;
use crate::node::MembershipNode;
use tamp_directory::Provenance;
use tamp_netsim::{Context, PacketMeta};
use tamp_wire::{MemberEvent, NodeId, UpdateMsg};

/// The subject and incarnation an event accuses, if it is an accusation.
fn accusation(ev: &MemberEvent) -> Option<(NodeId, u64)> {
    match *ev {
        MemberEvent::Leave(n, inc) | MemberEvent::Suspect(n, inc) => Some((n, inc)),
        MemberEvent::Alert {
            subject,
            incarnation,
            ..
        } => Some((subject, incarnation)),
        MemberEvent::Join(_) | MemberEvent::Refute(_) => None,
    }
}

/// What screening an event against the evidence decided.
enum Screened {
    /// Dealt with (answered, recorded or dropped): skip the directory.
    Done,
    /// Goes on to the directory; relays onward if it changes it — or,
    /// `true`, regardless: it cleared a suspicion here and may still
    /// have suspicions to clear further on.
    Apply(bool),
}

impl MembershipNode {
    pub(crate) fn handle_update(&mut self, ctx: &mut Context, meta: PacketMeta, u: &UpdateMsg) {
        if u.origin == self.me || u.events.is_empty() {
            return;
        }
        let arrival = meta
            .channel
            .and_then(|c| self.level_of_channel(c))
            .unwrap_or(0);
        let now = ctx.now();
        let newest = u.events.iter().map(|e| e.seq).max().unwrap();

        // Loss detection: if even the oldest piggybacked event leaves a
        // gap, the window cannot repair us — poll the origin for a full
        // directory image.
        if let Some(last) = self.seqs.last_applied(u.origin) {
            let oldest = u.events.iter().map(|e| e.seq).min().unwrap();
            if oldest > last + 1 {
                self.maybe_sync_poll(ctx, u.origin);
            }
        }

        let relayer = NodeId(meta.src.0);
        let mut effective: Vec<MemberEvent> = Vec::new();
        for ev in &u.events {
            // No staleness gate here: relay paths of different lengths
            // (plus delivery jitter) can reorder messages from one
            // origin, so a sequence high-water mark must not suppress
            // events. Idempotence does the deduplication — the directory
            // is incarnation-ordered, a replayed event comes back
            // `Ignored`, and only *effective* events are forwarded, which
            // is what terminates the relay flood. The sequence numbers
            // exist for gap detection (sync polling) above.
            let ev = &ev.event;
            let Screened::Apply(cleared_suspicion) =
                self.screen(ctx, ev, relayer, arrival, &mut effective)
            else {
                continue;
            };
            let provenance = match ev {
                MemberEvent::Join(r) | MemberEvent::Refute(r) if r.node == relayer => {
                    Provenance::Direct
                }
                _ => Provenance::Relayed(relayer),
            };
            let (changed, was_known) = self.directory.update(|d| {
                let was = d.contains(ev.subject());
                let a = d.apply_event(ev, provenance, now);
                (a.changed(), (a.changed(), was))
            });
            if changed || cleared_suspicion {
                // Anything that changed the directory — joins, leaves,
                // *and* same-incarnation content updates (the paper's
                // update_value flow) — relays onward. Observations
                // track membership transitions only.
                effective.push(ev.clone());
            }
            if changed {
                match ev {
                    MemberEvent::Leave(..) => ctx.observe_removed(ev.subject()),
                    MemberEvent::Join(_) | MemberEvent::Refute(_) if !was_known => {
                        ctx.observe_added(ev.subject())
                    }
                    _ => {}
                }
            }
        }
        self.seqs.advance(u.origin, newest);

        // Relay onward, *re-originated* under our own sequence numbers:
        // within every group, updates then carry the direct sender's
        // contiguous seqs, so the sender's heartbeat (advertising its
        // latest seq) detects losses and "the receiver polls the
        // sender". Only events that actually changed our directory are
        // relayed, which terminates the flood (a cycle re-delivers them
        // as no-ops).
        let levels = self.relay_levels(arrival);
        self.relay_events(ctx, effective, levels);
        self.update_probe();
    }

    /// Hold one event against the evidence before the directory sees it.
    /// Answers and accusations worth relaying go to `effective`.
    fn screen(
        &mut self,
        ctx: &mut Context,
        ev: &MemberEvent,
        relayer: NodeId,
        arrival: u8,
        effective: &mut Vec<MemberEvent>,
    ) -> Screened {
        let now = ctx.now();
        // An accusation naming us at a current-or-future incarnation is
        // a false positive — refute by re-incarnating.
        if let Some((_, inc)) = accusation(ev).filter(|&(n, _)| n == self.me) {
            effective.extend(self.refute_self_accusation(ctx, inc));
            return Screened::Done;
        }
        match *ev {
            MemberEvent::Leave(n, inc) => {
                // Refutation always wins: a silence-based removal at an
                // incarnation we saw alive after suspecting is stale
                // news — answer it with the proof instead of applying it.
                if self.evidence.recently_refuted(n, inc, now) {
                    effective.extend(self.proof_of_life(n, inc).map(MemberEvent::Refute));
                    return Screened::Done;
                }
                // Fresh direct evidence beats a relayed removal, just as
                // it beats a relayed suspicion: under an asymmetric
                // (gray) fabric fault, a remote group can "confirm" the
                // death of a node we still hear heartbeating on the local
                // segment. Applying that removal would be a false removal
                // attributable to asymmetry alone — refute on the node's
                // behalf instead, at an incarnation that beats the claim.
                // Exception: the subject announcing its *own* leave
                // (graceful departure) is definitive — heartbeats were
                // fresh right up to the announcement.
                let proof = (relayer != n && self.heard_recently(n, now))
                    .then(|| self.proof_of_life(n, inc))
                    .flatten();
                if let Some(rec) = proof {
                    // Arm the Leave-blocker (fresh direct liveness is
                    // proof) so replays of this accusation are answered
                    // by the branch above instead of being re-relayed —
                    // that bounds the flood.
                    self.evidence.remember_proof(n, rec.incarnation, now);
                    effective.push(MemberEvent::Refute(rec));
                    // Still relay the accusation itself: our same-
                    // incarnation proof cannot beat the death claim at
                    // observers with no direct evidence. Only the
                    // subject's own higher re-incarnation can, and the
                    // subject must see the claim to issue it.
                    effective.push(ev.clone());
                    return Screened::Done;
                }
                // A removal consumes any open suspicion and any pending
                // cut votes: the origin confirmed what we (or the tree)
                // suspected.
                self.evidence.close(n);
                self.cuts.forget(n);
                Screened::Apply(false)
            }
            MemberEvent::Suspect(n, inc) => {
                // Adopt as an advisory suspicion (we never confirm it
                // ourselves — the origin group does) so that a later
                // relayed `Leave` finds the suspicion already observed
                // here, and relay it onward exactly once.
                if !self.answered_with_proof(n, inc, now, effective)
                    && self.held_at_or_before(n, inc)
                    && self.arm(ctx, n, inc, arrival, Raiser::Relayed)
                {
                    effective.push(ev.clone());
                }
                Screened::Done
            }
            MemberEvent::Alert {
                subject,
                incarnation,
                reporter,
            } => {
                // Aggregate the vote; a (subject, reporter) pair we had
                // not seen travels onward exactly once, which terminates
                // the flood.
                let vote = Vote {
                    subject,
                    incarnation,
                    level: arrival,
                };
                if !self.answered_with_proof(subject, incarnation, now, effective)
                    && self.held_at_or_before(subject, incarnation)
                    && self.record_cut_report(ctx, vote, reporter)
                {
                    effective.push(ev.clone());
                }
                Screened::Done
            }
            // Proof of life: clears local suspicion state. The record
            // itself flows into the directory.
            MemberEvent::Refute(ref r) => {
                let cleared = r.node != self.me && self.refute(ctx, r.node, r.incarnation, true);
                Screened::Apply(cleared)
            }
            MemberEvent::Join(ref r) => {
                self.record_vouches(ctx, r.node, r.incarnation);
                Screened::Apply(false)
            }
        }
    }

    /// An accusation (leave / suspect / cut-detection alert) names us at
    /// a current-or-future incarnation — a false positive. Refute by
    /// re-incarnating (SWIM-style: the refutation must carry a strictly
    /// higher incarnation to beat the accusation everywhere, not just
    /// here) and return the `Refute` event to relay.
    fn refute_self_accusation(&mut self, ctx: &mut Context, inc: u64) -> Option<MemberEvent> {
        if inc < self.incarnation {
            return None;
        }
        self.incarnation = inc + 1;
        self.rebuild_record();
        self.publish_own_record(ctx);
        Some(MemberEvent::Refute(self.record.clone()))
    }

    /// Counter-evidence beats a relayed `Suspect` or `Alert`: fresh
    /// direct liveness (the group-leader path — we hear the node, the
    /// accuser cannot) or a refutation we already hold answers with the
    /// directory's proof instead of recording the accusation.
    fn answered_with_proof(
        &self,
        n: NodeId,
        inc: u64,
        now: u64,
        effective: &mut Vec<MemberEvent>,
    ) -> bool {
        let answered = self.heard_recently(n, now) || self.evidence.recently_refuted(n, inc, now);
        if answered {
            effective.extend(self.proof_of_life(n, inc).map(MemberEvent::Refute));
        }
        answered
    }

    /// Do we hold `n` at an incarnation the accusation at `inc` covers?
    fn held_at_or_before(&self, n: NodeId, inc: u64) -> bool {
        let known_at = self.directory.read(|d| d.get(n).map(|e| e.incarnation));
        known_at.is_some_and(|k| k <= inc)
    }
}
