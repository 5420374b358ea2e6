//! The evidence book: everything this node holds *against* a member
//! short of removing it, and everything it holds in the member's favour.
//!
//! Three pieces of state, all private to this module and written only
//! here (docs/ROBUSTNESS.md):
//!
//! * **suspicions** — subject timed out (own detector) or was named by a
//!   relayed `Suspect` / `Alert` (advisory); cancelled by proof of life,
//!   confirmed by the node when an own-detector one outlives its window;
//! * **refutation memory** — "we saw it alive at incarnation ≥ i, this
//!   recently": the Leave-blocker that makes refutation always win;
//! * **the distress latch** — keeps the loss-degradation stretch engaged
//!   across the raw signal's duty cycle.
//!
//! The book decides; [`MembershipNode`](crate::MembershipNode) turns its
//! answers into counters, events and relays, and carries a decisive
//! refutation over to the cut book.

use crate::config::{MembershipConfig, DEGRADE_MAX_STRETCH};
use std::collections::BTreeMap;
use tamp_topology::Nanos;
use tamp_wire::NodeId;

/// One active suspicion: the subject timed out (or a relayed accusation
/// named it) but has not yet been removed. A refutation — proof of life
/// at `incarnation` or higher — cancels it; only an unrefuted
/// own-detector suspicion that survives its level's window is confirmed.
#[derive(Debug, Clone, Copy)]
struct Suspicion {
    /// The incarnation under suspicion. Evidence at a lower incarnation
    /// neither confirms nor refutes.
    incarnation: u64,
    /// Group level whose detector raised it (picks the window and the
    /// relay set on confirmation).
    level: u8,
    since: Nanos,
    /// Adopted from a relayed `Suspect` / `Alert` rather than our own
    /// detector: we track it for refutation bookkeeping but never confirm
    /// it ourselves — confirmation is the origin group's call.
    advisory: bool,
}

/// Who is arming a suspicion.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Raiser {
    /// Our own failure detector. Replaces whatever suspicion is held:
    /// the caller has checked [`Evidence::own_open`].
    OwnDetector,
    /// A relayed accusation, adopted as advisory. Refused when the
    /// subject is already suspected at this incarnation or a later one.
    Relayed,
}

/// A suspicion was open and the proof cleared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refuted {
    /// The proof was fresh (direct liveness, an explicit `Refute`) or a
    /// strictly newer incarnation: it went into refutation memory, and
    /// the caller must clear the subject's cut votes too. Same-
    /// incarnation vouching is history, not proof of life: every
    /// directory still carries a just-died node's record at its last
    /// incarnation, so the accusation flood's own echo (sync snapshots,
    /// piggyback backfill) re-vouches the subject within milliseconds —
    /// that may close an advisory suspicion, but arming the Leave-blocker
    /// or wiping the vote book on it would let a stale replay veto the
    /// genuine removal travelling right behind it.
    pub decisive: bool,
}

#[derive(Default)]
pub(crate) struct Evidence {
    suspicions: BTreeMap<NodeId, Suspicion>,
    /// Subject → (refuted-at incarnation, when).
    refuted: BTreeMap<NodeId, (u64, Nanos)>,
    /// The loss-degradation stretch stays engaged until this instant.
    distress_until: Nanos,
    /// How long a refutation is remembered: the longest detection span,
    /// and never less than two heartbeat periods — at `max_loss: 0` the
    /// span is zero, and a Leave-blocker that holds for no time answers
    /// and re-relays every copy of the `Leave` it meets.
    hold: Nanos,
    /// How long one raw-positive distress reading holds the latch.
    latch: Nanos,
    /// Confirmation window per detector level,
    /// [`MembershipConfig::suspicion`]; the loss-degradation stretch is
    /// applied at check time so it tracks *current* distress.
    windows: Vec<Nanos>,
}

impl Evidence {
    pub(crate) fn new(cfg: &MembershipConfig) -> Self {
        Evidence {
            hold: cfg.timeout(cfg.top_level()).max(2 * cfg.heartbeat_period),
            latch: 3 * cfg.heartbeat_period,
            windows: (0..=cfg.top_level()).map(|l| cfg.suspicion(l)).collect(),
            ..Evidence::default()
        }
    }

    /// A restart loses all soft state.
    pub(crate) fn reset(&mut self) {
        *self = Evidence {
            hold: self.hold,
            latch: self.latch,
            windows: std::mem::take(&mut self.windows),
            ..Evidence::default()
        };
    }

    /// Is `peer` under a suspicion our own detector raised?
    pub(crate) fn own_open(&self, peer: NodeId) -> bool {
        self.suspicions.get(&peer).is_some_and(|s| !s.advisory)
    }

    /// Arm a suspicion of `subject` at `inc`; false when `by`'s rule
    /// refuses it (see [`Raiser`]).
    pub(crate) fn arm(
        &mut self,
        subject: NodeId,
        inc: u64,
        level: u8,
        now: Nanos,
        by: Raiser,
    ) -> bool {
        let held = self.suspicions.get(&subject);
        let advisory = match by {
            Raiser::OwnDetector => false,
            Raiser::Relayed if held.is_some_and(|s| s.incarnation >= inc) => return false,
            Raiser::Relayed => true,
        };
        self.suspicions.insert(
            subject,
            Suspicion {
                incarnation: inc,
                level,
                since: now,
                advisory,
            },
        );
        true
    }

    /// Resolve an open suspicion of `node` by proof of life at `inc`;
    /// `None` when there is none, or the proof is stale (an older
    /// incarnation's liveness). `fresh`: direct liveness or an explicit
    /// `Refute`, as opposed to a relayed record vouching.
    pub(crate) fn refute(
        &mut self,
        node: NodeId,
        inc: u64,
        fresh: bool,
        now: Nanos,
    ) -> Option<Refuted> {
        let s = *self.suspicions.get(&node)?;
        if inc < s.incarnation {
            return None;
        }
        self.suspicions.remove(&node);
        let decisive = fresh || inc > s.incarnation;
        if decisive {
            self.refuted.insert(node, (inc, now));
        }
        Some(Refuted { decisive })
    }

    /// Does a relayed record of `node` at `inc` (a `Join`, a snapshot
    /// row) refute the open suspicion? A higher incarnation always — a
    /// rebirth; the same incarnation only for an advisory one (the
    /// relayer vouches; the origin group keeps the confirmation call
    /// for its own suspicions, and piggyback windows replay recent joins
    /// routinely — a stale echo must not mask a real death).
    pub(crate) fn vouches(&self, node: NodeId, inc: u64) -> bool {
        self.suspicions
            .get(&node)
            .is_some_and(|s| inc > s.incarnation || (s.advisory && inc == s.incarnation))
    }

    /// Did we refute a suspicion of `node` at incarnation ≥ `inc`
    /// recently enough that a silence-based accusation at `inc` must
    /// lose?
    pub(crate) fn recently_refuted(&self, node: NodeId, inc: u64, now: Nanos) -> bool {
        self.refuted
            .get(&node)
            .is_some_and(|&(ri, at)| ri >= inc && now.saturating_sub(at) <= self.hold)
    }

    /// Arm the Leave-blocker on fresh direct liveness without an open
    /// suspicion, so replays of the accusation just answered are
    /// answered from memory instead of being re-relayed.
    pub(crate) fn remember_proof(&mut self, node: NodeId, inc: u64, now: Nanos) {
        self.refuted.insert(node, (inc, now));
    }

    /// Drop the suspicion of `node` without a verdict of ours: a removal
    /// consumed it.
    pub(crate) fn close(&mut self, node: NodeId) {
        self.suspicions.remove(&node);
    }

    /// The current stretch factor for timeouts and suspicion windows,
    /// given this instant's raw distress reading. The raw signal has a
    /// duty cycle under partial loss (heartbeats that do get through
    /// reset peers' silence), and the confirmation check runs every
    /// sweep — without a latch, the first sweep that catches the signal
    /// off would confirm a suspicion the stretched window should still
    /// be holding open. Each raw-positive reading arms the latch for
    /// three heartbeat periods.
    pub(crate) fn stretch(&mut self, raw_distress: bool, now: Nanos) -> f64 {
        if raw_distress {
            self.distress_until = now + self.latch;
        }
        if now < self.distress_until {
            DEGRADE_MAX_STRETCH
        } else {
            1.0
        }
    }

    /// Nothing for the sweep to do.
    pub(crate) fn is_idle(&self) -> bool {
        self.suspicions.is_empty() && self.refuted.is_empty()
    }

    /// Sweep-time upkeep: age out refutation memory, quietly drop
    /// advisory suspicions nobody ever resolved (the `Refute` / `Leave`
    /// was lost, or the origin died too) after a generous hold, and
    /// report the own-detector suspicions whose (`stretch`ed) window has
    /// passed, as `(peer, suspected incarnation, detector level)` in
    /// `NodeId` order.
    pub(crate) fn sweep(&mut self, now: Nanos, stretch: f64) -> Vec<(NodeId, u64, u8)> {
        let hold = self.hold;
        self.refuted
            .retain(|_, &mut (_, at)| now.saturating_sub(at) <= hold);
        self.suspicions
            .retain(|_, s| !(s.advisory && now.saturating_sub(s.since) > 6 * hold));
        self.suspicions
            .iter()
            .filter(|(_, s)| {
                let window = self.windows[s.level as usize];
                !s.advisory && now.saturating_sub(s.since) >= (window as f64 * stretch) as u64
            })
            .map(|(&peer, s)| (peer, s.incarnation, s.level))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    const N: NodeId = NodeId(7);

    fn book() -> Evidence {
        Evidence::new(&MembershipConfig::default())
    }

    #[test]
    fn replayed_join_clears_an_advisory_suspicion_without_arming_the_leave_blocker() {
        let mut e = book();
        assert!(e.arm(N, 4, 1, SECS, Raiser::Relayed));
        // The same incarnation out of a peer's backfill log vouches for
        // an advisory suspicion — and is history, not proof of life.
        assert!(e.vouches(N, 4));
        assert_eq!(
            e.refute(N, 4, false, 2 * SECS),
            Some(Refuted { decisive: false })
        );
        assert!(!e.recently_refuted(N, 4, 2 * SECS), "Leave-blocker armed");
        assert!(e.is_idle());

        // An own-detector suspicion is not the relayer's call…
        assert!(e.arm(N, 4, 0, 3 * SECS, Raiser::OwnDetector));
        assert!(!e.vouches(N, 4));
        // …but a rebirth refutes it, decisively.
        assert!(e.vouches(N, 5));
        assert_eq!(
            e.refute(N, 5, false, 4 * SECS),
            Some(Refuted { decisive: true })
        );
        assert!(e.recently_refuted(N, 5, 4 * SECS));
        assert!(e.recently_refuted(N, 4, 4 * SECS), "covers earlier lives");
        assert!(!e.recently_refuted(N, 6, 4 * SECS));
    }

    #[test]
    fn a_proof_is_remembered_for_a_heartbeat_period_even_at_zero_max_loss() {
        let cfg = MembershipConfig {
            max_loss: 0,
            ..MembershipConfig::default()
        };
        assert_eq!(cfg.timeout(cfg.top_level()), 0);
        let mut e = Evidence::new(&cfg);
        e.remember_proof(N, 2, 10 * SECS);
        let later = 10 * SECS + cfg.heartbeat_period;
        e.sweep(later, 1.0);
        assert!(e.recently_refuted(N, 2, later), "Leave-blocker let go");
    }

    #[test]
    fn stale_proof_refutes_nothing() {
        let mut e = book();
        assert!(e.arm(N, 4, 0, SECS, Raiser::OwnDetector));
        assert!(!e.vouches(N, 3));
        assert_eq!(e.refute(N, 3, true, 2 * SECS), None);
        assert!(e.own_open(N), "an earlier life's heartbeat cleared it");
        assert!(!e.recently_refuted(N, 3, 2 * SECS));
        assert_eq!(e.refute(NodeId(8), 9, true, 2 * SECS), None, "no suspicion");
    }

    #[test]
    fn only_a_refuted_own_detector_suspicion_counts_as_a_flap() {
        let mut e = book();
        assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector));
        // An advisory arm at the suspected incarnation is refused.
        assert!(e.own_open(N));
        assert!(!e.arm(N, 1, 0, 4 * SECS, Raiser::Relayed));
        // An own-detector arm takes over an advisory suspicion.
        e.close(N);
        assert!(e.arm(N, 1, 2, 4 * SECS, Raiser::Relayed));
        assert!(!e.own_open(N));
        assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector));
        assert!(e.own_open(N));
    }

    #[test]
    fn distress_latch_holds_three_heartbeat_periods_past_the_last_positive_reading() {
        let mut e = book();
        assert_eq!(e.stretch(false, 10 * SECS), 1.0);
        assert_eq!(e.stretch(true, 10 * SECS), DEGRADE_MAX_STRETCH);
        // The raw signal flickers off: the latch holds…
        assert_eq!(e.stretch(false, 12 * SECS), DEGRADE_MAX_STRETCH);
        // …a positive reading re-arms it from that reading…
        assert_eq!(e.stretch(true, 12 * SECS), DEGRADE_MAX_STRETCH);
        assert_eq!(e.stretch(false, 15 * SECS - 1), DEGRADE_MAX_STRETCH);
        // …and three heartbeat periods after the last one it lets go.
        assert_eq!(e.stretch(false, 15 * SECS), 1.0);
    }

    #[test]
    fn sweep_reports_due_own_suspicions_in_id_order_and_ages_the_rest_out() {
        let mut e = book();
        let hold = e.hold;
        for id in [9, 3, 5] {
            assert!(e.arm(NodeId(id), 1, 1, 0, Raiser::OwnDetector));
        }
        assert!(e.arm(N, 1, 0, 0, Raiser::Relayed));
        assert!(e.sweep(3 * SECS - 1, 1.0).is_empty());
        let due: Vec<u32> = e.sweep(3 * SECS, 1.0).iter().map(|d| d.0 .0).collect();
        assert_eq!(
            due,
            vec![3, 5, 9],
            "advisory ones are never ours to confirm"
        );
        // Distress stretches the window at check time.
        assert!(e.sweep(3 * SECS, DEGRADE_MAX_STRETCH).is_empty());
        assert_eq!(e.sweep(9 * SECS, DEGRADE_MAX_STRETCH).len(), 3);
        // Refutation memory lasts the longest detection span; an
        // unresolved advisory suspicion six of them.
        assert!(e.refute(NodeId(3), 1, true, 6 * SECS).is_some());
        e.sweep(6 * SECS + hold, 1.0);
        assert!(e.recently_refuted(NodeId(3), 1, 6 * SECS + hold));
        e.sweep(6 * SECS + hold + 1, 1.0);
        assert!(!e.refuted.contains_key(&NodeId(3)));
        e.sweep(6 * hold, 1.0);
        assert!(e.suspicions.contains_key(&N));
        e.sweep(6 * hold + 1, 1.0);
        assert!(!e.suspicions.contains_key(&N));
        e.reset();
        assert!(e.is_idle());
    }
}
