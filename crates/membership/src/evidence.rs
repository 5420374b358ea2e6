//! The evidence book: everything this node holds *against* a member
//! short of removing it, and everything it holds in the member's favour.
//!
//! Four pieces of state, all private to this module and written only
//! here (docs/ROBUSTNESS.md):
//!
//! * **suspicions** — subject timed out (own detector) or was named by a
//!   relayed `Suspect` / `Alert` (advisory); cancelled by proof of life,
//!   confirmed by the node when an own-detector one outlives its window;
//! * **refutation memory** — "we saw it alive at incarnation ≥ i, this
//!   recently": the Leave-blocker that makes refutation always win;
//! * **flap scores** — refuted own-detector suspicions per subject,
//!   decaying, stretching that subject's next window;
//! * **the distress latch** — keeps the loss-degradation stretch engaged
//!   across the raw signal's duty cycle.
//!
//! The book decides; [`MembershipNode`](crate::MembershipNode) turns its
//! answers into counters, events and relays, and carries a decisive
//! refutation over to the cut book.

use crate::config::{MembershipConfig, DEGRADE_MAX_STRETCH, FLAP_HALF_LIFE, FLAP_SCORE_CAP};
use std::collections::HashMap;
use tamp_topology::Nanos;
use tamp_wire::NodeId;

/// One active suspicion: the subject timed out (or a relayed accusation
/// named it) but has not yet been removed. A refutation — proof of life
/// at `incarnation` or higher — cancels it; only an unrefuted
/// own-detector suspicion that survives its window is confirmed.
#[derive(Debug, Clone, Copy)]
struct Suspicion {
    /// The incarnation under suspicion. Evidence at a lower incarnation
    /// neither confirms nor refutes.
    incarnation: u64,
    /// Group level whose detector raised it (scales the window and picks
    /// the relay set on confirmation).
    level: u8,
    since: Nanos,
    /// Confirmation window (already flap-scaled; the loss-degradation
    /// stretch is applied at check time so it tracks *current* distress).
    window: Nanos,
    /// Adopted from a relayed `Suspect` / `Alert` rather than our own
    /// detector: we track it for refutation bookkeeping but never confirm
    /// it ourselves — confirmation is the origin group's call.
    advisory: bool,
}

/// Who is arming a suspicion.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Raiser {
    /// Our own failure detector, with the level's base window (which
    /// flap damping stretches). Replaces whatever suspicion is held: the
    /// caller has checked [`Evidence::own_open`].
    OwnDetector(Nanos),
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
    suspicions: HashMap<NodeId, Suspicion>,
    /// Subject → (refuted-at incarnation, when).
    refuted: HashMap<NodeId, (u64, Nanos)>,
    /// Subject → (instability score, last bump).
    flap: HashMap<NodeId, (f64, Nanos)>,
    /// The loss-degradation stretch stays engaged until this instant.
    distress_until: Nanos,
    /// How long a refutation is remembered: the longest detection span.
    hold: Nanos,
    /// How long one raw-positive distress reading holds the latch.
    latch: Nanos,
}

impl Evidence {
    pub(crate) fn new(cfg: &MembershipConfig) -> Self {
        Evidence {
            hold: cfg.timeout(cfg.top_level()),
            latch: 3 * cfg.heartbeat_period,
            ..Evidence::default()
        }
    }

    /// A restart loses all soft state.
    pub(crate) fn reset(&mut self) {
        *self = Evidence {
            hold: self.hold,
            latch: self.latch,
            ..Evidence::default()
        };
    }

    fn decayed_flap(&self, node: NodeId, now: Nanos) -> f64 {
        self.flap.get(&node).map_or(0.0, |&(score, at)| {
            score * 0.5f64.powf(now.saturating_sub(at) as f64 / FLAP_HALF_LIFE as f64)
        })
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
        let (window, advisory) = match by {
            Raiser::OwnDetector(base) => {
                let flap = self.decayed_flap(subject, now).min(FLAP_SCORE_CAP);
                ((base as f64 * (1.0 + flap)) as Nanos, false)
            }
            Raiser::Relayed if held.is_some_and(|s| s.incarnation >= inc) => return false,
            Raiser::Relayed => (0, true),
        };
        self.suspicions.insert(
            subject,
            Suspicion {
                incarnation: inc,
                level,
                since: now,
                window,
                advisory,
            },
        );
        true
    }

    /// Resolve an open suspicion of `node` by proof of life at `inc`;
    /// `None` when there is none, or the proof is stale (an older
    /// incarnation's liveness). `fresh`: direct liveness or an explicit
    /// `Refute`, as opposed to a relayed record vouching. A refuted
    /// own-detector suspicion counts as one flap.
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
        if !s.advisory {
            let score = self.decayed_flap(node, now) + 1.0;
            self.flap.insert(node, (score, now));
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
    /// passed, as `(peer, suspected incarnation, detector level)` — in
    /// `NodeId` order: hash-map iteration order is seeded per thread, and
    /// what the node does with them emits messages.
    pub(crate) fn sweep(&mut self, now: Nanos, stretch: f64) -> Vec<(NodeId, u64, u8)> {
        let hold = self.hold;
        self.refuted
            .retain(|_, &mut (_, at)| now.saturating_sub(at) <= hold);
        self.suspicions
            .retain(|_, s| !(s.advisory && now.saturating_sub(s.since) > 6 * hold));
        let mut due: Vec<_> = self
            .suspicions
            .iter()
            .filter(|(_, s)| !s.advisory)
            .filter(|(_, s)| now.saturating_sub(s.since) >= (s.window as f64 * stretch) as u64)
            .map(|(&peer, s)| (peer, s.incarnation, s.level))
            .collect();
        due.sort_unstable_by_key(|&(peer, ..)| peer);
        due
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
        assert!(e.arm(N, 4, 0, 3 * SECS, Raiser::OwnDetector(2 * SECS)));
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
    fn stale_proof_refutes_nothing() {
        let mut e = book();
        assert!(e.arm(N, 4, 0, SECS, Raiser::OwnDetector(2 * SECS)));
        assert!(!e.vouches(N, 3));
        assert_eq!(e.refute(N, 3, true, 2 * SECS), None);
        assert!(e.own_open(N), "an earlier life's heartbeat cleared it");
        assert!(!e.recently_refuted(N, 3, 2 * SECS));
        assert_eq!(e.refute(NodeId(8), 9, true, 2 * SECS), None, "no suspicion");
    }

    #[test]
    fn only_a_refuted_own_detector_suspicion_counts_as_a_flap() {
        let window = |e: &Evidence| e.suspicions[&N].window;
        let mut e = book();
        // Advisory suspicions, refuted: no instability.
        for t in 1..=3 {
            assert!(e.arm(N, 1, 0, t * SECS, Raiser::Relayed));
            assert!(e.refute(N, 1, true, t * SECS).is_some());
        }
        assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector(2 * SECS)));
        assert_eq!(window(&e), 2 * SECS);
        // An advisory arm at the suspected incarnation is refused.
        assert!(e.own_open(N));
        assert!(!e.arm(N, 1, 0, 4 * SECS, Raiser::Relayed));
        // It flapped: the next window doubles, the one after triples…
        assert!(e.refute(N, 1, true, 4 * SECS).is_some());
        assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector(2 * SECS)));
        assert_eq!(window(&e), 4 * SECS);
        assert!(e.refute(N, 1, true, 4 * SECS).is_some());
        assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector(2 * SECS)));
        assert_eq!(window(&e), 6 * SECS);
        // …up to the cap, and one half-life later the score has halved.
        for _ in 0..5 {
            assert!(e.refute(N, 1, true, 4 * SECS).is_some());
            assert!(e.arm(N, 1, 0, 4 * SECS, Raiser::OwnDetector(2 * SECS)));
        }
        assert_eq!(window(&e), 2 * SECS * (1 + FLAP_SCORE_CAP as u64));
        e.close(N);
        e.flap.insert(N, (2.0, 4 * SECS));
        let later = 4 * SECS + FLAP_HALF_LIFE;
        assert!(e.arm(N, 1, 0, later, Raiser::OwnDetector(2 * SECS)));
        assert_eq!(window(&e), 4 * SECS);
        // An own-detector arm takes over an advisory suspicion.
        e.close(N);
        assert!(e.arm(N, 1, 2, later, Raiser::Relayed));
        assert!(!e.own_open(N));
        assert!(e.arm(N, 1, 0, later, Raiser::OwnDetector(0)));
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
            assert!(e.arm(NodeId(id), 1, 1, 0, Raiser::OwnDetector(2 * SECS)));
        }
        assert!(e.arm(N, 1, 0, 0, Raiser::Relayed));
        assert!(e.sweep(2 * SECS - 1, 1.0).is_empty());
        let due: Vec<u32> = e.sweep(2 * SECS, 1.0).iter().map(|d| d.0 .0).collect();
        assert_eq!(
            due,
            vec![3, 5, 9],
            "advisory ones are never ours to confirm"
        );
        // Distress stretches the window at check time.
        assert!(e.sweep(2 * SECS, DEGRADE_MAX_STRETCH).is_empty());
        assert_eq!(e.sweep(6 * SECS, DEGRADE_MAX_STRETCH).len(), 3);
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
