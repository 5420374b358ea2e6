//! The cut book: Rapid-style aggregation of failure reports
//! ([`RemovalDiscipline::CutDetection`](crate::RemovalDiscipline),
//! docs/BASELINES.md). It records who has voted which subject dead at
//! which incarnation and answers two questions at sweep time — which of
//! our own votes need re-asserting, and which subjects form a *stable*
//! cut. It removes nothing itself and knows nothing of liveness: the
//! node clears a subject's votes ([`CutBook::forget`]) on decisive proof
//! of life, and applies the batch it is handed.

use crate::config::{CUT_BATCH_DELAY, CUT_HIGH_WATERMARK, CUT_LOW_WATERMARK, CUT_REPORT_TTL};
use std::collections::BTreeMap;
use tamp_topology::Nanos;
use tamp_wire::NodeId;

/// Aggregated failure reports for one subject.
#[derive(Debug, Clone)]
struct Votes {
    /// Incarnation the reports accuse. Older-incarnation votes are
    /// discarded; a higher-incarnation vote resets the count.
    incarnation: u64,
    /// Detector level of our own observation, or the arrival level of
    /// the first Alert — picks the relay set and the subtree handling
    /// when the cut is confirmed.
    level: u8,
    /// Distinct reporters, each with the time its vote was last
    /// asserted.
    reporters: BTreeMap<NodeId, Nanos>,
}

/// One vote, as it travels in an `Alert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Vote {
    pub subject: NodeId,
    pub incarnation: u64,
    pub level: u8,
}

#[derive(Default)]
pub(crate) struct CutBook {
    /// Keyed by subject (BTreeMap so the batched view change executes
    /// in a pool-width-independent order).
    cuts: BTreeMap<NodeId, Votes>,
    /// Last time the report pattern gained a vote.
    last_change: Nanos,
}

impl CutBook {
    /// A restart loses all soft state.
    pub(crate) fn reset(&mut self) {
        *self = CutBook::default();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Record one vote. Returns whether it was *new* — a (subject,
    /// reporter) pair not already on the books at this incarnation —
    /// which is what makes the corresponding `Alert` worth relaying (and
    /// what resets the batch-quiescence clock).
    pub(crate) fn record(&mut self, vote: Vote, reporter: NodeId, now: Nanos) -> bool {
        let e = self.cuts.entry(vote.subject).or_insert_with(|| Votes {
            incarnation: vote.incarnation,
            level: vote.level,
            reporters: BTreeMap::new(),
        });
        if vote.incarnation < e.incarnation {
            return false; // stale vote against an earlier life
        }
        if vote.incarnation > e.incarnation {
            e.incarnation = vote.incarnation;
            e.level = vote.level;
            e.reporters.clear();
        }
        if e.reporters.insert(reporter, now).is_some() {
            return false; // refreshed an existing vote: no pattern change
        }
        self.last_change = now;
        true
    }

    /// Drop every vote against `subject`: decisive proof of life, a
    /// removal that consumed them, or its place in the applied batch.
    pub(crate) fn forget(&mut self, subject: NodeId) {
        self.cuts.remove(&subject);
    }

    /// Every subject on the books with the incarnation it is accused at,
    /// in `NodeId` order.
    pub(crate) fn accused(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.cuts.iter().map(|(&n, v)| (n, v.incarnation))
    }

    /// Sweep-time upkeep. Our own vote stays asserted while the silence
    /// lasts: the ones returned are due for a re-flood (at half the TTL,
    /// so remote aggregators do not time them out under loss) and have
    /// been re-stamped. Votes nobody re-asserts expire; a subject whose
    /// last vote expires leaves the books without any removal.
    pub(crate) fn tend(&mut self, me: NodeId, now: Nanos) -> Vec<Vote> {
        let mut reflood = Vec::new();
        for (&subject, v) in self.cuts.iter_mut() {
            if let Some(t) = v.reporters.get_mut(&me) {
                if now.saturating_sub(*t) >= CUT_REPORT_TTL / 2 {
                    *t = now;
                    reflood.push(Vote {
                        subject,
                        incarnation: v.incarnation,
                        level: v.level,
                    });
                }
            }
            v.reporters
                .retain(|_, &mut t| now.saturating_sub(t) < CUT_REPORT_TTL);
        }
        self.cuts.retain(|_, v| !v.reporters.is_empty());
        reflood
    }

    /// The batched view change, once the report pattern is *stable*:
    /// every reported subject either reached the high watermark or sits
    /// below the low one, and no new vote has landed for
    /// [`CUT_BATCH_DELAY`]. Subjects (with their level) in `NodeId`
    /// order; empty while anything is pending.
    ///
    /// Small groups cannot muster `H` distinct observers, so `H` is
    /// clamped to the live observer count at the subject's level
    /// (`observers_at`) — but never below `L`: a lone reporter (a leader
    /// watching a remote leader across a one-way gray cut) blocks
    /// nothing and removes nothing, which is the
    /// almost-everywhere-agreement safety story.
    pub(crate) fn stable_cut(
        &self,
        now: Nanos,
        observers_at: impl Fn(u8) -> usize,
    ) -> Vec<(NodeId, u8)> {
        if now.saturating_sub(self.last_change) < CUT_BATCH_DELAY {
            return Vec::new(); // reports still arriving: wait for quiescence
        }
        let mut ready = Vec::new();
        for (&n, v) in &self.cuts {
            let h = CUT_HIGH_WATERMARK.min(observers_at(v.level).max(CUT_LOW_WATERMARK));
            let votes = v.reporters.len();
            if votes >= h {
                ready.push((n, v.level));
            } else if votes >= CUT_LOW_WATERMARK {
                return Vec::new(); // unstable: almost-everywhere agreement pending
            }
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    const DEAD: NodeId = NodeId(8);

    impl CutBook {
        pub(crate) fn votes(&self, subject: NodeId) -> usize {
            self.cuts.get(&subject).map_or(0, |v| v.reporters.len())
        }
    }

    fn vote(subject: NodeId, incarnation: u64) -> Vote {
        Vote {
            subject,
            incarnation,
            level: 0,
        }
    }

    #[test]
    fn votes_count_distinct_reporters_at_the_latest_accused_incarnation() {
        let mut b = CutBook::default();
        assert!(b.record(vote(DEAD, 2), NodeId(1), SECS));
        assert!(!b.record(vote(DEAD, 2), NodeId(1), 2 * SECS), "a refresh");
        assert!(b.record(vote(DEAD, 2), NodeId(2), 2 * SECS));
        assert!(
            !b.record(vote(DEAD, 1), NodeId(3), 2 * SECS),
            "an earlier life"
        );
        assert_eq!(b.votes(DEAD), 2);
        assert!(b.record(vote(DEAD, 3), NodeId(3), 3 * SECS), "a later one");
        assert_eq!(b.votes(DEAD), 1);
        assert_eq!(b.accused().collect::<Vec<_>>(), vec![(DEAD, 3)]);
        b.forget(DEAD);
        assert!(b.is_empty());
    }

    #[test]
    fn a_lone_reporter_never_reaches_a_batch_and_h_clamps_to_observers_not_below_l() {
        let mut b = CutBook::default();
        assert!(b.record(vote(DEAD, 1), NodeId(1), 0));
        // One vote: below L whatever the group size — never batched,
        // never blocking.
        for observers in [1, 2, 9] {
            assert!(b.stable_cut(60 * SECS, |_| observers).is_empty());
        }
        assert!(b.record(vote(NodeId(9), 1), NodeId(1), 0));
        assert!(b.record(vote(NodeId(9), 1), NodeId(2), 0));
        // Two votes in a two-observer group: H clamps to 2.
        assert_eq!(b.stable_cut(60 * SECS, |_| 2), vec![(NodeId(9), 0)]);
        // In a larger one they sit in [L, H): the whole cut is unstable.
        assert!(b.stable_cut(60 * SECS, |_| 9).is_empty());
        assert!(b.record(vote(NodeId(9), 1), NodeId(3), 10 * SECS));
        // H reached, but the pattern just changed: wait out the delay.
        assert!(b
            .stable_cut(10 * SECS + CUT_BATCH_DELAY - 1, |_| 9)
            .is_empty());
        assert_eq!(
            b.stable_cut(10 * SECS + CUT_BATCH_DELAY, |_| 9),
            vec![(NodeId(9), 0)]
        );
    }

    #[test]
    fn votes_expire_at_the_ttl_and_our_own_refloods_at_half_of_it() {
        let me = NodeId(1);
        let mut b = CutBook::default();
        assert!(b.record(vote(DEAD, 1), me, 0));
        assert!(b.record(vote(DEAD, 1), NodeId(2), 0));
        assert!(b.tend(me, CUT_REPORT_TTL / 2 - 1).is_empty());
        assert_eq!(b.tend(me, CUT_REPORT_TTL / 2), vec![vote(DEAD, 1)]);
        // Re-stamped: not again until another half TTL has passed.
        assert!(b.tend(me, CUT_REPORT_TTL - 1).is_empty());
        assert_eq!(b.votes(DEAD), 2);
        // The vote nobody re-asserted is gone at the TTL; ours re-floods.
        assert_eq!(b.tend(me, CUT_REPORT_TTL), vec![vote(DEAD, 1)]);
        assert_eq!(b.votes(DEAD), 1);
        // A subject whose last vote expires leaves the books.
        assert!(b.tend(NodeId(5), 2 * CUT_REPORT_TTL).is_empty());
        assert!(b.is_empty());
        b.record(vote(DEAD, 1), me, 0);
        b.reset();
        assert!(b.is_empty());
    }
}
