//! The quarantine book: dead relayers' subtrees held in escrow.
//!
//! Instead of purging everything a dead relayer vouched for (the paper's
//! timeout protocol), the node marks the subtree suspect-as-a-unit and
//! holds it until `quarantine_window` passes. A successor leader that
//! re-attaches re-stamps the entries' provenance (directory
//! `apply_join`); only what is *still* attributed to the dead relayer at
//! the deadline is purged. The book keeps the deadlines and the subtree
//! snapshots; the directory reads and the purge are the node's.

use std::collections::HashMap;
use tamp_topology::Nanos;
use tamp_wire::NodeId;

#[derive(Debug, Clone)]
struct Escrow {
    deadline: Nanos,
    /// Subtree snapshot at quarantine time (for refutation bookkeeping
    /// when the quarantine ends).
    members: Vec<NodeId>,
}

/// How a quarantine ended; both carry the subtree snapshot.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// The "dead" relayer is alive again (a false positive that refuted,
    /// or a fast restart): the subtree was never orphaned.
    Lifted(Vec<NodeId>),
    /// The deadline passed: whatever a successor re-vouched for is no
    /// longer attributed to the relayer; the rest is orphaned for real.
    Expired(Vec<NodeId>),
}

#[derive(Default)]
pub(crate) struct QuarantineBook {
    held: HashMap<NodeId, Escrow>,
}

impl QuarantineBook {
    /// A restart loses all soft state.
    pub(crate) fn reset(&mut self) {
        self.held.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Hold `relayer`'s subtree until `deadline`.
    pub(crate) fn escrow(&mut self, relayer: NodeId, members: Vec<NodeId>, deadline: Nanos) {
        self.held.insert(relayer, Escrow { deadline, members });
    }

    /// The quarantined relayers in `NodeId` order: hash-map iteration
    /// order is seeded per thread, and settling emits messages whose
    /// order must not depend on which thread runs the simulation.
    pub(crate) fn relayers(&self) -> Vec<NodeId> {
        let mut relayers: Vec<NodeId> = self.held.keys().copied().collect();
        relayers.sort_unstable();
        relayers
    }

    /// Sweep-time verdict on `relayer`'s quarantine, given whether it is
    /// `back` in the directory: ended (and off the books) or, `None`,
    /// still waiting.
    pub(crate) fn settle(&mut self, relayer: NodeId, back: bool, now: Nanos) -> Option<Settled> {
        let deadline = self.held.get(&relayer)?.deadline;
        if !back && now < deadline {
            return None;
        }
        let members = self.held.remove(&relayer)?.members;
        Some(if back {
            Settled::Lifted(members)
        } else {
            Settled::Expired(members)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quarantine_lifts_when_the_relayer_is_back_and_expires_at_its_deadline() {
        let (a, b) = (NodeId(9), NodeId(4));
        let mut q = QuarantineBook::default();
        q.escrow(a, vec![NodeId(1), NodeId(2)], 100);
        q.escrow(b, vec![NodeId(3)], 50);
        assert_eq!(q.relayers(), vec![b, a]);
        assert_eq!(q.settle(b, false, 49), None);
        assert_eq!(
            q.settle(a, true, 49),
            Some(Settled::Lifted(vec![NodeId(1), NodeId(2)]))
        );
        assert_eq!(q.settle(a, true, 49), None, "settled once");
        assert_eq!(
            q.settle(b, false, 50),
            Some(Settled::Expired(vec![NodeId(3)]))
        );
        assert!(q.is_empty());
        // Back at the deadline: lifted, not purged.
        q.escrow(a, vec![], 100);
        assert_eq!(q.settle(a, true, 200), Some(Settled::Lifted(vec![])));
        q.escrow(a, vec![], 100);
        q.reset();
        assert!(q.is_empty());
    }
}
