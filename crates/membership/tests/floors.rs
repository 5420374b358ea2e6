//! Differential lock for [`GroupState`]'s flat peer table and sweep
//! floors: random `heard` / `heard_heartbeat` / `remove_peer` / sweep
//! scripts against a `BTreeMap` model that walks every peer every time
//! (the implementation the table replaced), at the default case budget.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tamp_membership::group::{GroupState, PeerState};
use tamp_wire::NodeId;

/// One scripted step. Times are small integers, not nanoseconds, so
/// that "exactly at the deadline" happens all the time.
#[derive(Debug, Clone)]
enum Op {
    /// Control traffic heard `ago` ticks in the past (a late delivery
    /// may enter a new peer below every time already in the table).
    Heard {
        peer: u8,
        leader: bool,
        inc: u8,
        ago: u8,
    },
    Heartbeat {
        peer: u8,
        leader: bool,
        inc: u8,
    },
    Remove {
        peer: u8,
    },
    Advance {
        by: u8,
    },
    /// The expiry half of a sweep: `base` scaled by the distress stretch
    /// (1 or 3, as `sweep` computes it); the expired are then removed.
    Expire {
        base: u8,
        stretched: bool,
    },
    /// The distress half of a sweep.
    Distress {
        late_after: u8,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Six ids: groups hover around the `len < 3` edge of the distress
    // verdict and empty out now and then.
    let op = (0u8..12, 0u8..6, any::<bool>(), 0u8..4, 0u8..8).prop_map(
        |(kind, peer, flag, small, span)| match kind {
            0 | 1 => Op::Heard {
                peer,
                leader: flag,
                inc: small,
                ago: if flag { 0 } else { small },
            },
            2..=5 => Op::Heartbeat {
                peer,
                leader: flag,
                inc: small,
            },
            6 => Op::Remove { peer },
            7 | 8 => Op::Advance { by: span },
            9 | 10 => Op::Expire {
                base: span + 1,
                stretched: flag,
            },
            _ => Op::Distress { late_after: span },
        },
    );
    proptest::collection::vec(op, 0..48)
}

const EWMA_ALPHA: f64 = 0.125;

/// The reference: one ordered map, no floors, every query a full walk.
#[derive(Default)]
struct Model {
    peers: BTreeMap<NodeId, PeerState>,
}

impl Model {
    fn entry(&mut self, peer: NodeId, now: u64, leader: bool, inc: u64) -> &mut PeerState {
        self.peers.entry(peer).or_insert(PeerState {
            last_heard: now,
            claims_leader: leader,
            incarnation: inc,
            ewma_interval: 0.0,
            ewma_var: 0.0,
            last_heartbeat: 0,
        })
    }

    fn heard(&mut self, peer: NodeId, now: u64, leader: bool, inc: u64) {
        let e = self.entry(peer, now, leader, inc);
        e.last_heard = e.last_heard.max(now);
        e.claims_leader = e.claims_leader || leader;
        e.incarnation = e.incarnation.max(inc);
    }

    fn heard_heartbeat(&mut self, peer: NodeId, now: u64, leader: bool, inc: u64) {
        let e = self.entry(peer, now, leader, inc);
        if e.last_heartbeat > 0 && now > e.last_heartbeat {
            let interval = (now - e.last_heartbeat) as f64;
            if e.ewma_interval <= 0.0 {
                e.ewma_interval = interval;
            } else {
                let dev = (interval - e.ewma_interval).abs();
                e.ewma_var = (1.0 - EWMA_ALPHA) * e.ewma_var + EWMA_ALPHA * dev * dev;
                e.ewma_interval = (1.0 - EWMA_ALPHA) * e.ewma_interval + EWMA_ALPHA * interval;
            }
        }
        if now > e.last_heartbeat {
            e.last_heartbeat = now;
        }
        e.last_heard = e.last_heard.max(now);
        e.claims_leader = leader;
        e.incarnation = e.incarnation.max(inc);
    }

    fn expired(&self, now: u64, timeout: u64) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, p)| now.saturating_sub(p.last_heard) >= timeout)
            .map(|(&n, _)| n)
            .collect()
    }

    fn distressed(&self, now: u64, late_after: f64) -> bool {
        if self.peers.len() < 3 {
            return false;
        }
        let late = self
            .peers
            .values()
            .filter(|p| {
                let silence = if p.last_heartbeat > 0 {
                    now.saturating_sub(p.last_heartbeat) as f64
                } else {
                    0.0
                };
                p.ewma_interval.max(silence) > late_after
            })
            .count();
        late * 2 >= self.peers.len()
    }
}

/// Run `ops` on a [`GroupState`] and on the model, comparing after every
/// step: same peers in the same order with the same state, floors that
/// bound the table, and gated sweep verdicts equal to the full walks.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut g = GroupState::new(0, 0);
    let mut m = Model::default();
    // From t = 0, where a heartbeat leaves `last_heartbeat` at "never".
    let mut now = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Heard {
                peer,
                leader,
                inc,
                ago,
            } => {
                let at = now.saturating_sub(u64::from(ago));
                g.heard(NodeId(u32::from(peer)), at, leader, u64::from(inc));
                m.heard(NodeId(u32::from(peer)), at, leader, u64::from(inc));
            }
            Op::Heartbeat { peer, leader, inc } => {
                g.heard_heartbeat(NodeId(u32::from(peer)), now, leader, u64::from(inc));
                m.heard_heartbeat(NodeId(u32::from(peer)), now, leader, u64::from(inc));
            }
            Op::Remove { peer } => {
                prop_assert_eq!(
                    g.remove_peer(NodeId(u32::from(peer))),
                    m.peers.remove(&NodeId(u32::from(peer))),
                    "step {}: {:?}",
                    step,
                    op
                );
            }
            Op::Advance { by } => now += u64::from(by),
            Op::Expire { base, stretched } => {
                let stretch = if stretched { 3.0 } else { 1.0 };
                let timeout = (f64::from(base) * stretch) as u64;
                let expired = g.expired_peers(now, timeout);
                prop_assert_eq!(
                    &expired,
                    &m.expired(now, timeout),
                    "step {}: {:?} at t={}",
                    step,
                    op,
                    now
                );
                for p in expired {
                    g.remove_peer(p);
                    m.peers.remove(&p);
                }
            }
            Op::Distress { late_after } => {
                prop_assert_eq!(
                    g.distressed(now, f64::from(late_after)),
                    m.distressed(now, f64::from(late_after)),
                    "step {}: {:?} at t={}",
                    step,
                    op,
                    now
                );
            }
        }
        let peers = g.peers();
        prop_assert!(
            peers.keys().eq(m.peers.keys()) && peers.values().eq(m.peers.values()),
            "step {}: {:?}: table {:?} != model {:?}",
            step,
            op,
            peers,
            m.peers
        );
        prop_assert_eq!(peers.len(), m.peers.len());
        prop_assert_eq!(peers.is_empty(), m.peers.is_empty());
        for id in (0..6).map(NodeId) {
            prop_assert_eq!(peers.get(&id), m.peers.get(&id));
            prop_assert_eq!(peers.contains_key(&id), m.peers.contains_key(&id));
        }
        prop_assert!(
            g.floors_hold(),
            "step {}: {:?}: floors do not bound {:?}",
            step,
            op,
            g
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn peer_table_and_gates_match_full_walk_model(ops in arb_ops()) {
        check(&ops)?;
    }
}
