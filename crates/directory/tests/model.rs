//! Model-based property tests: the directory's incarnation ordering must
//! match a simple reference model under arbitrary event interleavings.

use proptest::prelude::*;
use std::collections::HashMap;
use tamp_directory::{Directory, Provenance};
use tamp_wire::{NodeId, NodeRecord, PartitionSet, ServiceDecl};

#[path = "common/routing.rs"]
mod routing;

/// One scripted operation.
#[derive(Debug, Clone)]
enum Op {
    Join { node: u8, inc: u8 },
    Leave { node: u8, inc: u8 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, 1u8..6).prop_map(|(node, inc)| Op::Join { node, inc }),
            (0u8..6, 1u8..6).prop_map(|(node, inc)| Op::Leave { node, inc }),
        ],
        0..40,
    )
}

/// Reference model of the acceptance rules, with an infinite tombstone
/// TTL (we disable expiry by using a single timestamp).
#[derive(Default)]
struct Model {
    live: HashMap<u8, u8>,
    dead: HashMap<u8, u8>,
}

impl Model {
    fn join(&mut self, node: u8, inc: u8) {
        if let Some(&d) = self.dead.get(&node) {
            if inc <= d {
                return;
            }
        }
        let e = self.live.entry(node).or_insert(inc);
        if inc > *e {
            *e = inc;
        }
    }

    fn leave(&mut self, node: u8, inc: u8) {
        let d = self.dead.entry(node).or_insert(0);
        if inc > *d {
            *d = inc;
        }
        if self.live.get(&node).is_some_and(|&l| l <= inc) {
            self.live.remove(&node);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn directory_matches_reference_model(ops in arb_ops()) {
        let mut dir = Directory::new();
        let mut model = Model::default();
        // Freeze time so tombstones never age out: pure ordering rules.
        let now = 0;
        for op in &ops {
            match *op {
                Op::Join { node, inc } => {
                    dir.apply_join(
                        NodeRecord::new(NodeId(node as u32), inc as u64),
                        Provenance::Direct,
                        now,
                    );
                    model.join(node, inc);
                }
                Op::Leave { node, inc } => {
                    dir.apply_leave(NodeId(node as u32), inc as u64, now);
                    model.leave(node, inc);
                }
            }
        }
        // Same live set with the same incarnations.
        let mut got: Vec<(u8, u8)> = dir
            .entries()
            .map(|e| (e.node.0 as u8, e.incarnation as u8))
            .collect();
        got.sort();
        let mut want: Vec<(u8, u8)> = model.live.iter().map(|(&n, &i)| (n, i)).collect();
        want.sort();
        prop_assert_eq!(got, want, "ops: {:?}", ops);
    }

    /// A join with a strictly higher incarnation always lands, no matter
    /// what history preceded it.
    #[test]
    fn highest_incarnation_always_wins(ops in arb_ops(), node in 0u8..6) {
        let mut dir = Directory::new();
        for op in &ops {
            match *op {
                Op::Join { node, inc } => {
                    dir.apply_join(
                        NodeRecord::new(NodeId(node as u32), inc as u64),
                        Provenance::Direct,
                        0,
                    );
                }
                Op::Leave { node, inc } => {
                    dir.apply_leave(NodeId(node as u32), inc as u64, 0);
                }
            }
        }
        let applied = dir.apply_join(
            NodeRecord::new(NodeId(node as u32), 100),
            Provenance::Direct,
            0,
        );
        prop_assert!(applied.changed());
        prop_assert!(dir.contains(NodeId(node as u32)));
    }

    /// Tombstones age out: after the TTL, a same-incarnation join is
    /// accepted again (soft-state healing).
    #[test]
    fn tombstones_expire(inc in 1u64..10, ttl in 1u64..1_000_000) {
        let mut dir = Directory::new();
        dir.set_tombstone_ttl(ttl);
        dir.apply_leave(NodeId(1), inc, 0);
        let rec = NodeRecord::new(NodeId(1), inc);
        prop_assert!(!dir.apply_join(rec.clone(), Provenance::Direct, ttl - 1).changed());
        prop_assert!(dir.apply_join(rec, Provenance::Direct, ttl).changed());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Differential routing lock: the typed query routers use returns
    /// exactly what the pattern API returns for a literal name.
    #[test]
    fn providers_match_lookup_service(
        ops in routing::arb_ops(),
        name in routing::NAME,
        partition in 0u16..7,
    ) {
        routing::check(&routing::build(&ops, &name, partition)?, &name, partition)?;
    }
}

/// Routing takes the service name literally: what `lookup_service` reads
/// as a pattern, or matches against the empty string, finds nothing.
#[test]
fn providers_take_the_name_literally() {
    let mut dir = Directory::new();
    for (id, name) in [(1, "index"), (2, "doc")] {
        let rec = NodeRecord::new(NodeId(id), 1)
            .with_service(ServiceDecl::new(name, PartitionSet::from_iter([0])));
        dir.apply_join(rec, Provenance::Direct, 0);
    }
    for pattern in ["ind.x", "(index|doc)", ".*"] {
        assert!(!dir.lookup_service(pattern, "").unwrap().is_empty());
    }
    for name in ["ind.x", "(index|doc)", ".*", "inde", "indexes", ""] {
        for partition in [Some(0), None] {
            assert_eq!(dir.providers(name, partition).len(), 0, "{name:?}");
        }
    }
    assert_eq!(dir.providers("index", Some(0)).to_vec(), [NodeId(1)]);
    assert_eq!(dir.providers("index", Some(1)).len(), 0);
    assert_eq!(dir.providers("doc", None).to_vec(), [NodeId(2)]);
}
