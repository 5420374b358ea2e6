//! Differential lock for request routing: [`Directory::providers`] (the
//! typed literal query routers use, answered from the directory's kept
//! answers) against `lookup_service` (the regex pattern API it replaced
//! on that path). Shared by this crate's
//! `model.rs` (wide) and the workspace root's `tests/` (fixed-budget
//! tier-1 slice), which include it by `#[path]`.

use proptest::prelude::*;
use tamp_directory::{Directory, Provenance};
use tamp_wire::{NodeId, NodeRecord, PartitionSet, ServiceDecl};

/// One scripted mutation. Joins carry whole service lists so that
/// multi-service nodes, two declarations of one name on one node, and
/// empty partition sets all occur; leaves and expiries make sure dead
/// nodes stop resolving.
#[derive(Debug, Clone)]
pub enum Op {
    Join {
        node: u8,
        inc: u8,
        services: Vec<(String, Vec<u16>)>,
    },
    Leave {
        node: u8,
        inc: u8,
    },
    Expire {
        age: u8,
    },
}

/// Service names over a four-letter, metacharacter-free alphabet: short
/// enough that declared and queried names collide often, and that one
/// is often a prefix of another (`a` must not find `ab`).
pub const NAME: &str = "[a-c_]{0,2}";

pub fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let service = (NAME, proptest::collection::vec(0u16..6, 0..4));
    let services = proptest::collection::vec(service, 0..4);
    // Two joins for every leave and every expiry, so directories fill.
    let op =
        (0u8..4, 0u8..8, 1u8..4, services, 1u8..12).prop_map(|(kind, node, inc, services, age)| {
            match kind {
                0 => Op::Leave { node, inc },
                1 => Op::Expire { age },
                _ => Op::Join {
                    node,
                    inc,
                    services,
                },
            }
        });
    proptest::collection::vec(op, 0..24)
}

/// Run `ops` on a fresh directory, resolving `name` after every one, so
/// the directory's kept answers are filled and dropped within the
/// script, not only read at its end.
pub fn build(ops: &[Op], name: &str, partition: u16) -> Result<Directory, TestCaseError> {
    let mut dir = Directory::new();
    // Short enough that some tombstones age out mid-script and the node
    // rejoins at its old incarnation.
    dir.set_tombstone_ttl(6);
    for (now, op) in (1u64..).zip(ops) {
        match op {
            Op::Join {
                node,
                inc,
                services,
            } => {
                let mut rec = NodeRecord::new(NodeId(u32::from(*node)), u64::from(*inc));
                for (name, parts) in services {
                    rec = rec.with_service(ServiceDecl::new(
                        name.clone(),
                        PartitionSet::from_iter(parts.iter().copied()),
                    ));
                }
                dir.apply_join(rec, Provenance::Direct, now);
            }
            Op::Leave { node, inc } => {
                dir.apply_leave(NodeId(u32::from(*node)), u64::from(*inc), now);
            }
            Op::Expire { age } => {
                dir.expire(now, |_| u64::from(*age));
            }
        }
        check(&dir, name, partition)?;
    }
    Ok(dir)
}

/// `providers` ≡ `lookup_service` mapped to `.node`: same nodes, same
/// order, same multiplicity, for one partition and for "any".
pub fn check(dir: &Directory, name: &str, partition: u16) -> Result<(), TestCaseError> {
    let via_pattern = |partition: &str| -> Vec<NodeId> {
        dir.lookup_service(name, partition)
            .expect("metacharacter-free name compiles")
            .iter()
            .map(|m| m.node)
            .collect()
    };
    prop_assert_eq!(
        dir.providers(name, Some(partition)).to_vec(),
        via_pattern(&partition.to_string()),
        "{:?} partition {}",
        name,
        partition
    );
    prop_assert_eq!(
        dir.providers(name, None).to_vec(),
        via_pattern(""),
        "{:?} any partition",
        name
    );
    Ok(())
}
