//! Differential lock for the anti-entropy reconcile:
//! [`Directory::reconcile_digest`] (one ordered merge of the digest
//! against the entries) against
//! [`Directory::reconcile_digest_per_entry`] (the lookups-per-entry form
//! it replaced, and its path for unsorted digests). Shared by this
//! crate's `reconcile.rs` (wide) and the workspace root's `tests/`
//! (fixed-budget tier-1 slice), which include it by `#[path]`.

use proptest::prelude::*;
use tamp_directory::{Directory, Provenance};
use tamp_wire::{DigestEntry, NodeId, NodeRecord};

/// The receiver, the digesting leader, and a second relayer.
pub const ME: NodeId = NodeId(0);
pub const FROM: NodeId = NodeId(1);
const OTHER: NodeId = NodeId(2);

/// Node ids in play. Scripts touch `1..NODES` (the receiver's own entry
/// is put in first and stays); digests may list any of `0..NODES`.
const NODES: u8 = 12;

/// One scripted mutation, applied at its (1-based) position in the
/// script as the time, so `last_refresh` and tombstone ages vary.
#[derive(Debug, Clone)]
pub enum Op {
    Join { node: u8, inc: u8, via: u8 },
    Leave { node: u8, inc: u8 },
}

/// One edit of the directory's own digest, indices taken modulo the
/// current length. `Add` keeps the list sorted and skips nodes already
/// listed; `Duplicate` and `Swap` are what make a digest not strictly
/// ascending.
#[derive(Debug, Clone)]
pub enum Edit {
    Drop(usize),
    Add { node: u8, inc: u8 },
    SetInc(usize, u8),
    Duplicate(usize),
    Swap(usize, usize),
}

#[derive(Debug, Clone)]
pub struct Case {
    ops: Vec<Op>,
    edits: Vec<Edit>,
    /// Time of the reconcile, past the end of the script.
    slack: u8,
    tombstone_ttl: u8,
    settled: u8,
    /// How far before `now` the orphan freshness gate sits.
    stale_gap: u8,
}

fn arb_edit(kinds: u8) -> impl Strategy<Value = Edit> {
    (0..kinds, 0usize..64, 0usize..64, 0..NODES, 1u8..5).prop_map(|(kind, at, other, node, inc)| {
        match kind {
            0 => Edit::Drop(at),
            1 => Edit::Add { node, inc },
            2 => Edit::SetInc(at, inc),
            3 => Edit::Duplicate(at),
            _ => Edit::Swap(at, other),
        }
    })
}

pub fn arb_case() -> impl Strategy<Value = Case> {
    // Two joins per leave, so directories fill; `via` picks Direct,
    // Relayed(FROM) twice as often, or Relayed(OTHER).
    let op = (0u8..3, 1..NODES, 1u8..4, 0u8..4).prop_map(|(kind, node, inc, via)| match kind {
        0 => Op::Leave { node, inc },
        _ => Op::Join { node, inc, via },
    });
    // Half the cases keep the digest sorted and duplicate-free (the
    // first three kinds of edit): the merge proper. The rest also take
    // the per-entry path inside it.
    let edits = prop_oneof![
        proptest::collection::vec(arb_edit(3), 0..6),
        proptest::collection::vec(arb_edit(5), 0..6),
    ];
    (
        proptest::collection::vec(op, 0..32),
        edits,
        0u8..8,
        0u8..40,
        0u8..16,
        0u8..24,
    )
        .prop_map(
            |(ops, edits, slack, tombstone_ttl, settled, stale_gap)| Case {
                ops,
                edits,
                slack,
                tombstone_ttl,
                settled,
                stale_gap,
            },
        )
}

fn build(case: &Case) -> Directory {
    let mut dir = Directory::new();
    // Scripts run up to 32 ticks: tombstones come out fresh and young,
    // fresh and settled, and aged out, and some nodes rejoin at their
    // dead incarnation once it has.
    dir.set_tombstone_ttl(u64::from(case.tombstone_ttl));
    dir.apply_join(NodeRecord::new(ME, 1), Provenance::Local, 0);
    for (now, op) in (1u64..).zip(&case.ops) {
        match *op {
            Op::Join { node, inc, via } => {
                let provenance = match via {
                    0 => Provenance::Direct,
                    1 | 2 => Provenance::Relayed(FROM),
                    _ => Provenance::Relayed(OTHER),
                };
                let rec = NodeRecord::new(NodeId(u32::from(node)), u64::from(inc));
                dir.apply_join(rec, provenance, now);
            }
            Op::Leave { node, inc } => {
                dir.apply_leave(NodeId(u32::from(node)), u64::from(inc), now);
            }
        }
    }
    dir
}

fn edited(own: &[DigestEntry], edits: &[Edit]) -> Vec<DigestEntry> {
    let mut digest = own.to_vec();
    for edit in edits {
        let len = digest.len();
        match *edit {
            Edit::Add { node, inc } => {
                let node = NodeId(u32::from(node));
                if digest.iter().all(|e| e.node != node) {
                    let at = digest.partition_point(|e| e.node < node);
                    let incarnation = u64::from(inc);
                    digest.insert(at, DigestEntry { node, incarnation });
                }
            }
            _ if len == 0 => {}
            Edit::Drop(at) => {
                digest.remove(at % len);
            }
            Edit::SetInc(at, inc) => digest[at % len].incarnation = u64::from(inc),
            Edit::Duplicate(at) => digest.push(digest[at % len]),
            Edit::Swap(a, b) => digest.swap(a % len, b % len),
        }
    }
    digest
}

/// Merge and per-entry reference, from the same directory and digest:
/// same [`tamp_directory::Reconcile`], same directory afterwards.
pub fn check(case: &Case) -> Result<(), TestCaseError> {
    let mut merged = build(case);
    let mut model = merged.clone();
    let digest = edited(&merged.digest().to_vec(), &case.edits);
    let now = case.ops.len() as u64 + u64::from(case.slack);
    let settled = u64::from(case.settled);
    let stale_before = now.saturating_sub(u64::from(case.stale_gap));
    let entries = || digest.iter().copied();
    let got = merged.reconcile_digest(ME, FROM, entries(), now, settled, stale_before);
    let want = model.reconcile_digest_per_entry(ME, FROM, entries(), now, settled, stale_before);
    prop_assert_eq!(got, want, "digest {:?}", digest);
    prop_assert_eq!(merged, model, "digest {:?}", digest);
    Ok(())
}
