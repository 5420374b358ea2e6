//! Differential lock for the paged [`Directory`]: random scripts over
//! every public mutator, run against it and against the `BTreeMap`
//! directory it replaced (`map_model.rs`), comparing every return value
//! and, after every step, everything either can be asked — of the
//! directory the script runs on and of every fork it left behind, whose
//! key pages the running side shares until it writes them. Shared by
//! this crate's `columns.rs` (wide) and the workspace root's `tests/`
//! (fixed-budget tier-1 slice), which include it by `#[path]`.

use proptest::prelude::*;
use tamp_directory::{Directory, Provenance};
use tamp_wire::{DigestEntry, MemberEvent, NodeId, NodeRecord, PartitionSet, ServiceDecl};

#[path = "map_model.rs"]
mod map_model;
use map_model::MapDirectory;

/// Named node ids in play, relayers included: entries relayed by
/// entries relayed by entries are what make expiry and purge cascade.
const NODES: u8 = 10;
const ME: NodeId = NodeId(0);

/// Ids `RUN_BASE..RUN_BASE + RUN_SPAN` are joined in contiguous runs of
/// `RUN_ROWS` (one [`Op::Bulk`]), relayed by one named id: at 32 rows
/// a key page, a run spans three pages or more, so splits, multi-page
/// walks and hints across page boundaries are reached, and a purge or
/// expiry of the relayer removes whole pages.
const RUN_BASE: u32 = 16;
const RUN_SPAN: u32 = 240;
const RUN_ROWS: std::ops::RangeInclusive<u8> = 96..=160;

/// Single-row ops pick a node out of `SELECTORS`: the named ids, then as
/// many ids spread over the run span (see [`id`]).
const SELECTORS: u8 = 2 * NODES;

fn id(selector: u8) -> NodeId {
    match selector.checked_sub(NODES) {
        None => NodeId(u32::from(selector)),
        Some(probe) => NodeId(RUN_BASE + u32::from(probe) * (RUN_SPAN / u32::from(NODES))),
    }
}

/// Short enough that tombstones age out mid-script and nodes rejoin at
/// their dead incarnation.
const TOMBSTONE_TTL: u64 = 9;

/// Where a join comes from: `Local` now and then, `Direct` a quarter of
/// the time, else relayed by one of the ids in play.
fn provenance(via: u8) -> Provenance {
    match via {
        0 => Provenance::Local,
        1..=4 => Provenance::Direct,
        _ => Provenance::Relayed(NodeId(u32::from(via % NODES))),
    }
}

/// A record whose content is one of three variants, so that a join at
/// the incarnation held is sometimes a refresh and sometimes a
/// republish, and `providers` has something to find.
fn record(node: NodeId, inc: u8, content: u8) -> NodeRecord {
    let rec = NodeRecord::new(node, u64::from(inc));
    match content % 3 {
        0 => rec,
        1 => rec.with_service(ServiceDecl::new("a", PartitionSet::from_iter([0]))),
        _ => rec
            .with_service(ServiceDecl::new("a", PartitionSet::from_iter([1])))
            .with_service(ServiceDecl::new("b", PartitionSet::from_iter([0, 1]))),
    }
}

/// One scripted step; each also advances the clock by `dt`.
#[derive(Debug, Clone)]
pub struct Step {
    dt: u8,
    op: Op,
}

#[derive(Debug, Clone)]
enum Op {
    Join {
        node: u8,
        inc: u8,
        via: u8,
        content: u8,
    },
    /// `apply_join_hinted`, the hint being the row this node was found
    /// in the last time this step ran for it — stale by as many rows as
    /// have come and gone below it since, the way a heartbeat
    /// receiver's is. A `conservative` caller's `same` answers `false`
    /// whatever is held.
    JoinWith {
        node: u8,
        inc: u8,
        via: u8,
        content: u8,
        conservative: bool,
    },
    Leave {
        node: u8,
        inc: u8,
    },
    /// `apply_event`, `kind` picking the variant.
    Event {
        kind: u8,
        node: u8,
        inc: u8,
        via: u8,
        content: u8,
    },
    Remove {
        node: u8,
    },
    /// A refresh stamped `ago` in the past (time must not run backwards).
    Refresh {
        node: u8,
        ago: u8,
    },
    /// `expire_with_next`, the deadline picked by `node % 4`; 0 stands
    /// for "never".
    Expire {
        deadlines: [u8; 4],
    },
    Purge {
        relayer: u8,
    },
    /// `reconcile_digest` against an edited copy of the own digest.
    Reconcile {
        from: u8,
        /// Per own entry, cycled: keep, drop, or list one incarnation
        /// up or down.
        mask: Vec<u8>,
        /// Listed on top, in sorted position, if not listed yet.
        extra: Vec<(u8, u8)>,
        /// Two positions to swap: a digest that is not ascending.
        swap: Option<(u8, u8)>,
        settled: u8,
        stale_gap: u8,
    },
    /// `apply_join` of the run ids `start..start + len` past
    /// `RUN_BASE`, ascending or not, all relayed by the named id `via`.
    Bulk {
        start: u8,
        len: u8,
        via: u8,
        inc: u8,
        content: u8,
        descending: bool,
    },
    /// Clone both; carry on with the clones or the originals, and park
    /// the other pair, which must still agree after every later step.
    Fork {
        continue_on_copy: bool,
    },
}

pub fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    let ids = (0..SELECTORS, 1u8..5, 0u8..16, 0u8..3);
    let run = (0..(RUN_SPAN as u8 - RUN_ROWS.end()), RUN_ROWS);
    let deadlines = (0u8..24, 0u8..24, 0u8..24, 0u8..24);
    let reconcile = (
        proptest::collection::vec(0u8..10, 1..8),
        proptest::collection::vec((0..NODES, 1u8..5), 0..3),
        proptest::option::of((0u8..16, 0u8..16)),
        0u8..6,
        0u8..6,
    );
    // Joins are half of all steps, so directories fill and relay chains
    // form before an expiry, a purge or a digest meets them.
    let op = (0u8..42, ids, any::<bool>(), deadlines, reconcile, run).prop_map(
        |(kind, (node, inc, via, content), flag, (a, b, c, d), reconcile, (start, len))| match kind
        {
            0..=13 => Op::Join {
                node,
                inc,
                via,
                content,
            },
            14..=19 => Op::JoinWith {
                node,
                inc,
                via,
                content,
                conservative: flag,
            },
            20..=23 => Op::Leave { node, inc },
            24..=26 => Op::Event {
                kind: content + 3 * u8::from(flag),
                node,
                inc,
                via,
                content: inc,
            },
            27 => Op::Remove { node },
            28 | 29 => Op::Refresh { node, ago: inc - 1 },
            30..=32 => Op::Expire {
                deadlines: [a, b, c, d],
            },
            33 | 34 => Op::Purge {
                relayer: node % NODES,
            },
            35..=37 => {
                let (mask, extra, swap, settled, stale_gap) = reconcile;
                Op::Reconcile {
                    from: node % NODES,
                    mask,
                    extra,
                    swap,
                    settled,
                    stale_gap,
                }
            }
            38 | 39 => Op::Bulk {
                start,
                len,
                via,
                inc,
                content,
                descending: flag,
            },
            _ => Op::Fork {
                continue_on_copy: flag,
            },
        },
    );
    proptest::collection::vec((0u8..3, op).prop_map(|(dt, op)| Step { dt, op }), 0..64)
}

fn edited(
    own: &[DigestEntry],
    mask: &[u8],
    extra: &[(u8, u8)],
    swap: Option<(u8, u8)>,
) -> Vec<DigestEntry> {
    let mut digest: Vec<DigestEntry> = (own.iter().zip(mask.iter().cycle()))
        .filter_map(|(e, m)| {
            let incarnation = match m {
                0 | 1 => return None,
                2 => e.incarnation + 1,
                3 => e.incarnation.saturating_sub(1),
                _ => e.incarnation,
            };
            Some(DigestEntry {
                node: e.node,
                incarnation,
            })
        })
        .collect();
    for &(node, inc) in extra {
        let node = NodeId(u32::from(node));
        if let Err(at) = digest.binary_search_by_key(&node, |e| e.node) {
            let incarnation = u64::from(inc);
            digest.insert(at, DigestEntry { node, incarnation });
        }
    }
    if let (Some((a, b)), false) = (swap, digest.is_empty()) {
        let len = digest.len();
        digest.swap(usize::from(a) % len, usize::from(b) % len);
    }
    digest
}

/// Everything a directory can be asked, from both: rows in order with
/// provenance and `last_refresh`, point lookups, tombstones, digest,
/// snapshot, routing and the service summary.
fn same_state(cols: &Directory, map: &MapDirectory, now: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(cols.len(), map.len());
    prop_assert_eq!(cols.is_empty(), map.is_empty());
    let rows: Vec<_> = cols
        .entries()
        .map(|e| (e.record(), e.provenance, e.last_refresh))
        .collect();
    let want: Vec<_> = map
        .entries()
        .map(|e| (e.record.clone(), e.provenance, e.last_refresh))
        .collect();
    prop_assert_eq!(rows, want);
    prop_assert_eq!(
        cols.nodes().collect::<Vec<_>>(),
        map.nodes().collect::<Vec<_>>()
    );
    for n in (0..SELECTORS).map(id) {
        prop_assert_eq!(cols.contains(n), map.contains(n));
        prop_assert_eq!(
            cols.get(n)
                .map(|e| (e.record(), e.provenance, e.last_refresh)),
            map.get(n)
                .map(|e| (e.record.clone(), e.provenance, e.last_refresh))
        );
        prop_assert_eq!(cols.tombstone_of(n), map.tombstone_of(n));
        prop_assert_eq!(cols.fresh_tombstone(n, now), map.fresh_tombstone(n, now));
    }
    prop_assert_eq!(cols.digest().to_vec(), map.digest());
    prop_assert_eq!(cols.snapshot(), map.snapshot());
    prop_assert_eq!(cols.service_summary(), map.service_summary());
    for name in ["a", "b"] {
        for partition in [None, Some(0), Some(1)] {
            prop_assert_eq!(
                cols.providers(name, partition).to_vec(),
                map.providers(name, partition).collect::<Vec<_>>()
            );
        }
    }
    Ok(())
}

/// Run `script` on both directories: same return from every call, same
/// state after every step.
pub fn check(script: &[Step]) -> Result<(), TestCaseError> {
    let mut cols = Directory::new();
    let mut map = MapDirectory::new();
    cols.set_tombstone_ttl(TOMBSTONE_TTL);
    map.set_tombstone_ttl(TOMBSTONE_TTL);
    prop_assert_eq!(cols.tombstone_ttl(), map.tombstone_ttl());
    let mut now = 8u64;
    let mut hints = [u32::MAX; SELECTORS as usize];
    let mut parked: Vec<(Directory, MapDirectory)> = Vec::new();
    for step in script {
        now += u64::from(step.dt);
        match step.op {
            Op::Join {
                node,
                inc,
                via,
                content,
            } => {
                let (rec, via) = (record(id(node), inc, content), provenance(via));
                prop_assert_eq!(
                    cols.apply_join(rec.clone(), via, now),
                    map.apply_join(rec, via, now),
                    "{:?}",
                    step
                );
            }
            Op::JoinWith {
                node,
                inc,
                via,
                content,
                conservative,
            } => {
                let (rec, via) = (record(id(node), inc, content), provenance(via));
                let (mut made, mut made_map) = (false, false);
                let hint = &mut hints[usize::from(node)];
                let got = cols.apply_join_hinted(
                    hint,
                    rec.node,
                    rec.incarnation,
                    via,
                    now,
                    || {
                        made = true;
                        rec.clone()
                    },
                    |held| !conservative && *rec == *held,
                );
                let want = map.apply_join_with(
                    rec.node,
                    rec.incarnation,
                    via,
                    now,
                    || {
                        made_map = true;
                        rec.clone()
                    },
                    |held| !conservative && rec == *held,
                );
                prop_assert_eq!((got, made), (want, made_map), "{:?}", step);
                prop_assert_eq!(*hint, cols.hint_for(rec.node), "{:?}", step);
            }
            Op::Leave { node, inc } => {
                let node = id(node);
                prop_assert_eq!(
                    cols.apply_leave(node, u64::from(inc), now),
                    map.apply_leave(node, u64::from(inc), now),
                    "{:?}",
                    step
                );
            }
            Op::Event {
                kind,
                node,
                inc,
                via,
                content,
            } => {
                let subject = id(node);
                let incarnation = u64::from(inc);
                let ev = match kind {
                    0 => MemberEvent::Join(record(subject, inc, content)),
                    1 | 2 => MemberEvent::Refute(record(subject, inc, content)),
                    3 => MemberEvent::Leave(subject, incarnation),
                    4 => MemberEvent::Suspect(subject, incarnation),
                    _ => MemberEvent::Alert {
                        subject,
                        incarnation,
                        reporter: ME,
                    },
                };
                let via = provenance(via);
                prop_assert_eq!(
                    cols.apply_event(&ev, via, now),
                    map.apply_event(&ev, via, now),
                    "{:?}",
                    step
                );
            }
            Op::Remove { node } => {
                let node = id(node);
                prop_assert_eq!(cols.remove(node), map.remove(node), "{:?}", step);
            }
            Op::Refresh { node, ago } => {
                let (node, at) = (id(node), now - u64::from(ago));
                prop_assert_eq!(cols.refresh(node, at), map.refresh(node, at), "{:?}", step);
            }
            Op::Expire { deadlines } => {
                let deadline = |node: NodeId| match deadlines[node.0 as usize % 4] {
                    0 => u64::MAX,
                    d => u64::from(d),
                };
                // Removed records in cascade order, and the next time
                // a survivor can rot.
                prop_assert_eq!(
                    cols.expire_with_next(now, |e| deadline(e.node)),
                    map.expire_with_next(now, |e| deadline(e.record.node)),
                    "{:?}",
                    step
                );
            }
            Op::Purge { relayer } => {
                let relayer = NodeId(u32::from(relayer));
                prop_assert_eq!(
                    cols.purge_relayed_by(relayer),
                    map.purge_relayed_by(relayer),
                    "{:?}",
                    step
                );
            }
            Op::Reconcile {
                from,
                ref mask,
                ref extra,
                swap,
                settled,
                stale_gap,
            } => {
                let digest = edited(map.digest(), mask, extra, swap);
                let from = NodeId(u32::from(from));
                let (settled, stale_before) = (u64::from(settled), now - u64::from(stale_gap));
                let entries = || digest.iter().copied();
                prop_assert_eq!(
                    cols.reconcile_digest(ME, from, entries(), now, settled, stale_before),
                    map.reconcile_digest(ME, from, entries(), now, settled, stale_before),
                    "{:?} as {:?}",
                    step,
                    digest
                );
            }
            Op::Bulk {
                start,
                len,
                via,
                inc,
                content,
                descending,
            } => {
                let via = Provenance::Relayed(NodeId(u32::from(via % NODES)));
                let run = (0..len).map(|i| NodeId(RUN_BASE + u32::from(start) + u32::from(i)));
                let run: Vec<NodeId> = match descending {
                    true => run.rev().collect(),
                    false => run.collect(),
                };
                for node in run {
                    let rec = record(node, inc, content);
                    prop_assert_eq!(
                        cols.apply_join(rec.clone(), via, now),
                        map.apply_join(rec, via, now),
                        "{:?} at {:?}",
                        step,
                        node
                    );
                }
            }
            Op::Fork { continue_on_copy } => {
                let (copy, copy_map) = (cols.clone(), map.clone());
                prop_assert_eq!(&copy, &cols);
                parked.push(if continue_on_copy {
                    (
                        std::mem::replace(&mut cols, copy),
                        std::mem::replace(&mut map, copy_map),
                    )
                } else {
                    (copy, copy_map)
                });
            }
        }
        same_state(&cols, &map, now)
            .map_err(|e| TestCaseError::fail(format!("{e} after {step:?}")))?;
        for (fork, model) in &parked {
            same_state(fork, model, now)
                .map_err(|e| TestCaseError::fail(format!("{e} in a fork after {step:?}")))?;
        }
    }
    Ok(())
}
