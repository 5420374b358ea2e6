//! A9 — large-cluster scale sweep: measured bandwidth, detection, and
//! convergence for the hierarchical scheme at n ≈ {1000, 4000, 10000},
//! side by side with the §4 closed-form model.
//!
//! The paper's evaluation stops at a 100-node testbed; §4 argues the
//! scheme stays cheap to tens of thousands of nodes. This experiment
//! drives the simulator there. To make a 10k-node run tractable the
//! cluster *warm-starts*: every node's directory is pre-seeded with the
//! measurement-relevant slice of the converged view — its own leaf
//! segment, every leaf leader, and the failure subject
//! ([`MembershipNode::preload_directory`]) — and `warm_start` skips the
//! bootstrap exchange, so the run begins in steady state instead of
//! flooding O(n²) join traffic first.
//!
//! Topology: a depth-2 router tree (`tree_of_segments`) with ~20 hosts
//! per leaf segment — the paper's "20 nodes per layer-2 network" scaled
//! out, giving TTL-1 leaf groups, TTL-2 sibling groups, and a TTL-4 root
//! group.
//!
//! Measurements:
//! * **Bandwidth** — aggregate received bytes/s over a 10 s steady-state
//!   window, vs the model `n·g/(g−1)·(g−1)·s/T` with `s` = 256 B
//!   (228 B heartbeat + 28 B simulated UDP/IP header).
//! * **Detection / convergence** — one plain leaf member is killed
//!   immediately *after* a heartbeat (worst-case alignment, matching the
//!   model's `k·T` bound); earliest and latest removal observations give
//!   the two times, exactly as in Figs. 12–13.

use crate::common::steady_traffic;
use crate::grid::{Column, Experiment, Verdict};
use std::fmt::Write as _;
use tamp_analysis::{hierarchical, ModelParams};
use tamp_chaos::Detection;
use tamp_directory::{Directory, Provenance};
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Control, Engine, EngineConfig, ShardingKind, MILLIS, SECS};
use tamp_topology::{generators, HostId, Topology};
use tamp_wire::NodeId;

/// One scale measurement next to its model prediction.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRow {
    /// Actual cluster size (the requested size rounded to the topology
    /// grid; e.g. 10000 → 22²·21 = 10164).
    pub n: usize,
    pub segments: usize,
    pub group_size: usize,
    pub agg_recv_bytes_per_s: f64,
    pub model_bytes_per_s: f64,
    pub detect_s: f64,
    pub model_detect_s: f64,
    pub converge_s: f64,
    pub model_converge_s: f64,
    /// Survivors that recorded the victim's removal (complete = n−1).
    pub observers: usize,
    /// Host wall-clock for the whole measurement, milliseconds.
    pub wall_ms: u64,
}

/// On-wire heartbeat size: 228 B payload (the paper's measured packet)
/// plus the simulator's fixed UDP/IP header model.
const WIRE_RECORD_BYTES: f64 = 256.0;

/// Depth-2 router tree sized for ≈`nodes` hosts in ~20-host leaf
/// segments. Returns the topology and the hosts-per-leaf actually used.
pub fn scale_topology(nodes: usize) -> (Topology, usize) {
    let fanout = ((nodes as f64 / 20.0).sqrt().round() as usize).max(1);
    let leaves = fanout * fanout;
    let hosts_per_leaf = ((nodes as f64 / leaves as f64).round() as usize).max(2);
    (
        generators::tree_of_segments(2, fanout, hosts_per_leaf),
        hosts_per_leaf,
    )
}

/// Paper-mode configuration for the scale runs: immediate removal (no
/// suspicion escrow), no anti-entropy digests, warm start.
fn scale_config() -> MembershipConfig {
    MembershipConfig {
        warm_start: true,
        suspicion_window: 0,
        quarantine_window: 0,
        anti_entropy_period: 0,
        ..Default::default()
    }
}

/// Everything about one cluster size that is seed-independent: the
/// topology grid, the segment layout, every node's bootstrap record
/// (incarnation 1 — what it will announce on start), and the
/// per-segment warm-start directory templates. Build once per size with
/// [`SizeSetup::new`] and reuse across seeds via [`measure`]: at
/// 10k nodes the templates are the dominant per-run setup cost, and
/// they don't depend on the seed.
pub struct SizeSetup {
    topo: Topology,
    group_size: usize,
    seg_of: Vec<u16>,
    templates: Vec<Directory>,
}

impl SizeSetup {
    /// Build the seed-independent setup for a cluster of ≈`nodes`.
    pub fn new(nodes: usize) -> SizeSetup {
        let (topo, group_size) = scale_topology(nodes);
        let n = topo.num_hosts();
        let segments = topo.num_segments();

        let seg_of: Vec<u16> = topo.hosts().map(|h| topo.segment_of(h).0).collect();
        let leader_of: Vec<NodeId> = (0..segments)
            .map(|s| {
                NodeId(
                    topo.hosts_on(tamp_topology::SegmentId(s as u16))
                        .iter()
                        .map(|h| h.0)
                        .min()
                        .expect("empty segment"),
                )
            })
            .collect();

        // The record every node will announce on start (incarnation 1).
        // `boot_record` is a pure function of (id, config), so records
        // built here match the fresh `MembershipNode`s of every run.
        let boot: Vec<_> = (0..n)
            .map(|i| MembershipNode::new(NodeId(i as u32), scale_config()).boot_record())
            .collect();

        // One warm-start template per segment: the converged view's
        // *measurement-relevant* subset. Own segment heard directly (the
        // entries heartbeats keep alive), every leaf leader plus the
        // victim relayed by the segment's own leader — the provenance
        // the real protocol converges to. Preloading the full converged
        // view instead (all n entries at all n nodes) changes none of
        // the measured quantities — steady-state traffic is heartbeats
        // only, and removal propagation touches exactly the victim's
        // entry — but the O(n²) directory clone dominates wall time at
        // 10k (~10 GB, minutes). Each template visits only its own
        // segment plus the shared extras (leaders + victim), so
        // building all of them is O(n + segments·g) instead of the old
        // O(n·segments) scan over every boot record per segment.
        let victim_idx = n - 1;
        let extras: Vec<usize> = {
            let mut v: Vec<usize> = leader_of.iter().map(|l| l.0 as usize).collect();
            v.push(victim_idx);
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut hosts_in: Vec<Vec<usize>> = vec![Vec::new(); segments];
        for (i, &s) in seg_of.iter().enumerate() {
            hosts_in[s as usize].push(i);
        }
        let templates: Vec<Directory> = leader_of
            .iter()
            .enumerate()
            .map(|(seg, &my_leader)| {
                let mut template = Directory::new();
                let relevant: std::collections::BTreeSet<usize> =
                    hosts_in[seg].iter().chain(extras.iter()).copied().collect();
                for i in relevant {
                    let prov = if seg_of[i] as usize == seg {
                        Provenance::Direct
                    } else {
                        Provenance::Relayed(my_leader)
                    };
                    template.apply_join(boot[i].clone(), prov, 0);
                }
                template
            })
            .collect();

        SizeSetup {
            topo,
            group_size,
            seg_of,
            templates,
        }
    }
}

/// Build, warm-start, and measure one cluster. Every measured quantity
/// is byte-identical at any `sharding` — it only moves the wall clock
/// (`wall_ms`).
pub fn measure(setup: &SizeSetup, seed: u64, sharding: ShardingKind) -> ScaleRow {
    let wall = std::time::Instant::now();
    let n = setup.topo.num_hosts();
    let segments = setup.topo.num_segments();
    let group_size = setup.group_size;

    let cfg = EngineConfig {
        sharding,
        ..Default::default()
    };
    let mut engine = Engine::new(setup.topo.clone(), cfg, seed);
    for i in 0..n {
        let mut m = MembershipNode::new(NodeId(i as u32), scale_config());
        m.preload_directory(&setup.templates[setup.seg_of[i] as usize]);
        engine.add_actor(HostId(i as u32), Box::new(m));
    }
    engine.start();

    // Steady-state bandwidth over [8 s, 18 s).
    let agg_recv_bytes_per_s = steady_traffic(&mut engine, 8 * SECS, 10 * SECS).bytes_per_s;

    // Kill a plain leaf member (highest id: never a leader under
    // lowest-id-wins) right after it heartbeats, so the detection sample
    // sits at the model's worst-case k·T alignment.
    let victim = HostId(n as u32 - 1);
    let base = engine.stats().host(victim).sent_pkts;
    while engine.stats().host(victim).sent_pkts == base {
        engine.run_for(10 * MILLIS);
    }
    let kill_at = engine.now();
    engine.schedule(kill_at, Control::Kill(victim));
    engine.run_until(kill_at + 12 * SECS);
    let probe = Detection::of(&engine, victim, kill_at);

    let p = ModelParams {
        n,
        record_bytes: WIRE_RECORD_BYTES,
        group_size,
        ..Default::default()
    };
    let model = hierarchical(&p);

    ScaleRow {
        n,
        segments,
        group_size,
        agg_recv_bytes_per_s,
        model_bytes_per_s: model.bandwidth_bytes_per_s,
        detect_s: probe.detect_s,
        model_detect_s: model.detection_s,
        converge_s: probe.converge_s,
        model_converge_s: model.convergence_s,
        observers: probe.observers,
        wall_ms: wall.elapsed().as_millis() as u64,
    }
}

/// The default A9 sweep sizes (requested; the topology grid rounds
/// them). Larger clusters are reachable one at a time with `--nodes`;
/// n = 50 000 peaks at 2.5 GB and takes about 70 s (docs/PERFORMANCE.md,
/// "Shared key pages").
pub const SWEEP_SIZES: [usize; 3] = [1000, 4000, 10000];

pub const COLUMNS: &[Column<ScaleRow>] = &[
    ("nodes", |r| r.n.to_string()),
    ("segs", |r| r.segments.to_string()),
    ("g", |r| r.group_size.to_string()),
    ("meas KB/s", |r| {
        format!("{:.1}", r.agg_recv_bytes_per_s / 1e3)
    }),
    ("model KB/s", |r| {
        format!("{:.1}", r.model_bytes_per_s / 1e3)
    }),
    ("bw ratio", |r| {
        format!("{:.3}", r.agg_recv_bytes_per_s / r.model_bytes_per_s)
    }),
    ("detect s", |r| format!("{:.3}", r.detect_s)),
    ("model s", |r| format!("{:.3}", r.model_detect_s)),
    ("converge s", |r| format!("{:.3}", r.converge_s)),
    ("observers", |r| r.observers.to_string()),
    ("wall ms", |r| r.wall_ms.to_string()),
];

/// The A9 sweep: one cell per size, so the table (minus the wall-clock
/// column) is identical at any pool width — and at any `sharding`. The
/// verdict enforces the 15 % model envelope on bandwidth and detection.
pub fn experiment(
    sizes: &[usize],
    seed: u64,
    sharding: ShardingKind,
) -> Experiment<usize, ScaleRow> {
    Experiment::new(
        "A9 — hierarchical scheme at scale vs §4 model (warm start, tree topology)",
        "scale",
        sizes.to_vec(),
        move |&nodes| measure(&SizeSetup::new(nodes), seed, sharding),
        COLUMNS,
    )
    .verdict(|rows| {
        let mut text = String::new();
        for r in rows {
            let bw = r.agg_recv_bytes_per_s / r.model_bytes_per_s;
            let det = r.detect_s / r.model_detect_s;
            let complete = r.observers == r.n - 1;
            if !((0.85..=1.15).contains(&bw) && (0.85..=1.15).contains(&det) && complete) {
                let _ = writeln!(
                    text,
                    "FAIL n={}: bw ratio {bw:.3}, detect ratio {det:.3}, observers {}/{}",
                    r.n,
                    r.observers,
                    r.n - 1
                );
            }
        }
        let pass = text.is_empty();
        if pass {
            text = "\nall sizes within 15% of the §4 model; every survivor observed the failure\n"
                .into();
        }
        Verdict { pass, text }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_topology_grid() {
        let (t, g) = scale_topology(1000);
        assert_eq!(g, 20);
        assert_eq!(t.num_hosts(), 980);
        assert_eq!(t.num_segments(), 49);
        let (t, g) = scale_topology(10000);
        assert_eq!(g, 21);
        assert_eq!(t.num_hosts(), 10164);
        assert_eq!(t.num_segments(), 484);
    }

    /// Small-size smoke of the full warm-start measurement pipeline;
    /// the real sizes run in release via `tamp-exp scale` and the
    /// release-gated golden test.
    #[test]
    fn warm_started_cluster_measures_sane() {
        let r = measure(&SizeSetup::new(80), 7, ShardingKind::Sequential);
        assert_eq!(r.n, 80);
        assert_eq!(r.observers, r.n - 1, "incomplete removal propagation");
        assert!(
            (0.5..=1.5).contains(&(r.agg_recv_bytes_per_s / r.model_bytes_per_s)),
            "bandwidth ratio off: {} vs {}",
            r.agg_recv_bytes_per_s,
            r.model_bytes_per_s
        );
        assert!(
            r.detect_s > 1.0 && r.detect_s < 10.0,
            "detect {}",
            r.detect_s
        );
        assert!(r.converge_s >= r.detect_s);
    }

    /// Same-seed golden for the A9 sweep's first size: two n=1000 runs
    /// with seed 2005 must agree on every measured quantity (wall clock
    /// excluded) — and reusing one [`SizeSetup`] across runs must change
    /// nothing. Release-only — the run is debug-prohibitive.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-only: ~1s release, minutes in debug"
    )]
    fn scale_n1000_seed2005_is_reproducible() {
        let fields = |r: &ScaleRow| {
            (
                r.n,
                r.segments,
                r.group_size,
                r.agg_recv_bytes_per_s.to_bits(),
                r.model_bytes_per_s.to_bits(),
                r.detect_s.to_bits(),
                r.converge_s.to_bits(),
                r.observers,
            )
        };
        let setup = SizeSetup::new(1000);
        let a = measure(&SizeSetup::new(1000), 2005, ShardingKind::Sequential);
        let b = measure(&setup, 2005, ShardingKind::Sequential);
        assert_eq!(fields(&a), fields(&b), "A9 n=1000 run is not deterministic");
        assert_eq!(a.observers, a.n - 1);
    }

    /// Sharding the engine itself (the `--shards` path) changes nothing
    /// measured: the full warm-start membership pipeline on a sharded
    /// engine is bit-equal to the sequential run.
    #[test]
    fn sharded_measure_matches_sequential() {
        let fields = |r: &ScaleRow| {
            (
                r.n,
                r.segments,
                r.agg_recv_bytes_per_s.to_bits(),
                r.detect_s.to_bits(),
                r.converge_s.to_bits(),
                r.observers,
            )
        };
        let setup = SizeSetup::new(80);
        let seq = measure(&setup, 7, ShardingKind::Sequential);
        let sharded = measure(&setup, 7, ShardingKind::Sharded(4));
        assert_eq!(
            fields(&seq),
            fields(&sharded),
            "sharded A9 measurement diverges from sequential"
        );
    }

    /// Reusing a [`SizeSetup`] across seeds is exactly per-seed builds:
    /// the templates and boot records are seed-independent.
    #[test]
    fn size_setup_reuse_matches_fresh_builds_across_seeds() {
        let fields = |r: &ScaleRow| {
            (
                r.agg_recv_bytes_per_s.to_bits(),
                r.detect_s.to_bits(),
                r.converge_s.to_bits(),
                r.observers,
            )
        };
        let setup = SizeSetup::new(80);
        for seed in [7, 8] {
            assert_eq!(
                fields(&measure(&setup, seed, ShardingKind::Sequential)),
                fields(&measure(
                    &SizeSetup::new(80),
                    seed,
                    ShardingKind::Sequential
                )),
                "seed {seed}: shared setup diverges from fresh build"
            );
        }
    }
}
