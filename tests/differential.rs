//! Differential lock on the scheduler rewrite: the production timer
//! wheel and the reference binary heap must be *indistinguishable* —
//! not just "both correct". Identical seeds must yield byte-identical
//! event traces, final per-node directory views, telemetry snapshots,
//! and traffic totals, at every size, with a mid-run crash and revival
//! in the schedule (epoch-stale timer discards included).
//!
//! Any divergence means the wheel reordered two same-time events — the
//! exact class of bug that silently breaks every golden file downstream.

use tamp::directory::Provenance;
use tamp::netsim::telemetry::snapshot_to_csv;
use tamp::netsim::{SchedulerKind, TraceConfig};
use tamp::prelude::*;

/// One directory entry, flattened for comparison.
type ViewEntry = (u32, u64, String, u64);

/// Everything observable about a finished run.
struct Fingerprint {
    trace: Vec<String>,
    total_recorded: u64,
    views: Vec<Vec<ViewEntry>>,
    metrics_csv: String,
    totals: (u64, u64, u64, u64, u64),
}

fn run_cluster(n: usize, seed: u64, kind: SchedulerKind) -> Fingerprint {
    let segments = (n / 20).max(1);
    let topo = generators::star_of_segments(segments, n / segments);
    let cfg = EngineConfig {
        trace: TraceConfig {
            capacity: 400_000,
            include_timers: true,
            ..TraceConfig::all()
        },
        metrics: true,
        scheduler: kind,
        ..Default::default()
    };
    let mut engine = Engine::new(topo, cfg, seed);
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let node = MembershipNode::new(NodeId(h.0), MembershipConfig::default());
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    // Crash the last host mid-run and revive it: exercises control
    // events, epoch-stale timer discards, and the rejoin path.
    let victim = HostId(n as u32 - 1);
    engine.schedule(12 * SECS, Control::Kill(victim));
    engine.schedule(15 * SECS, Control::Revive(victim));
    engine.start();
    engine.run_until(18 * SECS);

    let views = clients
        .iter()
        .map(|c| {
            c.read(|d| {
                let mut v: Vec<ViewEntry> = d
                    .entries()
                    .map(|e| {
                        let prov = match e.provenance {
                            Provenance::Local => "local".to_string(),
                            p => format!("{p:?}"),
                        };
                        (e.node.0, e.incarnation, prov, e.last_refresh)
                    })
                    .collect();
                v.sort();
                v
            })
        })
        .collect();
    let t = engine.stats().totals();
    Fingerprint {
        trace: engine
            .trace_log()
            .records()
            .map(tamp::netsim::TraceLog::render)
            .collect(),
        total_recorded: engine.trace_log().total_recorded(),
        views,
        metrics_csv: snapshot_to_csv(&engine.registry().snapshot()),
        totals: (
            t.sent_pkts,
            t.sent_bytes,
            t.recv_pkts,
            t.recv_bytes,
            t.dropped_pkts,
        ),
    }
}

/// Run every (seed, scheduler) pair for one size across a worker pool
/// (width from `TAMP_JOBS`, default `available_parallelism`; the runs
/// are sealed deterministic worlds, so any width yields the same
/// fingerprints), then compare wheel vs heap per seed in order.
fn assert_identical_all(n: usize) {
    let pool = tamp::par::Pool::from_env();
    let seeds: Vec<u64> = SEEDS.collect();
    let fps = pool.ordered_map(seeds.len() * 2, |i| {
        let kind = if i % 2 == 0 {
            SchedulerKind::TimerWheel
        } else {
            SchedulerKind::ReferenceHeap
        };
        run_cluster(n, seeds[i / 2], kind)
    });
    for (si, pair) in fps.chunks(2).enumerate() {
        compare(n, seeds[si], &pair[0], &pair[1]);
    }
}

fn compare(n: usize, seed: u64, wheel: &Fingerprint, heap: &Fingerprint) {
    assert_eq!(
        wheel.total_recorded, heap.total_recorded,
        "n={n} seed={seed}: trace event counts diverge"
    );
    if wheel.trace != heap.trace {
        let i = wheel
            .trace
            .iter()
            .zip(&heap.trace)
            .position(|(a, b)| a != b)
            .unwrap_or(wheel.trace.len().min(heap.trace.len()));
        let lo = i.saturating_sub(2);
        let hi = (i + 3).min(wheel.trace.len()).min(heap.trace.len());
        panic!(
            "n={n} seed={seed}: traces diverge at record {i}\n  wheel: {:#?}\n  heap:  {:#?}",
            &wheel.trace[lo..hi],
            &heap.trace[lo..hi],
        );
    }
    for (host, (w, h)) in wheel.views.iter().zip(&heap.views).enumerate() {
        assert_eq!(w, h, "n={n} seed={seed}: host {host} final view diverges");
    }
    assert_eq!(
        wheel.metrics_csv, heap.metrics_csv,
        "n={n} seed={seed}: telemetry snapshots diverge"
    );
    assert_eq!(
        wheel.totals, heap.totals,
        "n={n} seed={seed}: traffic totals diverge"
    );
}

const SEEDS: std::ops::Range<u64> = 2005..2015;

#[test]
fn schedulers_indistinguishable_n20() {
    assert_identical_all(20);
}

#[test]
fn schedulers_indistinguishable_n60() {
    assert_identical_all(60);
}

#[test]
fn schedulers_indistinguishable_n100() {
    assert_identical_all(100);
}
