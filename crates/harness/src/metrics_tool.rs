//! `tamp-exp metrics` — per-run telemetry dashboard.
//!
//! Runs a fig11/fig12-sized hierarchical cluster with the telemetry
//! registry and event trace enabled, injects a few staggered kills, and
//! renders what the paper's evaluation keeps asking for in one place:
//! bytes by message type (reconciled against `netsim::stats`' own byte
//! accounting), failure detection / view convergence percentiles, and
//! suspicion false-positive counts. The canonical JSONL trace and CSV
//! metric dump land under `results/telemetry/` — both byte-identical
//! across same-seed runs, so tests and CI diff them directly.

use crate::common::{
    figure_cluster, paper_topology, removal_chain, view_accuracy, FIGURE_ORDER, SETTLE,
};
use tamp_chaos::{Cluster, Protocol};
use tamp_netsim::telemetry::{
    events_to_jsonl, snapshot_to_csv, summary_table, EventRecord, MetricsSnapshot, CLUSTER,
    REFUTATION_KINDS,
};
use tamp_netsim::{EngineConfig, TraceConfig, MILLIS, SECS};
use tamp_topology::HostId;
use tamp_wire::NodeId;

/// Message and event kinds worth keeping in the exported event trace,
/// besides the removal chain (heartbeats dominate the packet stream and
/// would flush everything else out of the ring buffer).
const TRACED_KINDS: &[&str] = &[
    "update",
    "sync-req",
    "sync-resp",
    "election",
    "digest",
    "election-round",
    "leadership-claimed",
];

/// One telemetry-instrumented run plus its canonical exports.
pub struct MetricsRun {
    pub n: usize,
    pub seed: u64,
    /// Canonical JSONL event trace.
    pub jsonl: String,
    /// Canonical CSV metric dump.
    pub csv: String,
    /// Aligned full-registry table (`tamp_telemetry::summary_table`).
    pub summary: String,
    /// The rendered dashboard (bandwidth, percentiles, suspicions).
    pub dashboard: String,
    /// Per-kind `(kind, stats_pkts, stats_bytes, telemetry_pkts,
    /// telemetry_bytes)` — the two independent byte-accounting paths.
    pub reconciliation: Vec<(String, u64, u64, u64, u64)>,
}

impl MetricsRun {
    /// Do the telemetry counters agree with `netsim::stats` for every
    /// message kind?
    pub fn reconciles(&self) -> bool {
        self.reconciliation
            .iter()
            .all(|(_, sp, sb, tp, tb)| sp == tp && sb == tb)
    }
}

/// The engine configuration `collect` runs under: metrics on, event
/// trace on with the control-plane kinds and the removal chain.
pub fn instrumented_config() -> EngineConfig {
    EngineConfig {
        metrics: true,
        trace: TraceConfig {
            enabled: true,
            capacity: 200_000,
            kinds: TRACED_KINDS
                .iter()
                .copied()
                .chain(removal_chain())
                .collect(),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Run the instrumented scenario and collect every export as a string
/// (nothing written to disk — `run_and_print` does that).
pub fn collect(n: usize, seed: u64) -> MetricsRun {
    let mut c = figure_cluster(
        Protocol::Tamp,
        paper_topology(n, 20),
        seed,
        instrumented_config(),
    );
    let registry = c.engine.registry().clone();
    c.engine.run_until(SETTLE);

    // Staggered kills (fig12's measurement, folded into histograms).
    let victims: Vec<u32> = [n as u32 - 1, n as u32 / 2, 1]
        .into_iter()
        .take(n.saturating_sub(1).min(3))
        .collect();
    let detection = registry.histogram(CLUSTER, "harness", "detection_ns");
    let convergence = registry.histogram(CLUSTER, "harness", "convergence_ns");
    for &v in &victims {
        let t_kill = c.engine.now();
        let deadline = t_kill + 60 * SECS;
        c.engine.kill_now(HostId(v));
        while c.engine.now() < deadline {
            c.engine.run_for(100 * MILLIS);
            if let Some(t) = c.engine.stats().first_removal(NodeId(v)) {
                detection.record(t - t_kill);
                break;
            }
        }
        while c.engine.now() < deadline && view_accuracy(&c) < 1.0 {
            c.engine.run_for(100 * MILLIS);
        }
        if view_accuracy(&c) == 1.0 {
            convergence.record(c.engine.now() - t_kill);
        }
    }
    c.engine.run_for(5 * SECS);

    let snapshot = c.engine.registry().snapshot();
    let events: Vec<EventRecord> = c.engine.trace_log().records().cloned().collect();
    let reconciliation = reconcile(&c, &snapshot);
    let dashboard = render_dashboard(n, seed, &snapshot, &reconciliation);
    MetricsRun {
        n,
        seed,
        jsonl: events_to_jsonl(&events),
        csv: snapshot_to_csv(&snapshot),
        summary: summary_table(&snapshot),
        dashboard,
        reconciliation,
    }
}

/// Line up the simulator's own per-kind byte accounting with the
/// telemetry counters the engine maintains for the same packets.
fn reconcile(c: &Cluster, snap: &MetricsSnapshot) -> Vec<(String, u64, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (kind, (pkts, bytes)) in c.engine.stats().sends_by_kind() {
        let tp = snap.counter(CLUSTER, "net", &format!("sent_pkts.{kind}"));
        let tb = snap.counter(CLUSTER, "net", &format!("sent_bytes.{kind}"));
        rows.push((kind.to_string(), pkts, bytes, tp, tb));
    }
    rows
}

fn render_dashboard(
    n: usize,
    seed: u64,
    snap: &MetricsSnapshot,
    reconciliation: &[(String, u64, u64, u64, u64)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== tamp-exp metrics — hierarchical, n={n}, seed={seed} ==\n"
    ));

    let mut bw = crate::report::Table::new(
        "bandwidth by message type (telemetry vs netsim::stats)",
        &[
            "kind",
            "pkts",
            "bytes",
            "stats pkts",
            "stats bytes",
            "match",
        ],
    );
    for (kind, sp, sb, tp, tb) in reconciliation {
        bw.row(vec![
            kind.clone(),
            tp.to_string(),
            tb.to_string(),
            sp.to_string(),
            sb.to_string(),
            if sp == tp && sb == tb { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&bw.render());

    let mut lat = crate::report::Table::new(
        "failure response (staggered kills, bucketed percentiles, s)",
        &["metric", "n", "p50", "p90", "p99", "max"],
    );
    for (label, name) in [
        ("detection", "detection_ns"),
        ("convergence", "convergence_ns"),
    ] {
        if let Some(h) = snap.histogram(CLUSTER, "harness", name) {
            lat.row(vec![
                label.to_string(),
                h.count.to_string(),
                crate::report::secs(h.quantile(0.5)),
                crate::report::secs(h.quantile(0.9)),
                crate::report::secs(h.quantile(0.99)),
                crate::report::secs(h.max()),
            ]);
        }
    }
    if let Some(h) = snap.histogram(CLUSTER, "net", "delivery_ns") {
        lat.row(vec![
            "delivery".to_string(),
            h.count.to_string(),
            crate::report::secs(h.quantile(0.5)),
            crate::report::secs(h.quantile(0.9)),
            crate::report::secs(h.quantile(0.99)),
            crate::report::secs(h.max()),
        ]);
    }
    // Proxy-hop attribution (request seen at a proxy → response back),
    // recorded per forwarded request id; absent in proxy-free runs.
    if let Some(h) = snap.histogram(CLUSTER, "proxy", "hop_latency_ns") {
        lat.row(vec![
            "proxy hop".to_string(),
            h.count.to_string(),
            crate::report::secs(h.quantile(0.5)),
            crate::report::secs(h.quantile(0.9)),
            crate::report::secs(h.quantile(0.99)),
            crate::report::secs(h.max()),
        ]);
    }
    out.push_str(&lat.render());

    let ev = |kind: &str| snap.counter_total("events", kind);
    out.push_str(&format!(
        "\nsuspicions: raised {} / refuted {} (false positives) / confirmed {}\n",
        ev("suspicion-armed"),
        ev("suspicion-refuted"),
        ev("suspicion-confirmed"),
    ));
    out.push_str(&format!(
        "drops: loss {} / dead-host {} / partition {} / gray {} / unroutable {}\n",
        snap.counter(CLUSTER, "net", "drop.loss"),
        snap.counter(CLUSTER, "net", "drop.dead_host"),
        snap.counter(CLUSTER, "net", "drop.partition"),
        snap.counter(CLUSTER, "net", "drop.gray"),
        snap.counter(CLUSTER, "net", "drop.unroutable"),
    ));
    out
}

/// Per-protocol counter comparison: one small instrumented cluster per
/// protocol, a kill at steady state, and the shared suspicion/removal
/// event counters. Stand-alone so the golden-pinned [`collect`] exports
/// are untouched.
pub fn protocol_comparison(n: usize, seed: u64) -> String {
    let mut t = crate::report::Table::new(
        format!("protocol comparison (n={n}, one kill at steady state)"),
        &[
            "protocol",
            "deaths",
            "suspected",
            "refuted",
            "confirmed",
            "detect s",
        ],
    );
    for protocol in FIGURE_ORDER {
        let mut c = figure_cluster(
            protocol,
            paper_topology(n, 20),
            seed,
            EngineConfig {
                metrics: true,
                ..Default::default()
            },
        );
        c.engine.run_until(SETTLE);
        let detect = c.kill_and_measure(HostId(n as u32 - 1), 60 * SECS).detect_s;
        let snap = c.engine.registry().snapshot();
        let ev = |kind: &str| snap.counter_total("events", kind);
        let refuted: u64 = REFUTATION_KINDS.iter().map(|k| ev(k)).sum();
        t.row(vec![
            protocol.name().to_string(),
            ev("death-declared").to_string(),
            ev("suspicion-armed").to_string(),
            refuted.to_string(),
            ev("suspicion-confirmed").to_string(),
            format!("{detect:.2}"),
        ]);
    }
    t.render()
}

/// Entry point for `tamp-exp metrics`: print the dashboard and write
/// the canonical exports under `results/telemetry/`. Returns the exit
/// code: 0, or 2 when an export cannot be written.
pub fn run_and_print(n: usize, seed: u64) -> i32 {
    let m = collect(n, seed);
    print!("{}", m.dashboard);
    print!("{}", protocol_comparison(20, seed));
    // Request-SLO section, fed by a prior `tamp-exp load` run's exports
    // (not part of the golden-pinned artifacts above).
    match crate::load::slo_section() {
        Some(section) => print!("{section}"),
        None => {
            println!("(no results/load exports — run `tamp-exp load` for the request-SLO section)")
        }
    }
    println!(
        "\nreconciliation: telemetry {} netsim::stats byte accounting",
        if m.reconciles() {
            "matches"
        } else {
            "DISAGREES WITH"
        }
    );

    let dir = std::path::Path::new("results").join("telemetry");
    let stem = format!("metrics-n{n}-seed{seed}");
    for (ext, body) in [
        ("events.jsonl", &m.jsonl),
        ("metrics.csv", &m.csv),
        ("summary.txt", &m.summary),
    ] {
        let path = dir.join(format!("{stem}.{ext}"));
        if let Err(code) = crate::report::write_export(&path, body) {
            return code;
        }
        println!("wrote {}", path.display());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_exports_are_byte_identical() {
        let a = collect(20, 42);
        let b = collect(20, 42);
        assert!(!a.jsonl.is_empty() && !a.csv.is_empty());
        assert_eq!(a.jsonl, b.jsonl, "JSONL trace must be deterministic");
        assert_eq!(a.csv, b.csv, "CSV metrics must be deterministic");
        assert_eq!(a.dashboard, b.dashboard);
    }

    /// The checked-in exports under `results/telemetry/` are goldens:
    /// a scheduler or fan-out change that reorders events shows up here
    /// as a diff, not as a silent drift. Regenerate deliberately with
    /// `tamp-exp metrics --quick --seed 2005` and commit the result.
    #[test]
    fn exports_match_checked_in_goldens() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/telemetry");
        let m = collect(20, 2005);
        for (ext, body) in [
            ("events.jsonl", &m.jsonl),
            ("metrics.csv", &m.csv),
            ("summary.txt", &m.summary),
        ] {
            let path = dir.join(format!("metrics-n20-seed2005.{ext}"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
            assert_eq!(
                body,
                &golden,
                "{ext} drifted from the checked-in golden {}",
                path.display()
            );
        }
    }

    #[test]
    fn protocol_comparison_renders_all_five_columns() {
        let table = protocol_comparison(10, 7);
        for name in ["alltoall", "gossip", "tamp", "swim", "tamp-rapid"] {
            assert!(table.contains(name), "missing {name} row:\n{table}");
        }
        // Every protocol declared the kill: no NaN detect cells.
        assert!(!table.contains("NaN"), "undetected kill:\n{table}");
    }

    #[test]
    fn bandwidth_reconciles_with_netsim_stats() {
        let m = collect(20, 7);
        assert!(!m.reconciliation.is_empty(), "no traffic measured");
        assert!(
            m.reconciliation.iter().any(|(k, ..)| k == "heartbeat"),
            "heartbeat traffic missing: {:?}",
            m.reconciliation
        );
        assert!(
            m.reconciles(),
            "telemetry disagrees with stats: {:?}",
            m.reconciliation
        );
        // The kills left a measurable failure response.
        assert!(m.dashboard.contains("detection"));
    }

    /// Overhead guard: the fig11 measurement at n=100 with telemetry
    /// fully enabled must stay within 5% wall-clock of the same run
    /// with the registry disabled (no-op handles). Wall-clock bound, so
    /// opt-in: `cargo test -p tamp-harness -- --ignored overhead`.
    #[test]
    #[ignore = "wall-clock sensitive; run explicitly"]
    fn telemetry_overhead_within_five_percent() {
        let run_once = |cfg: EngineConfig| {
            let start = std::time::Instant::now();
            let mut c = figure_cluster(Protocol::Tamp, paper_topology(100, 20), 5, cfg);
            c.engine.run_until(SETTLE + 30 * SECS);
            start.elapsed()
        };
        let median = |cfg: fn() -> EngineConfig| {
            let mut times: Vec<_> = (0..3).map(|_| run_once(cfg())).collect();
            times.sort();
            times[1]
        };
        let off = median(EngineConfig::default);
        let on = median(instrumented_config);
        let ratio = on.as_secs_f64() / off.as_secs_f64();
        assert!(
            ratio < 1.05,
            "telemetry overhead {ratio:.3}x exceeds 5% (on {on:?} vs off {off:?})"
        );
    }
}
