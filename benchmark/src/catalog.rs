//! The names the benchmark speaks: workloads, sizes, end-to-end and
//! per-layer metrics with their units, directions and bounds. The
//! harness, `compare`, the README tables and `BENCHMARK.json` all follow
//! this one list (a test holds `BENCHMARK.json` to it).

use crate::json::Value;
use tamp_chaos::PROTOCOLS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Every workload and every check in under 30 s; for CI.
    Smoke,
    /// A few seconds per repetition, so that several repetitions fit a
    /// `--seconds` budget; what `--workload` runs.
    Bench,
    /// The sizes the ledger records (n = 10164, K = 400, 1 M users).
    Full,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Smoke => "smoke",
            Size::Bench => "bench",
            Size::Full => "full",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Smoke, Size::Bench, Size::Full]
            .into_iter()
            .find(|z| z.name() == s)
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "a9_steady",
        why: "warm-started tree cluster, sequential engine: steady heartbeats through scheduler, fan-out and directory refresh; no codec, chaos or load code runs",
    },
    Workload {
        name: "a9_shards",
        why: "the same simulation on the 2-shard engine: adds epoch, exchange and merge (here both shards on one thread: worker wake-ups would time the host); outputs must be bit-equal to a9_steady",
    },
    Workload {
        name: "churn_wire",
        why: "cold start, segment and leader kills, revival, borrowed wire codec: directory writes, digests, elections, syncs, encode and view parse",
    },
    Workload {
        name: "chaos_mix",
        why: "5 protocols x K seeded fault schedules on 10-host clusters under the strict oracle: engine build and teardown, oracle, telemetry, baselines",
    },
    Workload {
        name: "load_failover",
        why: "closed-loop Zipf request load on 3 datacenters through a proxy failover: the request path, where membership traffic is a rounding error",
    },
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Host-time metric: may worsen by this share of the parent's
    /// median, or by this absolute amount, whichever is larger.
    Timed { share: f64, floor: f64 },
    /// Simulated quantity: bit-equal to the parent unless the change
    /// says it alters protocol behaviour.
    Exact,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The five host-cost metrics: every workload reports each of them, none
/// is ever 0, and a run-to-run spread can be stated for each. These are
/// the `end_to_end` list of `BENCHMARK.json`.
pub const HOST_METRICS: [Metric; 5] = [
    lower("wall_s", "s"),
    Metric {
        name: "deliveries_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// The six simulated end-to-end metrics. Exact for a given seed, so
/// `compare` demands equality; not every workload has each, and several
/// are legitimately 0, so `BENCHMARK.json` lists them under `per_layer`.
pub const EXACT_METRICS: [Metric; 6] = [
    lower("failed_ops_pct", "%"),
    lower("sim_bytes_per_node_s", "B/s"),
    lower("sim_detect_s", "s"),
    lower("sim_converge_s", "s"),
    lower("sim_model_err_pct", "%"),
    lower("sim_req_p99_ms", "ms"),
];

pub fn bound(workload: &str, metric: &str) -> Bound {
    // The sharded run shares both cores with whatever else the host
    // does, so its host times get more room.
    let share = if workload == "a9_shards" { 0.15 } else { 0.10 };
    match metric {
        "wall_s" | "deliveries_per_s" | "cpu_s" => Bound::Timed { share, floor: 0.0 },
        "peak_rss_mb" => Bound::Timed {
            share: 0.10,
            floor: 8.0,
        },
        "setup_s" => Bound::Timed {
            share: 0.15,
            floor: 0.050,
        },
        _ => Bound::Exact,
    }
}

/// The bound `BENCHMARK.json` states for a host metric: one number per
/// metric across all workloads and across *different* seeds. Wider than
/// [`bound`] because it has to be three times the spread seen over ten
/// seeds on the sizing host (README, Steadiness): 2–10 % for the time
/// metrics, up to 2.5 % for peak RSS.
pub fn driver_bound(metric: &str) -> f64 {
    match metric {
        "peak_rss_mb" => 0.15,
        _ => 0.25,
    }
}

/// Per-layer metrics, grouped by the crate they measure. Unit and
/// direction follow from the name's suffix (see [`per_layer`]).
const LAYER_NAMES: &[&str] = &[
    "topology.build_ms",
    "topology.plan_shards_ms",
    "setup.templates_ms",
    "setup.preload_ms",
    "setup.engine_build_ms",
    "netsim.sched_ns_per_event",
    "netsim.fanout_ns_per_delivery",
    "netsim.run_ns_per_delivery.a9_steady",
    "netsim.run_ns_per_delivery.a9_shards",
    "netsim.run_ns_per_delivery.churn_wire",
    "netsim.trace_overhead_pct",
    "netsim.metrics_overhead_pct",
    "netsim.effective_shards",
    "netsim.lookahead_us",
    "netsim.shard_wall_ratio",
    "netsim.shard_cpu_ratio",
    "membership.heartbeat_ns_per_packet",
    "membership.view_heartbeat_ns_per_packet",
    "membership.tick_ns",
    "membership.self_ns_per_delivery",
    "directory.refresh_ns_per_op",
    "directory.join_ns_per_op",
    "directory.leave_ns_per_op",
    "directory.expire_ns_per_scan",
    "directory.digest_ns_per_tick",
    "directory.resolve_ns_per_op",
    "directory.clone_ns_per_entry",
    "directory.rss_bytes_per_entry",
    "wire.encode_ns_per_frame",
    "wire.view_parse_ns_per_frame",
    "wire.decode_ns_per_frame",
    "wire.encoded_len_ns",
    "wire.sync_frame_view_ns",
    "regexlite.compile_ns",
    "regexlite.match_ns",
    "telemetry.counter_ns_per_op",
    "telemetry.histogram_ns_per_op",
    "telemetry.snapshot_ms",
    "chaos.schedule_gen_us_per_seed",
    "par.ordered_scan_ns_per_job",
    "par.sweep_speedup_jobs2",
    "load.build_ms",
    "load.zipf_ns_per_sample",
    "load.run_ns_per_request",
];

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: String) -> LayerMetric {
    let has = |part: &str| name.contains(part);
    let unit = if has("_pct") {
        "%"
    } else if has("_ns") {
        "ns"
    } else if has("_us") {
        "us"
    } else if has("_ms") {
        "ms"
    } else if has("_bytes") {
        "B"
    } else if has("_ratio") || has("_speedup") {
        "ratio"
    } else {
        "count"
    };
    let better = match name.as_str() {
        "netsim.effective_shards" | "netsim.lookahead_us" | "par.sweep_speedup_jobs2" => {
            Better::Higher
        }
        _ => Better::Lower,
    };
    LayerMetric { name, unit, better }
}

/// Every per-layer metric a traced run reports, in report order: the
/// layer list, the per-protocol and per-workload families, then the
/// exact simulated metrics.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out: Vec<LayerMetric> = LAYER_NAMES.iter().map(|n| layer(n.to_string())).collect();
    for p in PROTOCOLS {
        out.push(layer(format!("chaos.run_ms_per_seed.{p}")));
    }
    for p in PROTOCOLS {
        out.push(layer(format!("chaos.failed_seeds.{p}")));
    }
    for w in &WORKLOADS {
        out.push(layer(format!("bench.trace_overhead_pct.{}", w.name)));
    }
    for m in &EXACT_METRICS {
        out.push(LayerMetric {
            name: m.name.to_string(),
            unit: m.unit,
            better: m.better,
        });
    }
    out
}

/// Seconds one `--workload` run measures for; `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

/// What `BENCHMARK.json` at the root of the repo must say (a test holds
/// the file to this; `run.sh manifest` prints it).
pub fn manifest() -> Value {
    let list = |items: Vec<Value>| Value::Arr(items);
    Value::obj([
        (
            "command",
            list(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", list(vec![Value::str("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            list(
                HOST_METRICS
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(driver_bound(m.name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            list(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_counts_fit_the_benchmark_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&HOST_METRICS.len()));
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} layer metrics",
            layers.len()
        );

        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
        }
        for m in HOST_METRICS.iter().chain(&EXACT_METRICS) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        }
        for m in &HOST_METRICS {
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
            assert!(driver_bound(m.name) <= 0.25);
            // The stated bound covers every workload's own bound.
            for w in &WORKLOADS {
                let Bound::Timed { share, .. } = bound(w.name, m.name) else {
                    panic!("{} must be a timed metric", m.name);
                };
                assert!(share <= driver_bound(m.name));
            }
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        assert!(HOST_METRICS
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &EXACT_METRICS {
            assert_eq!(bound("a9_steady", m.name), Bound::Exact);
        }
    }

    #[test]
    fn units_follow_name_suffixes() {
        let unit = |n: &str| layer(n.to_string()).unit;
        assert_eq!(unit("netsim.trace_overhead_pct"), "%");
        assert_eq!(unit("netsim.run_ns_per_delivery.a9_steady"), "ns");
        assert_eq!(unit("directory.rss_bytes_per_entry"), "B");
        assert_eq!(unit("chaos.run_ms_per_seed.tamp-rapid"), "ms");
        assert_eq!(unit("chaos.failed_seeds.swim"), "count");
        assert_eq!(unit("par.sweep_speedup_jobs2"), "ratio");
        assert_eq!(unit("netsim.shard_cpu_ratio"), "ratio");
    }
}
