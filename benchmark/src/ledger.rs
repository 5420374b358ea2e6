//! The parent side: runs each workload in child processes of this same
//! binary, aggregates the repetitions, applies the output checks and
//! turns the result into metrics.
//!
//! One child = one process = one set-up + one timed region, so
//! `peak_rss_mb`, `cpu_s` and `setup_s` belong to one workload and one
//! repetition, and nothing a repetition leaves behind (allocator state,
//! warm caches, worker threads) reaches the next.

use crate::catalog::{self, Size, EXACT_METRICS};
use crate::host::{max, median, min};
use crate::json::{self, Value};
use crate::micro;
use crate::trace::{self, Span};
use crate::workloads::{a9, RunOutput};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Children that only set up (cheap next to a measured repetition), so
/// that `setup_s` is a median over enough samples to be steady.
const SETUP_ONLY_CHILDREN: usize = 4;

/// How many repetitions of a workload to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Reps(usize),
    /// Repeat until the timed regions add up to this many seconds.
    Seconds(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub size: Size,
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    /// Give every repetition its own seed derived from `seed`, so that a
    /// run samples several simulations and its medians depend less on
    /// one seed's luck. Off, all repetitions simulate the same thing and
    /// must agree bit for bit.
    pub vary_seed: bool,
}

/// Seed of repetition `rep` when seeds vary: far enough apart that the
/// `seed..seed+K` ranges of `chaos_mix` do not overlap.
fn rep_seed(plan: &Plan, rep: usize) -> u64 {
    if plan.vary_seed {
        plan.seed.wrapping_add(rep as u64 * 1_000_003)
    } else {
        plan.seed
    }
}

/// Median, extremes and count of one timed metric over the repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: min(values),
            max: max(values),
            n: values.len(),
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// The untraced repetitions: the end-to-end numbers come from these.
    pub runs: Vec<RunOutput>,
    pub setup_samples: Vec<f64>,
    pub traced: Option<RunOutput>,
    pub failures: Vec<String>,
}

/// Run this same binary with `args`, wait for it, and parse the last
/// line it printed. `output` waits for the child, so none outlives this
/// call.
fn run_child(what: &str, args: &[&str]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {what} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} child ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| format!("{what} child printed no result ({e}): {line:?}"))
}

fn spawn(
    workload: &str,
    size: Size,
    seed: u64,
    traced: bool,
    setup_only: bool,
    shard_jobs: Option<usize>,
) -> Result<RunOutput, String> {
    let seed = seed.to_string();
    let jobs = shard_jobs.map(|j| j.to_string());
    let mut args = vec!["child", "--workload", workload, "--size", size.name()];
    args.extend(["--seed", &seed, "--trace", if traced { "1" } else { "0" }]);
    if setup_only {
        args.push("--setup-only");
    }
    if let Some(jobs) = &jobs {
        args.extend(["--shard-jobs", jobs]);
    }
    RunOutput::from_json(&run_child(workload, &args)?)
        .ok_or_else(|| format!("{workload} child printed a malformed result"))
}

impl Report {
    fn new(workload: &'static str) -> Report {
        Report {
            workload,
            runs: Vec::new(),
            setup_samples: Vec::new(),
            traced: None,
            failures: Vec::new(),
        }
    }

    fn child(
        &mut self,
        plan: &Plan,
        seed: u64,
        traced: bool,
        setup_only: bool,
    ) -> Option<RunOutput> {
        spawn(self.workload, plan.size, seed, traced, setup_only, None)
            .map_err(|e| self.failures.push(e))
            .ok()
    }

    fn sample_setups(&mut self, plan: &Plan) {
        for _ in 0..SETUP_ONLY_CHILDREN {
            if let Some(run) = self.child(plan, plan.seed, false, true) {
                self.setup_samples.push(run.setup_s);
            }
        }
    }

    /// Does the budget ask for another untraced repetition?
    fn wants_more(&self, plan: &Plan) -> bool {
        let measured: f64 = self.runs.iter().map(|r| r.wall_s).sum();
        let done = match plan.budget {
            Budget::Reps(n) => self.runs.len() >= n,
            Budget::Seconds(s) => !self.runs.is_empty() && measured >= s,
        };
        !done && self.failures.is_empty()
    }

    fn repeat(&mut self, plan: &Plan) {
        let seed = rep_seed(plan, self.runs.len());
        if let Some(run) = self.child(plan, seed, false, false) {
            self.setup_samples.push(run.setup_s);
            self.runs.push(run);
        }
    }

    fn trace(&mut self, plan: &Plan) {
        if self.failures.is_empty() {
            self.traced = self.child(plan, plan.seed, true, false);
        }
    }

    /// Output checks: each repetition's own, then agreement between them.
    fn check(&mut self, plan: &Plan) {
        let workload = self.workload;
        for run in self.runs.iter().chain(&self.traced) {
            self.failures.extend(run.check_failures.iter().cloned());
        }
        if let (Some(first), false) = (self.runs.first(), plan.vary_seed) {
            let mut others = self.runs.iter().skip(1).chain(&self.traced);
            if others.any(|run| !run.same_simulation(first)) {
                self.failures.push(format!(
                    "{workload}: simulated outputs differ between repetitions"
                ));
            }
        }
        if let Some(Err(e)) = self.traced.as_ref().map(|t| trace::check_nesting(&t.spans)) {
            self.failures.push(format!("{workload}: {e}"));
        }
    }

    /// The exact and delivery outputs every repetition agreed on.
    fn first(&self) -> Option<&RunOutput> {
        self.runs.first()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        let per_run = |f: &dyn Fn(&RunOutput) -> f64| -> Option<Summary> {
            let values: Vec<f64> = self.runs.iter().map(f).collect();
            (!values.is_empty()).then(|| Summary::of(&values))
        };
        match metric {
            "wall_s" => per_run(&|r| r.wall_s),
            "cpu_s" => per_run(&|r| r.cpu_s),
            "peak_rss_mb" => per_run(&|r| r.peak_rss_mb),
            "deliveries_per_s" => per_run(&|r| r.deliveries as f64 / r.wall_s),
            "setup_s" => (!self.setup_samples.is_empty()).then(|| Summary::of(&self.setup_samples)),
            _ => None,
        }
    }

    pub fn exact(&self, metric: &str) -> Option<f64> {
        self.first()?.exact(metric)
    }

    /// Outputs checked and outputs wrong, over all repetitions. A
    /// failed check that no workload counted itself still counts.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let attempted: u64 = self.runs.iter().map(|r| r.attempted).sum();
        let counted: u64 = self.runs.iter().map(|r| r.failed).sum();
        let failed = if counted == 0 && !self.failures.is_empty() {
            attempted.max(1)
        } else {
            counted
        };
        (attempted.max(1), failed)
    }

    /// Per-layer metrics this workload's traced repetition gives. The
    /// exact metrics ride along only `with_exact`: they are per workload,
    /// so they can join the flat per-layer list of a one-workload run but
    /// not that of the whole ledger.
    fn layers(&self, with_exact: bool) -> Vec<(String, f64)> {
        let Some(t) = &self.traced else {
            return Vec::new();
        };
        let mut out = t.layers.clone();
        // Set-up steps are spans; their durations are the metrics.
        for (span, metric) in [
            ("topology.build", "topology.build_ms"),
            ("setup.templates", "setup.templates_ms"),
            ("setup.preload", "setup.preload_ms"),
            ("setup.engine_build", "setup.engine_build_ms"),
            ("load.build", "load.build_ms"),
        ] {
            if t.spans.iter().any(|s| s.name == span) {
                out.push((
                    metric.to_string(),
                    trace::total_ns(&t.spans, span) as f64 / 1e6,
                ));
            }
        }
        if let Some(untraced) = self.summary("wall_s") {
            out.push((
                format!("bench.trace_overhead_pct.{}", self.workload),
                100.0 * (t.wall_s / untraced.median - 1.0),
            ));
        }
        if with_exact {
            out.extend(t.exact.iter().cloned());
        }
        out
    }
}

/// One invocation's worth of measurements: the workloads run, plus what
/// only exists across them (micro loops, shard ratios, cross checks).
pub struct Ledger {
    pub plan: Plan,
    pub reports: Vec<Report>,
    /// Per-layer numbers that belong to no single workload: the micro
    /// loops and the shard ratios.
    pub shared_layers: Vec<(String, f64)>,
    pub failures: Vec<String>,
    pub started: Instant,
}

/// Run `workloads` (names from the catalogue) under `plan`.
///
/// `a9_shards` must equal the sequential engine bit for bit. When
/// `a9_steady` is not among `workloads`, one sequential repetition is
/// run as its reference (and, in a traced run, as the base of the shard
/// ratios).
pub fn run(workloads: &[&'static str], plan: Plan) -> Ledger {
    let started = Instant::now();
    let mut failures = micro::corpus_disagreements();
    let mut reports: Vec<Report> = workloads.iter().map(|&w| Report::new(w)).collect();
    for r in &mut reports {
        r.sample_setups(&plan);
    }
    // One repetition of every workload per round: each workload's
    // repetitions then spread over the whole invocation, so a slow
    // minute on the host widens every range (and `compare` can say
    // `unresolved`) instead of silently shifting one workload's median.
    while reports.iter().any(|r| r.wants_more(&plan)) {
        for r in reports.iter_mut().filter(|r| r.wants_more(&plan)) {
            r.repeat(&plan);
        }
    }
    for r in &mut reports {
        if plan.traced {
            r.trace(&plan);
        }
        r.check(&plan);
        say(&format!(
            "{}: {} repetitions, {} failures",
            r.workload,
            r.runs.len(),
            r.failures.len()
        ));
    }

    let reference = if workloads.contains(&"a9_shards") && !workloads.contains(&"a9_steady") {
        let one = Plan {
            budget: Budget::Reps(1),
            vary_seed: false,
            ..plan
        };
        let mut r = Report::new("a9_steady");
        r.repeat(&one);
        r.check(&one);
        failures.extend(r.failures.iter().cloned());
        Some(r)
    } else {
        None
    };
    let find = |name: &str| {
        reports
            .iter()
            .chain(&reference)
            .find(|r| r.workload == name)
    };
    let mut shared_layers = Vec::new();
    if let (Some(shards), Some(steady)) = (find("a9_shards"), find("a9_steady")) {
        if let (Some(a), Some(b)) = (shards.first(), steady.first()) {
            if !a.same_simulation(b) {
                failures.push("a9_shards: outputs differ from the sequential engine".to_string());
            }
        }
        if crate::host::cores() < 2 {
            say("a9_shards: unresolved on a 1-core host (both shards share the core)");
        }
        // The shard ratios describe the engine on two workers. Where the
        // repetitions ran both shards on one thread (bench size), a
        // traced run measures the two-worker engine once, here.
        let on_workers = if a9::shard_jobs(plan.size) == a9::SHARDS {
            shards
                .summary("wall_s")
                .zip(shards.summary("cpu_s"))
                .map(|(wall, cpu)| (wall.median, cpu.median))
        } else if plan.traced {
            let jobs = Some(a9::SHARDS);
            match spawn("a9_shards", plan.size, plan.seed, false, false, jobs) {
                Ok(run) => {
                    if steady.first().is_some_and(|b| !run.same_simulation(b)) {
                        failures.push(
                            "a9_shards: outputs on two workers differ from the sequential engine"
                                .to_string(),
                        );
                    }
                    failures.extend(run.check_failures.iter().cloned());
                    Some((run.wall_s, run.cpu_s))
                }
                Err(e) => {
                    failures.push(e);
                    None
                }
            }
        } else {
            None
        };
        if let (Some((wall, cpu)), Some(bw), Some(bc)) = (
            on_workers,
            steady.summary("wall_s"),
            steady.summary("cpu_s"),
        ) {
            shared_layers.push(("netsim.shard_wall_ratio".to_string(), wall / bw.median));
            shared_layers.push(("netsim.shard_cpu_ratio".to_string(), cpu / bc.median));
        }
    }

    if plan.traced {
        match spawn_micro(plan.size) {
            Ok(m) => shared_layers.extend(m),
            Err(e) => failures.push(e),
        }
    }
    for r in &reports {
        failures.extend(r.failures.iter().cloned());
    }
    Ledger {
        plan,
        reports,
        shared_layers,
        failures,
        started,
    }
}

fn spawn_micro(size: Size) -> Result<Vec<(String, f64)>, String> {
    run_child("micro", &["micro", "--size", size.name()])?
        .as_obj()
        .and_then(|pairs| {
            pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .ok_or_else(|| "micro child printed a malformed result".to_string())
}

/// Progress goes to stderr; stdout carries only results.
pub fn say(line: &str) {
    eprintln!("[benchmark] {line}");
}

impl Ledger {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every per-layer metric of the catalogue with the value this
    /// invocation measured; 0 where the layer was not exercised (a
    /// single-workload run leaves the other workloads' layers idle).
    pub fn per_layer(&self) -> Vec<(catalog::LayerMetric, Option<f64>)> {
        let mut measured: Vec<(String, f64)> = self.shared_layers.clone();
        for r in &self.reports {
            measured.extend(r.layers(self.reports.len() == 1));
        }
        // What the protocol adds on top of the bare engine, per delivery.
        let get = |name: &str| measured.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        if let (Some(run), Some(fanout)) = (
            get("netsim.run_ns_per_delivery.a9_steady"),
            get("netsim.fanout_ns_per_delivery"),
        ) {
            measured.push(("membership.self_ns_per_delivery".to_string(), run - fanout));
        }
        catalog::per_layer()
            .into_iter()
            .map(|m| {
                let v = measured.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
                (m, v)
            })
            .collect()
    }

    /// All spans of the traced repetitions, each tagged with its workload.
    pub fn trace_json(&self) -> Value {
        let mut all = Vec::new();
        for r in &self.reports {
            let Some(t) = &r.traced else { continue };
            // Parent indices are per repetition; shift them to this array.
            let base = all.len();
            let self_ns = trace::self_times_ns(&t.spans);
            for (s, own) in t.spans.iter().zip(self_ns) {
                let shifted = Span {
                    parent: s.parent.map(|p| p + base),
                    ..s.clone()
                };
                all.push(span_json(r.workload, &shifted, own));
            }
        }
        Value::Arr(all)
    }

    /// The ledger file: host, inputs, and per workload every end-to-end
    /// metric (timed ones with median, min, max and count), then the
    /// per-layer metrics.
    pub fn to_json(&self, host: Value) -> Value {
        let workloads = self.reports.iter().map(|r| {
            let mut metrics: Vec<(String, Value)> = Vec::new();
            for m in &catalog::HOST_METRICS {
                if let Some(s) = r.summary(m.name) {
                    metrics.push((
                        m.name.to_string(),
                        Value::obj([
                            ("unit", Value::str(m.unit)),
                            ("median", Value::Num(s.median)),
                            ("min", Value::Num(s.min)),
                            ("max", Value::Num(s.max)),
                            ("n", Value::from(s.n as u64)),
                        ]),
                    ));
                }
            }
            for m in &EXACT_METRICS {
                if let Some(v) = r.exact(m.name) {
                    metrics.push((
                        m.name.to_string(),
                        Value::obj([("unit", Value::str(m.unit)), ("exact", Value::Num(v))]),
                    ));
                }
            }
            let (attempted, failed) = r.attempted_failed();
            (
                r.workload.to_string(),
                Value::obj([
                    ("attempted", Value::from(attempted)),
                    ("failed", Value::from(failed)),
                    (
                        "digest",
                        r.first()
                            .map_or(Value::Null, |f| Value::str(format!("{:016x}", f.digest))),
                    ),
                    ("end_to_end", Value::Obj(metrics)),
                ]),
            )
        });
        let layers = self.per_layer().into_iter().filter_map(|(m, v)| {
            let v = v?;
            Some((
                m.name,
                Value::obj([("unit", Value::str(m.unit)), ("value", Value::Num(v))]),
            ))
        });
        Value::obj([
            ("host", host),
            ("size", Value::str(self.plan.size.name())),
            ("seed", Value::from(self.plan.seed)),
            ("traced", Value::from(self.plan.traced)),
            ("correct", Value::from(self.correct())),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            (
                "elapsed_s",
                Value::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("workloads", Value::Obj(workloads.collect())),
            ("per_layer", Value::Obj(layers.collect())),
        ])
    }

    /// Print every metric as `workload name unit value` lines.
    pub fn print(&self) {
        for r in &self.reports {
            for m in &catalog::HOST_METRICS {
                match r.summary(m.name) {
                    Some(s) => println!(
                        "{} {} {} {:.6} (min {:.6} max {:.6} n {})",
                        r.workload, m.name, m.unit, s.median, s.min, s.max, s.n
                    ),
                    None => println!("{} {} {} n/a", r.workload, m.name, m.unit),
                }
            }
            for m in &EXACT_METRICS {
                match r.exact(m.name) {
                    Some(v) => println!("{} {} {} {v}", r.workload, m.name, m.unit),
                    None => println!("{} {} {} n/a", r.workload, m.name, m.unit),
                }
            }
        }
        if self.plan.traced {
            for (m, v) in self.per_layer() {
                match v {
                    Some(v) => println!("layer {} {} {v:.4}", m.name, m.unit),
                    None => println!("layer {} {} n/a", m.name, m.unit),
                }
            }
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }
}

fn span_json(workload: &str, s: &Span, self_ns: u64) -> Value {
    let mut fields = vec![("workload".to_string(), Value::str(workload))];
    fields.extend(trace::span_fields(s));
    fields.push(("self".to_string(), Value::from(self_ns)));
    Value::Obj(fields)
}
