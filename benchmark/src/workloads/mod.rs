//! The five workloads. Each runs once per child process: set-up, then
//! the timed region, then its output checks, and returns a [`RunOutput`]
//! that the parent aggregates over repetitions.

pub mod a9;
pub mod chaos;
pub mod churn;
pub mod load;

use crate::catalog::Size;
use crate::host;
use crate::json::Value;
use crate::trace::{self, Span, Tracer};
use std::time::Instant;

/// Everything one run of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Process start to the start of the timed region.
    pub setup_s: f64,
    /// The timed region: wall and CPU (user + system, every thread).
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Simulated packet deliveries inside the timed region (exact).
    pub deliveries: u64,
    /// Outputs checked, and how many of them were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// The exact (simulated) end-to-end metrics that apply here.
    pub exact: Vec<(String, f64)>,
    /// Hash over every simulated output the workload produced; equal
    /// digests mean bit-equal simulations.
    pub digest: u64,
    /// Output checks that failed, in words. Empty on a correct run.
    pub check_failures: Vec<String>,
    /// Per-layer numbers this run could measure (traced runs only).
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl RunOutput {
    pub fn exact(&self, name: &str) -> Option<f64> {
        self.exact.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Did `other` simulate exactly what this run simulated?
    pub fn same_simulation(&self, other: &RunOutput) -> bool {
        self.digest == other.digest
            && self.exact == other.exact
            && self.deliveries == other.deliveries
    }

    pub fn to_json(&self) -> Value {
        let pairs = |items: &[(String, f64)]| {
            Value::Obj(
                items
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            )
        };
        Value::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("wall_s", Value::Num(self.wall_s)),
            ("cpu_s", Value::Num(self.cpu_s)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("deliveries", Value::from(self.deliveries)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("exact", pairs(&self.exact)),
            // As text: a u64 does not survive a trip through f64.
            ("digest", Value::str(format!("{:016x}", self.digest))),
            (
                "check_failures",
                Value::Arr(self.check_failures.iter().map(Value::str).collect()),
            ),
            ("layers", pairs(&self.layers)),
            ("spans", trace::spans_to_json(&self.spans)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<RunOutput> {
        let num = |k: &str| v.get(k)?.as_f64();
        let pairs = |k: &str| -> Option<Vec<(String, f64)>> {
            v.get(k)?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(RunOutput {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            deliveries: num("deliveries")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            exact: pairs("exact")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            check_failures: v
                .get("check_failures")?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            layers: pairs("layers")?,
            spans: trace::spans_from_json(v.get("spans")?)?,
        })
    }
}

/// What a workload gets from the harness: its inputs, the tracer, and
/// the clock that splits set-up from the timed region.
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    /// Pool width for `a9_shards`, when not the size's own
    /// ([`a9::shard_jobs`]).
    pub shard_jobs: Option<usize>,
    pub tracer: Tracer,
    origin: Instant,
    timed_from: Option<(Instant, f64)>,
    out: RunOutput,
}

impl Ctx {
    pub fn new(seed: u64, size: Size, traced: bool, origin: Instant) -> Ctx {
        Ctx {
            seed,
            size,
            shard_jobs: None,
            tracer: Tracer::new(traced, origin),
            origin,
            timed_from: None,
            out: RunOutput::default(),
        }
    }

    /// Set-up is done; the timed region starts now.
    pub fn start_timed(&mut self) {
        let now = Instant::now();
        self.out.setup_s = (now - self.origin).as_secs_f64();
        self.timed_from = Some((now, host::cpu_seconds()));
    }

    /// The timed region ends now.
    pub fn stop_timed(&mut self) {
        let cpu = host::cpu_seconds();
        let (from, cpu_from) = self.timed_from.expect("stop_timed before start_timed");
        self.out.wall_s = from.elapsed().as_secs_f64();
        self.out.cpu_s = cpu - cpu_from;
    }

    pub fn out(&mut self) -> &mut RunOutput {
        &mut self.out
    }

    /// Record an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.out.check_failures.push(what());
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        if self.tracer.enabled() {
            self.out.layers.push((name.into(), value));
        }
    }

    pub fn finish(mut self) -> RunOutput {
        self.out.peak_rss_mb = host::peak_rss_mb();
        self.out.spans = self.tracer.spans().to_vec();
        self.out
    }
}

/// FNV-1a over 64-bit words: the digest that stands for "every
/// simulated output", cheap enough to feed per-host counters into.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Fold in everything an engine measured: per-host traffic counters
    /// and the full observation log.
    pub fn engine(&mut self, engine: &tamp_netsim::Engine) {
        use tamp_netsim::ObservationKind as K;
        let stats = engine.stats();
        for h in engine.hosts() {
            let s = stats.host(h);
            for w in [
                s.sent_pkts,
                s.sent_bytes,
                s.recv_pkts,
                s.recv_bytes,
                s.dropped_pkts,
                s.cpu_ns,
            ] {
                self.word(w);
            }
        }
        for o in stats.observations() {
            let (tag, node) = match o.kind {
                K::Added(n) => (0, n),
                K::Removed(n) => (1, n),
                K::Suspected(n) => (2, n),
                K::Refuted(n) => (3, n),
            };
            self.word(o.time);
            self.word(u64::from(o.observer.0) << 32 | u64::from(node.0));
            self.word(tag);
        }
    }
}

/// Run `workload` once in this process: set-up, then (unless
/// `setup_only`) the timed region and the output checks.
pub fn run(workload: &str, ctx: Ctx, setup_only: bool) -> RunOutput {
    match workload {
        "a9_steady" => go(ctx, setup_only, |c| a9::setup(c, false), a9::measure),
        "a9_shards" => go(ctx, setup_only, |c| a9::setup(c, true), a9::measure),
        "churn_wire" => go(ctx, setup_only, churn::setup, churn::measure),
        "chaos_mix" => go(ctx, setup_only, chaos::setup, chaos::measure),
        "load_failover" => go(ctx, setup_only, load::setup, load::measure),
        other => panic!("unknown workload {other}"),
    }
}

fn go<S>(
    mut ctx: Ctx,
    setup_only: bool,
    setup: impl FnOnce(&mut Ctx) -> S,
    measure: impl FnOnce(&mut Ctx, S),
) -> RunOutput {
    let sp = ctx.tracer.enter("setup");
    let state = setup(&mut ctx);
    ctx.tracer.exit(sp);
    ctx.start_timed();
    if !setup_only {
        measure(&mut ctx, state);
    }
    ctx.finish()
}
