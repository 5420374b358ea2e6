//! `chaos_mix`: every protocol column × K seeded random fault schedules
//! on the ten-host two-segment cluster, judged by the strict oracle, one
//! scenario at a time on the calling thread. No early stop, no
//! shrinking: every seed runs, so the work is the same whatever fails.
//!
//! Thousands of short-lived ten-host engines: engine build and teardown,
//! fault injection, ground truth, the oracle, the forced-on telemetry
//! registry and the baseline actors dominate; scheduler depth and
//! fan-out do not matter here.

use super::{Ctx, Digest};
use crate::catalog::Size;
use std::time::Instant;
use tamp_chaos::{
    random_schedule, run_scenario, GeneratorConfig, Protocol, ScenarioConfig, ScenarioRun, Schedule,
};
use tamp_par::Pool;

/// Seeds per protocol: `seed..seed+K`.
pub fn seeds_per_protocol(size: Size) -> u64 {
    match size {
        Size::Smoke => 10,
        Size::Bench => 120,
        Size::Full => 400,
    }
}

fn scenario(seed: u64, protocol: Protocol) -> ScenarioConfig {
    ScenarioConfig {
        strict: true,
        protocol,
        ..ScenarioConfig::two_segments(seed)
    }
}

/// What one scenario run contributes to the totals and the digest.
struct Verdict {
    violations: u64,
    recv_pkts: u64,
    recv_bytes: u64,
    horizon_ns: u64,
    live: u64,
}

fn verdict(run: &ScenarioRun) -> Verdict {
    Verdict {
        violations: run.violations.len() as u64,
        recv_pkts: run.metrics.counter_total("net", "recv_pkts"),
        recv_bytes: run.metrics.counter_total("net", "recv_bytes"),
        horizon_ns: run.horizon,
        live: run.live.len() as u64,
    }
}

/// One schedule per seed, one scenario config per (protocol, seed).
pub struct State {
    schedules: Vec<Schedule>,
    configs: Vec<Vec<ScenarioConfig>>,
}

pub fn setup(ctx: &mut Ctx) -> State {
    let k = seeds_per_protocol(ctx.size);
    let first = ctx.seed;
    let tr = &mut ctx.tracer;
    let sp = tr.enter("chaos.schedule_gen");
    let generator = GeneratorConfig::default();
    let schedules: Vec<Schedule> = (0..k)
        .map(|i| random_schedule(first.wrapping_add(i), &generator))
        .collect();
    tr.exit(sp);
    let sp = tr.enter("chaos.configs");
    let configs: Vec<Vec<ScenarioConfig>> = Protocol::ALL
        .iter()
        .map(|&p| (0..k).map(|i| scenario(first.wrapping_add(i), p)).collect())
        .collect();
    tr.exit(sp);
    State { schedules, configs }
}

pub fn measure(ctx: &mut Ctx, state: State) {
    let State { schedules, configs } = state;
    let k = schedules.len() as u64;

    // ---------------------------------------------------- timed region
    let tr = &mut ctx.tracer;
    let run = tr.enter("chaos.run");
    let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
    for (p, cfgs) in Protocol::ALL.iter().zip(&configs) {
        let sp = tr.enter(&format!("chaos.run.{}", p.name()));
        verdicts.push(
            cfgs.iter()
                .zip(&schedules)
                .map(|(cfg, schedule)| verdict(&run_scenario(cfg, schedule)))
                .collect(),
        );
        tr.exit(sp);
    }
    tr.exit(run);
    ctx.stop_timed();

    // --------------------------------------------------------- outputs
    let mut digest = Digest::default();
    let (mut pkts, mut bytes, mut host_ns, mut violating) = (0u64, 0u64, 0u64, 0u64);
    for (p, per_seed) in verdicts.iter().enumerate() {
        for (i, v) in per_seed.iter().enumerate() {
            for w in [
                p as u64,
                i as u64,
                v.violations,
                v.recv_pkts,
                v.recv_bytes,
                v.horizon_ns,
                v.live,
            ] {
                digest.word(w);
            }
            pkts += v.recv_pkts;
            bytes += v.recv_bytes;
            // Ten hosts per scenario, simulated for its whole horizon.
            host_ns += 10 * v.horizon_ns;
            violating += u64::from(v.violations > 0);
        }
    }
    let runs = Protocol::ALL.len() as u64 * k;

    if ctx.tracer.enabled() {
        let spans = ctx.tracer.spans().to_vec();
        let ms = |name: &str| crate::trace::total_ns(&spans, name) as f64 / 1e6;
        ctx.layer(
            "chaos.schedule_gen_us_per_seed",
            ms("chaos.schedule_gen") * 1e3 / k as f64,
        );
        for (p, per_seed) in Protocol::ALL.iter().zip(&verdicts) {
            let name = p.name();
            ctx.layer(
                format!("chaos.run_ms_per_seed.{name}"),
                ms(&format!("chaos.run.{name}")) / k as f64,
            );
            ctx.layer(
                format!("chaos.failed_seeds.{name}"),
                per_seed.iter().filter(|v| v.violations > 0).count() as f64,
            );
        }

        // The first measured parallel number in the repo: the `tamp`
        // slice again through a two-worker pool, against the sequential
        // pass above. Outside the timed region.
        let sequential_ms = ms("chaos.run.tamp");
        let started = Instant::now();
        let parallel: Vec<u64> = Pool::new(2).ordered_map(k as usize, |i| {
            run_scenario(&configs[0][i], &schedules[i]).violations.len() as u64
        });
        let parallel_ms = started.elapsed().as_secs_f64() * 1e3;
        let same = parallel
            .iter()
            .zip(&verdicts[0])
            .all(|(a, b)| *a == b.violations);
        ctx.check(same, || {
            "chaos_mix: the two-worker sweep disagrees with the sequential one".to_string()
        });
        ctx.layer("par.sweep_speedup_jobs2", sequential_ms / parallel_ms);
    }

    let out = ctx.out();
    out.deliveries = pkts;
    out.attempted = runs;
    // A scenario "fails" the benchmark only if its verdict does not
    // repeat (the parent compares digests across repetitions). Oracle
    // violations are the protocols' behaviour, reported as
    // `failed_ops_pct` and compared exactly between commits.
    out.failed = 0;
    out.digest = digest.value();
    out.exact = vec![
        (
            "failed_ops_pct".into(),
            100.0 * violating as f64 / runs as f64,
        ),
        (
            "sim_bytes_per_node_s".into(),
            bytes as f64 / (host_ns as f64 / 1e9),
        ),
    ];
}
