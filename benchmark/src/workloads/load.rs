//! `load_failover`: the default three-datacenter closed-loop population
//! (Zipf 1.1) under the proxy-failover fault schedule — the request
//! path: generator ticks, view resolution, proxy forwarding, providers
//! and SLO histograms. Membership traffic is a rounding error here.
//!
//! `tamp_load::campaign::run_one` redone over `scenario::build`,
//! `apply_schedule` and `run_until`, so that the scenario build is
//! set-up and the engine's delivery count is visible.

use super::{Ctx, Digest};
use crate::catalog::Size;
use tamp_chaos::{apply_schedule, dsl, GroundTruth, Schedule};
use tamp_load::{Campaign, LoadScenario, LoadScenarioConfig, WorkloadConfig};

/// Frozen copy of `scenarios/load/proxy-failover.chaos`.
const SCHEDULE: &str = include_str!("../../data/proxy-failover.chaos");

pub fn users(size: Size) -> u64 {
    match size {
        Size::Smoke => 100_000,
        Size::Bench => 150_000,
        Size::Full => 1_000_000,
    }
}

/// A built, started scenario and the faults to replay on it.
pub struct State {
    scenario: LoadScenario,
    schedule: Schedule,
    campaign: Campaign,
}

pub fn setup(ctx: &mut Ctx) -> State {
    let tr = &mut ctx.tracer;
    let mut schedule = dsl::parse(SCHEDULE).expect("frozen proxy-failover schedule parses");
    schedule.normalize();
    let campaign = Campaign::default();
    let cfg = LoadScenarioConfig {
        users: users(ctx.size),
        seed: ctx.seed,
        workload: WorkloadConfig {
            seed: ctx.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let sp = tr.enter("load.build");
    let mut scenario = tamp_load::build(&cfg);
    tr.exit(sp);
    let sp = tr.enter("load.start");
    scenario.engine.start();
    tr.exit(sp);
    State {
        scenario,
        schedule,
        campaign,
    }
}

pub fn measure(ctx: &mut Ctx, state: State) {
    let State {
        scenario: mut s,
        schedule,
        campaign,
    } = state;
    let seed = s.cfg.seed;

    // ---------------------------------------------------- timed region
    let run = ctx.tracer.enter("netsim.run");
    s.engine.run_until(campaign.warmup);
    let mut truth = GroundTruth::new();
    let resolved = apply_schedule(&mut s.engine, &s.probes, &schedule, seed, 0.0, &mut truth);
    let end = (campaign.warmup + campaign.duration).max(schedule.horizon());
    s.engine.run_until(end);
    ctx.tracer.exit(run);
    ctx.stop_timed();

    // --------------------------------------------------------- outputs
    let snap = s.engine.registry().snapshot();
    let issued = snap.counter_total("load", "issued");
    let completed = snap.counter_total("load", "completed");
    let failed = snap.counter_total("load", "failed");
    let latency = s.telemetry.latency.snapshot();
    let p99_ms = latency.quantile(0.99) as f64 / 1e6;
    let totals = s.engine.stats().totals();

    // Every fault of the schedule must have fired on a real host, and
    // requests are either answered, failed, or still in flight.
    ctx.check(resolved.len() == schedule.events.len(), || {
        format!(
            "load_failover: {} of {} scheduled faults resolved",
            resolved.len(),
            schedule.events.len()
        )
    });
    ctx.check(issued > 0 && completed + failed <= issued, || {
        format!("load_failover: issued {issued}, completed {completed}, failed {failed}")
    });
    ctx.check(completed * 10 >= issued * 9, || {
        format!("load_failover: only {completed} of {issued} requests completed")
    });

    let mut digest = Digest::default();
    digest.engine(&s.engine);
    for w in [
        issued,
        completed,
        failed,
        latency.quantile(0.5),
        latency.quantile(0.99),
    ] {
        digest.word(w);
    }

    let wall_s = ctx.out().wall_s;
    ctx.layer("load.run_ns_per_request", wall_s * 1e9 / issued as f64);

    let hosts = s.engine.hosts().len();
    let out = ctx.out();
    out.deliveries = totals.recv_pkts;
    out.attempted = issued;
    // Requests lost to the injected proxy failover are the service's
    // simulated behaviour (`failed_ops_pct`, compared exactly between
    // commits), not wrong output of the simulator.
    out.failed = 0;
    out.digest = digest.value();
    out.exact = vec![
        (
            "failed_ops_pct".into(),
            100.0 * failed as f64 / issued as f64,
        ),
        (
            "sim_bytes_per_node_s".into(),
            totals.recv_bytes as f64 / (hosts as f64 * (end as f64 / 1e9)),
        ),
        ("sim_req_p99_ms".into(), p99_ms),
    ];
}
