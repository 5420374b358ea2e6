//! End-to-end acceptance tests for the chaos subsystem:
//! determinism of reports, a seeded sweep over the two-segment topology,
//! and the intentionally broken configuration that must fail with a
//! shrunk minimal repro.

use tamp_chaos::{
    dsl, random_schedule, run_scenario, seed_range, sweep, GeneratorConfig, ScenarioConfig,
    Schedule, SweepReport,
};
use tamp_membership::MembershipConfig;
use tamp_par::Pool;

/// A sequential classic-generator sweep of `count` seeds from `first`,
/// each run on the cluster `cfg` builds for its seed.
fn classic_sweep(
    first: u64,
    count: u64,
    cfg: impl Fn(u64) -> ScenarioConfig + Sync,
) -> SweepReport {
    let g = GeneratorConfig::default();
    sweep(
        &Pool::sequential(),
        seed_range(first, count),
        |seed| random_schedule(seed, &g),
        |seed, schedule| run_scenario(&cfg(seed), schedule),
    )
}

#[test]
fn report_is_byte_identical_for_same_seed_and_scenario() {
    let schedule = dsl::parse(
        "settle 45s
         at 20s kill leader 0
         at 30s loss 0.4 for 5s
         at 50s revive random
         at 60s partition 0 1
         at 80s heal all",
    )
    .unwrap();
    let a = run_scenario(&ScenarioConfig::two_segments(42), &schedule);
    let b = run_scenario(&ScenarioConfig::two_segments(42), &schedule);
    assert_eq!(a.report(), b.report());
    assert!(a.passed(), "{}", a.report());
}

#[test]
fn rolling_restart_of_a_whole_segment_converges() {
    let schedule = dsl::parse(
        "settle 45s
         rolling-restart hosts 0..4 start 30s down 3s gap 12s",
    )
    .unwrap();
    let run = run_scenario(&ScenarioConfig::two_segments(5), &schedule);
    assert!(run.passed(), "{}", run.report());
    assert_eq!(run.live.len(), 10, "everyone restarted and came back");
}

#[test]
fn twenty_seed_sweep_passes_on_two_segment_topology() {
    let report = classic_sweep(0, 20, ScenarioConfig::two_segments);
    assert!(report.passed(), "{}", report.report());
    assert_eq!(report.runs.len(), 20);
}

#[test]
fn broken_config_fails_and_shrinks_to_minimal_repro() {
    // max_loss = 0 makes the detection timeout zero — shorter than the
    // heartbeat period — so live nodes are purged as soon as any sweep
    // runs. The oracle must catch it, and the sweep must hand back a
    // shrunk schedule.
    let broken = |seed| ScenarioConfig {
        membership: MembershipConfig {
            max_loss: 0,
            ..Default::default()
        },
        ..ScenarioConfig::two_segments(seed)
    };
    let report = classic_sweep(100, 3, broken);
    assert!(!report.passed());
    let text = report.report();
    let failure = report.failure.expect("sweep must capture the failure");
    assert!(
        failure.shrunk.events.len() <= failure.original.events.len(),
        "shrinking may not grow the schedule"
    );
    assert!(!failure.run.passed());
    assert!(text.contains("verdict: FAIL"), "{text}");
    assert!(text.contains("false removal"), "{text}");
    // The embedded schedule is canonical DSL: re-parse and re-fail.
    let replay = dsl::parse(&failure.shrunk.render()).unwrap();
    let rerun = run_scenario(&broken(failure.seed), &replay);
    assert!(!rerun.passed(), "shrunk repro must fail on replay");
}

#[test]
fn checked_in_regression_scenarios_pass_the_strict_oracle() {
    // The scenario files under `scenarios/` pin the three transient
    // classes the lax oracle used to excuse (leader death, partition
    // heal, loss burst). With refutable suspicion they must pass the
    // strict oracle — no loss excuse, no repair-window extension —
    // across seeds, not just one lucky run.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let files = [
        "leader-death.chaos",
        "partition-heal.chaos",
        "loss-burst.chaos",
        // The adversarial fault classes; each file carries its own
        // topology, which overrides the two-segment base config.
        "gray-partition.chaos",
        "rack-fail.chaos",
        "churn-storm.chaos",
        "clock-skew.chaos",
        "router-reform.chaos",
    ];
    for file in files {
        let path = format!("{dir}/{file}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let schedule = dsl::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        for seed in [7, 19, 42] {
            let cfg = ScenarioConfig {
                strict: true,
                ..ScenarioConfig::two_segments(seed)
            };
            let run = run_scenario(&cfg, &schedule);
            assert!(run.passed(), "{file} seed {seed}:\n{}", run.report());
        }
    }
}

#[test]
fn router_reformation_converges_across_fifty_seeds_at_any_pool_width() {
    // The acceptance bar for live topology re-formation: router-down /
    // router-up on the ring converges to a single consistent view with
    // zero strict-oracle violations across >= 50 seeds, and the sweep
    // report is byte-identical at any pool width.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let text = std::fs::read_to_string(format!("{dir}/router-reform.chaos")).unwrap();
    let schedule = dsl::parse(&text).unwrap();
    let verdicts = |pool: &Pool| -> Vec<String> {
        pool.ordered_map(50, |i| {
            let cfg = ScenarioConfig {
                strict: true,
                ..ScenarioConfig::ring(4, 2, 1000 + i as u64)
            };
            let run = run_scenario(&cfg, &schedule);
            assert!(run.passed(), "seed {}:\n{}", 1000 + i, run.report());
            run.report()
        })
    };
    let sequential = verdicts(&Pool::sequential());
    let parallel = verdicts(&Pool::new(4));
    assert_eq!(sequential, parallel, "pool width changed a report");
}

#[test]
fn adversarial_sweep_passes_strict_on_the_ring() {
    use tamp_chaos::{adversarial_schedule, AdversarialConfig};
    let adversarial_sweep = |pool: &Pool| {
        sweep(
            pool,
            seed_range(0, 15),
            |seed| adversarial_schedule(seed, &AdversarialConfig::default()),
            |seed, schedule| {
                let strict_ring = ScenarioConfig {
                    strict: true,
                    ..ScenarioConfig::ring(4, 2, seed)
                };
                run_scenario(&strict_ring, schedule)
            },
        )
    };
    let report = adversarial_sweep(&Pool::new(4));
    assert!(report.passed(), "{}", report.report());
    let sequential = adversarial_sweep(&Pool::sequential());
    assert_eq!(report.report(), sequential.report());
}

#[test]
fn generated_schedules_render_and_reparse_exactly() {
    let g = GeneratorConfig::default();
    for seed in 0..40 {
        let s = random_schedule(seed, &g);
        let rendered = s.render();
        let reparsed: Schedule =
            dsl::parse(&rendered).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{rendered}"));
        assert_eq!(s, reparsed, "seed {seed} round-trip mismatch");
    }
}
