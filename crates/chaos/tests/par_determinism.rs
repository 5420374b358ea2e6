//! The tentpole contract of `tamp-par`, locked end-to-end: a chaos
//! sweep spread over a worker pool must be **byte-identical** to the
//! sequential sweep — same report text, same pass/fail verdicts, same
//! first-failure seed, same shrunk repro, same merged telemetry — for
//! any pool width. Execution order is allowed to differ; nothing
//! observable is.

use tamp_chaos::{
    random_schedule, run_scenario, seed_range, sweep, GeneratorConfig, ScenarioConfig, SweepReport,
};
use tamp_membership::MembershipConfig;
use tamp_par::Pool;

fn passing_sweep(jobs: usize) -> SweepReport {
    sweep(
        &Pool::new(jobs),
        seed_range(0, 3),
        |seed| random_schedule(seed, &GeneratorConfig::default()),
        |seed, schedule| run_scenario(&ScenarioConfig::two_segments(seed), schedule),
    )
}

#[test]
fn parallel_passing_sweep_is_byte_identical_to_sequential() {
    let seq = passing_sweep(1);
    let par = passing_sweep(4);
    assert_eq!(seq.runs, par.runs, "verdict list diverges");
    assert_eq!(
        seq.report(),
        par.report(),
        "report bytes diverge between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        seq.metrics, par.metrics,
        "merged telemetry diverges — merge must be order-insensitive"
    );
    assert!(seq.passed());
}

/// `MAX_LOSS = 0` makes the detection timeout shorter than the
/// heartbeat period, so every schedule fails: the sweep stops at its
/// first seed and shrinks — exercising the early-stop and the parallel
/// shrinker's candidate scan. The broken config fails within the first
/// sweep tick, and the suspicion storm it triggers makes each simulated
/// second expensive, so `g` keeps cluster and fault window small. The
/// cluster is two segments of `g.num_hosts / 2`.
fn failing_sweep(jobs: usize, g: &GeneratorConfig) -> SweepReport {
    sweep(
        &Pool::new(jobs),
        seed_range(1, 3),
        |seed| random_schedule(seed, g),
        |seed, schedule| {
            let cfg = ScenarioConfig {
                topo: tamp_topology::generators::star_of_segments(2, g.num_hosts as usize / 2),
                membership: MembershipConfig {
                    max_loss: 0,
                    ..Default::default()
                },
                ..ScenarioConfig::two_segments(seed)
            };
            run_scenario(&cfg, schedule)
        },
    )
}

fn assert_failing_sweep_is_pool_width_invariant(g: &GeneratorConfig) {
    let seq = failing_sweep(1, g);
    let par = failing_sweep(4, g);
    assert_eq!(
        seq.report(),
        par.report(),
        "failure report bytes diverge between --jobs 1 and --jobs 4"
    );
    let (sf, pf) = (
        seq.failure.as_ref().expect("broken config must fail"),
        par.failure.as_ref().expect("broken config must fail"),
    );
    assert_eq!(sf.seed, pf.seed, "first-failure seed diverges");
    assert_eq!(
        sf.shrunk.render(),
        pf.shrunk.render(),
        "shrunk repro diverges — parallel candidate scan must adopt the same deletions"
    );
    assert_eq!(
        sf.run.report(),
        pf.run.report(),
        "shrunk run report diverges"
    );
    // The sweep stopped at the first failing seed in both modes:
    // speculative results for later seeds were discarded unseen.
    assert_eq!(seq.runs.len(), par.runs.len());
    assert_eq!(seq.runs.last().map(|&(_, p)| p), Some(false));
}

/// The failing sweep on four hosts with up to two faults in an 11 s
/// window.
#[test]
fn parallel_failing_sweep_and_shrink_are_byte_identical_to_sequential() {
    assert_failing_sweep_is_pool_width_invariant(&GeneratorConfig {
        num_hosts: 4,
        active_window_secs: 11,
        max_events: 2,
        ..Default::default()
    });
}

/// The same assertions on six hosts with up to four faults in a 12 s
/// window: 60–67 s in the debug profile on two cores, against 45 s in
/// release, so it is release-only — CI's `cargo test --workspace
/// --release` runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~1 min in debug")]
fn parallel_failing_sweep_and_shrink_are_byte_identical_to_sequential_wide() {
    assert_failing_sweep_is_pool_width_invariant(&GeneratorConfig {
        num_hosts: 6,
        active_window_secs: 12,
        max_events: 4,
        ..Default::default()
    });
}
