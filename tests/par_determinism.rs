//! The tentpole contract of `tamp-par`, locked end-to-end: a chaos
//! sweep spread over a worker pool must be **byte-identical** to the
//! sequential sweep — same report text, same pass/fail verdicts, same
//! first-failure seed, same shrunk repro, same merged telemetry — for
//! any pool width. Execution order is allowed to differ; nothing
//! observable is.

use tamp::chaos::{
    random_schedule, run_scenario, seed_range, sweep, GeneratorConfig, ScenarioConfig, SweepReport,
};
use tamp::par::Pool;

#[path = "../crates/chaos/tests/common/par_sweep.rs"]
mod par_sweep;

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

/// Fixed-budget slice of the failing sweep (early stop + parallel
/// shrinker): the six assertions live with the chaos crate, whose
/// `tests/par_determinism.rs` runs them at the wide budget in release.
#[test]
fn parallel_failing_sweep_and_shrink_are_byte_identical_to_sequential() {
    par_sweep::assert_failing_sweep_is_pool_width_invariant(&GeneratorConfig {
        num_hosts: 4,
        active_window_secs: 11,
        max_events: 2,
        ..Default::default()
    });
}
