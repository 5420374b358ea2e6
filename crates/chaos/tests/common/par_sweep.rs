//! The failing-sweep half of the `tamp-par` contract, shared (via
//! `#[path]`) by the wide form in this crate's `par_determinism.rs` and
//! the fixed-budget tier-1 slice in the root `tests/par_determinism.rs`.

use tamp_chaos::{
    random_schedule, run_scenario, seed_range, sweep, GeneratorConfig, ScenarioConfig, SweepReport,
};
use tamp_membership::MembershipConfig;
use tamp_par::Pool;

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

pub fn assert_failing_sweep_is_pool_width_invariant(g: &GeneratorConfig) {
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
