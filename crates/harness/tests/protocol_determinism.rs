//! Cross-protocol determinism: every protocol column must produce
//! byte-identical output at any `--jobs` width, and the checked-in
//! strict-oracle regression scenarios must keep passing for the two new
//! columns (SWIM and Rapid-style cut detection).
//!
//! These are the integration-level guarantees the CI smoke jobs diff
//! for; the tests pin them without needing a shell.

use tamp_chaos::{
    dsl, random_schedule, run_scenario, seed_range, sweep, GeneratorConfig, Protocol,
    ScenarioConfig, SweepReport,
};
use tamp_par::Pool;

/// A classic-generator sweep of `count` seeds from `first` on the
/// two-segment cluster running `protocol`.
fn protocol_sweep(
    pool: &Pool,
    first: u64,
    count: u64,
    g: &GeneratorConfig,
    protocol: Protocol,
) -> SweepReport {
    sweep(
        pool,
        seed_range(first, count),
        |seed| random_schedule(seed, g),
        |seed, schedule| {
            let cfg = ScenarioConfig {
                protocol,
                ..ScenarioConfig::two_segments(seed)
            };
            run_scenario(&cfg, schedule)
        },
    )
}

/// A random-schedule chaos sweep renders the same report at width 1 and
/// width 4 for every protocol column — including which seed fails
/// first, if any (the report text is compared, not just the verdict).
#[test]
fn chaos_sweep_reports_are_pool_width_invariant_for_every_protocol() {
    let g = GeneratorConfig::default();
    for p in Protocol::ALL {
        let sequential = protocol_sweep(&Pool::sequential(), 300, 6, &g, p).report();
        let parallel = protocol_sweep(&Pool::new(4), 300, 6, &g, p).report();
        assert_eq!(
            sequential,
            parallel,
            "{} sweep report changed with pool width",
            p.name()
        );
    }
}

/// The same single scenario, run twice, produces the same resolved
/// action log and violation list for each new protocol column — the
/// per-run determinism the sweep invariance builds on.
#[test]
fn single_scenario_runs_are_reproducible_for_new_protocols() {
    for &p in &[Protocol::Swim, Protocol::TampRapid] {
        let schedule = tamp_chaos::random_schedule(42, &GeneratorConfig::default());
        let cfg = ScenarioConfig {
            protocol: p,
            ..ScenarioConfig::two_segments(42)
        };
        let a = run_scenario(&cfg, &schedule);
        let b = run_scenario(&cfg, &schedule);
        assert_eq!(a.resolved, b.resolved, "{} action log drifted", p.name());
        assert_eq!(
            a.report(),
            b.report(),
            "{} scenario report drifted",
            p.name()
        );
    }
}

/// The checked-in strict-oracle regression scenarios for the two new
/// columns pass, and their verdicts don't depend on pool width when run
/// as a mini-sweep over the same file.
#[test]
fn checked_in_regression_scenarios_pass_strict_for_new_protocols() {
    for (file, text) in [
        (
            "swim-restart.chaos",
            include_str!("../../../scenarios/swim-restart.chaos"),
        ),
        (
            "rapid-gray-cut.chaos",
            include_str!("../../../scenarios/rapid-gray-cut.chaos"),
        ),
    ] {
        let schedule = dsl::parse(text).unwrap();
        let reports = |pool: &Pool| -> Vec<String> {
            pool.ordered_map(4, |i| {
                let cfg = ScenarioConfig {
                    strict: true,
                    ..ScenarioConfig::two_segments(7000 + i as u64)
                };
                let run = run_scenario(&cfg, &schedule);
                assert!(run.passed(), "{file} seed {}:\n{}", 7000 + i, run.report());
                run.report()
            })
        };
        let sequential = reports(&Pool::sequential());
        let parallel = reports(&Pool::new(4));
        assert_eq!(
            sequential, parallel,
            "{file} verdicts changed with pool width"
        );
    }
}
