//! Cross-protocol determinism: every protocol column must produce
//! byte-identical output at any `--jobs` width, and the checked-in
//! strict-oracle regression scenarios must keep passing for the two new
//! columns (SWIM and Rapid-style cut detection).
//!
//! These are the integration-level guarantees the CI smoke jobs diff
//! for; the tests pin them without needing a shell.

use tamp_chaos::{dsl, run_scenario, sweep_on, GeneratorConfig, Protocol, ScenarioConfig};
use tamp_par::Pool;

fn cfg_for(protocol: Protocol) -> impl Fn(u64) -> ScenarioConfig + Sync {
    move |seed| ScenarioConfig {
        protocol,
        ..ScenarioConfig::two_segments(seed)
    }
}

/// A random-schedule chaos sweep renders the same report at width 1 and
/// width 4 for every protocol column — including which seed fails
/// first, if any (the report text is compared, not just the verdict).
#[test]
fn chaos_sweep_reports_are_pool_width_invariant_for_every_protocol() {
    let g = GeneratorConfig::default();
    for p in Protocol::ALL {
        let sequential = sweep_on(&Pool::sequential(), 300, 6, &g, cfg_for(p)).report();
        let parallel = sweep_on(&Pool::new(4), 300, 6, &g, cfg_for(p)).report();
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
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    for file in ["swim-restart.chaos", "rapid-gray-cut.chaos"] {
        let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        let schedule = dsl::parse(&text).unwrap();
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
