//! A10 — adversarial fault grid: the five production fault classes
//! (gray partitions, correlated rack failure, churn storms, clock skew,
//! router loss with live re-formation) each swept across seeds on the
//! router-ring fabric, judged by the strict oracle. A final "mixed" row
//! draws generated schedules combining all classes.
//!
//! Every cell is an independent deterministic run; the grid executes on
//! the tamp-par pool and its rows are byte-identical at any `--jobs`
//! width.

use crate::grid::{product, Column, Experiment, Verdict};
use tamp_chaos::{
    adversarial_schedule, dsl, run_scenario, seed_range, AdversarialConfig, ScenarioConfig,
    Schedule,
};

/// The per-class schedule templates. `{s}` placeholders are filled from
/// the seed so every seed exercises different timing and targets, while
/// the class composition stays pure (one fault class per row, plus its
/// recovery).
pub const CLASSES: [&str; 5] = [
    "gray-partition",
    "rack-fail",
    "churn-storm",
    "clock-skew",
    "router-reform",
];

/// Build the single-class schedule for `(class, seed)` on the 4-segment
/// ring. Timing jitters with the seed (±5 s) so the sweep probes
/// different protocol phases, not one fixed alignment.
pub fn class_schedule(class: &str, seed: u64) -> Schedule {
    let j = seed % 11; // 0..=10 s of start jitter
    let seg = (seed % 4) as u16;
    let other = ((seed % 3 + 1) as u16 + seg) % 4;
    let host = (seed % 8) as u32;
    let ppm = if seed.is_multiple_of(2) { 200i64 } else { -150 };
    let text = match class {
        "gray-partition" => format!(
            "topology ring 4 2\nsettle 45s\nat {}s gray-partition {seg} {other}\nat {}s gray-heal {seg} {other}\n",
            20 + j,
            50 + j
        ),
        "rack-fail" => format!(
            "topology ring 4 2\nsettle 45s\nat {}s rack-fail {seg}\nat {}s rack-recover {seg}\n",
            20 + j,
            50 + j
        ),
        "churn-storm" => format!(
            "topology ring 4 2\nsettle 45s\nat {}s churn-storm {} for 12s\n",
            20 + j,
            2 + seed % 3
        ),
        "clock-skew" => format!(
            "topology ring 4 2\nsettle 45s\nat {}s skew {host} {ppm}\n",
            15 + j
        ),
        "router-reform" => format!(
            "topology ring 4 2\nsettle 45s\nat {}s router-down {seg}\nat {}s router-up {seg}\n",
            20 + j,
            55 + j
        ),
        other => panic!("unknown fault class {other}"),
    };
    dsl::parse(&text).expect("class template parses")
}

/// One grid row: a fault class swept across seeds under the strict
/// oracle.
pub struct GridRow {
    pub class: String,
    pub seeds: u64,
    pub passed: u64,
    /// Violations across all failing seeds (0 when `passed == seeds`).
    pub violations: usize,
    /// First failing seed, if any — rerun it with
    /// `tamp-exp chaos --adversarial --strict --seed <s>`.
    pub first_failure: Option<u64>,
}

pub const COLUMNS: &[Column<GridRow>] = &[
    ("class", |r| r.class.clone()),
    ("seeds", |r| r.seeds.to_string()),
    ("passed", |r| r.passed.to_string()),
    ("violations", |r| r.violations.to_string()),
    ("first failure", |r| {
        r.first_failure.map_or("-".to_string(), |s| s.to_string())
    }),
];

/// What one (class, seed) cell reports to the fold.
pub struct Outcome {
    class_idx: usize,
    seed: u64,
    passed: bool,
    violations: usize,
}

/// The full grid: every class × `count` seeds starting at `first_seed`,
/// plus the mixed generated row, each class's cells folded in seed
/// order into its row. The verdict passes when every cell did.
pub fn experiment(first_seed: u64, count: u64) -> Experiment<(usize, u64), Outcome, GridRow> {
    let classes: Vec<usize> = (0..=CLASSES.len()).collect();
    let seeds: Vec<u64> = seed_range(first_seed, count).collect();
    Experiment::folded(
        "A10 — adversarial fault grid (ring 4x2, strict oracle)",
        "adversarial_grid",
        product(&classes, &seeds),
        |&(class_idx, seed)| {
            let schedule = match CLASSES.get(class_idx) {
                Some(class) => class_schedule(class, seed),
                None => adversarial_schedule(seed, &AdversarialConfig::default()),
            };
            let mut cfg = ScenarioConfig::ring(4, 2, seed);
            cfg.strict = true;
            let run = run_scenario(&cfg, &schedule);
            Outcome {
                class_idx,
                seed,
                passed: run.passed(),
                violations: run.violations.len(),
            }
        },
        move |outcomes| {
            let mut rows: Vec<GridRow> = classes
                .iter()
                .map(|&class_idx| GridRow {
                    class: CLASSES
                        .get(class_idx)
                        .map_or("mixed (generated)", |c| c)
                        .to_string(),
                    seeds: count,
                    passed: 0,
                    violations: 0,
                    first_failure: None,
                })
                .collect();
            for o in outcomes {
                let row = &mut rows[o.class_idx];
                if o.passed {
                    row.passed += 1;
                } else {
                    row.violations += o.violations;
                    row.first_failure.get_or_insert(o.seed);
                }
            }
            rows
        },
        COLUMNS,
    )
    .note(
        "Expected: every class passes strict. Gray partitions must not cause\n\
         same-segment false removals (fresh direct liveness refutes relayed death\n\
         claims); router re-formation must converge to one consistent view; churn\n\
         storms must never resurrect a refuted node.",
    )
    .verdict(|rows| Verdict::of(rows.iter().all(|r| r.passed == r.seeds)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_templates_parse_and_carry_the_ring() {
        for class in CLASSES {
            for seed in [0, 7, 13] {
                let s = class_schedule(class, seed);
                assert!(s.topo.is_some(), "{class} seed {seed} lost its topology");
                assert!(!s.events.is_empty());
            }
        }
    }

    #[test]
    fn small_grid_passes_strict() {
        let rows = experiment(7, 2).rows(&tamp_par::Pool::sequential());
        assert_eq!(rows.len(), CLASSES.len() + 1);
        for r in &rows {
            assert_eq!(r.passed, r.seeds, "{}: strict failure in grid", r.class);
            assert_eq!((r.violations, r.first_failure), (0, None), "{}", r.class);
        }
    }
}
