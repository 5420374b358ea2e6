//! Freshness lock inside tier-1: the experiments that are cheap in a
//! debug build are regenerated through the `tamp-exp` registry at the
//! checked-in seed and must equal `results/<name>.csv` byte for byte —
//! a moved number fails `cargo test`, not only CI's `experiments-smoke`
//! (which covers everything `tamp-exp all` writes).

use tamp_harness::registry::{Args, Run, EXPERIMENTS};
use tamp_par::Pool;

/// No simulation; 0.3 s; 1.7 s (debug build).
const CHEAP: [&str; 3] = ["analysis", "fig14", "ablation-leader"];

#[test]
fn cheap_experiments_regenerate_the_checked_in_csvs() {
    let args = Args {
        seed: 2005,
        ..Args::default()
    };
    for name in CHEAP {
        let command = EXPERIMENTS
            .iter()
            .find(|c| c.names.contains(&name))
            .unwrap_or_else(|| panic!("{name} is not registered"));
        let Run::Grid(build) = command.run else {
            panic!("{name} is not a grid");
        };
        let (tables, verdict) = build(&args, &[name]).tables(&Pool::from_env());
        assert!(verdict.pass, "{name} fails its own verdict");
        for (csv, table) in tables {
            let path = format!("{}/results/{csv}.csv", env!("CARGO_MANIFEST_DIR"));
            let checked_in = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            assert_eq!(
                table.to_csv(),
                checked_in,
                "results/{csv}.csv is stale; regenerate with \
                 `tamp-exp all --seed 2005 > results/full_run.txt`"
            );
        }
    }
}
