//! The chaos oracle can fail, and tier-1 sees it: one seed of a sweep
//! under the deliberately broken configuration (`MAX_LOSS = 0`, so the
//! detection timeout is shorter than the heartbeat period) must exit 1,
//! as `tamp-exp chaos --seed 8 --sweep 1 --broken` does.
//!
//! Seed 8 is the quickest of seeds 1–29 to fail and shrink: on a 2-core
//! host it takes 4.5 s and 20 MB resident in release and 44 s in a debug
//! build; seed 1 takes 12.9 s in release.

use tamp_harness::chaos::run;
use tamp_harness::registry::Args;

#[test]
fn broken_config_sweep_exits_one() {
    let args = Args {
        seed: 8,
        sweep: Some(1),
        broken: true,
        jobs: 1,
        ..Args::default()
    };
    assert_eq!(run(&args), 1);
}
