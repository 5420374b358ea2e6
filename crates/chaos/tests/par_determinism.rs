//! Wide form of the failing-sweep determinism lock: the parameters the
//! root suite ran before its fixed-budget slice took over tier-1. About
//! five minutes in the debug profile and two in release, so it is
//! release-only — CI's `cargo test --workspace --release` runs it.

#[path = "common/par_sweep.rs"]
mod par_sweep;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~5 min in debug")]
fn parallel_failing_sweep_and_shrink_are_byte_identical_to_sequential_wide() {
    par_sweep::assert_failing_sweep_is_pool_width_invariant(&tamp_chaos::GeneratorConfig {
        num_hosts: 6,
        active_window_secs: 12,
        max_events: 4,
        ..Default::default()
    });
}
