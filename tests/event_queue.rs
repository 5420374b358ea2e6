//! Tier-1 run of the event-queue locks: `cargo test -q` at the workspace
//! root runs only this package's suites, and the simulator's determinism
//! rests on the `(time, key, seq)` order of one queue. The three suites
//! live with the netsim crate and are taken here as they stand:
//!
//! * `timer_wheel_props` — the timer wheel against an ordered-set model,
//!   step by step;
//! * `scheduler_tiebreak` — the order pinned at the engine level;
//! * `fanout_golden` — whole runs, sequential and on two shards, held to
//!   fingerprints recorded from the engine that queued one event per
//!   receiver (its `common` module comes along).

#[path = "../crates/netsim/tests/timer_wheel_props.rs"]
mod timer_wheel_props;

#[path = "../crates/netsim/tests/scheduler_tiebreak.rs"]
mod scheduler_tiebreak;

#[path = "../crates/netsim/tests/fanout_golden.rs"]
mod fanout_golden;
