//! The event-queue locks under their root test ids. Tier-1 also runs the
//! three netsim suites themselves as a workspace default member; this
//! copy keeps the ids the root package has always reported until
//! ROADMAP item 13 retires them. Taken as they stand:
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
