//! Tier-1 run of the cross-protocol determinism locks: the chaos sweep
//! of every protocol column at pool widths 1 and 4, per-run
//! reproducibility, and the strict regression scenarios of the two
//! newer columns. The file lives with the harness crate and is included
//! whole.

#[path = "../crates/harness/tests/protocol_determinism.rs"]
mod protocol_determinism;
