//! Tier-1 run of the baseline-protocol suite: `cargo test -q` at the
//! workspace root runs only this package's suites, and SWIM, gossip and
//! all-to-all convergence and detection at their protocol constants are
//! locked only there. Taken as it stands.

#[path = "../crates/baselines/tests/baseline_protocols.rs"]
mod baseline_protocols;
