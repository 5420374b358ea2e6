//! The baseline-protocol suite under its root test ids
//! (`baseline_protocols::…`). Tier-1 also runs the crate file itself as
//! a workspace default member; this copy keeps the ids the root package
//! has always reported for SWIM, gossip and all-to-all convergence and
//! detection until ROADMAP item 13 retires them. Taken as it stands.

#[path = "../crates/baselines/tests/baseline_protocols.rs"]
mod baseline_protocols;
