//! Tier-1 run of the simulator's accounting lock: `cargo test -q` at the
//! workspace root runs only this package's suites, so the netsim suite
//! that holds sends, deliveries and drops to balance under loss and
//! faults is taken here as it stands.

#[path = "../crates/netsim/tests/conservation.rs"]
mod conservation;
