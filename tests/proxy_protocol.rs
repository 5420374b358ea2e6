//! Tier-1 run of the proxy-protocol suite: `cargo test -q` at the
//! workspace root runs only this package's suites, and the proxy role
//! (WAN summaries split at `MAX_AVAIL_PER_PACKET` and reassembled,
//! incremental updates, VIP failover) is locked only there. Taken as it
//! stands.

#[path = "../crates/proxy/tests/proxy_protocol.rs"]
mod proxy_protocol;
