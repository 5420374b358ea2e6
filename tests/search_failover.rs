//! Tier-1 run of the request-path locks of the search deployment: the
//! Fig. 14 failover behaviour (`search_failover`: local service, proxy
//! failover and recovery, proxy-leader death, random polling,
//! queueing, the Fig. 1 document fan-out) and the exact per-second
//! golden of the gateway paths Fig. 14 never takes (`gateway_golden`).
//! Both files live with the neptune crate and are included whole.

#[path = "../crates/neptune/tests/search_failover.rs"]
mod search_failover;

#[path = "../crates/neptune/tests/gateway_golden.rs"]
mod gateway_golden;
