//! # tamp-telemetry — deterministic metrics + structured event tracing
//!
//! One observability substrate for the whole stack. The paper's entire
//! evaluation is measurement-driven (bandwidth, detection time,
//! convergence — Figs. 11–14), and before this crate every layer grew
//! its own instrumentation: `netsim::stats` counted bytes, the UDP
//! runtime had a one-off `NetCounters`, the chaos runner rendered trace
//! strings, and each harness driver re-derived metrics from raw
//! observation logs. This crate replaces all of that with:
//!
//! * a **metrics registry** ([`Registry`]) — counters and fixed-bucket
//!   histograms keyed by `(node, subsystem, name)`, with
//!   atomic hot-path recording that works under both the simulator's
//!   virtual time and the UDP runtime's wall clock;
//! * a **structured event-trace layer** ([`Event`], [`EventLog`]) — one
//!   typed schema for network events (send/deliver/drop/fault) *and*
//!   protocol events ([`ProtocolEvent`]: heartbeat sent, suspicion
//!   armed, member removed and why, …), held in a bounded ring buffer
//!   with virtual-time timestamps. A protocol event is the one record
//!   of its fact: drivers derive its counter, trace record and
//!   observation from it;
//! * **exporters** ([`export`]) — canonical JSONL traces and CSV /
//!   summary-table metric dumps.
//!
//! **Determinism is a hard requirement**: every export iterates sorted
//! maps and formats integers, so two runs with the same seed produce
//! byte-identical output — the exports double as regression oracles.
//! There are no external dependencies and no clocks in this crate;
//! callers supply every timestamp.

pub mod events;
pub mod export;
pub mod metrics;
pub mod protocol;

pub use events::{DropReason, Event, EventFilter, EventLog, EventRecord};
pub use export::{events_to_jsonl, snapshot_to_csv, summary_table};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, Key, MetricValue, MetricsSnapshot, Registry, Sample,
    CLUSTER,
};
pub use protocol::{Cause, Declared, Ping, ProtocolEvent, Value, REFUTATION_KINDS, REMOVAL_KINDS};
