//! Per-request SLO telemetry: cluster-wide and per-partition latency
//! histograms, plus the per-second request record (tamp-neptune's
//! [`Timeline`](tamp_neptune::Timeline)) every generator writes.
//!
//! Counters and latency samples live in the engine's tamp-telemetry
//! [`Registry`] like every other subsystem; the timeline is the one
//! structure outside it (the registry's time series track counters,
//! not histogram-per-second).

use tamp_neptune::TimelineHandle;
use tamp_netsim::Nanos;
use tamp_telemetry::{Histogram, Registry, CLUSTER};

/// Telemetry subsystem name for everything tamp-load records.
pub const SUBSYSTEM: &str = "load";

/// Handles every generator records through; cheap to clone.
#[derive(Clone)]
pub struct LoadTelemetry {
    /// Cluster-wide end-to-end latency.
    pub latency: Histogram,
    /// Per doc-partition latency, indexed by partition.
    pub by_partition: Vec<Histogram>,
    /// Latency of requests that crossed a proxy hop, so proxy-path time
    /// can be attributed separately from direct-path time.
    pub proxied: Histogram,
    /// Latency of requests answered without a proxy hop.
    pub direct: Histogram,
    pub timeline: TimelineHandle,
}

impl LoadTelemetry {
    /// Create the handles against `registry` for `doc_partitions`
    /// partitions. Histogram names are zero-padded so exports sort in
    /// partition order.
    pub fn new(registry: &Registry, doc_partitions: u16) -> Self {
        LoadTelemetry {
            latency: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns"),
            by_partition: (0..doc_partitions)
                .map(|p| registry.histogram(CLUSTER, SUBSYSTEM, format!("latency_ns.doc{p:02}")))
                .collect(),
            proxied: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns.proxied"),
            direct: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns.direct"),
            timeline: TimelineHandle::default(),
        }
    }

    pub fn record_issue(&self) {
        self.timeline.lock().record_issue();
    }

    /// Record one completed request against `doc_partition`.
    /// `via_proxy` splits the sample into the proxied/direct histograms
    /// so proxy-hop latency is attributable from the same run.
    pub fn record_completion(
        &self,
        now: Nanos,
        doc_partition: u16,
        latency: Nanos,
        via_proxy: bool,
    ) {
        self.latency.record(latency);
        if let Some(h) = self.by_partition.get(doc_partition as usize) {
            h.record(latency);
        }
        if via_proxy {
            self.proxied.record(latency);
        } else {
            self.direct.record(latency);
        }
        self.timeline
            .lock()
            .record_completion(now, latency, via_proxy);
    }

    pub fn record_failure(&self, now: Nanos) {
        self.timeline.lock().record_failure(now);
    }
}
