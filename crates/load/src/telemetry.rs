//! Per-request SLO telemetry: cluster-wide and per-partition latency
//! histograms plus a per-second throughput timeline.
//!
//! Counters and latency samples live in the engine's tamp-telemetry
//! [`Registry`] like every other subsystem;
//! the timeline is the one load-specific structure (the registry's time
//! series track counters, not histogram-per-second), recorded directly
//! through the public [`HistogramSnapshot`] bucket layout.

use parking_lot::Mutex;
use std::sync::Arc;
use tamp_netsim::Nanos;
use tamp_telemetry::{Histogram, HistogramSnapshot, Registry, CLUSTER};

/// Telemetry subsystem name for everything tamp-load records.
pub const SUBSYSTEM: &str = "load";

/// One second of the throughput timeline.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    pub completed: u64,
    pub failed: u64,
    /// Latency distribution of the requests completed this second.
    pub lat: HistogramSnapshot,
}

/// Per-second completed/failed counts and latency distributions, shared
/// by every generator in a run.
#[derive(Debug, Default)]
pub struct Timeline {
    cells: Vec<Cell>,
}

/// Record `v` into a snapshot using the registry's power-of-two bucket
/// mapping (`HISTOGRAM_BUCKETS` buckets, index = bit width of `v`).
pub fn snapshot_record(h: &mut HistogramSnapshot, v: u64) {
    let bucket = (u64::BITS - v.leading_zeros()) as usize;
    h.buckets[bucket] += 1;
    h.count += 1;
    // The registry's atomic sum wraps; match it exactly.
    h.sum = h.sum.wrapping_add(v);
}

impl Timeline {
    fn cell_at(&mut self, second: usize) -> &mut Cell {
        if self.cells.len() <= second {
            self.cells.resize(second + 1, Cell::default());
        }
        &mut self.cells[second]
    }

    pub fn record_completion(&mut self, second: usize, latency: Nanos) {
        let cell = self.cell_at(second);
        cell.completed += 1;
        snapshot_record(&mut cell.lat, latency);
    }

    pub fn record_failure(&mut self, second: usize) {
        self.cell_at(second).failed += 1;
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

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
    pub timeline: Arc<Mutex<Timeline>>,
}

impl LoadTelemetry {
    /// Create the handles against `registry` for `doc_partitions`
    /// partitions. Histogram names are zero-padded so exports sort in
    /// partition order.
    pub fn new(registry: &Registry, doc_partitions: u16) -> LoadTelemetry {
        LoadTelemetry {
            latency: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns"),
            by_partition: (0..doc_partitions)
                .map(|p| registry.histogram(CLUSTER, SUBSYSTEM, format!("latency_ns.doc{p:02}")))
                .collect(),
            proxied: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns.proxied"),
            direct: registry.histogram(CLUSTER, SUBSYSTEM, "latency_ns.direct"),
            timeline: Arc::new(Mutex::new(Timeline::default())),
        }
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
            .record_completion((now / tamp_netsim::SECS) as usize, latency);
    }

    pub fn record_failure(&self, now: Nanos) {
        self.timeline
            .lock()
            .record_failure((now / tamp_netsim::SECS) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_record_matches_registry_buckets() {
        let reg = Registry::new();
        let h = reg.histogram(CLUSTER, SUBSYSTEM, "x");
        let mut manual = HistogramSnapshot::default();
        for v in [0u64, 1, 2, 3, 100, 65_536, u64::MAX] {
            h.record(v);
            snapshot_record(&mut manual, v);
        }
        let from_registry = h.snapshot();
        assert_eq!(manual.buckets, from_registry.buckets);
        assert_eq!(manual.count, from_registry.count);
        assert_eq!(manual.sum, from_registry.sum);
    }

    #[test]
    fn timeline_cells() {
        let mut t = Timeline::default();
        t.record_completion(0, 100);
        t.record_completion(2, 200);
        t.record_completion(2, 300);
        t.record_failure(1);
        let completed: Vec<u64> = t.cells().iter().map(|c| c.completed).collect();
        assert_eq!(completed, [1, 0, 2]);
        assert_eq!(t.cells()[1].failed, 1);
        assert_eq!(t.cells()[2].lat.count, 2);
    }
}
