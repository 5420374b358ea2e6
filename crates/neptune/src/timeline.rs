//! The per-second request record both consumers keep: for each second
//! of the run, how many requests completed (through a proxy or not) and
//! failed, and the latency distribution of the completions, plus the
//! run's count of issued requests — recorded directly through the public
//! [`HistogramSnapshot`] bucket layout, so a second's latencies merge
//! and export like any registry histogram.

use parking_lot::Mutex;
use std::sync::Arc;
use tamp_netsim::telemetry::HistogramSnapshot;
use tamp_netsim::{Nanos, SECS};

/// One second of the record (or several, summed by [`window`]).
#[derive(Debug, Clone, Default)]
pub struct Cell {
    pub completed: u64,
    /// Completions that went through a membership proxy.
    pub proxied: u64,
    pub failed: u64,
    /// Latency distribution of the requests completed this second.
    pub lat: HistogramSnapshot,
}

impl Cell {
    /// Mean latency of the completions (`None` without any).
    pub fn mean_latency(&self) -> Option<Nanos> {
        (self.completed > 0).then(|| self.lat.sum / self.completed)
    }
}

/// Per-second request cells, shared by the consumers that record into
/// one handle.
#[derive(Debug, Default)]
pub struct Timeline {
    cells: Vec<Cell>,
    issued: u64,
}

/// A consumer's handle on the record it writes.
pub type TimelineHandle = Arc<Mutex<Timeline>>;

/// Record `v` into a snapshot using the registry's power-of-two bucket
/// mapping (`HISTOGRAM_BUCKETS` buckets, index = bit width of `v`).
fn snapshot_record(h: &mut HistogramSnapshot, v: u64) {
    let bucket = (u64::BITS - v.leading_zeros()) as usize;
    h.buckets[bucket] += 1;
    h.count += 1;
    // The registry's atomic sum wraps; match it exactly.
    h.sum = h.sum.wrapping_add(v);
}

impl Timeline {
    fn cell_at(&mut self, now: Nanos) -> &mut Cell {
        let second = (now / SECS) as usize;
        if self.cells.len() <= second {
            self.cells.resize(second + 1, Cell::default());
        }
        &mut self.cells[second]
    }

    pub fn record_issue(&mut self) {
        self.issued += 1;
    }

    pub fn record_completion(&mut self, now: Nanos, latency: Nanos, proxied: bool) {
        let cell = self.cell_at(now);
        cell.completed += 1;
        cell.proxied += u64::from(proxied);
        snapshot_record(&mut cell.lat, latency);
    }

    pub fn record_failure(&mut self, now: Nanos) {
        self.cell_at(now).failed += 1;
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Requests started over the whole run.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Seconds `[from, to)` summed into one cell.
    pub fn window(&self, from: usize, to: usize) -> Cell {
        window(&self.cells, from, to)
    }

    /// The whole run summed into one cell.
    pub fn total(&self) -> Cell {
        self.window(0, self.cells.len())
    }
}

/// `cells[from..to]` summed into one cell; seconds past the end count
/// as empty.
pub fn window(cells: &[Cell], from: usize, to: usize) -> Cell {
    let mut sum = Cell::default();
    for c in cells.iter().take(to.min(cells.len())).skip(from) {
        sum.completed += c.completed;
        sum.proxied += c.proxied;
        sum.failed += c.failed;
        sum.lat.merge(&c.lat);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_netsim::telemetry::{Registry, CLUSTER};

    #[test]
    fn snapshot_record_matches_registry_buckets() {
        let reg = Registry::new();
        let h = reg.histogram(CLUSTER, "load", "x");
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
    fn timeline_cells_and_windows() {
        let mut t = Timeline::default();
        t.record_issue();
        t.record_completion(0, 100, false);
        t.record_completion(2 * SECS, 200, true);
        t.record_completion(2 * SECS + 1, 300, false);
        t.record_failure(SECS);
        let completed: Vec<u64> = t.cells().iter().map(|c| c.completed).collect();
        assert_eq!(completed, [1, 0, 2]);
        assert_eq!(t.cells()[1].failed, 1);
        assert_eq!(t.cells()[2].lat.count, 2);
        let w = t.window(1, 3);
        assert_eq!((w.completed, w.proxied, w.failed), (2, 1, 1));
        assert_eq!(w.mean_latency(), Some(250));
        assert_eq!(t.issued(), 1);
        // Out-of-range windows clamp instead of panicking.
        assert_eq!(t.window(5, 9).completed, 0);
        assert_eq!(t.window(5, 9).mean_latency(), None);
    }
}
