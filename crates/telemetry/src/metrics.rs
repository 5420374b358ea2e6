//! The metrics registry: counters and fixed-bucket histograms
//! keyed by `(node, subsystem, name)`.
//!
//! Recording is lock-free after handle creation — a handle is an
//! `Arc<AtomicU64>` (or a bucket array of them), so the hot path is one
//! relaxed `fetch_add`. Handle creation takes a registry lock and is
//! meant for setup or cold paths. A *disabled* registry hands out no-op
//! handles so instrumented code pays only a branch when telemetry is
//! off (the run-time equivalent of compiling it out).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pseudo-node id for cluster-wide (not per-host) series.
pub const CLUSTER: u32 = u32::MAX;

/// Identifies one instrument. Ordered `(subsystem, name, node)` so
/// exports group related series together deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub subsystem: &'static str,
    pub name: String,
    pub node: u32,
}

impl Key {
    pub fn new(node: u32, subsystem: &'static str, name: impl Into<String>) -> Self {
        Key {
            subsystem,
            name: name.into(),
            node,
        }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.node == CLUSTER {
            write!(f, "{}/{}", self.subsystem, self.name)
        } else {
            write!(f, "{}/{}[n{}]", self.subsystem, self.name, self.node)
        }
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i` (powers of two), so the full `u64` range is covered
/// with constant memory and recording is a `leading_zeros`.
pub const HISTOGRAM_BUCKETS: usize = 65;

fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used for percentile estimates).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A monotone counter handle. Cheap to clone; no-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing (disabled registry).
    pub fn noop() -> Self {
        Counter(None)
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(a) = &self.0 {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket (power-of-two) histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    pub fn noop() -> Self {
        Histogram(None)
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => HistogramSnapshot {
                buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            },
        }
    }
}

/// A point-in-time copy of a histogram. Merging is bucket-wise addition,
/// which is associative and commutative — per-node histograms can be
/// folded into cluster aggregates in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`). Deterministic: pure integer bucket walk.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest non-empty bucket.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// One metric sample queued by a sans-io actor (see
/// `tamp_netsim::Effect`): the driver routes it into its registry under
/// the emitting host's node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    Count {
        subsystem: &'static str,
        name: &'static str,
        n: u64,
    },
    Record {
        subsystem: &'static str,
        name: &'static str,
        value: u64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    slots: Mutex<BTreeMap<Key, Slot>>,
}

/// The shared metrics registry. Clones share storage. A registry is
/// either *enabled* (stores data) or *disabled* (hands out no-op
/// handles); drivers hold one either way so instrumentation sites never
/// need an `Option`.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A registry that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Get-or-create the counter at `(node, subsystem, name)`.
    pub fn counter(&self, node: u32, subsystem: &'static str, name: impl Into<String>) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let key = Key::new(node, subsystem, name);
        let mut slots = inner.slots.lock().unwrap();
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(a) => Counter(Some(Arc::clone(a))),
            _ => Counter::noop(), // key already holds a different kind
        }
    }

    /// Get-or-create the histogram at `(node, subsystem, name)`.
    pub fn histogram(
        &self,
        node: u32,
        subsystem: &'static str,
        name: impl Into<String>,
    ) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let key = Key::new(node, subsystem, name);
        let mut slots = inner.slots.lock().unwrap();
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::default())))
        {
            Slot::Histogram(h) => Histogram(Some(Arc::clone(h))),
            _ => Histogram::noop(),
        }
    }

    /// One-shot recording (cold path: takes the registry lock). Drivers
    /// that route high-rate samples should cache handles instead.
    pub fn apply(&self, node: u32, sample: Sample) {
        match sample {
            Sample::Count { subsystem, name, n } => self.counter(node, subsystem, name).add(n),
            Sample::Record {
                subsystem,
                name,
                value,
            } => self.histogram(node, subsystem, name).record(value),
        }
    }

    /// Deterministic point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries = BTreeMap::new();
        if let Some(inner) = &self.inner {
            let slots = inner.slots.lock().unwrap();
            for (k, slot) in slots.iter() {
                let v = match slot {
                    Slot::Counter(a) => MetricValue::Counter(a.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => {
                        MetricValue::Histogram(Box::new(Histogram(Some(Arc::clone(h))).snapshot()))
                    }
                };
                entries.insert(k.clone(), v);
            }
        }
        MetricsSnapshot { entries }
    }
}

/// One exported value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    /// Boxed: a snapshot is ~540 bytes against the 8-byte scalars.
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A deterministic copy of a [`Registry`], sorted by [`Key`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub entries: BTreeMap<Key, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value at an exact key (0 when absent).
    pub fn counter(&self, node: u32, subsystem: &str, name: &str) -> u64 {
        match self
            .entries
            .iter()
            .find(|(k, _)| k.node == node && k.subsystem == subsystem && k.name == name)
        {
            Some((_, MetricValue::Counter(v))) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot at an exact key, when present.
    pub fn histogram(&self, node: u32, subsystem: &str, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(k, v)| match v {
            MetricValue::Histogram(h)
                if k.node == node && k.subsystem == subsystem && k.name == name =>
            {
                Some(&**h)
            }
            _ => None,
        })
    }

    /// Sum of a counter over every node it was recorded for.
    pub fn counter_total(&self, subsystem: &str, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.subsystem == subsystem && k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Fold per-node series into cluster-wide aggregates: counters sum,
    /// histograms merge bucket-wise. Keys keep their
    /// `(subsystem, name)` and get node = [`CLUSTER`].
    pub fn aggregate(&self) -> MetricsSnapshot {
        let mut out: BTreeMap<Key, MetricValue> = BTreeMap::new();
        for (k, v) in &self.entries {
            let key = Key::new(CLUSTER, k.subsystem, k.name.clone());
            match out.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    match (e.get_mut(), v) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        _ => {} // kind clash: keep the first
                    }
                }
            }
        }
        MetricsSnapshot { entries: out }
    }

    /// Fold another snapshot into this one, key by key: counters sum,
    /// histograms merge bucket-wise, and a key present in
    /// only one side is kept as-is. The combiner is associative and
    /// commutative, which is what lets parallel sweeps merge per-run
    /// snapshots in submission order and still equal the sequential
    /// fold (see `docs/PERFORMANCE.md`).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.entries {
            match self.entries.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    match (e.get_mut(), v) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        _ => {} // kind clash: keep the first
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`MetricsSnapshot::merge`] must be order-insensitive: folding
    /// per-run snapshots in every permutation yields the identical
    /// aggregate. Parallel sweeps and the sharded engine's master-side
    /// merge both lean on this; a key must keep one metric kind across
    /// snapshots (the registry enforces that), since kind clashes
    /// resolve first-wins and would break commutativity.
    #[test]
    fn snapshot_merge_is_order_insensitive() {
        let parts: Vec<MetricsSnapshot> = (0..4u32)
            .map(|i| {
                let reg = Registry::new();
                // Disjoint per-node keys plus keys shared by every part,
                // across all three kinds.
                reg.counter(i, "net", "sent").add(10 + u64::from(i));
                reg.counter(9, "net", "sent").add(u64::from(i) + 1);
                let h = reg.histogram(9, "load", "latency");
                for v in 0..(5 + u64::from(i)) {
                    h.record(v * 1_000 + u64::from(i));
                }
                reg.snapshot()
            })
            .collect();

        let fold = |order: &[usize]| {
            let mut acc = MetricsSnapshot::default();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let reference = fold(&[0, 1, 2, 3]);
        assert_eq!(reference.counter_total("net", "sent"), 56);
        assert!(reference.histogram(9, "load", "latency").is_some());

        let mut perms = 0;
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let p = [a, b, c, d];
                        let mut sorted = p;
                        sorted.sort_unstable();
                        if sorted != [0, 1, 2, 3] {
                            continue;
                        }
                        perms += 1;
                        assert_eq!(fold(&p), reference, "merge order {p:?} diverged");
                    }
                }
            }
        }
        assert_eq!(perms, 24);
    }

    #[test]
    fn counters_record() {
        let reg = Registry::new();
        let c = reg.counter(0, "net", "sent");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key → same storage.
        assert_eq!(reg.counter(0, "net", "sent").get(), 5);
    }

    #[test]
    fn disabled_registry_is_noop() {
        let reg = Registry::disabled();
        let c = reg.counter(0, "net", "sent");
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().entries.is_empty());
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let reg = Registry::new();
        let h = reg.histogram(0, "net", "latency");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        // p50 falls in the bucket of value 3 (bit length 2 → upper 3).
        assert_eq!(s.quantile(0.5), 3);
        assert!(s.quantile(1.0) >= 1000);
        assert!(s.max() >= 1000 && s.max() < 2048);
        assert_eq!(s.mean(), 1106.0 / 5.0);
    }

    #[test]
    fn histogram_merge_is_associative() {
        fn h(values: &[u64]) -> HistogramSnapshot {
            let reg = Registry::new();
            let h = reg.histogram(0, "t", "x");
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        }
        let (a, b, c) = (h(&[1, 5, 9]), h(&[2, 1000]), h(&[7, 7, 7, 70]));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count, 9);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        fn snap(node: u32, sent: u64, lat: &[u64]) -> MetricsSnapshot {
            let reg = Registry::new();
            reg.counter(node, "net", "sent").add(sent);
            let h = reg.histogram(0, "net", "latency");
            for &v in lat {
                h.record(v);
            }
            reg.snapshot()
        }
        let (a, b, c) = (snap(0, 3, &[1, 9]), snap(1, 5, &[2]), snap(0, 7, &[70]));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): sweeps may fold per-run
        // snapshots in any grouping.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Overlapping keys combined, disjoint keys kept.
        assert_eq!(left.counter(0, "net", "sent"), 10);
        assert_eq!(left.counter_total("net", "sent"), 15);
        assert_eq!(left.histogram(0, "net", "latency").unwrap().count, 4);
    }

    #[test]
    fn snapshot_is_sorted_and_aggregates() {
        let reg = Registry::new();
        reg.counter(3, "net", "sent").add(1);
        reg.counter(1, "net", "sent").add(2);
        reg.counter(2, "membership", "updates").add(5);
        let snap = reg.snapshot();
        let keys: Vec<String> = snap.entries.keys().map(|k| k.to_string()).collect();
        assert_eq!(
            keys,
            vec!["membership/updates[n2]", "net/sent[n1]", "net/sent[n3]"]
        );
        assert_eq!(snap.counter_total("net", "sent"), 3);
        let agg = snap.aggregate();
        assert_eq!(agg.counter(CLUSTER, "net", "sent"), 3);
    }

    #[test]
    fn apply_routes_sample_kinds() {
        let reg = Registry::new();
        reg.apply(
            4,
            Sample::Count {
                subsystem: "m",
                name: "c",
                n: 2,
            },
        );
        reg.apply(
            4,
            Sample::Record {
                subsystem: "m",
                name: "h",
                value: 16,
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter(4, "m", "c"), 2);
        assert!(matches!(
            snap.entries.get(&Key::new(4, "m", "h")),
            Some(MetricValue::Histogram(h)) if h.count == 1
        ));
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }
}
