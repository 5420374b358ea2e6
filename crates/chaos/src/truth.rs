//! Ground truth: what *actually* happened to the cluster, recorded by
//! the fault driver as it fires each action. The oracle judges the
//! protocol's observations (removals, views, leaderships) against this
//! record — the protocol itself is never trusted to describe the faults.

use std::collections::BTreeMap;
use tamp_topology::Nanos;

/// Inclusive-start, exclusive-end interval; `until = None` means "still
/// ongoing".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    from: Nanos,
    until: Option<Nanos>,
}

impl Interval {
    /// Does this interval overlap `[from, to)`?
    fn overlaps(&self, from: Nanos, to: Nanos) -> bool {
        self.from < to && self.until.is_none_or(|u| u > from)
    }
}

fn seg_key(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The actual fault history of one run: per-host down intervals,
/// per-segment-pair partition windows, and loss-rate windows.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Host index → intervals during which the host was down.
    down: BTreeMap<u32, Vec<Interval>>,
    /// Normalized segment pair → intervals during which it was severed.
    partitions: BTreeMap<(u16, u16), Vec<Interval>>,
    /// `(rate, window)` for every elevated-loss period.
    loss: Vec<(f64, Interval)>,
    /// *Directed* `(from, to)` pair → intervals during which traffic
    /// from → to was gray-dropped (the reverse direction kept flowing).
    gray: BTreeMap<(u16, u16), Vec<Interval>>,
    /// Times at which any router changed state (down or up). Each change
    /// re-scopes TTL distances, so cross-segment groups re-form around it.
    router_changes: Vec<Nanos>,
}

impl GroundTruth {
    pub fn new() -> Self {
        GroundTruth::default()
    }

    pub fn record_kill(&mut self, at: Nanos, host: u32) {
        self.down.entry(host).or_default().push(Interval {
            from: at,
            until: None,
        });
    }

    pub fn record_revive(&mut self, at: Nanos, host: u32) {
        if let Some(iv) = self
            .down
            .get_mut(&host)
            .and_then(|v| v.last_mut())
            .filter(|iv| iv.until.is_none())
        {
            iv.until = Some(at);
        }
    }

    pub fn record_partition(&mut self, at: Nanos, a: u16, b: u16) {
        let entry = self.partitions.entry(seg_key(a, b)).or_default();
        // Idempotent: a re-partition of an already-severed pair is a no-op.
        if entry.last().is_some_and(|iv| iv.until.is_none()) {
            return;
        }
        entry.push(Interval {
            from: at,
            until: None,
        });
    }

    pub fn record_heal(&mut self, at: Nanos, a: u16, b: u16) {
        if let Some(iv) = self
            .partitions
            .get_mut(&seg_key(a, b))
            .and_then(|v| v.last_mut())
            .filter(|iv| iv.until.is_none())
        {
            iv.until = Some(at);
        }
    }

    pub fn record_heal_all(&mut self, at: Nanos) {
        for ivs in self.partitions.values_mut().chain(self.gray.values_mut()) {
            if let Some(iv) = ivs.last_mut().filter(|iv| iv.until.is_none()) {
                iv.until = Some(at);
            }
        }
    }

    /// Traffic `from → to` started gray-dropping at `at`. Directed: the
    /// key is *not* normalized.
    pub fn record_gray(&mut self, at: Nanos, from: u16, to: u16) {
        let entry = self.gray.entry((from, to)).or_default();
        if entry.last().is_some_and(|iv| iv.until.is_none()) {
            return;
        }
        entry.push(Interval {
            from: at,
            until: None,
        });
    }

    pub fn record_gray_heal(&mut self, at: Nanos, from: u16, to: u16) {
        if let Some(iv) = self
            .gray
            .get_mut(&(from, to))
            .and_then(|v| v.last_mut())
            .filter(|iv| iv.until.is_none())
        {
            iv.until = Some(at);
        }
    }

    /// A router changed state (either direction) at `at`.
    pub fn record_router_change(&mut self, at: Nanos) {
        self.router_changes.push(at);
    }

    pub fn record_loss(&mut self, at: Nanos, rate: f64, duration: Nanos) {
        self.loss.push((
            rate,
            Interval {
                from: at,
                until: Some(at + duration),
            },
        ));
    }

    /// Is `host` up right now (i.e. after every recorded event)?
    pub fn is_alive(&self, host: u32) -> bool {
        self.down
            .get(&host)
            .is_none_or(|v| v.last().is_none_or(|iv| iv.until.is_some()))
    }

    /// Was `host` down at any point during `[from, to)`?
    pub fn was_down_in(&self, host: u32, from: Nanos, to: Nanos) -> bool {
        self.down
            .get(&host)
            .is_some_and(|v| v.iter().any(|iv| iv.overlaps(from, to)))
    }

    /// Were segments `a` and `b` severed at any point during `[from, to)`?
    pub fn partitioned_in(&self, a: u16, b: u16, from: Nanos, to: Nanos) -> bool {
        self.partitions
            .get(&seg_key(a, b))
            .is_some_and(|v| v.iter().any(|iv| iv.overlaps(from, to)))
    }

    /// Was any partition involving `seg` (on either side) active at some
    /// point during `[from, to)`?
    pub fn partition_involving_in(&self, seg: u16, from: Nanos, to: Nanos) -> bool {
        self.partitions.iter().any(|(&(a, b), ivs)| {
            (a == seg || b == seg) && ivs.iter().any(|iv| iv.overlaps(from, to))
        })
    }

    /// Was `host` down for the *entire* `[from, to)` window (no revive
    /// inside it)?
    pub fn down_throughout(&self, host: u32, from: Nanos, to: Nanos) -> bool {
        self.down.get(&host).is_some_and(|v| {
            v.iter()
                .any(|iv| iv.from <= from && iv.until.is_none_or(|u| u >= to))
        })
    }

    /// Was a gray drop involving `seg` (as source *or* sink) active at
    /// some point during `[from, to)`?
    pub fn gray_involving_in(&self, seg: u16, from: Nanos, to: Nanos) -> bool {
        self.gray.iter().any(|(&(a, b), ivs)| {
            (a == seg || b == seg) && ivs.iter().any(|iv| iv.overlaps(from, to))
        })
    }

    /// Is any gray drop unhealed right now?
    pub fn any_gray_active(&self) -> bool {
        self.gray
            .values()
            .any(|v| v.last().is_some_and(|iv| iv.until.is_none()))
    }

    /// Did any router change state during `[from, to)`? Each change
    /// triggers topology re-formation, which excuses cross-segment view
    /// churn inside the detection window.
    pub fn router_changed_in(&self, from: Nanos, to: Nanos) -> bool {
        self.router_changes.iter().any(|&t| from <= t && t < to)
    }

    /// Is any partition unhealed right now?
    pub fn any_partition_active(&self) -> bool {
        self.partitions
            .values()
            .any(|v| v.last().is_some_and(|iv| iv.until.is_none()))
    }

    /// Highest elevated loss rate in effect at any point during
    /// `[from, to)` (0.0 if none).
    pub fn max_loss_in(&self, from: Nanos, to: Nanos) -> f64 {
        self.loss
            .iter()
            .filter(|(_, iv)| iv.overlaps(from, to))
            .map(|(r, _)| *r)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    #[test]
    fn down_intervals_close_on_revive() {
        let mut gt = GroundTruth::new();
        gt.record_kill(10 * SECS, 3);
        assert!(!gt.is_alive(3));
        assert!(gt.is_alive(4));
        gt.record_revive(20 * SECS, 3);
        assert!(gt.is_alive(3));
        assert!(gt.was_down_in(3, 15 * SECS, 16 * SECS));
        assert!(gt.was_down_in(3, 5 * SECS, 11 * SECS));
        assert!(!gt.was_down_in(3, 20 * SECS, 30 * SECS));
        assert!(!gt.was_down_in(3, 5 * SECS, 10 * SECS)); // ends as it starts
    }

    #[test]
    fn partitions_normalize_and_heal_all() {
        let mut gt = GroundTruth::new();
        gt.record_partition(10 * SECS, 1, 0);
        assert!(gt.any_partition_active());
        assert!(gt.partitioned_in(0, 1, 12 * SECS, 13 * SECS));
        gt.record_heal_all(20 * SECS);
        assert!(!gt.any_partition_active());
        assert!(!gt.partitioned_in(1, 0, 25 * SECS, 26 * SECS));
    }

    #[test]
    fn gray_intervals_are_directional() {
        let mut gt = GroundTruth::new();
        gt.record_gray(10 * SECS, 0, 1);
        assert!(gt.any_gray_active());
        assert!(gt.gray_involving_in(0, 12 * SECS, 13 * SECS));
        assert!(gt.gray_involving_in(1, 12 * SECS, 13 * SECS));
        assert!(!gt.gray_involving_in(2, 12 * SECS, 13 * SECS));
        // Healing the reverse direction does not close 0→1.
        gt.record_gray_heal(15 * SECS, 1, 0);
        assert!(gt.any_gray_active());
        gt.record_gray_heal(20 * SECS, 0, 1);
        assert!(!gt.any_gray_active());
        assert!(!gt.gray_involving_in(0, 25 * SECS, 26 * SECS));
        // heal-all closes grays too.
        gt.record_gray(30 * SECS, 1, 0);
        gt.record_heal_all(40 * SECS);
        assert!(!gt.any_gray_active());
    }

    #[test]
    fn down_throughout_needs_full_coverage() {
        let mut gt = GroundTruth::new();
        gt.record_kill(10 * SECS, 3);
        assert!(gt.down_throughout(3, 12 * SECS, 20 * SECS));
        gt.record_revive(30 * SECS, 3);
        assert!(gt.down_throughout(3, 12 * SECS, 30 * SECS));
        assert!(!gt.down_throughout(3, 12 * SECS, 31 * SECS));
        assert!(!gt.down_throughout(3, 5 * SECS, 20 * SECS));
        assert!(!gt.down_throughout(4, 12 * SECS, 20 * SECS));
    }

    #[test]
    fn router_changes_are_recorded() {
        let mut gt = GroundTruth::new();
        gt.record_router_change(20 * SECS);
        assert!(gt.router_changed_in(15 * SECS, 25 * SECS));
        assert!(!gt.router_changed_in(21 * SECS, 25 * SECS));
    }

    #[test]
    fn loss_windows_report_max_rate() {
        let mut gt = GroundTruth::new();
        gt.record_loss(10 * SECS, 0.3, 10 * SECS);
        gt.record_loss(15 * SECS, 0.8, 2 * SECS);
        assert_eq!(gt.max_loss_in(16 * SECS, 17 * SECS), 0.8);
        assert_eq!(gt.max_loss_in(18 * SECS, 19 * SECS), 0.3);
        assert_eq!(gt.max_loss_in(30 * SECS, 31 * SECS), 0.0);
    }
}
