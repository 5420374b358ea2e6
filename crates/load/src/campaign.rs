//! Chaos-under-load campaigns: replay `.chaos` fault schedules against
//! a cluster while the generators are running, and report what the
//! *requests* saw — throughput dips, p99 during failover, goodput lost.
//!
//! Each fault runs in its own engine (same seed, same workload), so
//! outcomes are comparable and the sweep parallelizes on the tamp-par
//! pool with byte-identical reports at any `--jobs` width.

use crate::scenario::{build, LoadScenarioConfig};
use crate::telemetry::Cell;
use std::collections::BTreeMap;
use tamp_chaos::{apply_schedule, GroundTruth, Schedule};
use tamp_netsim::{Nanos, SECS};
use tamp_par::Pool;
use tamp_telemetry::HistogramSnapshot;

/// One named fault schedule to run under load.
#[derive(Debug, Clone)]
pub struct CampaignFault {
    pub name: String,
    pub schedule: Schedule,
}

/// Campaign timing: generators warm up, then faults fire inside the
/// measurement window.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Membership convergence + arrival ramp before measurement starts.
    pub warmup: Nanos,
    /// Measurement window length (the run extends past it if a
    /// schedule's horizon does).
    pub duration: Nanos,
    pub faults: Vec<CampaignFault>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            warmup: 45 * SECS,
            duration: 45 * SECS,
            faults: Vec::new(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub issued: u64,
    pub completed: u64,
    pub failed: u64,
    pub proxied: u64,
    /// Error-taxonomy counters, name → count.
    pub errors: BTreeMap<String, u64>,
    /// Cluster-wide end-to-end latency.
    pub overall: HistogramSnapshot,
    /// Per doc-partition latency.
    pub per_partition: Vec<HistogramSnapshot>,
    /// Latency of requests that crossed a proxy hop.
    pub proxied_latency: HistogramSnapshot,
    /// Latency of requests answered without a proxy hop.
    pub direct_latency: HistogramSnapshot,
    /// Per-second throughput/latency timeline.
    pub cells: Vec<Cell>,
    /// `[start, end)` seconds of the pre-fault baseline window.
    pub baseline: (usize, usize),
    /// `[start, end)` seconds of the fault window (empty schedule:
    /// whole measurement window).
    pub fault_window: (usize, usize),
}

impl RunSummary {
    fn window_rates(&self, from: usize, to: usize) -> (f64, u64) {
        let secs = to.saturating_sub(from).max(1);
        let completed: u64 = self
            .cells
            .iter()
            .take(to.min(self.cells.len()))
            .skip(from)
            .map(|c| c.completed)
            .sum();
        (completed as f64 / secs as f64, completed)
    }

    /// Mean completion rate over the baseline window (req/s).
    pub fn baseline_rate(&self) -> f64 {
        self.window_rates(self.baseline.0, self.baseline.1).0
    }

    /// Worst single-second completion rate inside the fault window.
    pub fn fault_min_rate(&self) -> u64 {
        let (from, to) = self.fault_window;
        self.cells
            .iter()
            .take(to.min(self.cells.len()))
            .skip(from)
            .map(|c| c.completed)
            .min()
            .unwrap_or(0)
    }

    /// Throughput dip: how far the worst fault-window second fell below
    /// the baseline rate, in percent of baseline.
    pub fn throughput_dip_pct(&self) -> f64 {
        let base = self.baseline_rate();
        if base <= 0.0 {
            return 0.0;
        }
        (100.0 * (1.0 - self.fault_min_rate() as f64 / base)).max(0.0)
    }

    fn merged(&self, from: usize, to: usize) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for cell in self.cells.iter().take(to.min(self.cells.len())).skip(from) {
            out.merge(&cell.lat);
        }
        out
    }

    /// p99 latency (ns) of requests completing in the baseline window.
    pub fn baseline_p99(&self) -> u64 {
        self.merged(self.baseline.0, self.baseline.1).quantile(0.99)
    }

    /// p99 latency (ns) of requests completing in the fault window.
    pub fn fault_p99(&self) -> u64 {
        self.merged(self.fault_window.0, self.fault_window.1)
            .quantile(0.99)
    }

    /// Completions the fault cost us: baseline rate extrapolated over
    /// the fault window minus what actually completed.
    pub fn goodput_lost(&self) -> i64 {
        let (from, to) = self.fault_window;
        let expected = self.baseline_rate() * to.saturating_sub(from) as f64;
        let (_, actual) = self.window_rates(from, to);
        expected as i64 - actual as i64
    }
}

/// Outcome of one fault run.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    pub name: String,
    /// Concrete actions fired (resolved leader/random targets).
    pub resolved: Vec<String>,
    pub summary: RunSummary,
}

/// Run one schedule against a fresh scenario: warm up, fire the faults,
/// run out the measurement window and the schedule horizon.
pub fn run_one(cfg: &LoadScenarioConfig, schedule: &Schedule, campaign: &Campaign) -> FaultOutcome {
    let mut schedule = schedule.clone();
    schedule.normalize();
    let mut s = build(cfg);
    s.engine.start();
    s.engine.run_until(campaign.warmup);

    let mut truth = GroundTruth::new();
    let resolved = apply_schedule(
        &mut s.engine,
        &s.probes,
        &schedule,
        cfg.seed,
        0.0,
        &mut truth,
    );

    let end = (campaign.warmup + campaign.duration).max(schedule.horizon());
    s.engine.run_until(end);

    let snap = s.engine.registry().snapshot();
    let mut errors = BTreeMap::new();
    for name in ["routed_to_dead", "timeout", "retry_exhausted"] {
        errors.insert(
            name.to_string(),
            snap.counter_total("load", &format!("errors.{name}")),
        );
    }
    let per_partition = (0..cfg.doc_partitions)
        .map(|p| {
            snap.histogram(
                tamp_telemetry::CLUSTER,
                "load",
                &format!("latency_ns.doc{p:02}"),
            )
            .cloned()
            .unwrap_or_default()
        })
        .collect();

    let warm_s = (campaign.warmup / SECS) as usize;
    let end_s = (end / SECS) as usize;
    let (baseline, fault_window) = match schedule.events.first() {
        Some(first) => {
            let fault_s = (first.at / SECS) as usize;
            ((warm_s, fault_s.max(warm_s)), (fault_s, end_s))
        }
        None => ((warm_s, end_s), (warm_s, end_s)),
    };

    let timeline = s.telemetry.timeline.lock();
    FaultOutcome {
        name: String::new(),
        resolved,
        summary: RunSummary {
            issued: snap.counter_total("load", "issued"),
            completed: snap.counter_total("load", "completed"),
            failed: snap.counter_total("load", "failed"),
            proxied: snap.counter_total("load", "proxied"),
            errors,
            overall: s.telemetry.latency.snapshot(),
            per_partition,
            proxied_latency: s.telemetry.proxied.snapshot(),
            direct_latency: s.telemetry.direct.snapshot(),
            cells: timeline.cells().to_vec(),
            baseline,
            fault_window,
        },
    }
}

/// Run every fault of `campaign` (plus an implicit fault-free baseline
/// as the first row) on `pool`, in a deterministic order.
pub fn run_campaign(
    cfg: &LoadScenarioConfig,
    campaign: &Campaign,
    pool: &Pool,
) -> Vec<FaultOutcome> {
    let mut runs: Vec<(String, Schedule)> =
        vec![("baseline".to_string(), Schedule::new(Vec::new()))];
    runs.extend(
        campaign
            .faults
            .iter()
            .map(|f| (f.name.clone(), f.schedule.clone())),
    );
    pool.ordered_map(runs.len(), |i| {
        let (name, schedule) = &runs[i];
        let mut outcome = run_one(cfg, schedule, campaign);
        outcome.name = name.clone();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use tamp_chaos::{Action, ScheduledFault, Target};

    fn tiny_cfg() -> LoadScenarioConfig {
        LoadScenarioConfig {
            users: 400,
            datacenters: 2,
            workload: WorkloadConfig {
                think_mean: 10 * SECS,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn tiny_campaign() -> Campaign {
        Campaign {
            warmup: 30 * SECS,
            duration: 20 * SECS,
            faults: vec![CampaignFault {
                name: "leader-death".to_string(),
                schedule: Schedule {
                    events: vec![ScheduledFault {
                        at: 35 * SECS,
                        action: Action::Kill(Target::Leader(0)),
                    }],
                    settle: 10 * SECS,
                    ..Schedule::default()
                },
            }],
        }
    }

    #[test]
    fn windows_sum_their_seconds_and_clamp_out_of_range() {
        let mut t = crate::telemetry::Timeline::default();
        t.record_completion(0, 100);
        t.record_completion(2, 200);
        t.record_completion(2, 300);
        t.record_failure(1);
        let s = RunSummary {
            issued: 4,
            completed: 3,
            failed: 1,
            proxied: 0,
            errors: BTreeMap::new(),
            overall: HistogramSnapshot::default(),
            per_partition: Vec::new(),
            proxied_latency: HistogramSnapshot::default(),
            direct_latency: HistogramSnapshot::default(),
            cells: t.cells().to_vec(),
            baseline: (0, 3),
            fault_window: (1, 3),
        };
        assert_eq!(s.window_rates(0, 3), (1.0, 3));
        assert_eq!(s.window_rates(1, 3).1, 2);
        assert_eq!(s.merged(2, 3).count, 2);
        // Out-of-range windows clamp instead of panicking.
        assert_eq!(s.window_rates(5, 9).1, 0);
        assert_eq!(s.merged(5, 9).count, 0);
    }

    #[test]
    fn campaign_runs_and_reports() {
        let outcomes = run_campaign(&tiny_cfg(), &tiny_campaign(), &Pool::sequential());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "baseline");
        assert!(outcomes[0].resolved.is_empty());
        assert_eq!(outcomes[1].resolved.len(), 1);
        for o in &outcomes {
            assert!(o.summary.completed > 0, "{}: nothing completed", o.name);
            // Every completion is attributed to exactly one path.
            assert_eq!(
                o.summary.proxied_latency.count + o.summary.direct_latency.count,
                o.summary.overall.count,
                "{}: proxied/direct split must partition the completions",
                o.name
            );
            assert_eq!(o.summary.proxied_latency.count, o.summary.proxied);
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_pool_widths() {
        let cfg = tiny_cfg();
        let campaign = tiny_campaign();
        let a = run_campaign(&cfg, &campaign, &Pool::sequential());
        let b = run_campaign(&cfg, &campaign, &Pool::new(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.resolved, y.resolved);
            assert_eq!(x.summary.issued, y.summary.issued);
            assert_eq!(x.summary.completed, y.summary.completed);
            assert_eq!(x.summary.overall.buckets, y.summary.overall.buckets);
            assert_eq!(
                x.summary
                    .cells
                    .iter()
                    .map(|c| c.completed)
                    .collect::<Vec<_>>(),
                y.summary
                    .cells
                    .iter()
                    .map(|c| c.completed)
                    .collect::<Vec<_>>()
            );
        }
    }
}
