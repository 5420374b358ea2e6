//! Paper Fig. 14: effectiveness of the membership proxy — the
//! two-datacenter search engine's response time and throughput across a
//! fail / fail-over / recover timeline.
//!
//! "At second 20, the document retrieval service in the data center A
//! fails. It recovers at second 40."

use crate::grid::{Column, Experiment};
use tamp_neptune::search::{build, SearchOptions};
use tamp_netsim::{Control, Nanos, MILLIS, SECS};

/// One second of the Fig. 14 timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    pub second: u64,
    /// Queries completed in this second (DC-A gateways).
    pub throughput: usize,
    /// Mean response time of those queries, ms (NaN if none).
    pub response_ms: f64,
    /// Queries that failed outright in this second.
    pub failed: usize,
}

/// Run the experiment; returns one point per second of the run.
pub fn run(total_seconds: u64, fail_at: u64, recover_at: u64, seed: u64) -> Vec<TimelinePoint> {
    let opts = SearchOptions {
        seed,
        ..Default::default()
    };
    let mut s = build(&opts);
    for &h in &s.doc_providers[0].clone() {
        s.engine.schedule(fail_at * SECS, Control::Kill(h));
        s.engine.schedule(recover_at * SECS, Control::Revive(h));
    }
    s.engine.start();
    s.engine.run_until(total_seconds * SECS);

    let metrics = &s.gateway_metrics[0];
    let mut points = Vec::new();
    for sec in 0..total_seconds {
        let (from, to) = (sec * SECS, (sec + 1) * SECS);
        let mut tput = 0usize;
        let mut lat_sum: Nanos = 0;
        let mut failed = 0usize;
        for m in metrics {
            let m = m.lock();
            for &(t, l) in &m.completed {
                if (from..to).contains(&t) {
                    tput += 1;
                    lat_sum += l;
                }
            }
            failed += m
                .failed
                .iter()
                .filter(|&&t| (from..to).contains(&t))
                .count();
        }
        points.push(TimelinePoint {
            second: sec,
            throughput: tput,
            response_ms: if tput > 0 {
                lat_sum as f64 / tput as f64 / MILLIS as f64
            } else {
                f64::NAN
            },
            failed,
        });
    }
    points
}

pub const COLUMNS: &[Column<TimelinePoint>] = &[
    ("second", |p| p.second.to_string()),
    ("throughput/s", |p| p.throughput.to_string()),
    ("response ms", |p| {
        if p.response_ms.is_nan() {
            "-".into()
        } else {
            format!("{:.1}", p.response_ms)
        }
    }),
    ("failed", |p| p.failed.to_string()),
];

/// Fig. 14 as a grid of one cell: one 60 s run, folded into a row per
/// second.
pub fn experiment(seed: u64) -> Experiment<(), Vec<TimelinePoint>, TimelinePoint> {
    Experiment::folded(
        "Fig. 14 — membership proxy effectiveness (DC-A doc service fails at 20 s, recovers at 40 s)",
        "fig14",
        vec![()],
        move |()| run(60, 20, 40, seed),
        |runs| runs.into_iter().flatten().collect(),
        COLUMNS,
    )
    .note(
        "Paper shape: throughput dips only during the ~5 s detection window after the failure,\n\
         then matches the arrival rate again; response time steps from local (~20 ms) to above\n\
         the WAN RTT (~90 ms) while requests are served by the remote data center, and drops\n\
         back as soon as the service recovers locally.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_reproduces_paper_shape() {
        let pts = run(60, 20, 40, 7);
        assert_eq!(pts.len(), 60);

        let mean = |range: std::ops::Range<usize>, f: &dyn Fn(&TimelinePoint) -> f64| {
            let vals: Vec<f64> = pts[range].iter().map(f).filter(|v| !v.is_nan()).collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };

        // Local before failure: fast.
        let rt_before = mean(10..20, &|p| p.response_ms);
        assert!(rt_before < 50.0, "pre-failure {rt_before} ms");
        // Failed over: slower than the WAN RTT.
        let rt_failover = mean(30..40, &|p| p.response_ms);
        assert!(rt_failover > 90.0, "failover {rt_failover} ms");
        // Recovered: fast again.
        let rt_after = mean(50..60, &|p| p.response_ms);
        assert!(rt_after < 50.0, "post-recovery {rt_after} ms");
        // Service availability: throughput during failover matches the
        // arrival rate (1 gateway × 20 qps).
        let tput_failover = mean(30..40, &|p| p.throughput as f64);
        assert!(tput_failover > 15.0, "failover tput {tput_failover}");
    }
}
