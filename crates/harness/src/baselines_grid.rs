//! A11 — five-protocol comparison grid: every protocol column (tamp,
//! tamp-rapid, alltoall, gossip, swim) through the A8-style loss/flap
//! workload on the paper topology, measuring steady-state accuracy,
//! false-removal churn, refutations, and kill-to-detection latency.
//!
//! Every cell is an independent deterministic run. The grid executes on
//! the tamp-par pool and assembles rows in the sequential order, so the
//! printed table and `results/baselines_grid.csv` are byte-identical at
//! any `--jobs` width.

use crate::common::{churn_then_kill, figure_cluster, paper_topology};
use crate::grid::{product, Column, Experiment, Verdict};
use tamp_chaos::{Detection, Protocol};
use tamp_netsim::telemetry::REFUTATION_KINDS;
use tamp_netsim::{EngineConfig, LossModel, SECS};

/// One (protocol, loss-rate) cell.
pub struct BaselineCell {
    pub protocol: Protocol,
    pub loss_pct: f64,
    /// Mean view accuracy over five samples at steady state (pre-kill).
    pub accuracy: f64,
    /// Removal observations before anyone actually died — every one a
    /// false positive.
    pub false_removals: usize,
    /// Cluster-wide refutation events (`REFUTATION_KINDS`; 0 for
    /// protocols without a refutation path).
    pub refutations: usize,
    /// Cluster-wide `death-declared` events at the end of the run.
    pub deaths_declared: u64,
    /// The kill's detection probe (complete protocols: n−1 observers).
    pub probe: Detection,
}

/// Measure one cell: settle under `rate` loss, sample accuracy and churn,
/// then kill the highest-id node and wait out detection.
pub fn measure(protocol: Protocol, n: usize, rate: f64, seed: u64) -> BaselineCell {
    let engine_cfg = EngineConfig {
        metrics: true,
        loss: LossModel { rate },
        ..Default::default()
    };
    let mut c = figure_cluster(protocol, paper_topology(n, 20), seed, engine_cfg);
    // SWIM's lap is up to n−1 probe periods before the suspect timeout
    // starts; give every protocol the same generous window.
    let churn = churn_then_kill(&mut c, 60 * SECS);
    let snap = c.engine.registry().snapshot();
    let ev = |kind: &str| snap.counter_total("events", kind);
    BaselineCell {
        protocol,
        loss_pct: rate * 100.0,
        accuracy: churn.accuracy,
        false_removals: churn.false_removals,
        refutations: REFUTATION_KINDS.iter().map(|k| ev(k)).sum::<u64>() as usize,
        deaths_declared: ev("death-declared"),
        probe: churn.probe,
    }
}

pub const COLUMNS: &[Column<BaselineCell>] = &[
    ("protocol", |c| c.protocol.name().to_string()),
    ("loss %", |c| format!("{:.0}", c.loss_pct)),
    ("accuracy", |c| format!("{:.2}", c.accuracy)),
    ("false removals", |c| c.false_removals.to_string()),
    ("refutations", |c| c.refutations.to_string()),
    ("deaths", |c| c.deaths_declared.to_string()),
    ("detect s", |c| format!("{:.2}", c.probe.detect_s)),
    ("converge s", |c| format!("{:.2}", c.probe.converge_s)),
    ("observers", |c| c.probe.observers.to_string()),
];

/// The grid over `protocols` × `rates`, protocol-major. The verdict
/// passes when every zero-loss kill was observed by every survivor.
pub fn experiment(
    n: usize,
    protocols: &[Protocol],
    rates: &[f64],
    seed: u64,
) -> Experiment<(Protocol, f64), BaselineCell> {
    Experiment::new(
        format!("A11 — protocol comparison grid (n={n}, loss sweep, kill at quiescence)"),
        "baselines_grid",
        product(protocols, rates),
        move |&(protocol, rate)| measure(protocol, n, rate, seed),
        COLUMNS,
    )
    .note(
        "Expected: at zero loss every protocol detects the kill and all n-1 survivors\n\
         observe it. tamp and tamp-rapid hold detection near max_loss x period; swim pays\n\
         the probe-lap tail; gossip pays T_fail ~ log n. Under loss, tamp-rapid and swim\n\
         absorb churn through refutations while alltoall/gossip remove falsely; tamp-rapid's\n\
         vote watermark keeps false removals at zero.",
    )
    .verdict(move |cells| {
        Verdict::of(
            cells
                .iter()
                .filter(|c| c.loss_pct == 0.0)
                .all(|c| c.probe.observers == n - 1),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_grid_is_complete() {
        let grid = experiment(20, &Protocol::ALL, &[0.0], 17);
        for c in &grid.rows(&tamp_par::Pool::sequential()) {
            let name = c.protocol.name();
            assert_eq!(c.probe.observers, 19, "{name} incomplete at zero loss");
            assert_eq!(c.false_removals, 0, "{name}");
            assert!(c.deaths_declared > 0, "{name}");
        }
    }

    #[test]
    fn rapid_absorbs_loss_churn_that_gossip_does_not() {
        let rapid = measure(Protocol::TampRapid, 20, 0.20, 17);
        assert_eq!(
            rapid.false_removals, 0,
            "cut detection false-removed under loss"
        );
        assert!(rapid.accuracy > 0.9, "rapid accuracy {}", rapid.accuracy);
    }
}
