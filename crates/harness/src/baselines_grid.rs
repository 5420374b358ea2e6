//! A11 — five-protocol comparison grid: every protocol column (tamp,
//! tamp-rapid, alltoall, gossip, swim) through the A8-style loss/flap
//! workload on the paper topology, measuring steady-state accuracy,
//! false-removal churn, refutations, and kill-to-detection latency.
//!
//! Every cell is an independent deterministic run. The grid executes on
//! the tamp-par pool and assembles rows in the sequential order, so the
//! printed table and `results/baselines_grid.csv` are byte-identical at
//! any `--jobs` width.

use crate::common::{
    false_removals, figure_cluster, paper_topology, view_accuracy_sampled, SETTLE,
};
use tamp_chaos::{Detection, Protocol};
use tamp_netsim::{EngineConfig, LossModel, SECS};
use tamp_par::Pool;
use tamp_topology::HostId;

/// One (protocol, loss-rate) cell.
pub struct BaselineCell {
    pub protocol: Protocol,
    pub loss_pct: f64,
    /// Mean view accuracy over five samples at steady state (pre-kill).
    pub accuracy: f64,
    /// Removal observations before anyone actually died — every one a
    /// false positive.
    pub false_removals: usize,
    /// Cluster-wide `suspicions_refuted` counter (0 for protocols
    /// without a refutation path).
    pub refutations: usize,
    /// Cluster-wide `deaths_declared` counter at the end of the run.
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
    c.engine.run_until(2 * SETTLE);
    let accuracy = view_accuracy_sampled(&mut c, 5, 2 * SECS);
    let false_removals = false_removals(&c);

    // SWIM's lap is up to n−1 probe periods before the suspect timeout
    // starts; give every protocol the same generous window.
    let probe = c.kill_and_measure(HostId(n as u32 - 1), 60 * SECS);
    let snap = c.engine.registry().snapshot();
    let ns = protocol.counter_namespace();
    BaselineCell {
        protocol,
        loss_pct: rate * 100.0,
        accuracy,
        false_removals,
        refutations: snap.counter_total(ns, "suspicions_refuted") as usize,
        deaths_declared: snap.counter_total(ns, "deaths_declared"),
        probe,
    }
}

/// The full grid over `protocols` × `rates` on the pool; rows come back
/// in the sequential protocol-major order regardless of pool width.
pub fn grid_on(
    pool: &Pool,
    n: usize,
    protocols: &[Protocol],
    rates: &[f64],
    seed: u64,
) -> Vec<BaselineCell> {
    let cells: Vec<(Protocol, f64)> = protocols
        .iter()
        .flat_map(|&p| rates.iter().map(move |&r| (p, r)))
        .collect();
    pool.ordered_map(cells.len(), |i| {
        let (protocol, rate) = cells[i];
        measure(protocol, n, rate, seed)
    })
}

/// Entry point for `tamp-exp baselines`. Returns the process exit code:
/// 0 when every cell's kill was detected by every survivor at zero loss.
pub fn run_and_print(seed: u64, quick: bool, jobs: usize, protocols: &[Protocol]) -> i32 {
    let n = 40;
    let rates: &[f64] = if quick {
        &[0.0, 0.20]
    } else {
        &[0.0, 0.10, 0.20]
    };
    let pool = Pool::new(jobs);
    let cells = grid_on(&pool, n, protocols, rates, seed);
    let mut t = crate::report::Table::new(
        format!("A11 — protocol comparison grid (n={n}, loss sweep, kill at quiescence)"),
        &[
            "protocol",
            "loss %",
            "accuracy",
            "false removals",
            "refutations",
            "deaths",
            "detect s",
            "converge s",
            "observers",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.protocol.name().to_string(),
            format!("{:.0}", c.loss_pct),
            format!("{:.2}", c.accuracy),
            c.false_removals.to_string(),
            c.refutations.to_string(),
            c.deaths_declared.to_string(),
            format!("{:.2}", c.probe.detect_s),
            format!("{:.2}", c.probe.converge_s),
            c.probe.observers.to_string(),
        ]);
    }
    t.print();
    let _ = t.write_csv("baselines_grid");
    println!(
        "\nExpected: at zero loss every protocol detects the kill and all n-1 survivors\n\
         observe it. tamp and tamp-rapid hold detection near max_loss x period; swim pays\n\
         the probe-lap tail; gossip pays T_fail ~ log n. Under loss, tamp-rapid and swim\n\
         absorb churn through refutations while alltoall/gossip remove falsely; tamp-rapid's\n\
         vote watermark keeps false removals at zero."
    );
    let complete = cells
        .iter()
        .filter(|c| c.loss_pct == 0.0)
        .all(|c| c.probe.observers == n - 1);
    if complete {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_grid_is_complete_and_pool_invariant() {
        let key = |c: &BaselineCell| {
            (
                c.protocol.name(),
                format!("{:.2}", c.accuracy),
                c.false_removals,
                c.refutations,
                c.deaths_declared,
                format!("{:.3}", c.probe.detect_s),
                format!("{:.3}", c.probe.converge_s),
                c.probe.observers,
            )
        };
        let seq = grid_on(&Pool::sequential(), 20, &Protocol::ALL, &[0.0], 17);
        let par = grid_on(&Pool::new(4), 20, &Protocol::ALL, &[0.0], 17);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(key(a), key(b), "pool width changed a cell");
        }
        for c in &seq {
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
