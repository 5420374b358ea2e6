//! Paper Figs. 12 & 13: failure-detection time and view-convergence time
//! vs cluster size, for every protocol column.
//!
//! "We kill the membership service daemon process on a node to emulate
//! the node failure. … we find the earliest time when the failure is
//! recorded … as the failure detection time, and the latest record time
//! of the failure as the view convergence time."

use crate::common::{figure_cluster, figure_label, paper_topology, SETTLE};
use crate::grid::{product, Column, Experiment};
use tamp_chaos::{Detection, Protocol};
use tamp_netsim::{EngineConfig, SECS};
use tamp_topology::HostId;

/// Which node to kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// A plain member (the highest id — never a leader under the
    /// lowest-id-wins election).
    Leaf,
    /// The lowest id — the level-0 leader of its segment and, by
    /// construction, the root of the whole tree.
    RootLeader,
}

/// One (protocol, n) detection measurement.
#[derive(Debug, Clone, Copy)]
pub struct DetectionRow {
    pub protocol: Protocol,
    pub n: usize,
    /// `observers` must be n−1 for a complete protocol.
    pub probe: Detection,
}

/// Kill one node at steady state and measure when everyone notices.
pub fn measure(
    protocol: Protocol,
    n: usize,
    seg_size: usize,
    victim: Victim,
    seed: u64,
) -> DetectionRow {
    let mut c = figure_cluster(
        protocol,
        paper_topology(n, seg_size),
        seed,
        EngineConfig::default(),
    );
    c.engine.run_until(SETTLE);

    let victim_host = match victim {
        Victim::Leaf => HostId(n as u32 - 1),
        Victim::RootLeader => HostId(0),
    };
    // Long enough for even gossip at n=100 (T_fail ≈ 12 s) plus spread.
    let probe = c.kill_and_measure(victim_host, 60 * SECS);
    DetectionRow { protocol, n, probe }
}

pub const COLUMNS: &[Column<DetectionRow>] = &[
    ("nodes", |r| r.n.to_string()),
    ("scheme", |r| figure_label(r.protocol).to_string()),
    ("detect s", |r| format!("{:.2}", r.probe.detect_s)),
    ("converge s", |r| format!("{:.2}", r.probe.converge_s)),
    ("observers", |r| r.probe.observers.to_string()),
];

/// Title stem and `--trials` CSV name of a figure, by its subcommand
/// (and single-run CSV) name.
fn figure(name: &str) -> (&'static str, &'static str) {
    match name {
        "fig12" => ("Fig. 12 — failure detection time", "fig12_trials"),
        "fig13" => ("Fig. 13 — view convergence time", "fig13_trials"),
        other => panic!("no detection figure is called {other}"),
    }
}

/// Fig. 12 (detection) and Fig. 13 (convergence) come from the same
/// runs: `sizes` × `protocols`, size-major, a leaf killed in each, one
/// table per name in `figures`.
pub fn experiment(
    sizes: &[usize],
    protocols: &[Protocol],
    seed: u64,
    figures: &[&'static str],
) -> Experiment<(usize, Protocol), DetectionRow> {
    let title = |name| format!("{} (s)", figure(name).0);
    let first = Experiment::new(
        title(figures[0]),
        figures[0],
        product(sizes, protocols),
        move |&(n, protocol)| measure(protocol, n, 20, Victim::Leaf, seed),
        COLUMNS,
    )
    .note(
        "Paper shape: all-to-all and hierarchical detect in ≈ max_loss × period = 5 s,\n\
         independent of n, and converge almost immediately after detection; gossip detection\n\
         starts ≈ 2x higher and grows logarithmically with n (mistake probability 0.1%).\n\
         swim detects in probe-lap + suspect-timeout (grows with n); rapid adds the cut\n\
         quiescence delay to hierarchical detection in exchange for vote-confirmed removals.",
    );
    figures[1..]
        .iter()
        .fold(first, |e, name| e.also_as(title(name), name))
}

/// Multi-seed statistics for one (protocol, n): mean/min/max across trials.
pub struct DetectionStats {
    pub protocol: Protocol,
    pub n: usize,
    pub detect_mean_s: f64,
    pub detect_min_s: f64,
    pub detect_max_s: f64,
    pub converge_mean_s: f64,
    pub converge_max_s: f64,
}

/// Aggregate the runs of one (protocol, n) across its trial seeds.
fn stats(runs: &[DetectionRow]) -> DetectionStats {
    let detect: Vec<f64> = runs.iter().map(|r| r.probe.detect_s).collect();
    let converge: Vec<f64> = runs.iter().map(|r| r.probe.converge_s).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    DetectionStats {
        protocol: runs[0].protocol,
        n: runs[0].n,
        detect_mean_s: mean(&detect),
        detect_min_s: min(&detect),
        detect_max_s: max(&detect),
        converge_mean_s: mean(&converge),
        converge_max_s: max(&converge),
    }
}

pub const TRIALS_COLUMNS: &[Column<DetectionStats>] = &[
    ("nodes", |s| s.n.to_string()),
    ("scheme", |s| figure_label(s.protocol).to_string()),
    ("detect mean", |s| format!("{:.2}", s.detect_mean_s)),
    ("min", |s| format!("{:.2}", s.detect_min_s)),
    ("max", |s| format!("{:.2}", s.detect_max_s)),
    ("converge mean", |s| format!("{:.2}", s.converge_mean_s)),
    ("max", |s| format!("{:.2}", s.converge_max_s)),
];

/// [`experiment`] repeated over `trials` seeds per (size, protocol),
/// each group of runs folded into its mean/min/max.
pub fn trials_experiment(
    sizes: &[usize],
    protocols: &[Protocol],
    base_seed: u64,
    trials: usize,
    figures: &[&'static str],
) -> Experiment<((usize, Protocol), u64), DetectionRow, DetectionStats> {
    let trials = trials.max(1);
    let title = |name| format!("{}, {trials} trials (s)", figure(name).0);
    let offsets: Vec<u64> = (0..trials as u64).map(|t| t * 7919).collect();
    let first = Experiment::folded(
        title(figures[0]),
        figure(figures[0]).1,
        product(&product(sizes, protocols), &offsets),
        move |&((n, protocol), offset)| measure(protocol, n, 20, Victim::Leaf, base_seed + offset),
        move |runs| runs.chunks(trials).map(stats).collect(),
        TRIALS_COLUMNS,
    );
    figures[1..]
        .iter()
        .fold(first, |e, name| e.also_as(title(name), figure(name).1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_schemes_detect_in_about_five_seconds() {
        for protocol in [Protocol::AllToAll, Protocol::Tamp] {
            let r = measure(protocol, 40, 20, Victim::Leaf, 3).probe;
            assert!(
                (4.0..8.0).contains(&r.detect_s),
                "{} detect {}",
                protocol.name(),
                r.detect_s
            );
            assert_eq!(r.observers, 39, "{}", protocol.name());
        }
    }

    #[test]
    fn gossip_detection_slower_and_grows() {
        let r20 = measure(Protocol::Gossip, 20, 20, Victim::Leaf, 3).probe;
        let r60 = measure(Protocol::Gossip, 60, 20, Victim::Leaf, 3).probe;
        assert!(r20.detect_s > 7.0, "gossip(20) detect {}", r20.detect_s);
        assert!(
            r60.detect_s > r20.detect_s - 1.0,
            "gossip should not get faster with size: {} vs {}",
            r60.detect_s,
            r20.detect_s
        );
        assert_eq!(r60.observers, 59);
    }

    #[test]
    fn swim_detects_within_probe_lap_plus_suspect_timeout() {
        let r = measure(Protocol::Swim, 40, 20, Victim::Leaf, 3).probe;
        // A full probe lap is ≤ n−1 periods; the suspect timeout adds
        // 5 s. In practice some node probes the victim within a few
        // periods of the kill.
        assert!(
            (5.0..45.0).contains(&r.detect_s),
            "swim detect {}",
            r.detect_s
        );
        assert_eq!(r.observers, 39, "swim observers");
    }

    #[test]
    fn rapid_detection_stays_near_hierarchical_plus_batch_delay() {
        let h = measure(Protocol::Tamp, 40, 20, Victim::Leaf, 3).probe;
        let r = measure(Protocol::TampRapid, 40, 20, Victim::Leaf, 3).probe;
        assert_eq!(r.observers, 39, "rapid observers");
        assert!(
            r.detect_s >= h.detect_s - 1.0,
            "cut detection cannot be faster than the suspicion feeding it: {} vs {}",
            r.detect_s,
            h.detect_s
        );
        assert!(
            r.detect_s < h.detect_s + 10.0,
            "cut quiescence delay blew up detection: {} vs {}",
            r.detect_s,
            h.detect_s
        );
    }

    #[test]
    fn hierarchical_convergence_close_to_detection() {
        let r = measure(Protocol::Tamp, 60, 20, Victim::Leaf, 4).probe;
        assert!(
            r.converge_s - r.detect_s < 4.0,
            "spread {}",
            r.converge_s - r.detect_s
        );
    }
}
