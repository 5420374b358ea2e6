//! Paper Figs. 12 & 13: failure-detection time and view-convergence time
//! vs cluster size, for every protocol column.
//!
//! "We kill the membership service daemon process on a node to emulate
//! the node failure. … we find the earliest time when the failure is
//! recorded … as the failure detection time, and the latest record time
//! of the failure as the view convergence time."

use crate::common::{figure_cluster, figure_label, paper_topology, SETTLE};
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

pub fn sweep(
    sizes: &[usize],
    seg_size: usize,
    victim: Victim,
    seed: u64,
    protocols: &[Protocol],
) -> Vec<DetectionRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        for &protocol in protocols {
            rows.push(measure(protocol, n, seg_size, victim, seed));
        }
    }
    rows
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

/// Repeat [`measure`] across `trials` seeds and aggregate.
pub fn measure_trials(
    protocol: Protocol,
    n: usize,
    seg_size: usize,
    victim: Victim,
    base_seed: u64,
    trials: usize,
) -> DetectionStats {
    let runs: Vec<DetectionRow> = (0..trials.max(1))
        .map(|t| measure(protocol, n, seg_size, victim, base_seed + t as u64 * 7919))
        .collect();
    let detect: Vec<f64> = runs.iter().map(|r| r.probe.detect_s).collect();
    let converge: Vec<f64> = runs.iter().map(|r| r.probe.converge_s).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    DetectionStats {
        protocol,
        n,
        detect_mean_s: mean(&detect),
        detect_min_s: min(&detect),
        detect_max_s: max(&detect),
        converge_mean_s: mean(&converge),
        converge_max_s: max(&converge),
    }
}

/// Print mean/min/max detection and convergence across `trials` seeds.
pub fn run_and_print_trials(
    sizes: &[usize],
    base_seed: u64,
    trials: usize,
    which: &str,
    protocols: &[Protocol],
) {
    let (title, csv) = match which {
        "fig12" => (
            format!("Fig. 12 — failure detection time, {trials} trials (s)"),
            "fig12_trials",
        ),
        _ => (
            format!("Fig. 13 — view convergence time, {trials} trials (s)"),
            "fig13_trials",
        ),
    };
    let mut t = crate::report::Table::new(
        title,
        &[
            "nodes",
            "scheme",
            "detect mean",
            "min",
            "max",
            "converge mean",
            "max",
        ],
    );
    for &n in sizes {
        for &protocol in protocols {
            let st = measure_trials(protocol, n, 20, Victim::Leaf, base_seed, trials);
            t.row(vec![
                n.to_string(),
                figure_label(protocol).to_string(),
                format!("{:.2}", st.detect_mean_s),
                format!("{:.2}", st.detect_min_s),
                format!("{:.2}", st.detect_max_s),
                format!("{:.2}", st.converge_mean_s),
                format!("{:.2}", st.converge_max_s),
            ]);
        }
    }
    t.print();
    let _ = t.write_csv(csv);
}

/// Fig. 12 (detection) and Fig. 13 (convergence) come from the same runs;
/// `which` only selects the headline column ordering.
pub fn run_and_print(sizes: &[usize], seed: u64, which: &str, protocols: &[Protocol]) {
    let rows = sweep(sizes, 20, Victim::Leaf, seed, protocols);
    let (title, csv) = match which {
        "fig12" => ("Fig. 12 — failure detection time (s)", "fig12"),
        _ => ("Fig. 13 — view convergence time (s)", "fig13"),
    };
    let mut t = crate::report::Table::new(
        title,
        &["nodes", "scheme", "detect s", "converge s", "observers"],
    );
    for r in &rows {
        t.row(vec![
            r.n.to_string(),
            figure_label(r.protocol).to_string(),
            format!("{:.2}", r.probe.detect_s),
            format!("{:.2}", r.probe.converge_s),
            r.probe.observers.to_string(),
        ]);
    }
    t.print();
    let _ = t.write_csv(csv);
    println!(
        "\nPaper shape: all-to-all and hierarchical detect in ≈ max_loss × period = 5 s,\n\
         independent of n, and converge almost immediately after detection; gossip detection\n\
         starts ≈ 2x higher and grows logarithmically with n (mistake probability 0.1%).\n\
         swim detects in probe-lap + suspect-timeout (grows with n); rapid adds the cut\n\
         quiescence delay to hierarchical detection in exchange for vote-confirmed removals."
    );
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
