//! Paper Fig. 11: aggregate bandwidth consumption of the three schemes
//! as the cluster grows from 20 to 100 nodes (20 nodes per layer-2
//! network, 1–5 networks).
//!
//! "Bandwidth consumption is measured on each node by counting the
//! incoming heartbeat packets. Then all numbers are added up to get the
//! aggregated bandwidth consumption."

use crate::common::{
    figure_cluster, figure_label, paper_topology, steady_traffic, view_accuracy, SETTLE,
};
use crate::grid::{product, Column, Experiment};
use crate::report::kbps;
use tamp_chaos::Protocol;
use tamp_netsim::{EngineConfig, SECS};

/// One (protocol, n) measurement.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthRow {
    pub protocol: Protocol,
    pub n: usize,
    /// Aggregate received bytes/s across all nodes.
    pub agg_recv_bytes_per_s: f64,
    /// Aggregate received packets/s.
    pub agg_recv_pps: f64,
    /// Mean per-node received bytes/s.
    pub per_node_bytes_per_s: f64,
    /// Fraction of nodes with a complete view at measurement end.
    pub accuracy: f64,
}

/// Measure steady-state bandwidth for one protocol and size.
pub fn measure(protocol: Protocol, n: usize, seg_size: usize, seed: u64) -> BandwidthRow {
    let mut c = figure_cluster(
        protocol,
        paper_topology(n, seg_size),
        seed,
        EngineConfig::default(),
    );
    let traffic = steady_traffic(&mut c.engine, SETTLE, 30 * SECS);
    BandwidthRow {
        protocol,
        n,
        agg_recv_bytes_per_s: traffic.bytes_per_s,
        agg_recv_pps: traffic.pkts_per_s,
        per_node_bytes_per_s: traffic.bytes_per_s / n as f64,
        accuracy: view_accuracy(&c),
    }
}

/// The paper's sweep: 20..=100 nodes in 20-node networks.
pub const PAPER_SIZES: [usize; 5] = [20, 40, 60, 80, 100];

pub const COLUMNS: &[Column<BandwidthRow>] = &[
    ("nodes", |r| r.n.to_string()),
    ("scheme", |r| figure_label(r.protocol).to_string()),
    ("agg KB/s", |r| kbps(r.agg_recv_bytes_per_s)),
    ("agg pkts/s", |r| format!("{:.0}", r.agg_recv_pps)),
    ("per-node KB/s", |r| kbps(r.per_node_bytes_per_s)),
    ("accuracy", |r| format!("{:.2}", r.accuracy)),
];

/// Fig. 11: `sizes` × `protocols`, size-major, in 20-node networks.
pub fn experiment(
    sizes: &[usize],
    protocols: &[Protocol],
    seed: u64,
) -> Experiment<(usize, Protocol), BandwidthRow> {
    Experiment::new(
        "Fig. 11 — aggregate bandwidth consumption (steady state)",
        "fig11",
        product(sizes, protocols),
        move |&(n, protocol)| measure(protocol, n, 20, seed),
        COLUMNS,
    )
    .note(
        "Paper shape: hierarchical grows ~linearly (flat per-node); all-to-all and gossip grow\n\
         quadratically (per-node linear in n); all three coincide at n=20 (single network).\n\
         swim stays ~constant per node (one probe round per period); rapid matches\n\
         hierarchical plus the cut-report votes around each removal.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_per_node_bandwidth_stays_flat() {
        let b20 = measure(Protocol::Tamp, 20, 20, 5);
        let b60 = measure(Protocol::Tamp, 60, 20, 5);
        let growth = b60.per_node_bytes_per_s / b20.per_node_bytes_per_s;
        assert!(
            growth < 1.6,
            "hierarchical per-node bandwidth grew {growth:.2}x from 20 to 60 nodes"
        );
        assert_eq!(b60.accuracy, 1.0);
    }

    #[test]
    fn all_to_all_per_node_bandwidth_grows_linearly() {
        let b20 = measure(Protocol::AllToAll, 20, 20, 5);
        let b60 = measure(Protocol::AllToAll, 60, 20, 5);
        let growth = b60.per_node_bytes_per_s / b20.per_node_bytes_per_s;
        assert!(
            (2.5..3.6).contains(&growth),
            "expected ~3x for 3x nodes, got {growth:.2}"
        );
    }

    #[test]
    fn swim_per_node_bandwidth_stays_flat() {
        let b20 = measure(Protocol::Swim, 20, 20, 5);
        let b60 = measure(Protocol::Swim, 60, 20, 5);
        let growth = b60.per_node_bytes_per_s / b20.per_node_bytes_per_s;
        assert!(
            growth < 1.6,
            "swim per-node bandwidth grew {growth:.2}x from 20 to 60 nodes"
        );
        assert_eq!(b60.accuracy, 1.0);
    }

    #[test]
    fn hierarchical_cheapest_at_100() {
        let h = measure(Protocol::Tamp, 100, 20, 6);
        let a = measure(Protocol::AllToAll, 100, 20, 6);
        let g = measure(Protocol::Gossip, 100, 20, 6);
        assert!(
            h.agg_recv_bytes_per_s < a.agg_recv_bytes_per_s,
            "hier {} vs a2a {}",
            h.agg_recv_bytes_per_s,
            a.agg_recv_bytes_per_s
        );
        assert!(h.agg_recv_bytes_per_s < g.agg_recv_bytes_per_s);
    }
}
