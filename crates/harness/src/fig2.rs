//! Paper Fig. 2: "All-to-all approach is not scalable" — CPU load and
//! received multicast packets per second on one node, as the cluster
//! grows toward 4000 nodes.
//!
//! The paper emulates this ("We vary the number of heartbeat packets
//! that received by the machine to emulate the expansion of the
//! cluster"); we do the same: a handful of sender actors aim an aggregate
//! of `n` 1024-byte heartbeats per second at one receiver, and the
//! simulator's calibrated CPU model (11 µs + 2 ns/B per packet, matching
//! the paper's dual 1.4 GHz P-III measurement) reports the load.

use crate::grid::{Column, Experiment};
use crate::report::kbps;
use tamp_baselines::{AllToAllConfig, AllToAllNode};
use tamp_netsim::{Engine, EngineConfig, SECS};
use tamp_topology::generators;
use tamp_wire::NodeId;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Row {
    /// Emulated cluster size.
    pub n: usize,
    /// Heartbeat packets received per second at the observed node.
    pub recv_pps: f64,
    /// Modeled CPU load (fraction of one core).
    pub cpu_fraction: f64,
    /// Received bandwidth at the observed node, bytes/s.
    pub recv_bytes_per_s: f64,
}

/// Emulate a cluster of `n` all-to-all nodes from one receiver's
/// perspective: `senders` sender actors each heartbeat at `n/senders` Hz
/// with 1024-byte packets.
pub fn measure(n: usize, seed: u64) -> Fig2Row {
    // The receiver plus enough senders to spread the per-actor rate.
    let senders = 40.min(n.max(1));
    let topo = generators::single_segment(senders + 1);
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let hosts = engine.hosts();
    let receiver = hosts[0];

    // Each sender emits heartbeats at its share of n per second. The
    // all-to-all node heartbeats once per `heartbeat_period`; shrink the
    // period per sender to hit the aggregate target.
    for (i, &h) in hosts.iter().enumerate().skip(1) {
        let share = (n / senders + usize::from(i <= n % senders)).max(1);
        let cfg = AllToAllConfig {
            heartbeat_period: SECS / share as u64,
            pad_heartbeat_to: 1024,
            ..Default::default()
        };
        let node = AllToAllNode::new(NodeId(h.0), cfg);
        engine.add_actor(h, Box::new(node));
    }
    // The receiver is a plain all-to-all node at the normal 1 Hz.
    let rx = AllToAllNode::new(
        NodeId(receiver.0),
        AllToAllConfig {
            pad_heartbeat_to: 1024,
            ..Default::default()
        },
    );
    engine.add_actor(receiver, Box::new(rx));

    engine.start();
    engine.run_until(5 * SECS);
    engine.stats_mut().reset_traffic();
    let window = 10 * SECS;
    engine.run_until(5 * SECS + window);

    let st = engine.stats().host(receiver);
    let secs = window as f64 / 1e9;
    Fig2Row {
        n,
        recv_pps: st.recv_pkts as f64 / secs,
        cpu_fraction: st.cpu_ns as f64 / window as f64,
        recv_bytes_per_s: st.recv_bytes as f64 / secs,
    }
}

/// Default sweep matching the paper's x-axis (0–4000).
pub const PAPER_SIZES: [usize; 8] = [250, 500, 1000, 1500, 2000, 2500, 3000, 4000];

pub const COLUMNS: &[Column<Fig2Row>] = &[
    ("nodes", |r| r.n.to_string()),
    ("recv pkts/s", |r| format!("{:.0}", r.recv_pps)),
    ("CPU %", |r| format!("{:.2}", r.cpu_fraction * 100.0)),
    ("recv KB/s", |r| kbps(r.recv_bytes_per_s)),
];

/// The Fig. 2 sweep over emulated cluster sizes.
pub fn experiment(sizes: &[usize], seed: u64) -> Experiment<usize, Fig2Row> {
    Experiment::new(
        "Fig. 2 — all-to-all is not scalable (one node's view, 1024 B heartbeats)",
        "fig2",
        sizes.to_vec(),
        move |&n| measure(n, seed),
        COLUMNS,
    )
    .note("Paper shape: both curves linear in n; at 4000 nodes ≈ 4000 pkt/s and ≈ 4.5% CPU.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pps_tracks_cluster_size() {
        let r = measure(500, 1);
        assert!(
            (450.0..560.0).contains(&r.recv_pps),
            "pps {} for n=500",
            r.recv_pps
        );
    }

    #[test]
    fn cpu_scales_linearly() {
        let a = measure(250, 2);
        let b = measure(1000, 2);
        let ratio = b.cpu_fraction / a.cpu_fraction;
        assert!((3.0..5.0).contains(&ratio), "cpu ratio {ratio}");
        // Calibration: ~4000 pps ≈ 4–6% CPU like the paper's Fig. 2.
        let big = measure(4000, 2);
        assert!(
            (0.03..0.08).contains(&big.cpu_fraction),
            "cpu at 4000: {}",
            big.cpu_fraction
        );
    }
}
