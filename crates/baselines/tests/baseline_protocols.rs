//! End-to-end tests for the baseline protocols in the simulator.

use tamp_baselines::{
    AllToAllConfig, AllToAllNode, GossipConfig, GossipNode, SwimConfig, SwimNode,
};
use tamp_directory::DirectoryClient;
use tamp_netsim::{Actor, Control, Engine, EngineConfig, Observation, ObservationKind, SECS};
use tamp_topology::{generators, HostId};
use tamp_wire::NodeId;

fn all_to_all_cluster(
    n_segments: usize,
    per_seg: usize,
    seed: u64,
) -> (Engine, Vec<DirectoryClient>) {
    let topo = generators::star_of_segments(n_segments, per_seg);
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let node = AllToAllNode::new(NodeId(h.0), AllToAllConfig::default());
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    (engine, clients)
}

fn gossip_cluster(n: usize, seed: u64) -> (Engine, Vec<DirectoryClient>) {
    let topo = generators::star_of_segments(2, n / 2);
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let seeds: Vec<NodeId> = engine.hosts().iter().map(|h| NodeId(h.0)).collect();
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let cfg = GossipConfig {
            expected_cluster_size: n,
            seeds: seeds.clone(),
            ..Default::default()
        };
        let node = GossipNode::new(NodeId(h.0), cfg);
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    (engine, clients)
}

#[test]
fn all_to_all_converges_fast() {
    let (mut engine, clients) = all_to_all_cluster(2, 5, 3);
    engine.run_until(4 * SECS);
    assert!(clients.iter().all(|c| c.member_count() == 10));
}

#[test]
fn all_to_all_detects_failure_in_max_loss_periods() {
    let (mut engine, clients) = all_to_all_cluster(2, 5, 5);
    engine.run_until(10 * SECS);
    engine.schedule(10 * SECS, Control::Kill(HostId(7)));
    engine.run_until(30 * SECS);
    assert!(clients
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 7)
        .all(|(_, c)| c.member_count() == 9));
    let first = engine.stats().first_removal(NodeId(7)).unwrap();
    let last = engine.stats().last_removal(NodeId(7)).unwrap();
    let detect = first - 10 * SECS;
    assert!(
        (4 * SECS..=7 * SECS).contains(&detect),
        "detection {}ms",
        detect / 1_000_000
    );
    // Convergence ≈ detection: everyone watches everyone (within one
    // heartbeat phase of each other).
    assert!(
        last - first <= 2 * SECS,
        "spread {}ms",
        (last - first) / 1_000_000
    );
}

#[test]
fn all_to_all_traffic_is_quadratic() {
    // Aggregate received bytes/s should grow ~quadratically: 2× nodes →
    // ~4× received bytes.
    let rate = |n_per_seg: usize| {
        let (mut engine, _c) = all_to_all_cluster(2, n_per_seg, 7);
        engine.run_until(10 * SECS);
        engine.stats_mut().reset_traffic();
        engine.run_until(30 * SECS);
        engine.stats().totals().recv_bytes as f64 / 20.0
    };
    let r10 = rate(5);
    let r20 = rate(10);
    let ratio = r20 / r10;
    assert!(
        (3.0..5.0).contains(&ratio),
        "expected ~4x growth, got {ratio:.2} ({r10:.0} -> {r20:.0} B/s)"
    );
}

#[test]
fn gossip_converges_to_full_view() {
    let (mut engine, clients) = gossip_cluster(20, 11);
    engine.run_until(30 * SECS);
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.member_count(), 20, "node {i}");
    }
}

#[test]
fn gossip_detects_failure_slower_than_heartbeats() {
    let (mut engine, clients) = gossip_cluster(20, 13);
    engine.run_until(30 * SECS);
    engine.schedule(30 * SECS, Control::Kill(HostId(19)));
    engine.run_until(90 * SECS);
    for (i, c) in clients.iter().enumerate().take(19) {
        assert_eq!(c.member_count(), 19, "node {i} still sees the dead node");
    }
    let first = engine.stats().first_removal(NodeId(19)).unwrap();
    let detect = first - 30 * SECS;
    // T_fail(20) ≈ 9.3 s — well above the heartbeat schemes' 5 s.
    assert!(
        detect > 7 * SECS && detect < 20 * SECS,
        "gossip detection {}ms",
        detect / 1_000_000
    );
}

#[test]
fn gossip_rejoin_with_higher_incarnation_clears_blacklist() {
    let (mut engine, clients) = gossip_cluster(10, 17);
    engine.run_until(20 * SECS);
    engine.schedule(20 * SECS, Control::Kill(HostId(9)));
    engine.schedule(60 * SECS, Control::Revive(HostId(9)));
    engine.run_until(140 * SECS);
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.member_count(), 10, "node {i} missing the rejoined node");
    }
}

#[test]
fn gossip_message_bytes_scale_with_view() {
    // The defining cost of gossip: message size grows with n. Compare
    // per-node sent bytes at two sizes; with fixed fanout the per-node
    // send rate should roughly double when n doubles.
    let per_node_rate = |n: usize| {
        let (mut engine, _c) = gossip_cluster(n, 19);
        engine.run_until(20 * SECS);
        engine.stats_mut().reset_traffic();
        engine.run_until(40 * SECS);
        engine.stats().totals().sent_bytes as f64 / n as f64 / 20.0
    };
    let r10 = per_node_rate(10);
    let r20 = per_node_rate(20);
    let ratio = r20 / r10;
    assert!(
        (1.6..2.5).contains(&ratio),
        "expected ~2x per-node bytes, got {ratio:.2}"
    );
}

fn swim_cluster(n: usize, seed: u64) -> (Engine, Vec<DirectoryClient>) {
    let topo = generators::star_of_segments(2, n / 2);
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let seeds: Vec<NodeId> = engine.hosts().iter().map(|h| NodeId(h.0)).collect();
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let cfg = SwimConfig {
            seeds: seeds.clone(),
            ..Default::default()
        };
        let node = SwimNode::new(NodeId(h.0), cfg);
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    (engine, clients)
}

#[test]
fn swim_converges_to_full_view() {
    let (mut engine, clients) = swim_cluster(10, 23);
    engine.run_until(30 * SECS);
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.member_count(), 10, "node {i}");
    }
}

#[test]
fn swim_detects_failure_within_probe_and_suspect_window() {
    let (mut engine, clients) = swim_cluster(10, 29);
    engine.run_until(30 * SECS);
    engine.schedule(30 * SECS, Control::Kill(HostId(7)));
    engine.run_until(60 * SECS);
    for (i, c) in clients.iter().enumerate().filter(|(i, _)| *i != 7) {
        assert_eq!(c.member_count(), 9, "node {i} still sees the dead node");
    }
    let first = engine.stats().first_removal(NodeId(7)).unwrap();
    let detect = first - 30 * SECS;
    // Time-to-first-probe (up to one lap of the n-member permutation at
    // one probe per second) + direct/indirect phases + 5 s suspicion.
    assert!(
        (5 * SECS..=20 * SECS).contains(&detect),
        "swim detection {}ms",
        detect / 1_000_000
    );
    // Piggybacked dissemination converges within a few probe periods.
    let last = engine.stats().last_removal(NodeId(7)).unwrap();
    assert!(
        last - first <= 12 * SECS,
        "spread {}ms",
        (last - first) / 1_000_000
    );
}

#[test]
fn swim_refutes_a_live_but_partitioned_probe_miss() {
    // Kill and quickly revive a node: the revived node re-incarnates on
    // restart, so even nodes that suspected (or confirmed) it converge
    // back to the full view.
    let (mut engine, clients) = swim_cluster(10, 31);
    engine.run_until(30 * SECS);
    engine.schedule(30 * SECS, Control::Kill(HostId(4)));
    engine.schedule(50 * SECS, Control::Revive(HostId(4)));
    engine.run_until(110 * SECS);
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.member_count(), 10, "node {i} missing the rejoined node");
    }
}

#[test]
fn swim_probe_traffic_is_constant_per_node() {
    // SWIM's defining cost property: per-node send rate is O(1) in
    // cluster size (one probe per period + bounded piggyback), unlike
    // gossip's O(n) messages or all-to-all's O(n) heartbeat fan-out.
    let per_node_rate = |n: usize| {
        let (mut engine, _c) = swim_cluster(n, 37);
        engine.run_until(20 * SECS);
        engine.stats_mut().reset_traffic();
        engine.run_until(40 * SECS);
        engine.stats().totals().sent_bytes as f64 / n as f64 / 20.0
    };
    let r10 = per_node_rate(10);
    let r20 = per_node_rate(20);
    let ratio = r20 / r10;
    assert!(
        ratio < 1.5,
        "expected ~flat per-node bytes, got {ratio:.2}x ({r10:.0} -> {r20:.0} B/s)"
    );
}

/// What one run leaves behind: every observation in the order the
/// engine recorded it, the traffic totals, and each host's final view.
type Outcome = (Vec<Observation>, String, Vec<Vec<NodeId>>);

/// 30 hosts on one segment; hosts 20–29 die together at 10 s, so every
/// survivor's sweep finds several members due at the same instant. Runs
/// to 60 s.
fn mass_failure(
    seed: u64,
    node: impl Fn(NodeId, &[NodeId]) -> (DirectoryClient, Box<dyn Actor>),
) -> Outcome {
    let topo = generators::star_of_segments(1, 30);
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let ids: Vec<NodeId> = engine.hosts().iter().map(|h| NodeId(h.0)).collect();
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let (client, actor) = node(NodeId(h.0), &ids);
        clients.push(client);
        engine.add_actor(h, actor);
    }
    engine.start();
    for h in 20..30 {
        engine.schedule(10 * SECS, Control::Kill(HostId(h)));
    }
    engine.run_until(60 * SECS);
    let views = clients
        .iter()
        .map(|c| c.read(|d| d.entries().map(|e| e.node).collect()))
        .collect();
    let stats = engine.stats();
    (
        stats.observations().to_vec(),
        format!("{:?}", stats.totals()),
        views,
    )
}

/// Two runs at one seed in one process must agree on everything they
/// report: a book iterated in hash order would reorder simultaneous
/// removals between the runs.
fn assert_same_twice(node: impl Fn(NodeId, &[NodeId]) -> (DirectoryClient, Box<dyn Actor>)) {
    let (obs_a, totals_a, views_a) = mass_failure(2005, &node);
    let (obs_b, totals_b, views_b) = mass_failure(2005, &node);
    assert!(obs_a
        .iter()
        .any(|o| matches!(o.kind, ObservationKind::Removed(_))));
    let first_diff = (0..obs_a.len().max(obs_b.len())).find(|&i| obs_a.get(i) != obs_b.get(i));
    if let Some(i) = first_diff {
        panic!(
            "observation {i} differs between same-seed runs: {:?} vs {:?}",
            obs_a.get(i),
            obs_b.get(i)
        );
    }
    assert_eq!(totals_a, totals_b);
    assert_eq!(views_a, views_b);
}

#[test]
fn deterministic_alltoall() {
    assert_same_twice(|me, _| {
        let node = AllToAllNode::new(me, AllToAllConfig::default());
        (node.directory_client(), Box::new(node))
    });
}

#[test]
fn deterministic_gossip() {
    assert_same_twice(|me, ids| {
        let cfg = GossipConfig {
            expected_cluster_size: ids.len(),
            seeds: ids.to_vec(),
            ..Default::default()
        };
        let node = GossipNode::new(me, cfg);
        (node.directory_client(), Box::new(node))
    });
}

#[test]
fn deterministic_swim() {
    assert_same_twice(|me, ids| {
        let cfg = SwimConfig {
            seeds: ids.to_vec(),
            ..Default::default()
        };
        let node = SwimNode::new(me, cfg);
        (node.directory_client(), Box::new(node))
    });
}
