//! The baseline protocols run over real UDP too — same Actor trait,
//! different driver.

use std::time::{Duration, Instant};
use tamp_baselines::{GossipConfig, GossipNode};
use tamp_runtime::Runtime;
use tamp_topology::generators;
use tamp_wire::NodeId;

#[test]
fn gossip_over_live_udp_converges() {
    let topo = generators::single_segment(5);
    let mut rt = Runtime::new(topo);
    let seeds: Vec<NodeId> = rt.hosts().iter().map(|h| NodeId(h.0)).collect();
    let mut clients = Vec::new();
    for h in rt.hosts() {
        let cfg = GossipConfig {
            period: 50_000_000, // 50 ms rounds
            fanout: 2,
            expected_cluster_size: 5,
            seeds: seeds.clone(),
            startup_jitter: 20_000_000,
            sweep_period: 20_000_000,
            ..Default::default()
        };
        let node = GossipNode::new(NodeId(h.0), cfg);
        clients.push(node.directory_client());
        rt.add_node(h, Box::new(node));
    }
    rt.start();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if clients.iter().all(|c| c.member_count() == 5) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gossip never converged over UDP: {:?}",
            clients.iter().map(|c| c.member_count()).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    rt.shutdown();
}

#[test]
fn live_partition_splits_and_heals() {
    use tamp_membership::{MembershipConfig, MembershipNode};
    use tamp_netsim::telemetry::REMOVAL_KINDS;
    use tamp_topology::SegmentId;

    let cfg = MembershipConfig {
        heartbeat_period: 50_000_000,
        max_loss: 3,
        startup_jitter: 20_000_000,
        listen_period: 150_000_000,
        election_timeout: 60_000_000,
        backup_grace: 60_000_000,
        sweep_period: 20_000_000,
        anti_entropy_period: 400_000_000,
        tombstone_ttl: 800_000_000,
        ..Default::default()
    };
    let topo = generators::star_of_segments(2, 3);
    let mut rt = Runtime::new(topo);
    let mut clients = Vec::new();
    for h in rt.hosts() {
        let node = MembershipNode::new(NodeId(h.0), cfg.clone());
        clients.push(node.directory_client());
        rt.add_node(h, Box::new(node));
    }
    rt.start();

    let wait_views = |clients: &[tamp_directory::DirectoryClient], want: usize, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(25);
        loop {
            if clients.iter().all(|c| c.member_count() == want) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: views stuck at {:?}",
                clients.iter().map(|c| c.member_count()).collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    wait_views(&clients, 6, "initial convergence");

    // Partition the two racks over live UDP.
    rt.fabric()
        .set_segments_blocked(SegmentId(0), SegmentId(1), true);
    wait_views(&clients, 3, "split detection");
    // Every node recorded why its view shrank.
    let snap = rt.metrics();
    for h in rt.hosts() {
        let removals: u64 = REMOVAL_KINDS
            .iter()
            .map(|kind| snap.counter(h.0, "events", kind))
            .sum();
        assert!(removals >= 1, "{h:?} counted no removal event");
    }

    // Heal; full views must return (tombstones age out at 800 ms).
    rt.fabric()
        .set_segments_blocked(SegmentId(0), SegmentId(1), false);
    wait_views(&clients, 6, "post-heal merge");
    rt.shutdown();
}
