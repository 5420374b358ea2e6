//! End-to-end protocol tests: whole clusters of `MembershipNode`s running
//! in the discrete-event simulator.

use tamp_directory::DirectoryClient;
use tamp_membership::{MembershipConfig, MembershipNode, Probe};
use tamp_netsim::{Control, Engine, EngineConfig, LossModel, SECS};
use tamp_topology::{generators, HostId, Topology};
use tamp_wire::{NodeId, PartitionSet, ServiceDecl};

struct Cluster {
    engine: Engine,
    clients: Vec<DirectoryClient>,
    probes: Vec<Probe>,
}

fn build_cluster(topo: Topology, cfg: &MembershipConfig, seed: u64) -> Cluster {
    build_cluster_with(topo, cfg, seed, EngineConfig::default())
}

fn build_cluster_with(
    topo: Topology,
    cfg: &MembershipConfig,
    seed: u64,
    engine_cfg: EngineConfig,
) -> Cluster {
    let mut engine = Engine::new(topo, engine_cfg, seed);
    let mut clients = Vec::new();
    let mut probes = Vec::new();
    for h in engine.hosts() {
        let mut node_cfg = cfg.clone();
        node_cfg.services = vec![ServiceDecl::new(
            "svc",
            PartitionSet::from_iter([(h.0 % 4) as u16]),
        )];
        let node = MembershipNode::new(NodeId(h.0), node_cfg);
        clients.push(node.directory_client());
        probes.push(node.probe());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    Cluster {
        engine,
        clients,
        probes,
    }
}

fn assert_full_views(c: &Cluster, expected: usize, ctx_msg: &str) {
    for (i, cl) in c.clients.iter().enumerate() {
        if !c.engine.is_alive(HostId(i as u32)) {
            continue;
        }
        assert_eq!(
            cl.member_count(),
            expected,
            "{ctx_msg}: node {i} sees {} of {} members; probe: {:?}",
            cl.member_count(),
            expected,
            c.probes[i].lock().clone(),
        );
    }
}

#[test]
fn single_segment_converges_to_full_view() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::single_segment(8), &cfg, 11);
    c.engine.run_until(15 * SECS);
    assert_full_views(&c, 8, "single segment");
    // Exactly one leader at level 0, and it is the lowest id.
    let leaders: Vec<_> = c
        .probes
        .iter()
        .map(|p| p.lock().leaders.first().cloned().flatten())
        .collect();
    assert!(leaders.iter().all(|l| *l == Some(NodeId(0))), "{leaders:?}");
}

#[test]
fn two_segments_converge_via_leader_tree() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 5), &cfg, 13);
    c.engine.run_until(25 * SECS);
    assert_full_views(&c, 10, "two segments");
}

#[test]
fn five_networks_of_twenty_like_the_paper() {
    // The paper's 100-node testbed shape.
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(5, 20), &cfg, 17);
    c.engine.run_until(30 * SECS);
    assert_full_views(&c, 100, "paper testbed");
}

#[test]
fn leaf_failure_detected_within_timeout_everywhere() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 5), &cfg, 19);
    c.engine.run_until(25 * SECS);
    assert_full_views(&c, 10, "pre-kill");

    // Kill a non-leader leaf (highest id in segment 1).
    let victim = HostId(9);
    let kill_at = 25 * SECS;
    c.engine.schedule(kill_at, Control::Kill(victim));
    c.engine.run_until(60 * SECS);
    assert_full_views(&c, 9, "post-kill");

    let first = c.engine.stats().first_removal(NodeId(9)).unwrap();
    let last = c.engine.stats().last_removal(NodeId(9)).unwrap();
    let detect = first - kill_at;
    let converge = last - kill_at;
    // Detection ≈ max_loss × period = 5 s (+ sweep granularity + phase).
    assert!(
        (4 * SECS..=8 * SECS).contains(&detect),
        "detection took {}ms",
        detect / 1_000_000
    );
    assert!(
        converge <= 12 * SECS,
        "convergence took {}ms",
        converge / 1_000_000
    );
    // Every surviving node observed the removal.
    let observers = c.engine.stats().removal_observers(NodeId(9));
    assert!(observers.len() >= 9, "only {observers:?} observed");
}

#[test]
fn group_leader_failure_recovers_with_backup() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 5), &cfg, 23);
    c.engine.run_until(25 * SECS);

    // Node 0 is the level-0 leader of segment 0 (lowest id) and by
    // construction also the level-1 leader.
    let victim = HostId(0);
    c.engine.schedule(25 * SECS, Control::Kill(victim));
    c.engine.run_until(70 * SECS);
    assert_full_views(&c, 9, "post-leader-kill");

    // Someone else now leads segment 0's level-0 group — the designated
    // backup takes over (paper §3.1.1), and sticky leadership keeps it
    // even if a lower id survives. All segment-0 members must agree.
    let leader_of_1 = c.probes[1].lock().leaders.first().cloned().flatten();
    let new_leader = leader_of_1.expect("segment 0 must re-elect a leader");
    assert!(
        (1..5).contains(&new_leader.0),
        "new leader {new_leader:?} must be a surviving segment-0 member"
    );
    for i in 1..5 {
        let l = c.probes[i].lock().leaders.first().cloned().flatten();
        assert_eq!(l, Some(new_leader), "node {i} disagrees on the leader");
    }
}

#[test]
fn rejoin_after_crash_is_readded_with_higher_incarnation() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 3), &cfg, 29);
    c.engine.run_until(20 * SECS);
    assert_full_views(&c, 6, "initial");

    let victim = HostId(5);
    c.engine.schedule(20 * SECS, Control::Kill(victim));
    c.engine.schedule(40 * SECS, Control::Revive(victim));
    c.engine.run_until(80 * SECS);
    assert_full_views(&c, 6, "after rejoin");
    assert!(c.probes[5].lock().incarnation >= 2);
    // The rejoin was observed cluster-wide.
    let adds = c.engine.stats().addition_observers(NodeId(5));
    assert!(adds.len() >= 5, "addition seen by {adds:?}");
}

#[test]
fn converges_under_packet_loss() {
    let cfg = MembershipConfig::default();
    let engine_cfg = EngineConfig {
        loss: LossModel { rate: 0.05 },
        ..Default::default()
    };
    let mut c = build_cluster_with(generators::star_of_segments(3, 5), &cfg, 31, engine_cfg);
    c.engine.run_until(40 * SECS);
    assert_full_views(&c, 15, "5% loss");

    // Inject a failure under loss; it must still be detected everywhere.
    c.engine.schedule(40 * SECS, Control::Kill(HostId(14)));
    c.engine.run_until(90 * SECS);
    assert_full_views(&c, 14, "detection under loss");
}

#[test]
fn chain_topology_builds_multi_level_tree() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::chain_of_segments(3, 4), &cfg, 37);
    c.engine.run_until(40 * SECS);
    assert_full_views(&c, 12, "chain");
    // The level-0 leader of segment 0 participates above level 0.
    let p0 = c.probes[0].lock().clone();
    assert!(
        p0.active_levels.len() > 1,
        "node 0 should lead and join higher levels: {p0:?}"
    );
}

#[test]
fn non_transitive_topology_converges() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::non_transitive_triangle(), &cfg, 41);
    c.engine.run_until(40 * SECS);
    assert_full_views(&c, 3, "fig-4 triangle");
}

#[test]
fn partition_detected_and_healed() {
    use tamp_topology::SegmentId;
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 4), &cfg, 43);
    c.engine.run_until(25 * SECS);
    assert_full_views(&c, 8, "pre-partition");

    // Sever the two segments. Each side should shrink to its own 4.
    c.engine.schedule(
        25 * SECS,
        Control::BlockSegments(SegmentId(0), SegmentId(1)),
    );
    c.engine.run_until(60 * SECS);
    for i in 0..4 {
        assert_eq!(
            c.clients[i].member_count(),
            4,
            "node {i} should see only its side; probe {:?}",
            c.probes[i].lock().clone()
        );
    }
    for i in 4..8 {
        assert_eq!(c.clients[i].member_count(), 4, "node {i} other side");
    }

    // Heal; views must re-merge.
    c.engine.schedule(
        60 * SECS,
        Control::UnblockSegments(SegmentId(0), SegmentId(1)),
    );
    c.engine.run_until(110 * SECS);
    assert_full_views(&c, 8, "post-heal");
}

#[test]
fn directory_lookup_spans_cluster() {
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 4), &cfg, 47);
    c.engine.run_until(25 * SECS);
    // Every node exports "svc" with partition h % 4; from any client, a
    // lookup for partition 2 must find exactly the two matching hosts.
    let m = c.clients[0].lookup_service("svc", "2").unwrap();
    assert_eq!(m.len(), 2);
    assert!(m.iter().all(|m| m.node.0 % 4 == 2));
}

#[test]
fn deterministic_simulation() {
    fn run(seed: u64) -> Vec<usize> {
        let cfg = MembershipConfig::default();
        let mut c = build_cluster(generators::star_of_segments(2, 5), &cfg, seed);
        c.engine.schedule(20 * SECS, Control::Kill(HostId(3)));
        c.engine.run_until(45 * SECS);
        c.clients.iter().map(|c| c.member_count()).collect()
    }
    assert_eq!(run(99), run(99));
}

#[test]
fn runtime_service_commands_propagate() {
    use tamp_membership::ServiceCommand;
    let topo = generators::star_of_segments(2, 3);
    let mut engine = Engine::new(topo, EngineConfig::default(), 53);
    let mut clients = Vec::new();
    let mut controls = Vec::new();
    for h in engine.hosts() {
        let node = MembershipNode::new(NodeId(h.0), MembershipConfig::default());
        clients.push(node.directory_client());
        controls.push(node.control_handle());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    engine.run_until(20 * SECS);
    assert_eq!(clients[0].member_count(), 6);
    assert!(clients[0].lookup_service("late", "").unwrap().is_empty());

    // Node 5 (different segment from node 0) registers a service and a
    // status value *while running* — the paper's update_value flow.
    controls[5]
        .lock()
        .push(ServiceCommand::Register(ServiceDecl::new(
            "late",
            PartitionSet::from_iter([7]),
        )));
    controls[5]
        .lock()
        .push(ServiceCommand::UpdateValue("ready".into(), "yes".into()));
    engine.run_until(30 * SECS);

    // Every node across segments sees the new service + value.
    for (i, c) in clients.iter().enumerate() {
        let m = c.lookup_service("late", "7").unwrap();
        assert_eq!(m.len(), 1, "node {i} missing runtime service");
        assert_eq!(m[0].node, NodeId(5));
        assert!(m[0].attrs.iter().any(|(k, v)| k == "ready" && v == "yes"));
    }

    // And deletion propagates too.
    controls[5]
        .lock()
        .push(ServiceCommand::Unregister("late".into()));
    engine.run_until(40 * SECS);
    for (i, c) in clients.iter().enumerate() {
        assert!(
            c.lookup_service("late", "").unwrap().is_empty(),
            "node {i} still lists the unregistered service"
        );
    }
}

#[test]
fn fat_tree_topology_converges() {
    // Deeper fabric: 2 pods x 2 segments, inter-pod TTL distance 4.
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::fat_tree(2, 2, 2, 4), &cfg, 59);
    c.engine.run_until(40 * SECS);
    assert_full_views(&c, 16, "fat tree");
}

#[test]
fn overlapping_chain_groups_bridge_knowledge_at_low_max_ttl() {
    // A chain of segments each TTL-2 from its neighbor: with MAX_TTL = 2
    // the level-1 groups *overlap* along the chain (the paper's §3.1.1
    // general-topology case), and knowledge still bridges end to end
    // through the shared members.
    let cfg = MembershipConfig {
        max_ttl: 2,
        ..Default::default()
    };
    let mut c = build_cluster(generators::chain_of_segments(4, 2), &cfg, 61);
    c.engine.run_until(60 * SECS);
    assert_full_views(&c, 8, "overlapping chain");
}

#[test]
fn max_ttl_caps_reach_with_no_bridge() {
    // Two segments separated by three routers (TTL distance 4) and no
    // hosts in between: with MAX_TTL = 2 no multicast group can span the
    // gap and there is no overlap to bridge it — views stay partitioned,
    // predictably (a misconfigured MAX_TTL degrades, not crashes).
    use tamp_topology::TopologyBuilder;
    let mut b = TopologyBuilder::new();
    let s0 = b.add_segment();
    let s1 = b.add_segment();
    let (r0, r1, r2) = (b.add_router(), b.add_router(), b.add_router());
    b.link_segment_router(s0, r0, None);
    b.link_routers(r0, r1, None);
    b.link_routers(r1, r2, None);
    b.link_segment_router(s1, r2, None);
    b.add_hosts(s0, 3);
    b.add_hosts(s1, 3);
    let topo = b.build();
    assert_eq!(topo.max_ttl(), 4);

    let cfg = MembershipConfig {
        max_ttl: 2,
        ..Default::default()
    };
    let mut c = build_cluster(topo.clone(), &cfg, 63);
    c.engine.run_until(40 * SECS);
    for (i, cl) in c.clients.iter().enumerate() {
        assert_eq!(cl.member_count(), 3, "node {i} must see only its side");
    }

    // With MAX_TTL = 4 the same topology converges fully.
    let cfg = MembershipConfig {
        max_ttl: 4,
        ..Default::default()
    };
    let mut c = build_cluster(topo, &cfg, 63);
    c.engine.run_until(40 * SECS);
    assert_full_views(&c, 6, "max_ttl=4 bridges the gap");
}

#[test]
fn cascading_leader_failures_still_converge() {
    // Kill the segment leader, then its replacement as soon as it takes
    // over, then the replacement's replacement: the election machinery
    // must grind through three successions.
    let cfg = MembershipConfig::default();
    let mut c = build_cluster(generators::star_of_segments(2, 5), &cfg, 67);
    c.engine.run_until(25 * SECS);
    assert_full_views(&c, 10, "pre-cascade");

    c.engine.schedule(25 * SECS, Control::Kill(HostId(0)));
    c.engine.schedule(40 * SECS, Control::Kill(HostId(1)));
    c.engine.schedule(55 * SECS, Control::Kill(HostId(2)));
    c.engine.run_until(110 * SECS);
    assert_full_views(&c, 7, "post-cascade");

    // Segment 0's survivors (3, 4) agree on a leader from {3, 4}.
    let l3 = c.probes[3].lock().leaders.first().cloned().flatten();
    let l4 = c.probes[4].lock().leaders.first().cloned().flatten();
    assert_eq!(l3, l4, "survivors disagree");
    assert!(matches!(l3, Some(NodeId(3)) | Some(NodeId(4))), "{l3:?}");
}

#[test]
fn staggered_mass_join_reaches_everyone() {
    // Nodes come up in waves (a rack being powered on): late joiners
    // must acquire the full directory and everyone must learn of them.
    let cfg = MembershipConfig::default();
    let topo = generators::star_of_segments(3, 4);
    let mut engine = Engine::new(topo, EngineConfig::default(), 71);
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let node = MembershipNode::new(NodeId(h.0), cfg.clone());
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    // Stagger: the engine starts everyone, but we immediately crash the
    // later waves and revive them over a minute.
    engine.start();
    for (i, h) in engine.hosts().into_iter().enumerate() {
        if i >= 4 {
            engine.kill_now(h);
            let wave = (i / 4) as u64;
            engine.schedule(wave * 25 * SECS, Control::Revive(h));
        }
    }
    engine.run_until(120 * SECS);
    for (i, cl) in clients.iter().enumerate() {
        assert_eq!(cl.member_count(), 12, "node {i} incomplete after waves");
    }
}

#[test]
fn graceful_leave_removes_immediately() {
    use tamp_membership::ServiceCommand;
    let cfg = MembershipConfig::default();
    let topo = generators::star_of_segments(2, 4);
    let mut engine = Engine::new(topo, EngineConfig::default(), 73);
    let mut clients = Vec::new();
    let mut controls = Vec::new();
    for h in engine.hosts() {
        let node = MembershipNode::new(NodeId(h.0), cfg.clone());
        clients.push(node.directory_client());
        controls.push(node.control_handle());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    engine.run_until(20 * SECS);
    assert!(clients.iter().all(|c| c.member_count() == 8));

    // Node 7 leaves gracefully at t=20s: the cluster converges in about
    // one propagation time, not the 5 s failure timeout.
    controls[7].lock().push(ServiceCommand::GracefulLeave);
    engine.run_until(22 * SECS);
    for (i, c) in clients.iter().enumerate().take(7) {
        assert_eq!(
            c.member_count(),
            7,
            "node {i} did not apply the graceful leave within 2 s"
        );
    }
    let last = engine.stats().last_removal(NodeId(7)).unwrap();
    assert!(
        last <= 21 * SECS,
        "graceful leave took {} ms to converge",
        (last - 20 * SECS) / 1_000_000
    );

    // And nothing re-adds the departed node afterwards.
    engine.run_until(60 * SECS);
    assert!(clients[..7].iter().all(|c| c.member_count() == 7));
}

#[test]
fn protocol_counters_reflect_activity() {
    let cfg = MembershipConfig::default();
    let metered = EngineConfig {
        metrics: true,
        ..EngineConfig::default()
    };
    let mut c = build_cluster_with(generators::star_of_segments(2, 5), &cfg, 83, metered);
    c.engine.run_until(40 * SECS);

    // Node 0 (segment leader + root): claimed leaderships, sent updates
    // and digests.
    let snap = c.engine.registry().snapshot();
    let p0 = |kind| snap.counter(0, "events", kind);
    assert!(p0("leadership-claimed") >= 2, "{snap:?}");
    assert!(p0("update-relayed") > 0, "{snap:?}");
    assert!(p0("digest-sent") > 0, "{snap:?}");
    assert_eq!(p0("death-declared"), 0, "{snap:?}");

    // Kill a node: survivors record the death.
    c.engine.schedule(40 * SECS, Control::Kill(HostId(9)));
    c.engine.run_until(60 * SECS);
    let snap = c.engine.registry().snapshot();
    assert!(snap.counter(5, "events", "death-declared") >= 1, "{snap:?}");
}
