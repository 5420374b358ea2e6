//! Operational flows: rolling restart of a live cluster with zero false
//! failure detections, using graceful leaves and runtime service
//! commands.
//!
//! ```sh
//! cargo run --example operations
//! ```

use tamp::membership::{ControlHandle, ServiceCommand};
use tamp::prelude::*;

fn main() {
    let topo = generators::star_of_segments(2, 4);
    let mut engine = Engine::new(topo, EngineConfig::default(), 17);
    let mut clients: Vec<DirectoryClient> = Vec::new();
    let mut controls: Vec<ControlHandle> = Vec::new();
    for h in engine.hosts() {
        let cfg = MembershipConfig {
            services: vec![ServiceDecl::new(
                "api",
                PartitionSet::from_iter([(h.0 % 2) as u16]),
            )],
            ..Default::default()
        };
        let node = MembershipNode::new(NodeId(h.0), cfg);
        clients.push(node.directory_client());
        controls.push(node.control_handle());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    engine.run_until(20 * SECS);
    println!(
        "cluster up: every node sees {} members",
        clients[0].member_count()
    );

    // Drain a node before maintenance: mark it, then leave gracefully.
    println!("\n-- maintenance on node 7 --");
    controls[7].push(ServiceCommand::UpdateValue(
        "state".into(),
        "draining".into(),
    ));
    engine.run_for(3 * SECS);
    let m = clients[0].lookup_service("api", "1").unwrap();
    let draining = m
        .iter()
        .find(|m| m.node == NodeId(7))
        .map(|m| m.attrs.iter().any(|(k, v)| k == "state" && v == "draining"))
        .unwrap_or(false);
    println!("peers see node 7 as draining: {draining}");

    controls[7].push(ServiceCommand::GracefulLeave);
    engine.run_for(2 * SECS);
    println!(
        "after graceful leave (2 s later): views = {} members, no timeout wait",
        clients[0].member_count()
    );

    // "Upgrade" and return.
    engine.kill_now(HostId(7)); // actor parked while "rebooting"
    engine.schedule(engine.now() + 5 * SECS, Control::Revive(HostId(7)));
    engine.run_for(15 * SECS);
    println!(
        "after reboot: views = {} members, node 7 incarnation bumped",
        clients[0].member_count()
    );

    // The whole time, zero false removals of *other* nodes:
    let false_removals: usize = (0..7u32)
        .map(|v| engine.stats().removal_observers(NodeId(v)).len())
        .sum();
    println!("false removals of unrelated nodes during the whole flow: {false_removals}");

    // Roll the remaining nodes of segment 1 one by one.
    println!("\n-- rolling the rest of rack 1 --");
    for node in [5u32, 6] {
        controls[node as usize].push(ServiceCommand::GracefulLeave);
        engine.run_for(2 * SECS);
        engine.kill_now(HostId(node));
        engine.schedule(engine.now() + 4 * SECS, Control::Revive(HostId(node)));
        engine.run_for(12 * SECS);
        let views: Vec<usize> = clients.iter().map(|c| c.member_count()).collect();
        println!("rolled n{node}: views {views:?}");
    }
    println!("\nrolling restart complete; service capacity never dropped below quorum.");
}
