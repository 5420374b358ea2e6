//! `tamp-exp trace` — render an annotated timeline of one failure
//! detection: a small cluster runs, one node dies, and every update /
//! sync / election packet around the event is shown, with the removal
//! chain's events: who suspected the node, who removed it and on what
//! evidence.

use crate::common::removal_chain;
use tamp_chaos::{build_cluster, Cluster, Protocol};
use tamp_membership::MembershipConfig;
use tamp_netsim::{EngineConfig, TraceConfig, TraceEvent, TraceLog, TraceRecord, SECS};
use tamp_topology::{generators, HostId};

/// The timeline's cluster: 2 racks × 3 nodes, traced but for the
/// heartbeats, run to t = 20 s.
fn settled_cluster(seed: u64) -> Cluster {
    let topo = generators::star_of_segments(2, 3);
    let cfg = EngineConfig {
        trace: TraceConfig {
            enabled: true,
            capacity: 200_000,
            // Heartbeats dominate; show the interesting traffic.
            kinds: [
                "update",
                "sync-req",
                "sync-resp",
                "election",
                "dir-exchange",
                "digest",
            ]
            .into_iter()
            .chain(removal_chain())
            .collect(),
            ..Default::default()
        },
        ..Default::default()
    };
    let membership = MembershipConfig::default();
    let mut c = build_cluster(topo, cfg, seed, Protocol::Tamp, &membership, |_| Vec::new());
    c.engine.run_until(20 * SECS);
    c
}

pub fn run(seed: u64) {
    let mut c = settled_cluster(seed);

    println!("2 racks × 3 nodes; killing n5 at t=20 s\n");
    let detect = c.kill_and_measure(HostId(5), 10 * SECS).detect_s;
    println!("detection after {detect:.2} s; timeline of control traffic from t=19 s:\n");
    let log = c.engine.trace_log();
    let mut shown = 0;
    for r in log.records() {
        if r.time >= 19 * SECS {
            println!("{}", TraceLog::render(r));
            shown += 1;
            if shown > 120 {
                println!("… (truncated)");
                break;
            }
        }
    }
    println!(
        "\n{} control packets and removal-chain events traced in total ({} retained).",
        log.total_recorded(),
        log.len()
    );
}

/// Print a chaos run's trace timeline: injected fault transitions
/// (`==== kill/revive/partition/heal/loss ====` lines) interleaved, in
/// time order, with the protocol traffic they provoked. Fault lines are
/// always shown; packet lines are windowed to 1 s before and 8 s after
/// each fault (detection and re-election fire several heartbeat periods
/// after the fault itself) so the interesting reactions stand out.
pub fn print_chaos_trace(trace: &[TraceRecord]) {
    let is_fault = |e: &TraceEvent| matches!(e, TraceEvent::Fault(..) | TraceEvent::Net(..));
    let fault_times: Vec<u64> = trace
        .iter()
        .filter(|r| is_fault(&r.event))
        .map(|r| r.time)
        .collect();
    let near_fault = |t: u64| {
        fault_times
            .iter()
            .any(|&f| t + SECS >= f && t <= f + 8 * SECS)
    };
    let mut shown = 0;
    for r in trace {
        if is_fault(&r.event) || near_fault(r.time) {
            println!("{}", TraceLog::render(r));
            shown += 1;
            if shown > 400 {
                println!("… (truncated)");
                break;
            }
        }
    }
    if shown == 0 {
        println!("(no trace records — was tracing enabled?)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_netsim::telemetry::Value;

    #[test]
    fn trace_captures_detection_traffic() {
        let topo = generators::star_of_segments(2, 3);
        let cfg = EngineConfig {
            trace: TraceConfig::all(),
            ..Default::default()
        };
        let membership = MembershipConfig::default();
        let mut engine =
            build_cluster(topo, cfg, 3, Protocol::Tamp, &membership, |_| Vec::new()).engine;
        engine.schedule(15 * SECS, tamp_netsim::Control::Kill(HostId(5)));
        engine.run_until(25 * SECS);

        let log = engine.trace_log();
        assert!(log.total_recorded() > 100, "trace looks empty");
        // The kill fault and the subsequent update flood are captured.
        let mut saw_kill = false;
        let mut saw_update_after_kill = false;
        for r in log.records() {
            match &r.event {
                tamp_netsim::TraceEvent::Fault("kill", h) if h.0 == 5 => saw_kill = true,
                tamp_netsim::TraceEvent::Send { kind: "update", .. }
                    if r.time > 15 * SECS && saw_kill =>
                {
                    saw_update_after_kill = true
                }
                _ => {}
            }
        }
        assert!(saw_kill, "kill fault not traced");
        assert!(saw_update_after_kill, "death updates not traced");
    }

    #[test]
    fn the_timeline_names_who_removed_the_victim_and_why() {
        let mut c = settled_cluster(1);
        c.kill_and_measure(HostId(5), 10 * SECS);
        let removals: Vec<String> = c
            .engine
            .trace_log()
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::Protocol { node, event } => match event.fields()[..] {
                    [("subject", Value::Node(5)), _, ("evidence", Value::Word(why)), ..] => {
                        Some(format!("{node} {} {why}", event.name()))
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect();
        // Every survivor removed n5: its rack-mates on their own
        // detectors, the other rack on a relayed `Leave`.
        assert_eq!(
            removals,
            [
                "h3 death-declared detector",
                "h4 death-declared detector",
                "h0 removed-leave leave",
                "h2 removed-leave leave",
                "h1 removed-leave leave",
            ],
        );
    }
}
