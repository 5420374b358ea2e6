//! Multi-datacenter chaos: runs a schedule against two (or more)
//! independent membership domains bridged by membership proxies, and
//! checks the fourth oracle invariant — **proxy view consistency**: at
//! quiescence, every data center's remote view reflects the services
//! actually alive in the other data centers.

use crate::oracle::{self, OracleConfig, Violation};
use crate::runner::{apply_schedule, ScenarioConfig, ScenarioRun};
use crate::schedule::Schedule;
use crate::truth::GroundTruth;
use tamp_directory::DirectoryClient;
use tamp_membership::{MembershipConfig, MembershipNode, Probe};
use tamp_netsim::{Engine, MILLIS};
use tamp_proxy::{ProxyConfig, ProxyNode, RemoteView, VipTable};
use tamp_topology::generators;
use tamp_wire::{DcId, NodeId, PartitionSet, ServiceDecl};

/// Service partitions spread across each data center's member nodes.
const PARTITIONS: u16 = 3;

/// The deployment shape: two DCs, 6 members + 2 proxies each, ~90 ms
/// WAN RTT (the paper's east-coast/west-coast prototype shape).
const DATACENTERS: usize = 2;
/// Member (service-hosting) nodes per DC, on two segments.
const MEMBERS_PER_DC: usize = 6;
const PROXIES_PER_DC: usize = 2;
const WAN_ONE_WAY: tamp_topology::Nanos = 45 * MILLIS;

struct DcState {
    dc: DcId,
    remote_view: RemoteView,
    /// (host index, partition it serves) for member nodes.
    members: Vec<(u32, u16)>,
    proxies: Vec<u32>,
    clients: Vec<(u32, DirectoryClient)>,
}

/// Execute `schedule` against a fresh two-DC deployment (16 hosts:
/// proxies first, then members, per DC) and judge it.
///
/// Reads `seed`, `membership`, `engine` (metrics are forced on, as in
/// the single-cluster runner) and `strict` from `cfg`. The deployment
/// shape is fixed, and the cluster always runs the hierarchical
/// protocol: `cfg.topo` and `cfg.protocol` are not read, and neither are
/// a schedule's `topology` and `protocol` directives.
pub fn run_proxy_scenario(cfg: &ScenarioConfig, schedule: &Schedule) -> ScenarioRun {
    let mut schedule = schedule.clone();
    schedule.normalize();

    let per_segment = (MEMBERS_PER_DC + PROXIES_PER_DC).div_ceil(2);
    let (topo, dc_hosts) =
        generators::multi_datacenter(&[(2, per_segment); DATACENTERS], WAN_ONE_WAY);
    let num_hosts = topo.num_hosts();

    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.metrics = true;
    let mut engine = Engine::new(topo, engine_cfg, cfg.seed);
    let vips = VipTable::new();
    let mut probes: Vec<Option<Probe>> = vec![None; num_hosts];
    let mut dcs = Vec::new();

    for (dc_idx, hosts) in dc_hosts.iter().enumerate() {
        let dc = DcId(dc_idx as u16);
        let remote_dcs: Vec<DcId> = (0..DATACENTERS)
            .filter(|&d| d != dc_idx)
            .map(|d| DcId(d as u16))
            .collect();
        let remote_view = RemoteView::new();
        let mut state = DcState {
            dc,
            remote_view: remote_view.clone(),
            members: Vec::new(),
            proxies: Vec::new(),
            clients: Vec::new(),
        };
        let mut it = hosts.iter().copied();

        for i in 0..PROXIES_PER_DC {
            let h = it.next().expect("not enough hosts for proxies");
            if i == 0 {
                vips.set(dc, NodeId(h.0));
            }
            let p = ProxyNode::new(
                NodeId(h.0),
                ProxyConfig::new(dc, remote_dcs.clone(), cfg.membership.clone()),
                vips.clone(),
                remote_view.clone(),
            );
            state.clients.push((h.0, p.directory_client()));
            state.proxies.push(h.0);
            engine.add_actor(h, Box::new(p));
        }
        for (i, h) in it.enumerate() {
            let part = i as u16 % PARTITIONS;
            let m = MembershipConfig {
                services: vec![ServiceDecl::new("svc", PartitionSet::from_iter([part]))],
                ..cfg.membership.clone()
            };
            let node = MembershipNode::new(NodeId(h.0), m);
            state.clients.push((h.0, node.directory_client()));
            probes[h.0 as usize] = Some(node.probe());
            state.members.push((h.0, part));
            engine.add_actor(h, Box::new(node));
        }
        dcs.push(state);
    }
    engine.start();

    let mut truth = GroundTruth::new();
    let resolved = apply_schedule(
        &mut engine,
        &probes,
        &schedule,
        cfg.seed,
        cfg.engine.loss.rate,
        &mut truth,
    );
    let horizon = schedule.horizon();
    engine.run_until(horizon);

    // Oracle: the single-domain checks per DC, then proxy consistency.
    let max_level = (usize::BITS - engine.topology().num_segments().leading_zeros()) as u8;
    let ocfg = if cfg.strict {
        OracleConfig::strict_for_membership(&cfg.membership, max_level)
    } else {
        OracleConfig::for_membership(&cfg.membership, max_level)
    };
    let mut violations = oracle::check_removals(
        engine.stats().observations(),
        &truth,
        engine.topology(),
        &ocfg,
    );
    for dc in &dcs {
        violations.extend(check_dc_convergence(dc, &truth));
    }
    violations.extend(check_proxy_views(&dcs, &truth));

    let live: Vec<u32> = (0..num_hosts as u32)
        .filter(|&h| truth.is_alive(h))
        .collect();
    let trace = engine.trace_log().records().cloned().collect();
    let metrics = engine.registry().snapshot();
    ScenarioRun {
        seed: cfg.seed,
        schedule,
        resolved,
        violations,
        live,
        horizon,
        trace,
        metrics,
        protocol: crate::Protocol::Tamp,
        topo_desc: format!(
            "{DATACENTERS} datacenters, {num_hosts} hosts \
             ({MEMBERS_PER_DC} members + {PROXIES_PER_DC} proxies each)"
        ),
    }
}

/// Per-DC convergence: each DC is its own membership domain, so every
/// live node's view must equal the DC's live set.
fn check_dc_convergence(dc: &DcState, truth: &GroundTruth) -> Vec<Violation> {
    if truth.any_partition_active() {
        return Vec::new();
    }
    let live: Vec<u32> = dc
        .clients
        .iter()
        .map(|&(h, _)| h)
        .filter(|&h| truth.is_alive(h))
        .collect();
    let mut out = Vec::new();
    for (h, client) in &dc.clients {
        if !truth.is_alive(*h) {
            continue;
        }
        let mut seen: Vec<u32> = client.read(|d| d.nodes().map(|n| n.0).collect());
        seen.sort_unstable();
        if seen != live {
            let missing = live.iter().copied().filter(|x| !seen.contains(x)).collect();
            let extra = seen.iter().copied().filter(|x| !live.contains(x)).collect();
            out.push(Violation::ViewDivergence {
                host: tamp_topology::HostId(*h),
                missing,
                extra,
            });
        }
    }
    out
}

/// Invariant 4: every DC with a live proxy sees, for every *other* DC
/// with a live proxy, exactly the service partitions that DC's live
/// members actually serve.
fn check_proxy_views(dcs: &[DcState], truth: &GroundTruth) -> Vec<Violation> {
    if truth.any_partition_active() {
        return Vec::new();
    }
    let has_live_proxy = |dc: &DcState| dc.proxies.iter().any(|&h| truth.is_alive(h));
    let mut out = Vec::new();
    for observer in dcs.iter().filter(|d| has_live_proxy(d)) {
        for remote in dcs.iter().filter(|d| d.dc != observer.dc) {
            if !has_live_proxy(remote) {
                // With every proxy dead, the remote DC publishes
                // nothing; staleness there is not the protocol's fault.
                continue;
            }
            for part in 0..PARTITIONS {
                let actually_served = remote
                    .members
                    .iter()
                    .any(|&(h, p)| p == part && truth.is_alive(h));
                let believed = observer.remote_view.find("svc", part).contains(&remote.dc);
                if actually_served != believed {
                    out.push(Violation::ProxyInconsistency {
                        dc: observer.dc.0,
                        detail: format!(
                            "dc {} svc partition {part}: served={actually_served} believed={believed}",
                            remote.dc.0
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Action, ScheduledFault, Target};
    use tamp_topology::SECS;

    // `two_segments` supplies default tunables; its topology is unread.

    #[test]
    fn healthy_two_dc_deployment_passes() {
        let cfg = ScenarioConfig::two_segments(21);
        let run = run_proxy_scenario(&cfg, &Schedule::default());
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 16);
    }

    #[test]
    fn killing_every_server_of_a_partition_updates_remote_views() {
        let cfg = ScenarioConfig::two_segments(22);
        // DC 1's hosts are 8..16: proxies 8,9; members 10..16 serving
        // partitions 0,1,2,0,1,2. Kill both partition-0 servers (10, 13)
        // — DC 0's remote view must drop (dc 1, svc, partition 0) while
        // keeping partitions 1 and 2, or the oracle flags it.
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 30 * SECS,
                action: Action::Kill(Target::Host(10)),
            },
            ScheduledFault {
                at: 32 * SECS,
                action: Action::Kill(Target::Host(13)),
            },
        ]);
        let run = run_proxy_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
    }

    #[test]
    fn proxy_leader_kill_fails_over_without_violations() {
        let cfg = ScenarioConfig::two_segments(23);
        // Host 0 owns DC 0's virtual IP at start.
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 30 * SECS,
            action: Action::Kill(Target::Host(0)),
        }]);
        let run = run_proxy_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
    }
}
