//! The protocol table, the one cluster builder, and the one failure
//! probe every driver shares: the chaos runner, the figure and ablation
//! sweeps, the comparison grids and the inspection tools all build a
//! single-protocol cluster through [`build_cluster`] and read the
//! paper's detection measurement through [`Detection`].

use tamp_baselines::{
    AllToAllConfig, AllToAllNode, GossipConfig, GossipNode, SwimConfig, SwimNode,
};
use tamp_directory::DirectoryClient;
use tamp_membership::{MembershipConfig, MembershipNode, Probe, RemovalDiscipline};
use tamp_netsim::{Actor, Control, Engine, EngineConfig, SimTime};
use tamp_topology::{HostId, Topology};
use tamp_wire::{NodeId, ServiceDecl};

/// Which membership protocol a cluster runs. `Tamp` and `TampRapid` are
/// the hierarchical node (timeout vs cut-detection removal discipline);
/// the rest are the comparison baselines. One scenario file runs against
/// any of them — the runner swaps the actors and sizes the oracle's
/// removal window to the protocol's own detection bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Hierarchical node, timeout/suspicion removal discipline.
    Tamp,
    /// Hierarchical node, Rapid-style multi-process cut detection.
    TampRapid,
    /// All-to-all heartbeat baseline.
    AllToAll,
    /// Gossip-style failure detection baseline.
    Gossip,
    /// SWIM probe/ping-req baseline.
    Swim,
}

impl Protocol {
    pub const ALL: [Protocol; 5] = [
        Protocol::Tamp,
        Protocol::TampRapid,
        Protocol::AllToAll,
        Protocol::Gossip,
        Protocol::Swim,
    ];

    /// Canonical name: the `--protocol` flag value and the DSL's
    /// `protocol` directive ([`crate::PROTOCOLS`]).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tamp => "tamp",
            Protocol::TampRapid => "tamp-rapid",
            Protocol::AllToAll => "alltoall",
            Protocol::Gossip => "gossip",
            Protocol::Swim => "swim",
        }
    }

    pub fn parse(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Does this protocol run the hierarchical node (groups, leaders,
    /// the full yellow-page machinery)?
    pub fn is_hierarchical(self) -> bool {
        matches!(self, Protocol::Tamp | Protocol::TampRapid)
    }

    /// Telemetry counter namespace the protocol's actors write.
    pub fn counter_namespace(self) -> &'static str {
        match self {
            Protocol::Tamp | Protocol::TampRapid => "membership",
            Protocol::AllToAll => tamp_baselines::alltoall::NAMESPACE,
            Protocol::Gossip => tamp_baselines::gossip::NAMESPACE,
            Protocol::Swim => tamp_baselines::swim::NAMESPACE,
        }
    }
}

/// A started cluster of one protocol, one actor per host.
pub struct Cluster {
    pub engine: Engine,
    /// `clients[i]` reads host `i`'s directory.
    pub clients: Vec<DirectoryClient>,
    /// `Some` per host for the hierarchical protocols (leadership
    /// probes); `None` for the leaderless baselines.
    pub probes: Vec<Option<Probe>>,
}

/// Build a cluster of `protocol` on `topo`, started and ready to run.
/// `membership` configures the hierarchical node (`TampRapid` overrides
/// its removal discipline); the baselines run their defaults, sized to
/// the cluster. Host `h` exports `services_of(h)` under every protocol.
pub fn build_cluster(
    topo: Topology,
    engine_cfg: EngineConfig,
    seed: u64,
    protocol: Protocol,
    membership: &MembershipConfig,
    services_of: impl Fn(HostId) -> Vec<ServiceDecl>,
) -> Cluster {
    let mut engine = Engine::new(topo, engine_cfg, seed);
    let all_nodes: Vec<NodeId> = engine.hosts().iter().map(|h| NodeId(h.0)).collect();
    let mut clients = Vec::new();
    let mut probes = Vec::new();
    for h in engine.hosts() {
        let id = NodeId(h.0);
        let services = services_of(h);
        let (client, probe, actor): (_, _, Box<dyn Actor>) = match protocol {
            Protocol::Tamp | Protocol::TampRapid => {
                let mut cfg = MembershipConfig {
                    services,
                    ..membership.clone()
                };
                if protocol == Protocol::TampRapid {
                    cfg.removal_discipline = RemovalDiscipline::CutDetection;
                }
                let node = MembershipNode::new(id, cfg);
                (node.directory_client(), Some(node.probe()), Box::new(node))
            }
            Protocol::AllToAll => {
                let cfg = AllToAllConfig {
                    services,
                    ..Default::default()
                };
                let node = AllToAllNode::new(id, cfg);
                (node.directory_client(), None, Box::new(node))
            }
            Protocol::Gossip => {
                let cfg = GossipConfig {
                    expected_cluster_size: all_nodes.len(),
                    seeds: all_nodes.clone(),
                    services,
                    ..Default::default()
                };
                let node = GossipNode::new(id, cfg);
                (node.directory_client(), None, Box::new(node))
            }
            Protocol::Swim => {
                let cfg = SwimConfig {
                    seeds: all_nodes.clone(),
                    services,
                };
                let node = SwimNode::new(id, cfg);
                (node.directory_client(), None, Box::new(node))
            }
        };
        clients.push(client);
        probes.push(probe);
        engine.add_actor(h, actor);
    }
    engine.start();
    Cluster {
        engine,
        clients,
        probes,
    }
}

/// The paper's failure measurement (§5, Figs. 12–13): "we find the
/// earliest time when the failure is recorded … as the failure detection
/// time, and the latest record time of the failure as the view
/// convergence time."
#[derive(Debug, Clone, Copy)]
pub struct Detection {
    /// Earliest removal observation, seconds after the kill (NaN if
    /// nobody removed the victim; 0 if a false removal preceded the kill).
    pub detect_s: f64,
    /// Latest removal observation among all survivors, seconds after the
    /// kill.
    pub converge_s: f64,
    /// Survivors that recorded the removal (a complete protocol: n−1).
    pub observers: usize,
}

impl Detection {
    /// Read the removal observations of `victim`, killed at `kill_at`,
    /// from `engine`'s stats.
    pub fn of(engine: &Engine, victim: HostId, kill_at: SimTime) -> Detection {
        let stats = engine.stats();
        let subject = NodeId(victim.0);
        let since_kill =
            |t: Option<SimTime>| t.map_or(f64::NAN, |t| t.saturating_sub(kill_at) as f64 / 1e9);
        Detection {
            detect_s: since_kill(stats.first_removal(subject)),
            converge_s: since_kill(stats.last_removal(subject)),
            observers: stats
                .removal_observers(subject)
                .into_iter()
                .filter(|&h| h != victim)
                .count(),
        }
    }
}

impl Cluster {
    /// Kill `victim` now, run `wait` longer, and report when the
    /// survivors noticed.
    pub fn kill_and_measure(&mut self, victim: HostId, wait: SimTime) -> Detection {
        let kill_at = self.engine.now();
        self.engine.schedule(kill_at, Control::Kill(victim));
        self.engine.run_until(kill_at + wait);
        Detection::of(&self.engine, victim, kill_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PROTOCOLS` is the string form of `Protocol::ALL`, and the order
    /// is pinned: `benchmark/`'s catalogue and every sweep that iterates
    /// the table inherit it.
    #[test]
    fn protocol_table_cannot_drift() {
        assert_eq!(crate::PROTOCOLS, Protocol::ALL.map(Protocol::name));
        assert_eq!(
            crate::PROTOCOLS,
            ["tamp", "tamp-rapid", "alltoall", "gossip", "swim"]
        );
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
        }
        assert_eq!(Protocol::parse("raft"), None);
    }
}
