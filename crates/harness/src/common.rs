//! Shared cluster construction and measurement plumbing.

use tamp_chaos::{build_cluster, dsl, Cluster, Detection, Protocol, Schedule};
use tamp_membership::MembershipConfig;
use tamp_netsim::{
    Engine, EngineConfig, ObservationKind, ShardingKind, SimTime, TraceConfig, SECS,
};
use tamp_topology::{generators, HostId, Topology};
use tamp_wire::{NodeId, PartitionSet, ServiceDecl};

/// Row order of every `tamp-exp` table and CSV with a protocol column:
/// the paper's three first, then the two later ones. (`Protocol::ALL`
/// orders the same five for the chaos DSL and `benchmark/`.)
pub const FIGURE_ORDER: [Protocol; 5] = [
    Protocol::AllToAll,
    Protocol::Gossip,
    Protocol::Tamp,
    Protocol::Swim,
    Protocol::TampRapid,
];

/// The `scheme` column of the figure tables and CSVs, which keep the
/// paper's names for its three schemes.
pub fn figure_label(p: Protocol) -> &'static str {
    match p {
        Protocol::AllToAll => "all-to-all",
        Protocol::Gossip => "gossip",
        Protocol::Tamp => "hierarchical",
        Protocol::Swim => "swim",
        Protocol::TampRapid => "rapid",
    }
}

/// The paper's testbed topology family: layer-2 networks of
/// `seg_size` nodes behind one router core ("Each multicast channel
/// hosts 20 nodes … five networks for 100 nodes").
pub fn paper_topology(n: usize, seg_size: usize) -> Topology {
    let segs = n.div_ceil(seg_size);
    generators::star_of_segments(segs, n / segs)
}

fn demo_services(h: HostId) -> Vec<ServiceDecl> {
    vec![ServiceDecl::new(
        "svc",
        PartitionSet::from_iter([(h.0 % 4) as u16]),
    )]
}

/// What the figures measure: a cluster of `protocol` at default
/// tunables, each host exporting one partition of a demo service.
pub fn figure_cluster(
    protocol: Protocol,
    topo: Topology,
    seed: u64,
    engine_cfg: EngineConfig,
) -> Cluster {
    let membership = MembershipConfig::default();
    build_cluster(topo, engine_cfg, seed, protocol, &membership, demo_services)
}

/// How long clusters get to reach steady state before measurements.
pub const SETTLE: SimTime = 30 * SECS;

/// Resolve the `--shards` flag into a [`ShardingKind`]. `0`, `1` and an
/// absent flag all mean sequential (no worker shards), so scripts can
/// sweep `--shards 1,2,4,...` uniformly. The engine's output is
/// byte-identical either way — this is purely a wall-clock knob.
pub fn sharding_from(flag: Option<usize>) -> ShardingKind {
    match flag {
        Some(n) if n >= 2 => ShardingKind::Sharded(n),
        _ => ShardingKind::Sequential,
    }
}

/// The one scenario-file reader every `tamp-exp` subcommand shares
/// (`chaos`, `load`): parse the `.chaos` DSL file at `path`. Unreadable
/// files and parse errors follow the CLI contract — diagnostic on
/// stderr, exit 2.
pub fn read_scenario(path: &str) -> Schedule {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("tamp-exp: cannot read scenario {path}: {e}");
        std::process::exit(2);
    });
    dsl::parse(&text).unwrap_or_else(|e| {
        eprintln!("tamp-exp: {e}");
        std::process::exit(2);
    })
}

/// Trace configuration used whenever a subcommand wants the fault
/// timeline interleaved with control traffic.
pub fn chaos_trace_config() -> TraceConfig {
    TraceConfig {
        enabled: true,
        capacity: 200_000,
        kinds: vec!["update", "sync-req", "sync-resp", "election", "digest"],
        ..Default::default()
    }
}

/// Cluster-wide received traffic per second of a measurement window.
pub struct Traffic {
    pub bytes_per_s: f64,
    pub pkts_per_s: f64,
}

/// The bandwidth recipe of Fig. 11, A1, A3, A6 and A9: run to `settle`,
/// zero the traffic counters, run `window` longer, and report what the
/// whole cluster received per second of the window.
pub fn steady_traffic(engine: &mut Engine, settle: SimTime, window: SimTime) -> Traffic {
    engine.run_until(settle);
    engine.stats_mut().reset_traffic();
    engine.run_until(settle + window);
    let totals = engine.stats().totals();
    let secs = window as f64 / 1e9;
    Traffic {
        bytes_per_s: totals.recv_bytes as f64 / secs,
        pkts_per_s: totals.recv_pkts as f64 / secs,
    }
}

/// Kill the highest-id host — a plain member, never a leader under the
/// lowest-id-wins election — and wait `wait` for the survivors to notice.
pub fn kill_last(c: &mut Cluster, wait: SimTime) -> Detection {
    let last = HostId(c.clients.len() as u32 - 1);
    c.kill_and_measure(last, wait)
}

/// What [`churn_then_kill`] reads off one cluster.
pub struct ChurnProbe {
    /// Mean view accuracy over five samples at steady state (pre-kill).
    pub accuracy: f64,
    /// Removals recorded before anyone died — every one a false positive.
    pub false_removals: usize,
    /// Suspicions cancelled by proof of life before the kill
    /// (cluster-wide observation count).
    pub refutations: usize,
    pub probe: Detection,
}

/// The robustness recipe of A2, A7, A8 and A11: let the cluster run
/// under its loss model for 2 × [`SETTLE`], sample accuracy, count the
/// churn so far, then [`kill_last`] and wait `wait` for detection.
pub fn churn_then_kill(c: &mut Cluster, wait: SimTime) -> ChurnProbe {
    c.engine.run_until(2 * SETTLE);
    // Five instants 2 s apart: one can catch the cluster mid-heal and
    // under-read.
    let mut accuracy = 0.0;
    for _ in 0..5 {
        c.engine.run_for(2 * SECS);
        accuracy += view_accuracy(c);
    }
    // Nobody has died yet: every (observer, subject) removal so far is
    // a false positive.
    let stats = c.engine.stats();
    let false_removals = (0..c.clients.len() as u32)
        .map(|v| stats.removal_observers(NodeId(v)).len())
        .sum();
    let refutations = stats
        .observations()
        .iter()
        .filter(|o| matches!(o.kind, ObservationKind::Refuted(_)))
        .count();
    ChurnProbe {
        accuracy: accuracy / 5.0,
        false_removals,
        refutations,
        probe: kill_last(c, wait),
    }
}

/// Fraction of live nodes with a complete view — the *membership
/// accuracy* the paper's abstract claims.
pub fn view_accuracy(c: &Cluster) -> f64 {
    let alive: Vec<usize> = (0..c.clients.len())
        .filter(|&i| c.engine.is_alive(HostId(i as u32)))
        .collect();
    let expect = alive.len();
    let good = alive
        .iter()
        .filter(|&&i| c.clients[i].member_count() == expect)
        .count();
    good as f64 / expect.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_shapes() {
        let t = paper_topology(100, 20);
        assert_eq!(t.num_hosts(), 100);
        assert_eq!(t.num_segments(), 5);
        let t = paper_topology(20, 20);
        assert_eq!(t.num_segments(), 1);
    }

    #[test]
    fn all_five_schemes_converge_on_small_cluster() {
        for protocol in Protocol::ALL {
            let mut c =
                figure_cluster(protocol, paper_topology(20, 20), 9, EngineConfig::default());
            c.engine.run_until(SETTLE);
            let acc = view_accuracy(&c);
            if protocol == Protocol::Gossip {
                // "Its probabilistic property does not guarantee 100%
                // accuracy" (§2): an early false positive blacklists a
                // peer for 2×T_fail, so a node can still be catching up
                // at the settle point. It must heal soon after.
                if acc < 1.0 {
                    c.engine.run_for(SETTLE);
                    assert!(
                        view_accuracy(&c) >= 0.95,
                        "gossip accuracy {acc} never healed"
                    );
                }
            } else {
                assert_eq!(acc, 1.0, "{} did not converge", protocol.name());
            }
        }
    }
}
