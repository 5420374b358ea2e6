//! The prototype search-engine deployment of paper Figs. 1 and 14: two
//! (or more) data centers hosting consumers, partitioned + replicated
//! index and document services, and membership proxies.
//!
//! [`deploy`] wires any consumer into that plane; [`build`] is the
//! paper's deployment, with protocol gateways as the consumers (the
//! load generators of tamp-load are the other kind). This module is
//! scenario *construction* only — it wires actors into a simulator
//! engine; the harness and examples drive it.

use crate::gateway::{GatewayConfig, GatewayNode, Workflow};
use crate::provider::{ProviderConfig, ProviderNode};
use crate::router::LoadBalance;
use crate::timeline::TimelineHandle;
use tamp_membership::{MembershipConfig, Probe};
use tamp_netsim::telemetry::Registry;
use tamp_netsim::{Actor, Engine, EngineConfig, Nanos, MILLIS};
use tamp_proxy::{ProxyConfig, ProxyNode, RemoteView, VipTable};
use tamp_topology::{generators, HostId};
use tamp_wire::{DcId, NodeId, PartitionSet, ServiceDecl};

/// Knobs for the search-engine scenario. [`deploy`] reads the shape
/// and the seed; the service times, arrival period, balancing and
/// fan-out are the gateways' and [`build`]'s.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Number of data centers (the paper uses 2: "east coast" / "west
    /// coast").
    pub datacenters: usize,
    /// Replicas per partition per DC (paper: 3).
    pub replicas: usize,
    /// Consumers (gateways in [`build`]) per DC.
    pub gateways_per_dc: usize,
    /// Proxies per DC (paper: "multiple membership proxies for each data
    /// center to improve availability").
    pub proxies_per_dc: usize,
    /// Open-loop query inter-arrival per gateway (0 = none).
    pub arrival_period: Nanos,
    /// Index / doc service times.
    pub index_time: Nanos,
    pub doc_time: Nanos,
    pub lb: LoadBalance,
    /// Query all document partitions per search (the paper's Fig. 1
    /// flow) instead of a random one.
    pub doc_fanout: bool,
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            datacenters: 2,
            replicas: 3,
            gateways_per_dc: 1,
            proxies_per_dc: 2,
            arrival_period: 50 * MILLIS,
            index_time: 5 * MILLIS,
            doc_time: 10 * MILLIS,
            lb: LoadBalance::Random,
            doc_fanout: false,
            seed: 2005,
        }
    }
}

/// A wired-up deployment: the engine plus handles for driving and
/// measuring it.
pub struct SearchScenario {
    pub engine: Engine,
    /// Leader-vote probes per host, in host order (`None` for a slot no
    /// role took) — the shape `tamp_chaos::apply_schedule` expects.
    pub probes: Vec<Option<Probe>>,
    /// Each consumer's per-second request record, per DC.
    pub timelines: Vec<Vec<TimelineHandle>>,
    /// Proxy hosts per DC; the first held the VIP at start.
    pub proxies: Vec<Vec<HostId>>,
    /// Doc-service hosts per DC (what Fig. 14 kills).
    pub doc_providers: Vec<Vec<HostId>>,
    pub vips: VipTable,
}

/// One-way WAN latency between adjacent DCs (paper: ~90 ms RTT).
pub const WAN_ONE_WAY: Nanos = 45 * MILLIS;

/// Index partitions in the prototype (paper Fig. 1: two).
pub const INDEX_PARTITIONS: u16 = 2;
/// Document partitions (paper Fig. 1: three).
pub const DOC_PARTITIONS: u16 = 3;

/// Build the paper's scenario: protocol gateways as the consumers. Call
/// `engine.start()` yourself (after any extra actors), then run.
pub fn build(opts: &SearchOptions) -> SearchScenario {
    let workflow = Workflow::search_engine(opts.doc_fanout);
    let tiers = [
        (INDEX_PARTITIONS, opts.index_time),
        (DOC_PARTITIONS, opts.doc_time),
    ];
    deploy(opts, tiers, EngineConfig::default(), |_, me, membership| {
        let cfg = GatewayConfig {
            lb: opts.lb,
            ..GatewayConfig::new(membership.clone(), workflow.clone(), opts.arrival_period)
        };
        let gw = GatewayNode::new(me, cfg);
        let (probe, timeline) = (gw.probe(), gw.role().timeline());
        (Box::new(gw), probe, timeline)
    })
}

/// What a consumer factory makes for one host: the actor, its
/// membership probe and the request record it writes.
pub type Consumer = (Box<dyn Actor>, Probe, TimelineHandle);

/// Wire a deployment into an engine built from `engine`. Per DC, in host
/// order: `opts.gateways_per_dc` consumers made by `consumer` (given the
/// engine's registry, the host's node id and the pinned membership
/// configuration), `opts.proxies_per_dc` proxies (the first seeds the
/// DC's virtual IP), then `opts.replicas` providers of every index
/// partition and of every doc partition. `tiers` is the `(partitions,
/// service time)` of the index and the doc service. Call
/// `engine.start()` yourself, then run.
pub fn deploy(
    opts: &SearchOptions,
    tiers: [(u16, Nanos); 2],
    engine: EngineConfig,
    mut consumer: impl FnMut(&Registry, NodeId, &MembershipConfig) -> Consumer,
) -> SearchScenario {
    let partitions: usize = tiers.iter().map(|&(p, _)| p as usize).sum();
    let per_dc = opts.gateways_per_dc + opts.proxies_per_dc + partitions * opts.replicas;
    let dcs = vec![(2, per_dc.div_ceil(2)); opts.datacenters];
    let (topo, dc_hosts) = generators::multi_datacenter(&dcs, WAN_ONE_WAY);
    let mut probes = vec![None; topo.num_hosts()];
    let mut engine = Engine::new(topo, engine, opts.seed);
    let registry = engine.registry().clone();
    let mut wire = |h: HostId, actor: Box<dyn Actor>, probe: Probe| {
        probes[h.index()] = Some(probe);
        engine.add_actor(h, actor);
    };

    // Figs. 1/14 reproduce the paper's failover timeline: a kill becomes
    // a removal after exactly max_loss × period. The suspicion and
    // quarantine extensions add their settling windows on top, so they
    // are pinned off here (docs/ROBUSTNESS.md covers the trade-off).
    let membership = MembershipConfig {
        suspicion_window: 0,
        quarantine_window: 0,
        ..MembershipConfig::default()
    };
    let vips = VipTable::new();
    let mut timelines = vec![Vec::new(); opts.datacenters];
    let mut proxies = vec![Vec::new(); opts.datacenters];
    let mut doc_providers = vec![Vec::new(); opts.datacenters];

    for (dc_idx, hosts) in dc_hosts.iter().enumerate() {
        let dc = DcId(dc_idx as u16);
        let remote_dcs: Vec<DcId> = (0..opts.datacenters)
            .filter(|&d| d != dc_idx)
            .map(|d| DcId(d as u16))
            .collect();
        let mut it = hosts.iter().copied();

        for h in it.by_ref().take(opts.gateways_per_dc) {
            let (actor, probe, timeline) = consumer(&registry, NodeId(h.0), &membership);
            timelines[dc_idx].push(timeline);
            wire(h, actor, probe);
        }

        // Proxies (the first one seeds the DC's virtual IP).
        let remote_view = RemoteView::new();
        for (i, h) in it.by_ref().take(opts.proxies_per_dc).enumerate() {
            if i == 0 {
                vips.set(dc, NodeId(h.0));
            }
            let p = ProxyNode::new(
                NodeId(h.0),
                ProxyConfig::new(dc, remote_dcs.clone(), membership.clone()),
                vips.clone(),
                remote_view.clone(),
            );
            proxies[dc_idx].push(h);
            let probe = p.probe();
            wire(h, Box::new(p), probe);
        }

        // Index then doc providers, `replicas` instances per partition.
        for (service, (partitions, time)) in ["index", "doc"].into_iter().zip(tiers) {
            for part in 0..partitions {
                for h in it.by_ref().take(opts.replicas) {
                    let services = vec![ServiceDecl::new(service, PartitionSet::from_iter([part]))];
                    let m = MembershipConfig {
                        services,
                        ..membership.clone()
                    };
                    let p = ProviderNode::new(NodeId(h.0), ProviderConfig::new(m, time));
                    if service == "doc" {
                        doc_providers[dc_idx].push(h);
                    }
                    let probe = p.probe();
                    wire(h, Box::new(p), probe);
                }
            }
        }
    }

    SearchScenario {
        engine,
        probes,
        timelines,
        proxies,
        doc_providers,
        vips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_wires_expected_counts() {
        let s = build(&SearchOptions::default());
        for dc in 0..2 {
            assert_eq!(s.timelines[dc].len(), 1);
            assert_eq!(s.proxies[dc].len(), 2);
            assert_eq!(s.doc_providers[dc].len(), 9);
        }
        // VIPs seeded with each DC's first proxy.
        assert_eq!(s.vips.get(DcId(0)), Some(NodeId(s.proxies[0][0].0)));
        assert_eq!(s.vips.get(DcId(1)), Some(NodeId(s.proxies[1][0].0)));
        // One actor per wired host: a gateway, two proxies, 2 × 3 index
        // and 3 × 3 doc providers per DC (the odd-sized DCs leave one
        // segment slot empty).
        assert_eq!(s.probes.iter().flatten().count(), 2 * (1 + 2 + 6 + 9));
    }
}
