//! Proxy-protocol integration tests: WAN summary exchange, multi-part
//! summaries, incremental updates, and VIP failover — straight on the
//! simulator, without the full search-engine stack.

use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Control, Engine, EngineConfig, SECS};
use tamp_proxy::{ProxyConfig, ProxyNode, RemoteView, VipTable, MAX_AVAIL_PER_PACKET};
use tamp_topology::{generators, HostId};
use tamp_wire::{DcId, NodeId, PartitionSet, ServiceDecl};

/// Two DCs × (2 proxies + `providers` service nodes each). Returns
/// engine plus the remote views of one proxy per DC.
fn two_dc_proxies(
    providers: usize,
    services_per_node: usize,
    seed: u64,
) -> (Engine, Vec<RemoteView>, VipTable, Vec<Vec<HostId>>) {
    let per_dc = 2 + providers;
    let (topo, dcs) = generators::multi_datacenter(
        &[(2, per_dc.div_ceil(2)), (2, per_dc.div_ceil(2))],
        45_000_000,
    );
    let mut engine = Engine::new(topo, EngineConfig::default(), seed);
    let vips = VipTable::new();
    let mut views = Vec::new();

    for (dc_idx, hosts) in dcs.iter().enumerate() {
        let dc = DcId(dc_idx as u16);
        let remote_dcs = vec![DcId(1 - dc_idx as u16)];
        let view = RemoteView::new();
        views.push(view.clone());
        let mut it = hosts.iter().copied();
        for i in 0..2 {
            let h = it.next().unwrap();
            if i == 0 {
                vips.set(dc, NodeId(h.0));
            }
            let p = ProxyNode::new(
                NodeId(h.0),
                ProxyConfig::new(dc, remote_dcs.clone(), MembershipConfig::default()),
                vips.clone(),
                view.clone(),
            );
            engine.add_actor(h, Box::new(p));
        }
        for j in 0..providers {
            let h = it.next().unwrap();
            let cfg = MembershipConfig {
                services: (0..services_per_node)
                    .map(|k| {
                        ServiceDecl::new(
                            format!("svc-{dc_idx}-{j}-{k}"),
                            PartitionSet::from_iter([k as u16]),
                        )
                    })
                    .collect(),
                ..Default::default()
            };
            let node = MembershipNode::new(NodeId(h.0), cfg);
            engine.add_actor(h, Box::new(node));
        }
    }
    engine.start();
    (engine, views, vips, dcs)
}

#[test]
fn summaries_cross_the_wan() {
    let (mut engine, views, _vips, _dcs) = two_dc_proxies(3, 1, 71);
    engine.run_until(30 * SECS);
    // DC 0's proxies know DC 1's services and vice versa.
    for (dc_idx, view) in views.iter().enumerate() {
        let other = DcId(1 - dc_idx as u16);
        let remote = view.get_dc(other).expect("no remote summary");
        assert_eq!(
            remote.len(),
            3,
            "dc{dc_idx} sees {} remote services",
            remote.len()
        );
        assert!(remote
            .iter()
            .all(|s| s.name.starts_with(&format!("svc-{}-", other.0))));
    }
}

#[test]
fn large_summaries_split_and_reassemble() {
    // 4 providers × 20 services = 80 ServiceAvail entries — beyond the
    // per-packet cap, so summaries ship in 2 parts.
    assert!((40..80).contains(&MAX_AVAIL_PER_PACKET));
    let (mut engine, views, _vips, _dcs) = two_dc_proxies(4, 20, 73);
    engine.run_until(40 * SECS);
    let remote = views[0].get_dc(DcId(1)).expect("no remote summary");
    assert_eq!(remote.len(), 80, "reassembled summary incomplete");
    // Multi-part summaries were actually sent.
    let (pkts, _) = engine.stats().sent_of_kind("proxy-summary");
    assert!(pkts > 0);
}

#[test]
fn service_death_propagates_incrementally() {
    let (mut engine, views, _vips, dcs) = two_dc_proxies(3, 1, 79);
    engine.run_until(30 * SECS);
    assert_eq!(views[0].get_dc(DcId(1)).unwrap().len(), 3);

    // Kill one DC-1 provider; DC-0's remote view must drop its service
    // well before the next full summary could be the only carrier.
    let victim = dcs[1][2]; // first provider of DC 1
    engine.schedule(30 * SECS, Control::Kill(victim));
    engine.run_until(45 * SECS);
    let remote = views[0].get_dc(DcId(1)).unwrap();
    assert_eq!(
        remote.len(),
        2,
        "dead provider's service still advertised remotely: {remote:?}"
    );
    // Incremental updates were used.
    let (upd_pkts, _) = engine.stats().sent_of_kind("proxy-update");
    assert!(upd_pkts > 0, "no incremental proxy updates observed");
}

#[test]
fn vip_failover_redirects_wan_traffic() {
    let (mut engine, views, vips, dcs) = two_dc_proxies(3, 1, 83);
    engine.run_until(30 * SECS);
    let dc0_leader = dcs[0][0];
    assert_eq!(vips.get(DcId(0)), Some(NodeId(dc0_leader.0)));

    engine.schedule(30 * SECS, Control::Kill(dc0_leader));
    engine.run_until(60 * SECS);
    // The second proxy took the VIP...
    assert_eq!(vips.get(DcId(0)), Some(NodeId(dcs[0][1].0)));
    // ...and keeps receiving DC-1's summaries: kill a DC-1 provider and
    // the (new) DC-0 leader still learns of it.
    engine.schedule(60 * SECS, Control::Kill(dcs[1][2]));
    engine.run_until(90 * SECS);
    assert_eq!(views[0].get_dc(DcId(1)).unwrap().len(), 2);
}

#[test]
fn three_datacenters_form_full_mesh() {
    // Three DCs, each exchanging with the other two; a service lost in
    // DC-0 is findable in whichever remote DC has more instances.
    let (topo, dcs) = generators::multi_datacenter(&[(2, 3), (2, 3), (2, 3)], 45_000_000);
    let mut engine = Engine::new(topo, EngineConfig::default(), 89);
    let vips = VipTable::new();
    let mut views = Vec::new();

    for (dc_idx, hosts) in dcs.iter().enumerate() {
        let dc = DcId(dc_idx as u16);
        let remote_dcs: Vec<DcId> = (0..3)
            .filter(|&d| d != dc_idx)
            .map(|d| DcId(d as u16))
            .collect();
        let view = RemoteView::new();
        views.push(view.clone());
        let mut it = hosts.iter().copied();
        for i in 0..2 {
            let h = it.next().unwrap();
            if i == 0 {
                vips.set(dc, NodeId(h.0));
            }
            let p = ProxyNode::new(
                NodeId(h.0),
                ProxyConfig::new(dc, remote_dcs.clone(), MembershipConfig::default()),
                vips.clone(),
                view.clone(),
            );
            engine.add_actor(h, Box::new(p));
        }
        // Providers: DC 1 runs 1 instance of "search", DC 2 runs 3.
        let instances = match dc_idx {
            1 => 1,
            2 => 3,
            _ => 0,
        };
        for j in 0..4 {
            let h = it.next().unwrap();
            let mut cfg = MembershipConfig::default();
            if j < instances {
                cfg.services = vec![ServiceDecl::new("search", PartitionSet::from_iter([0]))];
            }
            engine.add_actor(h, Box::new(MembershipNode::new(NodeId(h.0), cfg)));
        }
    }
    engine.start();
    engine.run_until(40 * SECS);

    // DC 0 sees "search" in both remote DCs, ranked by instance count:
    // DC 2 (3 instances) first.
    let ranked = views[0].find("search", 0);
    assert_eq!(ranked, vec![DcId(2), DcId(1)], "ranking {ranked:?}");
    // All three DCs know each other's summaries.
    for (i, v) in views.iter().enumerate() {
        for other in 0..3 {
            if other == i {
                continue;
            }
            assert!(
                v.get_dc(DcId(other as u16)).is_some(),
                "dc{i} missing dc{other}'s summary"
            );
        }
    }
}
