//! The whole application stack — membership, proxies, providers,
//! gateways — over real UDP sockets: a two-"datacenter" search engine
//! on loopback, with a service failure forcing cross-DC failover.
//!
//! (Loopback has no WAN latency, so this validates *behavior* — queries
//! keep completing and are served remotely after the local service dies
//! — not the Fig. 14 latency numbers, which are the simulator's job.)

use std::time::{Duration, Instant};
use tamp_membership::MembershipConfig;
use tamp_neptune::{GatewayConfig, GatewayNode, ProviderConfig, ProviderNode, Workflow};
use tamp_proxy::{ProxyConfig, ProxyNode, RemoteView, VipTable};
use tamp_runtime::Runtime;
use tamp_topology::generators;
use tamp_wire::{DcId, NodeId, PartitionSet, ServiceDecl};

/// Millisecond-scale protocol settings so the test runs in seconds.
fn quick_membership() -> MembershipConfig {
    MembershipConfig {
        heartbeat_period: 60_000_000, // 60 ms
        max_loss: 3,
        startup_jitter: 20_000_000,
        listen_period: 200_000_000,
        election_timeout: 80_000_000,
        backup_grace: 80_000_000,
        sweep_period: 20_000_000,
        anti_entropy_period: 500_000_000,
        tombstone_ttl: 1_500_000_000,
        ..Default::default()
    }
}

#[test]
fn two_dc_search_engine_over_live_udp() {
    // Per DC: 1 gateway, 1 proxy, 2 doc providers (1 partition).
    let (topo, dcs) = generators::multi_datacenter(&[(1, 4), (1, 4)], 1_000_000);
    let mut rt = Runtime::new(topo);
    let vips = VipTable::new();
    let mut timelines = Vec::new();
    let mut dc0_doc_hosts = Vec::new();

    for (dc_idx, hosts) in dcs.iter().enumerate() {
        let dc = DcId(dc_idx as u16);
        let remote = vec![DcId(1 - dc_idx as u16)];
        let view = RemoteView::new();
        let mut it = hosts.iter().copied();

        // Gateway (50 qps, single-step workflow on "doc" partition 0).
        let gw_host = it.next().unwrap();
        let workflow = Workflow {
            steps: vec![tamp_neptune::Step::new("doc", 1)],
        };
        let mut gw_cfg = GatewayConfig::new(quick_membership(), workflow, 20_000_000);
        gw_cfg.route.request_timeout = 100_000_000;
        gw_cfg.route.proxy_timeout = 400_000_000;
        let gw = GatewayNode::new(NodeId(gw_host.0), gw_cfg);
        timelines.push(gw.role().timeline());
        rt.add_node(gw_host, Box::new(gw));

        // Proxy (holds the VIP).
        let proxy_host = it.next().unwrap();
        vips.set(dc, NodeId(proxy_host.0));
        let mut p_cfg = ProxyConfig::new(dc, remote, quick_membership());
        p_cfg.heartbeat_period = 100_000_000;
        p_cfg.max_loss = 3;
        p_cfg.change_check_period = 50_000_000;
        let proxy = ProxyNode::new(NodeId(proxy_host.0), p_cfg, vips.clone(), view);
        rt.add_node(proxy_host, Box::new(proxy));

        // Doc providers.
        for _ in 0..2 {
            let h = it.next().unwrap();
            let mut m = quick_membership();
            m.services = vec![ServiceDecl::new("doc", PartitionSet::from_iter([0]))];
            let p = ProviderNode::new(NodeId(h.0), ProviderConfig::new(m, 2_000_000));
            if dc_idx == 0 {
                dc0_doc_hosts.push(h);
            }
            rt.add_node(h, Box::new(p));
        }
    }
    rt.start();

    // Phase 1: local service.
    let total = || timelines[0].lock().total();
    let deadline = Instant::now() + Duration::from_secs(25);
    loop {
        if total().completed >= 50 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gateway never completed queries locally: {} done, {} failed",
            total().completed,
            total().failed
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let remote_before = total().proxied;

    // Phase 2: kill DC-0's doc providers; queries must fail over through
    // the proxies to DC 1 — over real sockets.
    for &h in &dc0_doc_hosts {
        rt.stop_node(h);
    }
    let base = total().completed;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let t = total();
        let (done, remote) = (t.completed, t.proxied);
        if done >= base + 30 && remote > remote_before + 10 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no cross-DC failover over UDP: done {done} (base {base}), remote {remote}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    rt.shutdown();
}
