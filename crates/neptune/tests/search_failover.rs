//! The Fig. 14 experiment in miniature: a two-datacenter search engine
//! where the document-retrieval service of data center A fails and
//! recovers, with the membership proxies keeping the service available.

use tamp_neptune::search::{build, SearchOptions};
use tamp_netsim::{Control, MILLIS, SECS};

#[test]
fn search_engine_serves_queries_locally() {
    let mut s = build(&SearchOptions::default());
    s.engine.start();
    s.engine.run_until(30 * SECS);
    let m = s.timelines[0][0].lock();
    let tput = m.window(20, 30).completed;
    // 20 qps arrival → ~200 completions in 10 s.
    assert!(
        (150..=220).contains(&tput),
        "throughput {tput} not near arrival rate; failed={} issued={}",
        m.total().failed,
        m.issued()
    );
    let lat = m.window(20, 30).mean_latency().unwrap();
    // Index (5 ms) + doc (10 ms) + LAN hops: well under 50 ms.
    assert!(
        lat < 50 * MILLIS,
        "local latency {} ms too high",
        lat / MILLIS
    );
    // Warmup latches as soon as *some* instance of each service appears;
    // a first query racing partial convergence can legitimately detour
    // through the proxies, so allow a stray one or two.
    assert!(
        m.total().proxied <= 2,
        "steady state should stay local, remote_served={}",
        m.total().proxied
    );
}

#[test]
fn doc_failure_fails_over_to_remote_dc_and_recovers() {
    let mut s = build(&SearchOptions::default());
    s.engine.start();

    // Fail all DC-0 document providers at t=20 s; revive at t=40 s
    // (the paper's schedule).
    for &h in &s.doc_providers[0].clone() {
        s.engine.schedule(20 * SECS, Control::Kill(h));
        s.engine.schedule(40 * SECS, Control::Revive(h));
    }
    s.engine.run_until(60 * SECS);

    let m = s.timelines[0][0].lock();

    // Steady state before the failure: low latency.
    let lat_before = m.window(10, 20).mean_latency().unwrap();
    assert!(lat_before < 50 * MILLIS, "{} ms", lat_before / MILLIS);

    // During the failover window (after detection settles): the service
    // is still available — throughput matches arrivals — but latency
    // reflects the WAN round trip (paper: "goes above 200 ms" with a
    // 90 ms RTT; here ≥ 90 ms one-way×2 plus service time).
    let tput_failover = m.window(30, 40).completed;
    assert!(
        tput_failover >= 150,
        "service unavailable during failover: {tput_failover} in 10s, failed={}",
        m.total().failed
    );
    let lat_failover = m.window(30, 40).mean_latency().unwrap();
    assert!(
        lat_failover > 90 * MILLIS,
        "failover latency {} ms does not include the WAN",
        lat_failover / MILLIS
    );
    assert!(
        m.total().proxied > 100,
        "remote_served {}",
        m.total().proxied
    );

    // After recovery: latency returns to local levels ("the response
    // time quickly drops since all the requests are again serviced
    // locally").
    let lat_after = m.window(50, 60).mean_latency().unwrap();
    assert!(
        lat_after < 50 * MILLIS,
        "post-recovery latency {} ms",
        lat_after / MILLIS
    );

    // The throughput dip is confined to the detection window
    // (~max_loss × period after the kill): across the whole run, failures
    // are a small fraction of issued queries.
    let failed = m.total().failed as f64;
    let issued = m.issued() as f64;
    assert!(
        failed / issued < 0.10,
        "too many failed queries: {failed}/{issued}"
    );
}

#[test]
fn proxy_leader_failover_keeps_wan_path_alive() {
    let mut s = build(&SearchOptions::default());
    s.engine.start();

    // Kill DC-0's docs so traffic must go remote, then also kill DC-0's
    // proxy *leader*: the second proxy takes over the VIP.
    for &h in &s.doc_providers[0].clone() {
        s.engine.schedule(15 * SECS, Control::Kill(h));
    }
    let leader = s.proxies[0][0];
    s.engine.schedule(30 * SECS, Control::Kill(leader));
    s.engine.run_until(60 * SECS);

    let m = s.timelines[0][0].lock();
    // Well after the proxy failover settles, queries still complete.
    let tput_late = m.window(50, 60).completed;
    assert!(
        tput_late >= 120,
        "throughput collapsed after proxy leader death: {tput_late}"
    );
    // And the VIP moved to the surviving proxy.
    assert_eq!(
        s.vips.get(tamp_wire::DcId(0)),
        Some(tamp_wire::NodeId(s.proxies[0][1].0))
    );
}

#[test]
fn poll_two_load_balancing_works_end_to_end() {
    use tamp_neptune::search::{build, SearchOptions};
    use tamp_neptune::LoadBalance;
    let opts = SearchOptions {
        datacenters: 1,
        proxies_per_dc: 0,
        lb: LoadBalance::PollTwo,
        seed: 4242,
        ..Default::default()
    };
    let mut s = build(&opts);
    s.engine.start();
    s.engine.run_until(25 * SECS);
    let m = s.timelines[0][0].lock();
    let tput = m.window(15, 25).completed;
    assert!(
        (150..=220).contains(&tput),
        "PollTwo throughput {tput}; failed={}",
        m.total().failed
    );
    // Poll probes add one short RTT before dispatch; latency stays low.
    let lat = m.window(15, 25).mean_latency().unwrap();
    assert!(lat < 60 * MILLIS, "PollTwo latency {} ms", lat / MILLIS);
}

#[test]
fn single_replica_saturation_queues_requests() {
    // With 1 replica per partition and service time close to the
    // arrival spacing, queueing shows up in the latency (the FIFO
    // provider model at work).
    use tamp_neptune::search::{build, SearchOptions};
    let opts = SearchOptions {
        datacenters: 1,
        proxies_per_dc: 0,
        replicas: 1,
        arrival_period: 25 * MILLIS, // 40 qps over 2 index partitions
        index_time: 20 * MILLIS,     // ~40% utilization per instance...
        doc_time: 30 * MILLIS,       // doc: 40/3 qps x 30ms = 40% each
        seed: 77,
        ..Default::default()
    };
    let mut s = build(&opts);
    s.engine.start();
    s.engine.run_until(30 * SECS);
    let m = s.timelines[0][0].lock();
    let lat = m.window(20, 30).mean_latency().unwrap();
    // Base service time is 50 ms; queueing pushes the mean above it.
    assert!(
        lat > 50 * MILLIS,
        "expected queueing delay above base 50 ms, got {} ms",
        lat / MILLIS
    );
    // But the system is stable (not saturated): arrivals are served.
    let tput = m.window(20, 30).completed;
    assert!(tput >= 350, "unstable under load: {tput}/10s at 40 qps");
}

#[test]
fn doc_fanout_queries_all_partitions_and_fails_over() {
    // The paper's exact Fig. 1 flow: every query hits one index
    // partition then ALL document partitions in parallel. Latency is
    // the max of the three doc sub-requests, and a whole-service
    // failure still fails over through the proxies per partition.
    use tamp_neptune::search::{build, SearchOptions};
    let opts = SearchOptions {
        doc_fanout: true,
        seed: 31337,
        ..Default::default()
    };
    let mut s = build(&opts);
    for &h in &s.doc_providers[0].clone() {
        s.engine.schedule(20 * SECS, Control::Kill(h));
    }
    s.engine.start();
    s.engine.run_until(40 * SECS);
    let m = s.timelines[0][0].lock();

    // Local steady state: still fast (parallel fan-out ≈ max of three
    // 10 ms services).
    let lat_before = m.window(10, 20).mean_latency().unwrap();
    assert!(lat_before < 60 * MILLIS, "{} ms", lat_before / MILLIS);

    // Failed over: all three doc partitions go remote in parallel —
    // latency is one WAN round trip, not three.
    let lat_failover = m.window(30, 40).mean_latency().unwrap();
    assert!(
        (90 * MILLIS..250 * MILLIS).contains(&lat_failover),
        "failover latency {} ms",
        lat_failover / MILLIS
    );
    let tput = m.window(30, 40).completed;
    assert!(tput >= 150, "fan-out failover throughput {tput}");
}
