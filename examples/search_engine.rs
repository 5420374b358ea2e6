//! The paper's Fig. 1 prototype search engine, single data center:
//! gateways route queries through index and document partitions using
//! the membership yellow pages, with random-polling load balancing and
//! failure shielding.
//!
//! ```sh
//! cargo run --example search_engine
//! ```

use tamp::neptune::search::{build, SearchOptions};
use tamp::neptune::LoadBalance;
use tamp::prelude::*;

fn main() {
    let opts = SearchOptions {
        datacenters: 1,
        gateways_per_dc: 2,
        proxies_per_dc: 0,
        replicas: 3,
        arrival_period: 20 * MILLIS, // 50 qps per gateway
        lb: LoadBalance::PollTwo,    // the paper's random polling [20]
        ..Default::default()
    };
    let mut s = build(&opts);
    s.engine.start();
    s.engine.run_until(20 * SECS);

    println!("single-DC search engine: 2 gateways, 2 index partitions x3, 3 doc partitions x3");
    for (i, m) in s.timelines[0].iter().enumerate() {
        let m = m.lock();
        let tput = m.window(10, 20).completed as f64 / 10.0;
        let lat = m.window(10, 20).mean_latency().unwrap_or(0);
        println!(
            "gateway {i}: {:.1} queries/s, mean latency {:.1} ms, {} failed",
            tput,
            lat as f64 / 1e6,
            m.total().failed
        );
    }

    // Now kill one replica of doc partition 1; the gateways shield the
    // failure by retrying on the surviving replicas.
    let victim = s.doc_providers[0][3]; // partition 1, replica 0
    println!("\nkilling one doc replica ({victim}) at t=20s ...");
    s.engine.kill_now(victim);
    s.engine.run_until(40 * SECS);

    for (i, m) in s.timelines[0].iter().enumerate() {
        let m = m.lock();
        let tput = m.window(30, 40).completed as f64 / 10.0;
        let lat = m.window(30, 40).mean_latency().unwrap_or(0);
        println!(
            "gateway {i} after failure: {:.1} queries/s, mean latency {:.1} ms, {} failed total",
            tput,
            lat as f64 / 1e6,
            m.total().failed
        );
    }
    println!("\n(one replica of nine gone: throughput holds, latency barely moves)");
}
