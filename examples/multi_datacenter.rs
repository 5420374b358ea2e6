//! Two data centers with membership proxies (paper §3.2 / Fig. 14): the
//! document service of DC-A fails, queries transparently fail over to
//! DC-B across the WAN, and recover when the service returns.
//!
//! ```sh
//! cargo run --example multi_datacenter
//! ```

use tamp::neptune::search::{build, SearchOptions};
use tamp::prelude::*;
use tamp::wire::DcId;

fn main() {
    let opts = SearchOptions::default(); // 2 DCs, 45 ms one-way WAN
    let mut s = build(&opts);

    // Schedule the paper's timeline: doc service of DC 0 fails at 20 s,
    // recovers at 40 s.
    for &h in &s.doc_providers[0].clone() {
        s.engine.schedule(20 * SECS, Control::Kill(h));
        s.engine.schedule(40 * SECS, Control::Revive(h));
    }
    s.engine.start();

    println!("second  throughput/s  response_ms   (DC-A gateway)");
    let mut last_done = 0;
    for sec in 1..=60u64 {
        s.engine.run_until(sec * SECS);
        let m = s.timelines[0][0].lock();
        let cell = m.window(sec as usize - 1, sec as usize);
        let tput = cell.completed;
        let lat = cell
            .mean_latency()
            .map(|l| format!("{:.1}", l as f64 / 1e6))
            .unwrap_or_else(|| "-".into());
        let marker = match sec {
            20 => "  <- doc service in DC-A fails",
            40 => "  <- doc service recovers",
            _ => "",
        };
        if sec % 2 == 0 || !marker.is_empty() {
            println!("{sec:>6}  {tput:>12}  {lat:>11}{marker}");
        }
        last_done = m.total().completed;
    }

    let m = s.timelines[0][0].lock();
    println!(
        "\ntotals: {} issued, {} completed, {} failed, {} served remotely",
        m.issued(),
        last_done,
        m.total().failed,
        m.total().proxied
    );
    println!(
        "proxy VIP of DC-A is held by {}",
        s.vips
            .get(DcId(0))
            .map(|n| n.to_string())
            .unwrap_or_default()
    );
}
