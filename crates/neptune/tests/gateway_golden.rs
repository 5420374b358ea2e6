//! The gateway paths Fig. 14 never takes, pinned exactly: random
//! polling \[20\] over the replicas, the Fig. 1 fan-out to every
//! document partition, a replica lost mid-run (polls and requests
//! to it time out, the step retries on another replica) and then the
//! whole local document service lost (every partition fails over
//! through the proxies) until it comes back.
//!
//! The per-second completed / failed counts and latency sums of
//! DC-A's gateway are constants recorded from the gateway before its
//! routing moved into the shared router. A refactor that must keep
//! bytes and moves them is wrong, not the constants.

use tamp_neptune::search::{build, SearchOptions};
use tamp_neptune::LoadBalance;
use tamp_netsim::{Control, Nanos, SECS};

const SECONDS: u64 = 40;

/// `(completed, failed, latency sum ns)` per second, recorded.
const GOLDEN: [(u64, u64, Nanos); SECONDS as usize] = [
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (20, 0, 340276618),
    (20, 0, 340333278),
    (20, 0, 341112375),
    (20, 0, 339728250),
    (20, 0, 340683329),
    (19, 0, 884831793),
    (20, 0, 1188704667),
    (21, 0, 1008292424),
    (20, 0, 933552982),
    (19, 0, 983195548),
    (20, 0, 1001475675),
    (20, 0, 1139256367),
    (21, 0, 406135649),
    (20, 0, 339802200),
    (20, 0, 341699499),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (158, 0, 535205988532),
    (20, 0, 2149181333),
    (20, 0, 2149327332),
    (20, 0, 2149194108),
    (20, 0, 2149351043),
    (20, 0, 2148896199),
    (20, 0, 2148484367),
    (20, 0, 2146660206),
    (22, 0, 1098445255),
    (20, 0, 340235153),
    (20, 0, 340878358),
    (20, 0, 340799220),
    (20, 0, 340462580),
];
/// Queries issued and queries served through a proxy, whole run.
const ISSUED: u64 = 700;
const PROXIED: u64 = 306;

/// DC-A's gateway per second, plus its issued and proxied totals.
fn run() -> (Vec<(u64, u64, Nanos)>, u64, u64) {
    let opts = SearchOptions {
        lb: LoadBalance::PollTwo,
        doc_fanout: true,
        seed: 1618,
        ..Default::default()
    };
    let mut s = build(&opts);
    let docs = s.doc_providers[0].clone();
    s.engine.schedule(10 * SECS, Control::Kill(docs[0]));
    for &h in &docs[1..] {
        s.engine.schedule(20 * SECS, Control::Kill(h));
    }
    for &h in &docs {
        s.engine.schedule(32 * SECS, Control::Revive(h));
    }
    s.engine.start();
    s.engine.run_until(SECONDS * SECS);

    let t = s.timelines[0][0].lock();
    let rows = (0..SECONDS as usize)
        .map(|sec| {
            let c = t.window(sec, sec + 1);
            (c.completed, c.failed, c.lat.sum)
        })
        .collect();
    let total = t.total();
    (rows, t.issued(), total.proxied)
}

#[test]
fn poll_two_fanout_with_doc_kills_is_pinned() {
    let (rows, issued, proxied) = run();
    for (sec, (got, want)) in rows.iter().zip(GOLDEN).enumerate() {
        assert_eq!(*got, want, "second {sec}: (completed, failed, latency sum)");
    }
    assert_eq!((issued, proxied), (ISSUED, PROXIED));
}
