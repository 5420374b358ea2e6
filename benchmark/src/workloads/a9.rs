//! `a9_steady` / `a9_shards`: the A9 scale measurement (warm-started
//! tree cluster, 10 s steady-state bandwidth window, worst-case kill of
//! one leaf member, 12 s of removal propagation) on the sequential and
//! on the two-shard engine.
//!
//! The recipe is `tamp_harness::scale::measure_with_sharding`, redone
//! over the public `Engine` / `MembershipNode` / `Directory` calls so
//! that set-up and run are timed apart and each step gets its own span.

use super::{Ctx, Digest};
use crate::catalog::Size;
use crate::host;
use std::collections::BTreeSet;
use tamp_analysis::{hierarchical, ModelParams};
use tamp_directory::{Directory, Provenance};
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Control, Engine, EngineConfig, ShardingKind, SimTime, MILLIS, SECS};
use tamp_topology::{generators, HostId, SegmentId, Topology};
use tamp_wire::NodeId;

/// Shards asked for by `a9_shards` (the host has two cores).
pub const SHARDS: usize = 2;

/// 228 B heartbeat plus the simulator's 28 B UDP/IP header model.
const WIRE_RECORD_BYTES: f64 = 256.0;

/// Simulated seconds of settling, of the bandwidth window, and of
/// removal propagation after the kill. `Bench` halves the recipe (the
/// cluster is in steady state from 3 s on, detection takes 5 s), so that
/// a run's budget holds enough repetitions for a steady median.
fn recipe(size: Size) -> (SimTime, SimTime, SimTime) {
    match size {
        Size::Bench => (4 * SECS, 5 * SECS, 6 * SECS),
        Size::Smoke | Size::Full => (8 * SECS, 10 * SECS, 12 * SECS),
    }
}

/// Threads the sharded engine's pool gets. Two, one per shard — except
/// at `Bench` size, where both shards run on the calling thread: with
/// workers every epoch (one per 140 µs of simulated time) is a channel
/// round trip between three threads on two virtual cores, so the wall
/// time is the host's wake-up latency (3.7× the sequential engine and
/// moving by a third between quiet and busy minutes of a shared host),
/// and no bound on a run-to-run comparison can hold. The one-workload
/// form still measures the threaded engine once, for the shard ratios of
/// its traced run (`ledger::run`).
pub fn shard_jobs(size: Size) -> usize {
    match size {
        Size::Bench => 1,
        Size::Smoke | Size::Full => SHARDS,
    }
}

/// Requested cluster size; the topology grid rounds it (980 / 3920 /
/// 10164 hosts).
pub fn nodes(size: Size) -> usize {
    match size {
        Size::Smoke => 1000,
        Size::Bench => 4000,
        Size::Full => 10000,
    }
}

/// Depth-2 router tree of ~20-host leaf segments for ≈`nodes` hosts;
/// returns the topology and the hosts per leaf.
pub fn scale_topology(nodes: usize) -> (Topology, usize) {
    let fanout = ((nodes as f64 / 20.0).sqrt().round() as usize).max(1);
    let leaves = fanout * fanout;
    let hosts_per_leaf = ((nodes as f64 / leaves as f64).round() as usize).max(2);
    (
        generators::tree_of_segments(2, fanout, hosts_per_leaf),
        hosts_per_leaf,
    )
}

/// Paper-mode protocol: immediate removal, no anti-entropy, warm start.
pub fn scale_config() -> MembershipConfig {
    MembershipConfig {
        warm_start: true,
        suspicion_window: 0,
        quarantine_window: 0,
        anti_entropy_period: 0,
        ..Default::default()
    }
}

/// One warm-start directory per segment: the segment's own members
/// heard directly, every leaf leader and the victim relayed by the
/// segment's leader. Returns the templates and each host's segment.
pub fn warm_templates(topo: &Topology) -> (Vec<Directory>, Vec<u16>) {
    let n = topo.num_hosts();
    let segments = topo.num_segments();
    let seg_of: Vec<u16> = topo.hosts().map(|h| topo.segment_of(h).0).collect();
    let leader_of: Vec<NodeId> = (0..segments)
        .map(|s| {
            let lowest = topo.hosts_on(SegmentId(s as u16)).iter().map(|h| h.0).min();
            NodeId(lowest.expect("empty segment"))
        })
        .collect();
    let boot: Vec<_> = (0..n)
        .map(|i| MembershipNode::new(NodeId(i as u32), scale_config()).boot_record())
        .collect();
    let victim = n - 1;
    let extras: BTreeSet<usize> = leader_of
        .iter()
        .map(|l| l.0 as usize)
        .chain([victim])
        .collect();
    let mut hosts_in: Vec<Vec<usize>> = vec![Vec::new(); segments];
    for (i, &s) in seg_of.iter().enumerate() {
        hosts_in[s as usize].push(i);
    }
    let templates = leader_of
        .iter()
        .enumerate()
        .map(|(seg, &my_leader)| {
            let mut template = Directory::new();
            let relevant: BTreeSet<usize> =
                hosts_in[seg].iter().chain(extras.iter()).copied().collect();
            for i in relevant {
                let prov = if seg_of[i] as usize == seg {
                    Provenance::Direct
                } else {
                    Provenance::Relayed(my_leader)
                };
                template.apply_join(boot[i].clone(), prov, 0);
            }
            template
        })
        .collect();
    (templates, seg_of)
}

/// A built, started cluster, ready to run.
pub struct State {
    engine: Engine,
    sharded: bool,
    group_size: usize,
    rss_per_entry: f64,
}

pub fn setup(ctx: &mut Ctx, sharded: bool) -> State {
    let tr = &mut ctx.tracer;
    let sp = tr.enter("topology.build");
    let (topo, group_size) = scale_topology(nodes(ctx.size));
    tr.exit(sp);
    let n = topo.num_hosts();

    let sp = tr.enter("setup.templates");
    let (templates, seg_of) = warm_templates(&topo);
    tr.exit(sp);

    let mut members: Vec<MembershipNode> = (0..n)
        .map(|i| MembershipNode::new(NodeId(i as u32), scale_config()))
        .collect();
    let rss_before = host::rss_bytes();
    let sp = tr.enter("setup.preload");
    let mut entries = 0usize;
    for (i, m) in members.iter_mut().enumerate() {
        let template = &templates[seg_of[i] as usize];
        m.preload_directory(template);
        entries += template.len();
    }
    tr.exit(sp);
    let rss_per_entry = host::rss_bytes().saturating_sub(rss_before) as f64 / entries as f64;

    let sp = tr.enter("setup.engine_build");
    let cfg = EngineConfig {
        sharding: if sharded {
            ShardingKind::Sharded(SHARDS)
        } else {
            ShardingKind::Sequential
        },
        shard_jobs: sharded.then_some(ctx.shard_jobs.unwrap_or_else(|| shard_jobs(ctx.size))),
        ..Default::default()
    };
    let mut engine = Engine::new(topo, cfg, ctx.seed);
    for (i, m) in members.into_iter().enumerate() {
        engine.add_actor(HostId(i as u32), Box::new(m));
    }
    engine.start();
    tr.exit(sp);
    State {
        engine,
        sharded,
        group_size,
        rss_per_entry,
    }
}

pub fn measure(ctx: &mut Ctx, state: State) {
    let State {
        mut engine,
        sharded,
        group_size,
        rss_per_entry,
    } = state;
    let workload = if sharded { "a9_shards" } else { "a9_steady" };
    let n = engine.hosts().len();
    let (settle, window, after_kill) = recipe(ctx.size);

    // ---------------------------------------------------- timed region
    let tr = &mut ctx.tracer;
    let run = tr.enter("netsim.run");
    let sp = tr.enter("run.settle");
    engine.run_until(settle);
    tr.exit(sp);
    let settle_totals = engine.stats().totals();
    engine.stats_mut().reset_traffic();
    let sp = tr.enter("run.window");
    engine.run_until(settle + window);
    tr.exit(sp);
    let window_totals = engine.stats().totals();

    // Kill the highest id (never a leader under lowest-id-wins) right
    // after it heartbeats: the model's worst-case k·T alignment.
    let victim = HostId(n as u32 - 1);
    let sp = tr.enter("run.align_kill");
    let base = engine.stats().host(victim).sent_pkts;
    while engine.stats().host(victim).sent_pkts == base {
        engine.run_for(10 * MILLIS);
    }
    tr.exit(sp);
    let kill_at = engine.now();
    engine.schedule(kill_at, Control::Kill(victim));
    // The victim beats once a second, so the kill falls within a second
    // of the window's end. Ending at a fixed time (not `kill_at + …`)
    // keeps the simulated length, and so the work, the same for every
    // seed.
    let end = settle + window + SECS + after_kill;
    assert!(kill_at <= settle + window + SECS, "kill alignment overran");
    let sp = tr.enter("run.after_kill");
    engine.run_until(end);
    tr.exit(sp);
    tr.exit(run);
    ctx.stop_timed();

    // --------------------------------------------------------- outputs
    let totals = engine.stats().totals();
    let deliveries = settle_totals.recv_pkts + totals.recv_pkts;
    let recv_bytes = settle_totals.recv_bytes + totals.recv_bytes;
    let sim_seconds = engine.now() as f64 / 1e9;
    let subject = NodeId(victim.0);
    // −1 stands for "never observed"; the observer check below fails then.
    let since_kill = |t: Option<SimTime>| t.map_or(-1.0, |t| (t - kill_at) as f64 / 1e9);
    let detect_s = since_kill(engine.stats().first_removal(subject));
    let converge_s = since_kill(engine.stats().last_removal(subject));
    let observers = engine
        .stats()
        .removal_observers(subject)
        .into_iter()
        .filter(|&h| h != victim)
        .count();

    let model = hierarchical(&ModelParams {
        n,
        record_bytes: WIRE_RECORD_BYTES,
        group_size,
        ..Default::default()
    });
    let window_bytes_per_s = window_totals.recv_bytes as f64 / (window as f64 / 1e9);
    let bw_ratio = window_bytes_per_s / model.bandwidth_bytes_per_s;
    let detect_ratio = detect_s / model.detection_s;

    let expected = (n - 1) as u64;
    let missing = expected - observers as u64;
    ctx.check(missing == 0, || {
        format!("{workload}: {observers}/{expected} survivors observed the victim's removal")
    });
    ctx.check((0.85..=1.15).contains(&bw_ratio), || {
        format!("{workload}: bandwidth {bw_ratio:.3}x the §4 model, outside the 15% envelope")
    });
    ctx.check((0.85..=1.15).contains(&detect_ratio), || {
        format!("{workload}: detection {detect_ratio:.3}x the §4 model, outside the 15% envelope")
    });
    let shards = engine.effective_shards();
    let want_shards = if sharded { SHARDS } else { 1 };
    ctx.check(shards == want_shards, || {
        format!("{workload}: engine runs {shards} shards, expected {want_shards}")
    });

    let mut digest = Digest::default();
    digest.engine(&engine);
    digest.word(kill_at);

    let wall_s = ctx.out().wall_s;
    ctx.layer(
        format!("netsim.run_ns_per_delivery.{workload}"),
        wall_s * 1e9 / deliveries as f64,
    );
    ctx.layer("directory.rss_bytes_per_entry", rss_per_entry);
    if sharded {
        ctx.layer("netsim.effective_shards", shards as f64);
        if let Some(l) = engine.lookahead() {
            ctx.layer("netsim.lookahead_us", l as f64 / 1e3);
        }
    }

    let out = ctx.out();
    out.deliveries = deliveries;
    out.attempted = expected;
    out.failed = missing;
    out.digest = digest.value();
    out.exact = vec![
        (
            "failed_ops_pct".into(),
            100.0 * missing as f64 / expected as f64,
        ),
        (
            "sim_bytes_per_node_s".into(),
            recv_bytes as f64 / (n as f64 * sim_seconds),
        ),
        ("sim_detect_s".into(), detect_s),
        ("sim_converge_s".into(), converge_s),
        ("sim_model_err_pct".into(), 100.0 * (bw_ratio - 1.0).abs()),
    ];
}
