//! Differential lock on the zero-copy wire path: the engine's two
//! delivery modes must be *indistinguishable* — not just "both correct".
//!
//! - `wire_codec: None` — the reference in-memory mode: actors receive
//!   the sender's `Message` value; only `encoded_len` runs per send.
//! - `Some(CodecKind::Borrowed)` — every packet is encoded once, when
//!   its first receiver reads it; deliveries parse a zero-copy
//!   `MessageView` and take the actors' borrowed fast paths (lazy record
//!   materialization, in-place digest iteration).
//!
//! Identical seeds must yield byte-identical event traces, final
//! per-node directory views, telemetry snapshots, and traffic totals,
//! at every size, with a mid-run crash and revival in the schedule.
//! Any divergence means the encoder and the views lose or misread a
//! byte, or a zero-copy fast path changed protocol behaviour. (That the
//! views read exactly what the owned decoder reads is locked frame by
//! frame in `crates/wire/tests/fuzz_codec.rs`.)
//!
//! Three columns take both paths: `MembershipNode` at every size; the
//! all-to-all baseline, whose owned and borrowed receive paths share
//! one heartbeat handler, at n = 20 and (on half the seeds: every host
//! hears every other, so a run costs three of `MembershipNode`'s) 60;
//! and the service plane — gateways, proxies and providers, each a role
//! hosted beside a `MembershipNode` — where a role's claimed packets
//! reach it owned and everything else reaches the daemon's borrowed
//! path.
//!
//! The runs execute in the debug profile, so every directory mutation
//! also re-checks the incremental anti-entropy digest against a full
//! rescan (a `debug_assert` in `tamp-directory`): the same sweep
//! doubles as the chaos-grade digest differential.

use tamp::baselines::{AllToAllConfig, AllToAllNode};
use tamp::directory::Provenance;
use tamp::neptune::search::{self, SearchOptions, DOC_PARTITIONS, INDEX_PARTITIONS};
use tamp::neptune::{GatewayConfig, GatewayNode, LoadBalance, Workflow};
use tamp::netsim::telemetry::snapshot_to_csv;
use tamp::netsim::{DropReason, ShardingKind, TraceConfig, TraceEvent, TraceLog, TraceRecord};
use tamp::prelude::*;
use tamp::wire::CodecKind;

/// One directory entry, flattened for comparison.
type ViewEntry = (u32, u64, String, u64);

/// Everything observable about a finished run.
struct Fingerprint {
    trace: Vec<String>,
    total_recorded: u64,
    views: Vec<Vec<ViewEntry>>,
    metrics_csv: String,
    totals: (u64, u64, u64, u64, u64),
}

const MODES: [Option<CodecKind>; 2] = [None, Some(CodecKind::Borrowed)];

/// The actor every host of a run gets; `Search` is the service plane,
/// a role beside a `MembershipNode` on every host ([`run_search`]).
#[derive(Debug, Clone, Copy)]
enum Protocol {
    Tamp,
    AllToAll,
    Search,
}

fn run_cluster(protocol: Protocol, n: usize, seed: u64, mode: Option<CodecKind>) -> Fingerprint {
    match protocol {
        Protocol::Search => run_search(n, seed, mode),
        _ => run_with(protocol, n, seed, mode, ShardingKind::Sequential, &[]).1,
    }
}

/// [`run_cluster`] on a chosen engine, with `faults` on top of the
/// schedule's own crash and revival; also hands back the engine, whose
/// trace a caller may want as records.
fn run_with(
    protocol: Protocol,
    n: usize,
    seed: u64,
    mode: Option<CodecKind>,
    sharding: ShardingKind,
    faults: &[(u64, Control)],
) -> (Engine, Fingerprint) {
    let segments = (n / 20).max(1);
    let topo = generators::star_of_segments(segments, n / segments);
    let mut engine = Engine::new(topo, engine_config(mode, sharding), seed);
    let mut clients = Vec::new();
    for h in engine.hosts() {
        let me = NodeId(h.0);
        let node: Box<dyn Actor> = match protocol {
            Protocol::Tamp => {
                let node = MembershipNode::new(me, MembershipConfig::default());
                clients.push(node.directory_client());
                Box::new(node)
            }
            Protocol::AllToAll => {
                let node = AllToAllNode::new(me, AllToAllConfig::default());
                clients.push(node.directory_client());
                Box::new(node)
            }
            Protocol::Search => unreachable!("the service plane is deployed by run_search"),
        };
        engine.add_actor(h, node);
    }
    // Crash the last host mid-run and revive it: exercises the rejoin
    // path (bootstrap exchanges, refutations) under every codec mode.
    let victim = HostId(n as u32 - 1);
    engine.schedule(12 * SECS, Control::Kill(victim));
    engine.schedule(15 * SECS, Control::Revive(victim));
    for &(at, fault) in faults {
        engine.schedule(at, fault);
    }
    engine.start();
    engine.run_until(18 * SECS);
    let fp = fingerprint(&engine, &clients);
    (engine, fp)
}

/// Every event traced, timers included, and telemetry on.
fn engine_config(mode: Option<CodecKind>, sharding: ShardingKind) -> EngineConfig {
    EngineConfig {
        trace: TraceConfig {
            capacity: 400_000,
            include_timers: true,
            ..TraceConfig::all()
        },
        metrics: true,
        wire_codec: mode,
        sharding,
        ..Default::default()
    }
}

/// What a finished run shows: its trace, the final views of `clients`,
/// its telemetry and its traffic totals.
fn fingerprint(engine: &Engine, clients: &[DirectoryClient]) -> Fingerprint {
    let views = clients
        .iter()
        .map(|c| {
            c.read(|d| {
                let mut v: Vec<ViewEntry> = d
                    .entries()
                    .map(|e| {
                        let prov = match e.provenance {
                            Provenance::Local => "local".to_string(),
                            p => format!("{p:?}"),
                        };
                        (e.node.0, e.incarnation, prov, e.last_refresh)
                    })
                    .collect();
                v.sort();
                v
            })
        })
        .collect();
    let t = engine.stats().totals();
    Fingerprint {
        trace: engine.trace_log().records().map(TraceLog::render).collect(),
        total_recorded: engine.trace_log().total_recorded(),
        views,
        metrics_csv: snapshot_to_csv(&engine.registry().snapshot()),
        totals: (
            t.sent_pkts,
            t.sent_bytes,
            t.recv_pkts,
            t.recv_bytes,
            t.dropped_pkts,
        ),
    }
}

/// The service plane: the two-DC search deployment (per DC a gateway,
/// two proxies, and three replicas of every index and doc partition),
/// each gateway fanning every query out to all doc partitions after
/// polling two replicas, with one doc provider killed long enough to be
/// removed and then revived. `views` holds the gateways' directories;
/// every other host's view shows in what it sends. The deployment is
/// `n` = 36 hosts.
fn run_search(n: usize, seed: u64, mode: Option<CodecKind>) -> Fingerprint {
    let opts = SearchOptions {
        seed,
        ..SearchOptions::default()
    };
    let tiers = [
        (INDEX_PARTITIONS, opts.index_time),
        (DOC_PARTITIONS, opts.doc_time),
    ];
    let engine = engine_config(mode, ShardingKind::Sequential);
    let mut gateways = Vec::new();
    let mut s = search::deploy(&opts, tiers, engine, |_, me, membership| {
        let cfg = GatewayConfig {
            lb: LoadBalance::PollTwo,
            ..GatewayConfig::new(
                membership.clone(),
                Workflow::search_engine(true),
                opts.arrival_period,
            )
        };
        let gw = GatewayNode::new(me, cfg);
        gateways.push(gw.directory_client());
        let (probe, timeline) = (gw.probe(), gw.role().timeline());
        (Box::new(gw), probe, timeline)
    });
    assert_eq!(s.engine.topology().num_hosts(), n);
    let victim = s.doc_providers[0][0];
    s.engine.schedule(5 * SECS, Control::Kill(victim));
    s.engine.schedule(12 * SECS, Control::Revive(victim));
    s.engine.start();
    s.engine.run_until(15 * SECS);
    let fp = fingerprint(&s.engine, &gateways);
    let served = |kind: &str| fp.trace.iter().any(|r| r.contains(kind));
    assert!(
        served("svc-resp") && served("proxy-summary"),
        "an idle plane"
    );
    assert_eq!(fp.total_recorded, fp.trace.len() as u64, "trace overflowed");
    fp
}

/// Run every (seed, mode) pair of `protocol` for one size across a
/// worker pool (width from `TAMP_JOBS`, default
/// `available_parallelism`; the runs are sealed deterministic worlds, so
/// any width yields the same fingerprints), then compare the wire mode
/// against the in-memory reference per seed in order.
fn assert_identical_all(protocol: Protocol, n: usize, seeds: impl Iterator<Item = u64>) {
    let pool = tamp::par::Pool::from_env();
    let seeds: Vec<u64> = seeds.collect();
    let fps = pool.ordered_map(seeds.len() * MODES.len(), |i| {
        run_cluster(protocol, n, seeds[i / MODES.len()], MODES[i % MODES.len()])
    });
    let mode = format!("{protocol:?} wire-borrowed");
    for (si, pair) in fps.chunks(MODES.len()).enumerate() {
        compare(n, seeds[si], &mode, &pair[0], &pair[1]);
    }
}

fn compare(n: usize, seed: u64, mode: &str, reference: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        reference.total_recorded, got.total_recorded,
        "n={n} seed={seed} {mode}: trace event counts diverge"
    );
    if reference.trace != got.trace {
        let i = reference
            .trace
            .iter()
            .zip(&got.trace)
            .position(|(a, b)| a != b)
            .unwrap_or(reference.trace.len().min(got.trace.len()));
        let lo = i.saturating_sub(2);
        let hi = (i + 3).min(reference.trace.len()).min(got.trace.len());
        panic!(
            "n={n} seed={seed} {mode}: traces diverge at record {i}\n  in-memory: {:#?}\n  {mode}: {:#?}",
            &reference.trace[lo..hi],
            &got.trace[lo..hi],
        );
    }
    for (host, (w, h)) in reference.views.iter().zip(&got.views).enumerate() {
        assert_eq!(
            w, h,
            "n={n} seed={seed} {mode}: host {host} final view diverges"
        );
    }
    assert_eq!(
        reference.metrics_csv, got.metrics_csv,
        "n={n} seed={seed} {mode}: telemetry snapshots diverge"
    );
    assert_eq!(
        reference.totals, got.totals,
        "n={n} seed={seed} {mode}: traffic totals diverge"
    );
}

const SEEDS: std::ops::Range<u64> = 2005..2015;

#[test]
fn codec_modes_indistinguishable_n20() {
    assert_identical_all(Protocol::Tamp, 20, SEEDS);
}

#[test]
fn codec_modes_indistinguishable_n60() {
    assert_identical_all(Protocol::Tamp, 60, SEEDS);
}

#[test]
fn codec_modes_indistinguishable_n100() {
    assert_identical_all(Protocol::Tamp, 100, SEEDS);
}

#[test]
fn alltoall_codec_modes_indistinguishable_n20() {
    assert_identical_all(Protocol::AllToAll, 20, SEEDS);
}

#[test]
fn alltoall_codec_modes_indistinguishable_n60() {
    assert_identical_all(Protocol::AllToAll, 60, SEEDS.take(5));
}

#[test]
fn search_plane_codec_modes_indistinguishable() {
    assert_identical_all(Protocol::Search, 36, SEEDS.take(4));
}

/// Shard and codec together: cross-shard sends travel as descriptors
/// that carry the message and no frame, and the shard that expands one
/// encodes it when a receiver of its own reads it. No other suite runs
/// the two-shard engine with a wire codec.
#[test]
fn sharded_borrowed_indistinguishable_from_in_memory_n60() {
    for seed in SEEDS.take(3) {
        let reference = run_cluster(Protocol::Tamp, 60, seed, None);
        let (engine, got) = run_with(
            Protocol::Tamp,
            60,
            seed,
            Some(CodecKind::Borrowed),
            ShardingKind::Sharded(2),
            &[],
        );
        assert_eq!(engine.effective_shards(), 2);
        compare(60, seed, "2-shard wire-borrowed", &reference, &got);
    }
}

/// A full-view unicast whose receiver dies and comes back while it is
/// in flight: the packet is dropped at its delivery instant (it was
/// addressed to the receiver's previous life), in wire modes without
/// ever having been encoded. The instant is found, not assumed: a
/// scouting run gives the first bootstrap transfer the revived victim
/// receives, and the faulted runs — identical up to the kill — take
/// the victim down and up again inside that packet's flight.
#[test]
fn full_view_unicast_in_flight_across_kill_and_revive() {
    let (n, seed) = (60, 2005);
    let victim = HostId(n as u32 - 1);
    let (scout, _) = run_with(Protocol::Tamp, n, seed, None, ShardingKind::Sequential, &[]);
    let records: Vec<_> = scout.trace_log().records().collect();
    let (landed, delivery) = records
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r.event {
            TraceEvent::Deliver {
                src,
                dst,
                kind: "dir-exchange",
                ..
            } if dst == victim && r.time > 15 * SECS => Some((i, (r.time, src))),
            _ => None,
        })
        .expect("the revived victim bootstraps from a directory exchange");
    let (arrives, sender) = delivery;
    let sent = records[..landed]
        .iter()
        .rev()
        .find_map(|r| match r.event {
            TraceEvent::Send {
                src,
                kind: "dir-exchange",
                ..
            } if src == sender => Some(r.time),
            _ => None,
        })
        .expect("a delivery has a send");
    let flight = arrives - sent;
    assert!(flight >= 3, "no room for two faults inside {flight} ns");
    let faults = [
        (sent + flight / 3, Control::Kill(victim)),
        (sent + 2 * flight / 3, Control::Revive(victim)),
    ];

    let run = |mode| {
        run_with(
            Protocol::Tamp,
            n,
            seed,
            mode,
            ShardingKind::Sequential,
            &faults,
        )
        .1
    };
    let reference = run(None);
    let dropped = TraceLog::render(&TraceRecord {
        time: arrives,
        event: TraceEvent::Drop {
            src: sender,
            dst: victim,
            channel: None,
            kind: "dir-exchange",
            reason: DropReason::DeadHost,
        },
    });
    assert!(
        reference.trace.contains(&dropped),
        "the in-flight transfer was not dropped at its delivery instant"
    );
    let got = run(Some(CodecKind::Borrowed));
    compare(n, seed, "wire-borrowed", &reference, &got);
}
