//! The micro loops of the traced run: one cost number per layer, each
//! taken by calling that layer's public API directly with frozen inputs.
//!
//! A loop is calibrated to a few milliseconds per round and reports the
//! median round, so one traced run spends about two seconds here. These
//! numbers have no bound; they exist so that a change to one layer can
//! point at the number it should move (README, "How the metrics
//! interact").

use crate::catalog::Size;
use crate::host::median;
use crate::workloads::a9;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};
use tamp_directory::{Directory, Provenance, SharedDirectory};
use tamp_load::ZipfSampler;
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::scheduler::{EventQueue, Scheduled};
use tamp_netsim::telemetry::Registry;
use tamp_netsim::{
    Actor, ChannelId, Context, Effect, Engine, EngineConfig, PacketMeta, SchedulerKind, SimTime,
    TraceConfig, MILLIS, SECS,
};
use tamp_par::Pool;
use tamp_regexlite::Regex;
use tamp_topology::sharding::plan_shards;
use tamp_topology::{HostId, Topology};
use tamp_wire::{
    codec, CodecKind, DigestEntry, DigestMsg, Heartbeat, MemberEvent, Message, MessageView, NodeId,
    NodeRecord, PartitionSet, RelayedRecord, SeqEvent, ServiceDecl, SyncResponse, UpdateMsg,
};

const ROUNDS: usize = 7;
const ROUND_TARGET: Duration = Duration::from_millis(4);

/// Median nanoseconds per call of `f`, over [`ROUNDS`] rounds sized so
/// that each lasts about [`ROUND_TARGET`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= ROUND_TARGET || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Every micro metric, as `(name, value)`. `size` picks the cluster the
/// topology and fan-out loops are built for (the `a9_*` cluster).
pub fn run(size: Size) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    let (topo, _) = a9::scale_topology(a9::nodes(size));
    put(
        "topology.plan_shards_ms",
        ns_per_call(|| {
            black_box(plan_shards(&topo, a9::SHARDS));
        }) / 1e6,
    );

    put(
        "netsim.sched_ns_per_event",
        ns_per_call(|| {
            black_box(scheduler_mix());
        }) / MIX_EVENTS as f64,
    );
    put(
        "netsim.fanout_ns_per_delivery",
        fanout_ns_per_delivery(&topo),
    );
    let (trace_pct, metrics_pct) = engine_overheads();
    put("netsim.trace_overhead_pct", trace_pct);
    put("netsim.metrics_overhead_pct", metrics_pct);

    let solo = solo_membership();
    put("membership.heartbeat_ns_per_packet", solo.owned_ns);
    put("membership.view_heartbeat_ns_per_packet", solo.view_ns);
    put("membership.tick_ns", solo.tick_ns);

    directory(&mut put);
    wire(&mut put);

    put(
        "regexlite.compile_ns",
        ns_per_call(|| {
            for p in ROUTER_PATTERNS {
                black_box(Regex::new(black_box(p)).expect("router pattern compiles"));
            }
        }) / ROUTER_PATTERNS.len() as f64,
    );
    let compiled: Vec<Regex> = ROUTER_PATTERNS
        .iter()
        .map(|p| Regex::new(p).expect("router pattern compiles"))
        .collect();
    put(
        "regexlite.match_ns",
        ns_per_call(|| {
            for re in &compiled {
                for name in ["index", "doc", "proxy"] {
                    black_box(re.matches_full(black_box(name)));
                }
            }
        }) / (compiled.len() * 3) as f64,
    );

    telemetry(&mut put);

    let pool = Pool::new(2);
    const JOBS: usize = 20_000;
    put(
        "par.ordered_scan_ns_per_job",
        ns_per_call(|| {
            let mut sum = 0usize;
            pool.ordered_scan(
                JOBS,
                |i| i,
                |_, v| {
                    sum += v;
                    ControlFlow::Continue(())
                },
            );
            black_box(sum);
        }) / JOBS as f64,
    );

    let zipf = ZipfSampler::new(12, 1.1);
    let mut rng = StdRng::seed_from_u64(2005);
    put(
        "load.zipf_ns_per_sample",
        ns_per_call(|| {
            black_box(zipf.sample(&mut rng));
        }),
    );

    out
}

/// The service and partition patterns the load router resolves with.
const ROUTER_PATTERNS: [&str; 3] = ["index", "doc", "[0-9]+"];

// ------------------------------------------------------------- netsim

const MIX_EVENTS: u64 = 100_000;

/// The scheduler stress mix of `crates/bench` on the default queue:
/// pushes across every wheel regime with windowed pops, then a drain.
fn scheduler_mix() -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new(SchedulerKind::default());
    let mut popped = 0u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut cursor = 0u64;
    for seq in 0..MIX_EVENTS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x;
        let dt = match r % 16 {
            0 => (r >> 22) & ((1 << 41) - 1),     // ~35 min
            1..=3 => (r >> 34) & ((1 << 30) - 1), // ~1 s
            4..=7 => (r >> 42) & ((1 << 22) - 1), // ~4 ms
            _ => r >> 50,                         // ~16 µs
        };
        q.push(Scheduled {
            time: cursor + dt,
            key: (r % 101) as u32,
            seq,
            payload: seq,
        });
        if seq % 64 == 63 {
            cursor += 2_000_000;
            while let Some(e) = q.pop_before(cursor) {
                popped += black_box(e.payload % 2) + 1;
            }
        }
    }
    while let Some(e) = q.pop_before(u64::MAX) {
        popped += black_box(e.payload % 2) + 1;
    }
    popped
}

/// The paper's 228 B heartbeat, as sent by `from`.
fn heartbeat(from: u32, seq: u64, cfg: &MembershipConfig) -> Heartbeat {
    Heartbeat {
        from: NodeId(from),
        level: 0,
        seq,
        is_leader: false,
        backup: None,
        latest_update_seq: 0,
        record: MembershipNode::new(NodeId(from), cfg.clone()).boot_record(),
    }
}

/// A protocol-free actor: multicasts one heartbeat per second into its
/// leaf segment and ignores what it hears. What is left is scheduler,
/// fan-out, arena and stats.
struct Beacon {
    msg: Message,
}

const BEACON_CHANNEL: ChannelId = ChannelId(0);

impl Actor for Beacon {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.subscribe(BEACON_CHANNEL);
        let phase = ctx.jitter(500 * MILLIS);
        ctx.set_timer(phase + SECS, 0);
    }
    fn on_packet(&mut self, _ctx: &mut Context, _meta: PacketMeta, _msg: &Message) {}
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        ctx.send_multicast(BEACON_CHANNEL, 1, self.msg.clone());
        ctx.set_timer(SECS, 0);
    }
}

/// Wall nanoseconds and deliveries of `sim` simulated seconds of beacons.
fn beacon_run(topo: &Topology, cfg: EngineConfig, sim: SimTime) -> (f64, u64) {
    let mcfg = MembershipConfig::default();
    let mut engine = Engine::new(topo.clone(), cfg, 2005);
    for h in engine.hosts() {
        let msg = Message::Heartbeat(heartbeat(h.0, 1, &mcfg));
        engine.add_actor(h, Box::new(Beacon { msg }));
    }
    engine.start();
    let t = Instant::now();
    engine.run_until(sim);
    (
        t.elapsed().as_nanos() as f64,
        engine.stats().totals().recv_pkts,
    )
}

fn fanout_ns_per_delivery(topo: &Topology) -> f64 {
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let (ns, deliveries) = beacon_run(topo, EngineConfig::default(), 4 * SECS);
            ns / deliveries as f64
        })
        .collect();
    median(&rounds)
}

/// Extra run time of the beacon engine with event tracing on, and with
/// the telemetry registry on, in percent of the plain run.
fn engine_overheads() -> (f64, f64) {
    let (topo, _) = a9::scale_topology(1000);
    let plain = EngineConfig::default;
    let traced = || EngineConfig {
        trace: TraceConfig {
            enabled: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let metered = || EngineConfig {
        metrics: true,
        ..Default::default()
    };
    let (mut base, mut trace, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        base.push(beacon_run(&topo, plain(), 4 * SECS).0);
        trace.push(beacon_run(&topo, traced(), 4 * SECS).0);
        metrics.push(beacon_run(&topo, metered(), 4 * SECS).0);
    }
    let base = median(&base);
    (
        100.0 * (median(&trace) / base - 1.0),
        100.0 * (median(&metrics) / base - 1.0),
    )
}

// --------------------------------------------------------- membership

struct SoloCosts {
    owned_ns: f64,
    view_ns: f64,
    tick_ns: f64,
}

/// One node of a 21-member leaf group driven by hand for `SECONDS`
/// simulated seconds: each second its 20 peers' heartbeats arrive (as
/// messages, or as frames through the borrowed view), then every timer
/// it armed for that second fires. Effects are drained after each call;
/// only `SetTimer` is acted on.
struct Solo {
    node: MembershipNode,
    rng: StdRng,
    effects: Vec<Effect>,
    /// `(due, arming order, token)`, earliest first.
    timers: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>,
    armed: u64,
}

const SOLO_PEERS: u32 = 20;
const SOLO_SECONDS: u64 = 600;
const ME: HostId = HostId(0);

impl Solo {
    fn call(&mut self, now: SimTime, f: impl FnOnce(&mut MembershipNode, &mut Context)) {
        let mut ctx = Context::new(now, ME, &mut self.rng, &mut self.effects);
        f(&mut self.node, &mut ctx);
        for e in self.effects.drain(..) {
            if let Effect::SetTimer { delay, token } = e {
                self.armed += 1;
                self.timers
                    .push(std::cmp::Reverse((now + delay, self.armed, token)));
            }
        }
    }

    /// Returns (ns per received heartbeat, ns per timer firing).
    fn drive(cfg: &MembershipConfig, codec: Option<CodecKind>) -> (f64, f64) {
        let mut solo = Solo {
            node: MembershipNode::new(NodeId(ME.0), cfg.clone()),
            rng: StdRng::seed_from_u64(2005),
            effects: Vec::new(),
            timers: BinaryHeap::new(),
            armed: 0,
        };
        solo.call(0, |n, ctx| n.on_start(ctx));
        let mut peers: Vec<Heartbeat> = (1..=SOLO_PEERS).map(|i| heartbeat(i, 0, cfg)).collect();
        let (mut packet_ns, mut packets) = (0u128, 0u64);
        let (mut timer_ns, mut firings) = (0u128, 0u64);
        for second in 1..=SOLO_SECONDS {
            let now = second * SECS;
            for hb in &mut peers {
                hb.seq = second;
            }
            let meta =
                |hb: &Heartbeat| PacketMeta::multicast(HostId(hb.from.0), BEACON_CHANNEL, 1, 256);
            match codec {
                None => {
                    let msgs: Vec<Message> =
                        peers.iter().cloned().map(Message::Heartbeat).collect();
                    let t = Instant::now();
                    for (hb, msg) in peers.iter().zip(&msgs) {
                        solo.call(now, |n, ctx| n.on_packet(ctx, meta(hb), msg));
                    }
                    packet_ns += t.elapsed().as_nanos();
                }
                Some(kind) => {
                    let frames: Vec<Vec<u8>> = peers
                        .iter()
                        .map(|hb| codec::encode(&Message::Heartbeat(hb.clone())))
                        .collect();
                    let t = Instant::now();
                    for (hb, frame) in peers.iter().zip(&frames) {
                        solo.call(now, |n, ctx| n.on_wire_packet(ctx, meta(hb), frame, kind));
                    }
                    packet_ns += t.elapsed().as_nanos();
                }
            }
            packets += u64::from(SOLO_PEERS);

            let t = Instant::now();
            while let Some(&std::cmp::Reverse((due, _, token))) = solo.timers.peek() {
                if due > now + SECS {
                    break;
                }
                solo.timers.pop();
                solo.call(due, |n, ctx| n.on_timer(ctx, token));
                firings += 1;
            }
            timer_ns += t.elapsed().as_nanos();
        }
        let members = solo.node.directory_client().member_count();
        assert_eq!(
            members,
            SOLO_PEERS as usize + 1,
            "the hand-driven node lost its peers"
        );
        (
            packet_ns as f64 / packets as f64,
            timer_ns as f64 / firings as f64,
        )
    }
}

fn solo_membership() -> SoloCosts {
    // The a9 configuration: what the steady-state receive path runs.
    let cfg = a9::scale_config();
    let (owned_ns, tick_ns) = Solo::drive(&cfg, None);
    let (view_ns, _) = Solo::drive(&cfg, Some(CodecKind::Borrowed));
    SoloCosts {
        owned_ns,
        view_ns,
        tick_ns,
    }
}

// ---------------------------------------------------------- directory

const DIRECTORY_NODES: u32 = 1024;
const CHURN_BATCH: u32 = 256;

fn service_record(i: u32, incarnation: u64) -> NodeRecord {
    NodeRecord::new(NodeId(i), incarnation).with_service(ServiceDecl::new(
        format!("svc{}", i % 10),
        PartitionSet::from_iter([(i % 8) as u16]),
    ))
}

fn directory(put: &mut impl FnMut(&str, f64)) {
    let mut base = Directory::new();
    let records: Vec<NodeRecord> = (0..DIRECTORY_NODES).map(|i| service_record(i, 1)).collect();
    for r in &records {
        base.apply_join(r.clone(), Provenance::Direct, 0);
    }

    // Same-incarnation join: the heartbeat refresh, read-mostly.
    let mut d = base.clone();
    let mut now = 0u64;
    put(
        "directory.refresh_ns_per_op",
        ns_per_call(|| {
            now += 1;
            for r in &records {
                black_box(d.apply_join(r.clone(), Provenance::Direct, now));
            }
        }) / f64::from(DIRECTORY_NODES),
    );

    // Writes: a batch of new members joins, then leaves. Each round
    // starts from a fresh copy, so tombstones do not pile up.
    let newcomers: Vec<NodeRecord> = (DIRECTORY_NODES..DIRECTORY_NODES + CHURN_BATCH)
        .map(|i| service_record(i, 1))
        .collect();
    let (mut join_ns, mut leave_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS * 8 {
        let mut d = base.clone();
        let t = Instant::now();
        for r in &newcomers {
            black_box(d.apply_join(r.clone(), Provenance::Relayed(NodeId(0)), 1));
        }
        join_ns.push(t.elapsed().as_nanos() as f64 / f64::from(CHURN_BATCH));
        let t = Instant::now();
        for r in &newcomers {
            black_box(d.apply_leave(r.node, r.incarnation, 2));
        }
        leave_ns.push(t.elapsed().as_nanos() as f64 / f64::from(CHURN_BATCH));
        assert_eq!(d.len(), DIRECTORY_NODES as usize);
    }
    put("directory.join_ns_per_op", median(&join_ns));
    put("directory.leave_ns_per_op", median(&leave_ns));

    // The sweep's scan when nothing is due.
    let mut d = base.clone();
    put(
        "directory.expire_ns_per_scan",
        ns_per_call(|| {
            let (removed, next) = d.expire_with_next(SECS, |_| 5 * SECS);
            assert!(removed.is_empty());
            black_box(next);
        }),
    );
    put(
        "directory.digest_ns_per_tick",
        ns_per_call(|| {
            black_box(base.digest().to_vec());
        }),
    );

    // The request router's lookup on a view the size of the load
    // scenario's datacenter (48 hosts: index and doc replicas, proxies).
    let shared = SharedDirectory::new();
    shared.update(|d| {
        for i in 0..48u32 {
            let (service, partitions) = if i < 8 { ("index", 4) } else { ("doc", 12) };
            let rec = NodeRecord::new(NodeId(i), 1).with_service(ServiceDecl::new(
                service,
                PartitionSet::from_iter([(i % partitions) as u16]),
            ));
            d.apply_join(rec, Provenance::Direct, 0);
        }
        (true, ())
    });
    let client = shared.client();
    let mut partition = 0u16;
    put(
        "directory.resolve_ns_per_op",
        ns_per_call(|| {
            partition = (partition + 1) % 12;
            let found = client.resolve("doc", partition);
            assert!(!found.is_empty());
            black_box(found);
        }),
    );

    // Warm start clones one template per node; this is that template.
    let (topo, _) = a9::scale_topology(a9::nodes(Size::Full));
    let template = a9::warm_templates(&topo).0.swap_remove(0);
    put(
        "directory.clone_ns_per_entry",
        ns_per_call(|| {
            black_box(template.clone());
        }) / template.len() as f64,
    );
}

// --------------------------------------------------------------- wire

/// The receive-path frame corpus: the three message shapes that make up
/// steady-state traffic, at realistic sizes (frozen here; the same
/// shapes as `tamp_bench::codec_corpus`).
pub fn corpus() -> Vec<Message> {
    let mut rec = NodeRecord::new(NodeId(7), 3).with_service(ServiceDecl::new(
        "index",
        PartitionSet::from_iter([0, 1, 2]),
    ));
    rec.pad_to_encoded_size(228);
    vec![
        Message::Heartbeat(Heartbeat {
            from: NodeId(7),
            level: 0,
            seq: 42,
            is_leader: true,
            backup: Some(NodeId(9)),
            latest_update_seq: 17,
            record: rec,
        }),
        Message::Digest(DigestMsg {
            from: NodeId(3),
            level: 1,
            entries: (0..128)
                .map(|i| DigestEntry {
                    node: NodeId(i),
                    incarnation: 1 + u64::from(i % 5),
                })
                .collect(),
        }),
        Message::Update(UpdateMsg {
            origin: NodeId(11),
            events: (0..4)
                .map(|i| SeqEvent {
                    seq: 30 + i,
                    event: match i % 2 {
                        0 => MemberEvent::Join(NodeRecord::new(NodeId(40 + i as u32), 2)),
                        _ => MemberEvent::Leave(NodeId(40 + i as u32), 2),
                    },
                })
                .collect(),
        }),
    ]
}

/// A full-view answer for a 980-node cluster: what boot traffic is made of.
pub fn sync_frame() -> Message {
    let cfg = MembershipConfig::default();
    Message::SyncResponse(SyncResponse {
        from: NodeId(0),
        latest_seq: 980,
        records: (0..980)
            .map(|i| RelayedRecord {
                record: MembershipNode::new(NodeId(i), cfg.clone()).boot_record(),
                relayed_by: (i % 20 != 0).then_some(NodeId(i - i % 20)),
            })
            .collect(),
    })
}

/// Owned decode and borrowed view of every corpus frame must describe
/// the same message. Returns what disagrees, in words.
pub fn corpus_disagreements() -> Vec<String> {
    let mut wrong = Vec::new();
    for msg in corpus().into_iter().chain([sync_frame()]) {
        let frame = codec::encode(&msg);
        let kind = msg.kind();
        if frame.len() != codec::encoded_len(&msg) {
            wrong.push(format!("{kind}: encoded_len disagrees with encode"));
        }
        match (codec::decode(&frame), MessageView::parse(&frame)) {
            (Ok(owned), Ok(view)) => {
                if owned != msg || view.to_owned() != msg {
                    wrong.push(format!("{kind}: owned decode and view differ"));
                }
            }
            _ => wrong.push(format!("{kind}: frame does not decode")),
        }
    }
    wrong
}

fn wire(put: &mut impl FnMut(&str, f64)) {
    let msgs = corpus();
    let frames: Vec<Vec<u8>> = msgs.iter().map(codec::encode).collect();
    let per_frame = msgs.len() as f64;
    put(
        "wire.encode_ns_per_frame",
        ns_per_call(|| {
            for m in &msgs {
                black_box(codec::encode(black_box(m)));
            }
        }) / per_frame,
    );
    put(
        "wire.encoded_len_ns",
        ns_per_call(|| {
            for m in &msgs {
                black_box(codec::encoded_len(black_box(m)));
            }
        }) / per_frame,
    );
    put(
        "wire.decode_ns_per_frame",
        ns_per_call(|| {
            for f in &frames {
                black_box(codec::decode(black_box(f)).expect("corpus frame decodes"));
            }
        }) / per_frame,
    );
    // Parse plus the field reads a membership actor does.
    put(
        "wire.view_parse_ns_per_frame",
        ns_per_call(|| {
            let mut sum = 0u64;
            for f in &frames {
                let v = MessageView::parse(black_box(f)).expect("corpus frame parses");
                if let Some(hb) = v.as_heartbeat() {
                    sum = sum.wrapping_add(hb.record.incarnation + hb.latest_update_seq);
                } else if let Some(d) = v.as_digest() {
                    for e in d.entries() {
                        sum = sum.wrapping_add(e.incarnation);
                    }
                } else {
                    sum = sum.wrapping_add(v.kind().len() as u64);
                }
            }
            black_box(sum);
        }) / per_frame,
    );
    let sync = codec::encode(&sync_frame());
    put(
        "wire.sync_frame_view_ns",
        ns_per_call(|| {
            let v = MessageView::parse(black_box(&sync)).expect("sync frame parses");
            black_box(v.to_owned());
        }),
    );
}

// ---------------------------------------------------------- telemetry

fn telemetry(put: &mut impl FnMut(&str, f64)) {
    let registry = Registry::new();
    let counter = registry.counter(0, "bench", "counter");
    put(
        "telemetry.counter_ns_per_op",
        ns_per_call(|| {
            for _ in 0..64 {
                black_box(&counter).inc();
            }
        }) / 64.0,
    );
    let histogram = registry.histogram(0, "bench", "histogram");
    let mut v = 1u64;
    put(
        "telemetry.histogram_ns_per_op",
        ns_per_call(|| {
            for _ in 0..64 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                black_box(&histogram).record(v >> 40);
            }
        }) / 64.0,
    );
    // A registry the size the load scenario's engine keeps: 114 hosts.
    for node in 0..114 {
        for i in 0..24 {
            registry
                .counter(node, "net", format!("c{i}"))
                .add(u64::from(node) + 1);
        }
        registry.histogram(node, "net", "h").record(u64::from(node));
    }
    put(
        "telemetry.snapshot_ms",
        ns_per_call(|| {
            black_box(registry.snapshot());
        }) / 1e6,
    );
}
