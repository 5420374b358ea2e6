//! The fan-out lock: what a multicast's receivers see — and when, and in
//! what order relative to everything else — is pinned to constants that
//! were recorded from the engine that pushed one `Deliver` event per
//! receiver at send time (commit `5fa54bd`, before the event queue held
//! one entry per packet in flight). `differential_shard.rs` and
//! `tests/differential_codec.rs` compare engines that share one fan-out;
//! only recorded constants can tell a lazy fan-out from the eager one it
//! replaced.
//!
//! Every scenario runs sequentially and at `Sharded(2)`; the two
//! fingerprints (full trace, per-host stats, the per-second series
//! rebuilt from the trace, observations, telemetry) must be equal to
//! each other and hash to the recorded value. The scenarios aim at the
//! places a lazily re-queued delivery could go wrong:
//!
//! * default jitter — receivers of one packet spread over 200 µs, other
//!   packets' deliveries and timers landing in between;
//! * zero jitter with lock-step senders — every same-segment delivery of
//!   a round due at one instant, ordered by `(key, seq)` alone;
//! * send-time loss — a packet's receiver list has holes (its constant
//!   is younger than the others: it was recorded when the scenario lost
//!   a per-link loss window, by an engine that still passed the old
//!   constant);
//! * a partition raised while packets are in flight;
//! * a receiver killed and revived between two deliveries of one
//!   multicast — its own delivery must drop as `DeadHost` by the life
//!   count recorded at send time, and later receivers must still get
//!   theirs;
//! * a router taken down a few µs after a burst and brought back while
//!   its deliveries are pending, on a ring of segments where the router
//!   re-routes instead of cutting — every delivery must arrive when the
//!   send rolled it, on the routes of the send instant (its constant is
//!   younger too: recorded from commit `9a261c0`, whose arena still kept
//!   each waiting receiver's time).
//!
//! The last test is the count the change was made for: a flood of 1 000
//! multicasts to 20 listeners peaks at 1 001 queue entries, not 20 000
//! (`Engine::queue_peak`).

mod common;

use common::fingerprint;
use tamp_netsim::{
    Actor, ChannelId, Context, Control, DropReason, Engine, EngineConfig, LossModel, PacketMeta,
    ShardingKind, SimTime, TraceConfig, TraceEvent, TraceRecord, MILLIS, SECS,
};
use tamp_topology::{generators, HostId, SegmentId, Topology};
use tamp_wire::{Message, NodeId, SyncRequest, SyncResponse};

const PERIOD: SimTime = 500 * MILLIS;
const HORIZON: SimTime = 4 * SECS;

/// Multicasts `burst` TTL-2 beacons back to back every half second,
/// unicasts a reply to every fourth beacon it hears, and reports
/// observations and telemetry, so every output of the engine carries
/// data. `lockstep` senders all fire at the same instants; otherwise the
/// cadence is jittered through the per-host RNG.
struct Flooder {
    burst: u64,
    lockstep: bool,
    seq: u64,
    heard: u64,
}

impl Flooder {
    fn arm(&self, ctx: &mut Context) {
        let j = if self.lockstep {
            0
        } else {
            ctx.jitter(20 * MILLIS)
        };
        ctx.set_timer(PERIOD + j, 0);
    }
}

impl Actor for Flooder {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.subscribe(ChannelId(0));
        self.arm(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        match msg {
            Message::SyncRequest(rq) => {
                self.heard += 1;
                ctx.count("golden", "beacons", 1);
                if self.heard.is_multiple_of(4) {
                    ctx.send_unicast(
                        NodeId(meta.src.0),
                        Message::SyncResponse(SyncResponse {
                            from: ctx.node_id(),
                            latest_seq: rq.since_seq,
                            records: Vec::new(),
                        }),
                    );
                }
            }
            Message::SyncResponse(rs) => {
                ctx.record("golden", "ack_seq", rs.latest_seq);
                if self.heard.is_multiple_of(3) {
                    ctx.observe_added(rs.from);
                } else if self.heard.is_multiple_of(5) {
                    ctx.observe_suspected(rs.from);
                }
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        for _ in 0..self.burst {
            self.seq += 1;
            ctx.send_multicast(
                ChannelId(0),
                2,
                Message::SyncRequest(SyncRequest {
                    from: ctx.node_id(),
                    since_seq: self.seq,
                }),
            );
        }
        self.arm(ctx);
    }
}

/// One scripted run: engine settings, actor shape, and the controls to
/// schedule before the run starts.
#[derive(Clone)]
struct Scenario {
    name: &'static str,
    topo: fn() -> Topology,
    jitter: SimTime,
    loss: f64,
    burst: u64,
    lockstep: bool,
    script: Vec<(SimTime, Control)>,
}

impl Scenario {
    fn new(name: &'static str) -> Self {
        Scenario {
            name,
            topo: || generators::star_of_segments(3, 4),
            jitter: EngineConfig::default().latency_jitter,
            loss: 0.0,
            burst: 3,
            lockstep: false,
            script: Vec::new(),
        }
    }
}

const SEED: u64 = 2005;

fn run(sc: &Scenario, sharding: ShardingKind) -> Engine {
    let cfg = EngineConfig {
        latency_jitter: sc.jitter,
        loss: LossModel { rate: sc.loss },
        trace: TraceConfig::all(),
        metrics: true,
        sharding,
        shard_jobs: Some(2),
        ..Default::default()
    };
    let mut eng = Engine::new((sc.topo)(), cfg, SEED);
    for h in eng.hosts() {
        eng.add_actor(
            h,
            Box::new(Flooder {
                burst: sc.burst,
                lockstep: sc.lockstep,
                seq: 0,
                heard: 0,
            }),
        );
    }
    eng.start();
    for &(t, c) in &sc.script {
        eng.schedule(t, c);
    }
    // Two calls, so a public API boundary (a full drain when sharded)
    // falls inside the traffic too.
    eng.run_until(HORIZON / 2 + 7);
    eng.run_until(HORIZON);
    eng
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `sc` sequentially and on two shards, require equal fingerprints
/// and the recorded hash; hand back the sequential run's trace for
/// scenario-specific checks.
fn check(sc: &Scenario, golden: u64) -> Vec<TraceRecord> {
    let reference = run(sc, ShardingKind::Sequential);
    let want = fingerprint(&reference);
    let sharded = run(sc, ShardingKind::Sharded(2));
    assert_eq!(sharded.effective_shards(), 2, "{}: plan collapsed", sc.name);
    assert!(
        fingerprint(&sharded) == want,
        "{}: Sharded(2) diverges from sequential",
        sc.name
    );
    let got = fnv1a(&want);
    assert!(
        got == golden,
        "{}: fingerprint hash {got:#018x}, recorded {golden:#018x} \
         ({} trace records, {} bytes)",
        sc.name,
        reference.trace_log().total_recorded(),
        want.len()
    );
    let trace = reference.trace_log().records().cloned().collect();
    trace
}

/// The trace of `sc` as scripted so far, to aim the next control between
/// two of its records.
fn probe(sc: &Scenario) -> Vec<TraceRecord> {
    let eng = run(sc, ShardingKind::Sequential);
    let trace = eng.trace_log().records().cloned().collect();
    trace
}

/// `(send time, src, [(delivery time, dst)])` of the first multicast at
/// or after `from` whose sender passes `pick` — single-beacon bursts
/// only, so every multicast delivery from `src` before its next timer
/// belongs to that packet.
fn first_multicast(
    trace: &[TraceRecord],
    from: SimTime,
    pick: impl Fn(HostId) -> bool,
) -> (SimTime, HostId, Vec<(SimTime, HostId)>) {
    let (at, sender) = trace
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::Send {
                src,
                multicast: Some(_),
                ..
            } if r.time >= from && pick(src) => Some((r.time, src)),
            _ => None,
        })
        .expect("a multicast after `from`");
    let deliveries = trace
        .iter()
        .filter(|r| r.time >= at && r.time < at + PERIOD / 2)
        .filter_map(|r| match r.event {
            TraceEvent::Deliver {
                src,
                dst,
                channel: Some(_),
                ..
            } if src == sender => Some((r.time, dst)),
            _ => None,
        })
        .collect();
    (at, sender, deliveries)
}

// ------------------------------------------------------------ scenarios

#[test]
fn default_jitter() {
    check(&Scenario::new("default_jitter"), 0x4602_c8f1_8d2a_a526);
}

#[test]
fn zero_jitter_lockstep() {
    let sc = Scenario {
        jitter: 0,
        lockstep: true,
        ..Scenario::new("zero_jitter_lockstep")
    };
    let trace = check(&sc, 0x97b8_8331_ed63_1469);
    // The point of the scenario: many deliveries, at different hosts and
    // of different packets, share one instant.
    let mut at_one_instant = std::collections::BTreeMap::<SimTime, usize>::new();
    for r in &trace {
        if matches!(r.event, TraceEvent::Deliver { .. }) {
            *at_one_instant.entry(r.time).or_default() += 1;
        }
    }
    assert!(
        at_one_instant.values().any(|&n| n >= 12),
        "no instant with a pile of deliveries: the scenario lost its point"
    );
}

#[test]
fn send_time_loss() {
    let sc = Scenario {
        loss: 0.25,
        ..Scenario::new("send_time_loss")
    };
    let trace = check(&sc, 0xbfe9_fa93_a23d_599c);
    assert!(trace.iter().any(|r| matches!(
        r.event,
        TraceEvent::Drop {
            reason: DropReason::Loss,
            ..
        }
    )));
}

#[test]
fn partition_raised_in_flight() {
    let mut sc = Scenario {
        burst: 1,
        ..Scenario::new("partition_raised_in_flight")
    };
    let clean = probe(&sc);
    // A multicast from segment 0 is on the wire when 0–1 is severed one
    // nanosecond after the send: its segment-1 receivers must drop at
    // delivery time, everyone else must still hear it.
    let (sent, src, deliveries) = first_multicast(&clean, SECS, |h| h.0 < 4);
    assert!(deliveries.iter().all(|&(t, _)| t > sent + 1));
    sc.script = vec![
        (sent + 1, Control::BlockSegments(SegmentId(0), SegmentId(1))),
        (
            sent + 700 * MILLIS,
            Control::UnblockSegments(SegmentId(1), SegmentId(0)),
        ),
    ];
    let trace = check(&sc, 0xe175_9965_6635_850b);
    let window = |r: &&TraceRecord| r.time > sent && r.time < sent + 5 * MILLIS;
    let mut cut: Vec<u32> = trace
        .iter()
        .filter(window)
        .filter_map(|r| match r.event {
            TraceEvent::Drop {
                src: s,
                dst,
                channel: Some(_),
                reason: DropReason::Partition,
                ..
            } if s == src => Some(dst.0),
            _ => None,
        })
        .collect();
    cut.sort_unstable();
    assert_eq!(cut, vec![4, 5, 6, 7], "segment 1 must lose the packet");
    let heard = trace
        .iter()
        .filter(window)
        .filter(
            |r| matches!(r.event, TraceEvent::Deliver { src: s, channel: Some(_), .. } if s == src),
        )
        .count();
    assert_eq!(heard, 3 + 4, "segments 0 and 2 must still hear it");
}

#[test]
fn receiver_killed_and_revived_mid_fanout() {
    let mut sc = Scenario {
        burst: 1,
        ..Scenario::new("receiver_killed_and_revived_mid_fanout")
    };
    // First incident: the victim is the *last* receiver of the packet in
    // delivery order; it dies and comes back between the first and the
    // second delivery.
    let (_, src_a, mut d_a) = first_multicast(&probe(&sc), SECS, |_| true);
    d_a.sort_unstable();
    assert_eq!(d_a.len(), 11);
    let (first_a, _) = d_a[0];
    let (second_a, _) = d_a[1];
    let (last_a, victim_a) = d_a[10];
    assert!(first_a + 2 < second_a && second_a < last_a);
    sc.script = vec![
        (first_a + 1, Control::Kill(victim_a)),
        (first_a + 2, Control::Revive(victim_a)),
    ];
    // Second incident, a later round and another sender (found in the
    // run the first incident already perturbed): the victim is the
    // second receiver, and it bounces before *any* delivery fires.
    let (sent_b, src_b, mut d_b) =
        first_multicast(&probe(&sc), 2 * SECS, |h| h != victim_a && h != src_a);
    d_b.sort_unstable();
    let (second_b, victim_b) = d_b[1];
    assert!(sent_b + 2 < d_b[0].0 && d_b[0].0 < second_b);
    sc.script.extend([
        (sent_b + 1, Control::Kill(victim_b)),
        (sent_b + 2, Control::Revive(victim_b)),
    ]);
    let trace = check(&sc, 0x3fe5_0eff_1441_bc9d);
    for (src, victim, at, others) in [
        (src_a, victim_a, last_a, &d_a[..10]),
        (src_b, victim_b, second_b, &d_b[2..]),
    ] {
        assert!(
            trace.iter().any(|r| r.time == at
                && matches!(
                    r.event,
                    TraceEvent::Drop { src: s, dst, reason: DropReason::DeadHost, .. }
                        if s == src && dst == victim
                )),
            "{victim:?} is alive again at {at}, but the packet was addressed to \
             its previous life: it must drop as DeadHost"
        );
        for &(t, dst) in others {
            assert!(
                trace.iter().any(|r| r.time == t
                    && matches!(
                        r.event,
                        TraceEvent::Deliver { src: s, dst: d, channel: Some(_), .. }
                            if s == src && d == dst
                    )),
                "{dst:?} lost its delivery at {t}"
            );
        }
    }
}

#[test]
fn router_down_and_up_in_flight() {
    // A ring of four segments: router r joins segment r to r + 1, so
    // taking router 0 down re-routes 0 ↔ 1 the long way round instead of
    // cutting it, and every latency across it grows.
    let mut sc = Scenario {
        topo: || generators::ring_of_segments(4, 4),
        ..Scenario::new("router_down_and_up_in_flight")
    };
    let clean = probe(&sc);
    // A burst from segment 0 reaches segments 1 and 3 (TTL 2). Router 0
    // goes down a few µs after the first send, before any delivery, and
    // comes back while the burst's later deliveries are still pending:
    // each must arrive when it was rolled to at send time, on the route
    // of the send instant, not on the route that holds when it fires.
    let (sent, src, deliveries) = first_multicast(&clean, SECS, |h| h.0 < 4);
    let (down, up) = (sent + 5_000, sent + 250_000);
    assert!(deliveries.iter().all(|&(t, _)| t > down));
    sc.script = vec![(down, Control::RouterDown(0)), (up, Control::RouterUp(0))];
    let trace = check(&sc, 0x1a45_26ab_db34_495c);
    let across = |lo: SimTime, hi: SimTime| {
        trace
            .iter()
            .filter(|r| r.time > lo && r.time < hi)
            .filter(|r| {
                matches!(r.event, TraceEvent::Deliver { src: s, dst, channel: Some(_), .. }
                    if s == src && (4..8).contains(&dst.0))
            })
            .count()
    };
    assert!(
        across(down, up) > 0 && across(up, sent + PERIOD / 2) > 0,
        "no delivery across router 0 was pending over both changes: \
         the scenario lost its point"
    );
}

// ----------------------------------------------------------- queue depth

/// Host 0 multicasts `PACKETS` beacons back to back, once; nobody else
/// sends or arms a timer.
struct Burst {
    ttl: u8,
}

const PACKETS: usize = 1000;

impl Actor for Burst {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.subscribe(ChannelId(0));
        if ctx.me() == HostId(0) {
            ctx.set_timer(SECS, 0);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Context, _meta: PacketMeta, _msg: &Message) {}
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        for seq in 0..PACKETS as u64 {
            ctx.send_multicast(
                ChannelId(0),
                self.ttl,
                Message::SyncRequest(SyncRequest {
                    from: ctx.node_id(),
                    since_seq: seq,
                }),
            );
        }
    }
}

/// The count behind the memory claim: the event queue holds one entry
/// per packet in flight (plus armed timers), not one per (packet,
/// receiver) — and per shard when sharded (a shard that hears a remote
/// multicast holds one entry for it too).
#[test]
fn queue_holds_one_entry_per_packet_in_flight() {
    let flood = |topo, ttl, sharding| {
        let cfg = EngineConfig {
            sharding,
            shard_jobs: Some(1),
            ..Default::default()
        };
        let mut eng = Engine::new(topo, cfg, SEED);
        for h in eng.hosts() {
            eng.add_actor(h, Box::new(Burst { ttl }));
        }
        eng.start();
        eng.run_until(2 * SECS);
        (eng.queue_peak(), eng.stats().totals().recv_pkts)
    };
    const TIMERS: usize = 1;
    // One 21-host segment: every packet has 20 receivers.
    let (peak, heard) = flood(generators::single_segment(21), 1, ShardingKind::Sequential);
    assert_eq!(heard, 20 * PACKETS as u64);
    assert!(
        (PACKETS..=PACKETS + TIMERS).contains(&peak),
        "{PACKETS} packets x 20 receivers peaked at {peak} queue entries"
    );
    // Two 10-host segments, TTL 2: 9 receivers at home, 10 across.
    for (sharding, shards) in [(ShardingKind::Sequential, 1), (ShardingKind::Sharded(2), 2)] {
        let (peak, heard) = flood(generators::star_of_segments(2, 10), 2, sharding);
        assert_eq!(heard, 19 * PACKETS as u64);
        assert!(
            (PACKETS..=shards * PACKETS + TIMERS).contains(&peak),
            "{sharding:?}: peaked at {peak} queue entries"
        );
    }
}
