//! The discrete-event engine: configuration, fault controls, and the
//! public [`Engine`] facade.
//!
//! The event-loop mechanics live in [`crate::shard`]. An `Engine` owns
//! one [`Shard`] per partition of the topology (one, by default — the
//! classic sequential engine) and, when sharded, drives them
//! concurrently under a conservative-lookahead epoch protocol whose
//! merged output is byte-identical to the sequential run. See
//! `shard::multi` for the synchronization scheme and
//! `tamp_topology::sharding` for the partition planner.

use crate::actor::Actor;
use crate::shard::{multi, Shard, CONTROL_SEQ_BASE};
use crate::stats::Stats;
use crate::trace::{TraceConfig, TraceLog};
use crate::SimTime;
use std::sync::Arc;
use tamp_par::Pool;
use tamp_telemetry::Registry;
use tamp_topology::sharding::{plan_shards, ShardPlan};
use tamp_topology::{HostId, Nanos, SegmentId, Topology};
use tamp_wire::CodecKind;

/// Probabilistic packet loss. Applied independently per (packet,
/// receiver) pair, which models the dominant loss causes in the paper
/// (receiver overrun, congestion at the receiving port).
#[derive(Debug, Clone, Copy)]
pub struct LossModel {
    /// Probability in `[0, 1]` that any given delivery is dropped.
    pub rate: f64,
}

impl Default for LossModel {
    fn default() -> Self {
        LossModel { rate: 0.0 }
    }
}

/// How to partition the simulation across worker threads.
///
/// The default, `Sequential`, is the single event loop. `Sharded(n)`
/// asks the planner ([`tamp_topology::sharding::plan_shards`]) for up
/// to `n` segment-atomic shards and runs them concurrently with
/// conservative lookahead; output is byte-identical to `Sequential` in
/// either case, so this is purely a wall-clock knob. Plans that cannot
/// support safe concurrency (a single populated segment, or a
/// zero-latency cross-shard link) silently collapse to one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardingKind {
    /// One event loop, no worker threads (the classic engine).
    #[default]
    Sequential,
    /// Split into at most this many shards (clamped to ≥ 1 and to the
    /// populated-segment count).
    Sharded(usize),
}

/// Bytes of UDP+IP+Ethernet framing added to every packet for
/// accounting (the paper measures on-the-wire packet sizes).
pub const HEADER_OVERHEAD: u32 = 28;
/// Modeled CPU cost to process one received packet: 11 µs, calibrated
/// so that ~4000 heartbeats/s costs ~4.5% of one CPU — matching the
/// paper's Fig. 2 measurement on a 1.4 GHz P-III.
pub const CPU_PER_PACKET: Nanos = 11_000;
/// Additional CPU cost per received byte.
pub const CPU_PER_BYTE: Nanos = 2;
/// Per-byte serialization delay (wire time): 80 ns/B ≈ 100 Mb/s Fast
/// Ethernet, the paper's access links. Transmissions from one host
/// *queue* behind each other at this rate (a simple egress-NIC model),
/// so saturating senders see growing delays.
pub const WIRE_TIME_PER_BYTE: SimTime = 80;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Max uniform random extra latency per delivery (0 = none).
    pub latency_jitter: SimTime,
    /// Packet loss model.
    pub loss: LossModel,
    /// Event tracing (off by default; see [`crate::trace`]).
    pub trace: TraceConfig,
    /// Telemetry metrics (off by default): when enabled the engine keeps
    /// a [`Registry`] with per-host / per-kind / per-channel network
    /// accounting and routes actor `Count`/`Record` effects into it.
    pub metrics: bool,
    /// Opt-in wire-codec delivery mode. `None` (the default) passes the
    /// in-memory [`tamp_wire::Message`] straight to
    /// [`Actor::on_packet`] — the fastest simulation path, since only
    /// `encoded_len` runs per send. `Some(kind)` sizes a send the same
    /// way, encodes the packet when its first receiver is about to read
    /// it (once for all multicast receivers; never, if every delivery is
    /// dropped) and delivers raw bytes through
    /// [`Actor::on_wire_packet`], which parses a zero-copy
    /// [`tamp_wire::MessageView`] — the encoder and the view parser
    /// end to end under simulation. `tests/differential_codec.rs` pins
    /// the two modes against each other. [`CodecKind`] has one value.
    pub wire_codec: Option<CodecKind>,
    /// Topology partitioning for parallel execution (see
    /// [`ShardingKind`]). Byte-identical output either way.
    pub sharding: ShardingKind,
    /// Worker threads for the sharded epoch loop. `None` uses
    /// [`tamp_par::default_jobs`] (the `TAMP_JOBS` environment variable,
    /// else the machine's parallelism). Ignored under `Sequential`.
    pub shard_jobs: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            latency_jitter: 200_000, // 0.2 ms
            loss: LossModel::default(),
            trace: TraceConfig::default(),
            metrics: false,
            wire_codec: None,
            sharding: ShardingKind::Sequential,
            shard_jobs: None,
        }
    }
}

impl EngineConfig {
    pub(crate) fn capacity_for_trace(&self) -> usize {
        if self.trace.enabled {
            self.trace.capacity
        } else {
            0
        }
    }
}

/// Scripted fault-injection actions.
#[derive(Debug, Clone, Copy)]
pub enum Control {
    /// Fail-stop crash: the host stops sending, receiving and ticking.
    Kill(HostId),
    /// Restart a crashed host: its actor's `on_start` runs again.
    Revive(HostId),
    /// Sever all traffic between two segments (both directions).
    BlockSegments(SegmentId, SegmentId),
    /// Restore traffic between two segments.
    UnblockSegments(SegmentId, SegmentId),
    /// Change the base uniform loss rate from this instant on.
    SetLoss(f64),
    /// Gray (asymmetric) partition: sever traffic from the first segment
    /// *to* the second only; the reverse direction keeps delivering. The
    /// failure mode behind one-way fiber faults and asymmetric ACL
    /// mistakes — a host can be heard but cannot hear.
    BlockDirection(SegmentId, SegmentId),
    /// Heal a gray partition (this direction only).
    UnblockDirection(SegmentId, SegmentId),
    /// Set a host's clock skew in parts-per-million. A host with +ppm
    /// runs fast: its nominal timer delays elapse in less simulated
    /// time, so its heartbeats/suspicions drift ahead of the cluster.
    /// Applies to timers armed after this instant; 0 restores nominal.
    SetSkew(HostId, i64),
    /// Take a layer-3 router down: every segment-pair distance is
    /// re-scoped around it (dynamic topology). Pairs with no redundant
    /// path become unreachable; in-flight and future packets between
    /// them drop with [`crate::trace::DropReason::Unroutable`].
    RouterDown(u16),
    /// Bring a router back and restore build-time TTL scoping.
    RouterUp(u16),
}

impl Control {
    /// The host a control acts on, when it acts on exactly one. Such a
    /// control runs on the owning shard only; any other is global state,
    /// applied on every shard.
    pub(crate) fn host(&self) -> Option<HostId> {
        match *self {
            Control::Kill(h) | Control::Revive(h) | Control::SetSkew(h, _) => Some(h),
            _ => None,
        }
    }
}

/// The deterministic discrete-event simulator. See the crate docs for an
/// overview and `DESIGN.md` for how it substitutes for the paper's
/// physical testbed.
///
/// With [`ShardingKind::Sequential`] (the default) this is a thin
/// wrapper over a single shard — the classic engine, no threads,
/// no buffering. With [`ShardingKind::Sharded`] it runs one shard per
/// topology partition on a [`tamp_par::Pool`] rendezvous and merges
/// their tagged outputs, producing byte-identical traces, stats,
/// observations and telemetry at every public API boundary.
pub struct Engine {
    shards: Vec<Shard>,
    /// Shard index per host.
    owner_of: Arc<Vec<u32>>,
    /// Smallest possible cross-shard delivery latency (`None` =
    /// unbounded: single shard, or no reachable cross pair).
    lookahead: Option<SimTime>,
    pool: Pool,
    clock: SimTime,
    /// Sequence counter for driver-injected controls (schedule /
    /// control_now): gives every control a globally-agreed tie-break.
    driver_ctr: u64,
    started: bool,
    /// Master measurement state, used only in multi-shard mode (a
    /// single shard owns its stats/tracelog directly).
    stats: Stats,
    tracelog: TraceLog,
    registry: Registry,
}

impl Engine {
    pub fn new(topo: Topology, config: EngineConfig, seed: u64) -> Self {
        let n = topo.num_hosts();
        let registry = if config.metrics {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let plan = match config.sharding {
            ShardingKind::Sequential => ShardPlan::single(topo.num_segments()),
            ShardingKind::Sharded(k) => {
                let p = plan_shards(&topo, k.max(1));
                // A zero-latency cross-shard link admits no safe
                // concurrency window (epochs would have length zero).
                if p.lookahead == Some(0) {
                    ShardPlan::single(topo.num_segments())
                } else {
                    p
                }
            }
        };
        let nshards = plan.shards;
        let shard_of_seg = Arc::new(plan.seg_shard);
        let owner_of: Arc<Vec<u32>> = Arc::new(
            (0..n)
                .map(|i| shard_of_seg[topo.segment_of(HostId(i as u32)).0 as usize])
                .collect(),
        );
        let topo = Arc::new(topo);
        // One shard runs on the calling thread whatever the pool holds;
        // only a sharded engine asks the host how wide it is.
        let pool = if nshards > 1 {
            Pool::new(config.shard_jobs.unwrap_or_else(tamp_par::default_jobs))
        } else {
            Pool::sequential()
        };
        let shards: Vec<Shard> = (0..nshards)
            .map(|id| {
                Shard::new(
                    id as u32,
                    nshards,
                    Arc::clone(&topo),
                    Arc::clone(&shard_of_seg),
                    Arc::clone(&owner_of),
                    config.clone(),
                    seed,
                    registry.clone(),
                )
            })
            .collect();
        Engine {
            stats: Stats::new(n),
            tracelog: TraceLog::new(config.capacity_for_trace()),
            registry,
            shards,
            owner_of,
            lookahead: plan.lookahead,
            pool,
            clock: 0,
            driver_ctr: 0,
            started: false,
        }
    }

    fn multi(&self) -> bool {
        self.shards.len() > 1
    }

    /// Number of shards actually running (1 under `Sequential`, or when
    /// the plan collapsed).
    pub fn effective_shards(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead the epoch protocol runs with, when
    /// sharded (`None` = single shard or unbounded).
    pub fn lookahead(&self) -> Option<SimTime> {
        self.lookahead
    }

    /// The trace log (empty unless tracing was enabled in the config).
    pub fn trace_log(&self) -> &TraceLog {
        if self.multi() {
            &self.tracelog
        } else {
            self.shards[0].trace_log()
        }
    }

    /// The telemetry registry (disabled — hands out no-op handles and
    /// empty snapshots — unless [`EngineConfig::metrics`] was set).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Install the protocol endpoint for a host. Must be called before
    /// [`Engine::start`]. Hosts without actors are inert.
    pub fn add_actor(&mut self, host: HostId, actor: Box<dyn Actor>) {
        assert!(!self.started, "add_actor after start");
        let s = self.owner_of[host.index()] as usize;
        self.shards[s].install(host, actor);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        self.shards[0].topology()
    }

    /// All host ids.
    pub fn hosts(&self) -> Vec<HostId> {
        self.shards[0].topology().hosts().collect()
    }

    pub fn is_alive(&self, h: HostId) -> bool {
        // Only the owner's liveness vector is authoritative: kills are
        // routed to the owning shard.
        self.shards[self.owner_of[h.index()] as usize].is_alive(h)
    }

    /// Collected measurements.
    pub fn stats(&self) -> &Stats {
        if self.multi() {
            &self.stats
        } else {
            self.shards[0].stats()
        }
    }

    /// Mutable access (e.g. to reset counters at the start of the
    /// measurement window). In sharded mode the shards' pending deltas
    /// are always fully drained at public API boundaries, so a reset
    /// here behaves exactly as sequentially.
    pub fn stats_mut(&mut self) -> &mut Stats {
        if self.multi() {
            &mut self.stats
        } else {
            self.shards[0].stats_mut()
        }
    }

    /// The most entries the event queue ever held at once (summed over
    /// the shards' own high-water marks when sharded — an upper bound,
    /// since shards peak at different instants). The queue holds one
    /// entry per armed timer, scheduled control and packet in flight, so
    /// this is what a run's queue memory is proportional to. A
    /// diagnostic: not part of any export or digest.
    pub fn queue_peak(&self) -> usize {
        self.shards.iter().map(Shard::queue_peak).sum()
    }

    /// Run `on_start` for every installed actor. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for s in &mut self.shards {
            s.start_phase();
        }
        if self.multi() {
            self.sync();
        }
    }

    /// Schedule a fault-injection action at absolute time `t`.
    pub fn schedule(&mut self, t: SimTime, control: Control) {
        assert!(t >= self.clock, "cannot schedule in the past");
        let (seq, shards) = self.route(&control);
        for s in shards {
            s.push_control(t, seq, control);
        }
    }

    /// Crash a host right now.
    pub fn kill_now(&mut self, h: HostId) {
        self.control_now(Control::Kill(h));
    }

    /// Revive a host right now.
    pub fn revive_now(&mut self, h: HostId) {
        self.control_now(Control::Revive(h));
    }

    /// Apply any fault-injection action right now (the immediate form of
    /// [`Engine::schedule`]).
    pub fn control_now(&mut self, c: Control) {
        let (seq, shards) = self.route(&c);
        for s in shards {
            s.apply_control_now(seq, c);
        }
        if self.multi() {
            // A revive's on_start may have sent cross-shard packets, and
            // the control's trace record sits in a shard buffer.
            self.sync();
        }
    }

    /// A driver control's globally agreed tie-break seq and the shards
    /// it runs on. A control on one host runs only where the host lives;
    /// a global one runs everywhere with the same `(time, key, seq)`, so
    /// every shard applies it in the same epoch, at the same point of
    /// its local order.
    fn route(&mut self, c: &Control) -> (u64, &mut [Shard]) {
        self.driver_ctr += 1;
        let shards = match c.host() {
            Some(h) => {
                let s = self.owner_of[h.index()] as usize;
                &mut self.shards[s..=s]
            }
            None => &mut self.shards[..],
        };
        (CONTROL_SEQ_BASE | self.driver_ctr, shards)
    }

    /// Process every event up to and including time `t`, then advance the
    /// clock to exactly `t`.
    ///
    /// Sharded mode runs conservative-lookahead epochs: every shard
    /// executes up to `min(t, next_event + lookahead − 1)`, the shards
    /// exchange cross-shard sends as tag-stamped descriptors at the
    /// barrier, and the buffered measurements merge into the master
    /// copies in global tag order (`shard::multi`).
    pub fn run_until(&mut self, t: SimTime) {
        assert!(self.started, "call start() before run_until()");
        if !self.multi() {
            self.shards[0].run_epoch(t);
            self.clock = t;
            return;
        }
        multi::run_until(
            self.pool,
            &mut self.shards,
            &self.owner_of,
            self.lookahead,
            t,
            &mut self.stats,
            &mut self.tracelog,
        );
        self.clock = t;
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimTime) {
        self.run_until(self.clock + d);
    }

    /// The barrier outside an epoch, with several shards.
    fn sync(&mut self) {
        multi::sync(
            &mut self.shards,
            &self.owner_of,
            &mut self.stats,
            &mut self.tracelog,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::packet::{ChannelId, PacketMeta};
    use crate::SECS;
    use tamp_topology::generators;
    use tamp_wire::{Message, SyncRequest};

    /// Test actor: every second, multicasts a tiny message with a
    /// configured TTL; counts everything it receives.
    struct Beacon {
        channel: ChannelId,
        ttl: u8,
        received: std::sync::Arc<std::sync::atomic::AtomicU64>,
        sends: bool,
    }

    impl Beacon {
        fn msg(&self, ctx: &Context) -> Message {
            Message::SyncRequest(SyncRequest {
                from: ctx.node_id(),
                since_seq: 0,
            })
        }
    }

    impl Actor for Beacon {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.subscribe(self.channel);
            if self.sends {
                ctx.set_timer(SECS, 0);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context, _meta: PacketMeta, _msg: &Message) {
            self.received
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
            let m = self.msg(ctx);
            ctx.send_multicast(self.channel, self.ttl, m);
            ctx.set_timer(SECS, 0);
        }
    }

    fn counter() -> std::sync::Arc<std::sync::atomic::AtomicU64> {
        std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0))
    }

    fn read(c: &std::sync::Arc<std::sync::atomic::AtomicU64>) -> u64 {
        c.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn multicast_ttl_scoping() {
        // 2 segments × 2 hosts. Host 0 beacons with TTL 1: only host 1
        // (same segment) must receive.
        let topo = generators::star_of_segments(2, 2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..4).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        eng.run_until(10 * SECS + 100 * crate::MILLIS);
        assert_eq!(read(&counters[0]), 0, "no multicast loopback");
        assert_eq!(read(&counters[1]), 10, "same-segment host receives");
        assert_eq!(read(&counters[2]), 0, "TTL 1 must not cross the router");
        assert_eq!(read(&counters[3]), 0);
    }

    #[test]
    fn multicast_ttl_two_crosses_one_router() {
        let topo = generators::star_of_segments(2, 2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..4).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 2,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        eng.run_until(5 * SECS + 100 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 5);
        assert_eq!(read(&counters[2]), 5);
        assert_eq!(read(&counters[3]), 5);
    }

    #[test]
    fn unsubscribed_hosts_do_not_receive() {
        struct Mute;
        impl Actor for Mute {
            fn on_start(&mut self, _ctx: &mut Context) {}
            fn on_packet(&mut self, _c: &mut Context, _m: PacketMeta, _msg: &Message) {
                panic!("mute actor must not receive");
            }
            fn on_timer(&mut self, _c: &mut Context, _t: u64) {}
        }
        let topo = generators::single_segment(2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let c = counter();
        let hs = eng.hosts();
        eng.add_actor(
            hs[0],
            Box::new(Beacon {
                channel: ChannelId(0),
                ttl: 1,
                received: c,
                sends: true,
            }),
        );
        eng.add_actor(hs[1], Box::new(Mute));
        eng.start();
        eng.run_until(3 * SECS);
    }

    #[test]
    fn killed_host_stops_receiving_and_ticking() {
        let topo = generators::single_segment(2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: true,
                }),
            );
        }
        eng.start();
        eng.run_until(3 * SECS);
        let h1 = eng.hosts()[1];
        eng.kill_now(h1);
        let before = read(&counters[1]);
        let sent_before = eng.stats().host(h1).sent_pkts;
        eng.run_until(10 * SECS);
        assert_eq!(read(&counters[1]), before, "dead host received packets");
        assert_eq!(
            eng.stats().host(h1).sent_pkts,
            sent_before,
            "dead host kept sending"
        );
        // Host 0 stops hearing host 1: beacons at t=1,2 arrived; the t=3
        // beacon was still in flight when the crash bumped the... sender's
        // crash does not affect in-flight packets, so it arrives too.
        let h0_recv = read(&counters[0]);
        assert_eq!(h0_recv, 3, "the 3 pre-kill beacons");
    }

    #[test]
    fn revive_restarts_actor() {
        let topo = generators::single_segment(2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: i == 1,
                }),
            );
        }
        eng.start();
        let h1 = eng.hosts()[1];
        // Kill mid-period so the pre/post beacon counts are unambiguous:
        // beacons at t=1,2 land before the kill at 2.5; the revive at 5.5
        // restarts the period, beaconing at 6.5, 7.5, 8.5, 9.5.
        eng.schedule(2 * SECS + 500 * crate::MILLIS, Control::Kill(h1));
        eng.schedule(5 * SECS + 500 * crate::MILLIS, Control::Revive(h1));
        eng.run_until(10 * SECS);
        let got = read(&counters[0]);
        assert_eq!(got, 6, "expected 2 pre-kill + 4 post-revive beacons");
    }

    #[test]
    fn partition_blocks_cross_segment_traffic() {
        let topo = generators::star_of_segments(2, 1);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 4,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        // Partition mid-period so beacon sends are clearly on one side.
        eng.schedule(
            3 * SECS + 500 * crate::MILLIS,
            Control::BlockSegments(SegmentId(0), SegmentId(1)),
        );
        eng.schedule(
            6 * SECS + 500 * crate::MILLIS,
            Control::UnblockSegments(SegmentId(0), SegmentId(1)),
        );
        eng.run_until(3 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 3);
        eng.run_until(6 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 3, "partitioned traffic leaked");
        eng.run_until(9 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 6, "traffic did not resume");
    }

    #[test]
    fn gray_partition_blocks_one_direction_only() {
        // Hosts 0 (seg 0) and 1 (seg 1) both beacon with TTL 2. Severing
        // seg0→seg1 must stop 0's beacons reaching 1 while 1's beacons
        // keep reaching 0 — the defining asymmetry of a gray failure.
        let topo = generators::star_of_segments(2, 1);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 2,
                    received: counters[i].clone(),
                    sends: true,
                }),
            );
        }
        eng.start();
        eng.schedule(
            3 * SECS + 500 * crate::MILLIS,
            Control::BlockDirection(SegmentId(0), SegmentId(1)),
        );
        eng.schedule(
            6 * SECS + 500 * crate::MILLIS,
            Control::UnblockDirection(SegmentId(0), SegmentId(1)),
        );
        eng.run_until(6 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 3, "gray direction leaked traffic");
        assert_eq!(read(&counters[0]), 6, "healthy direction was blocked");
        eng.run_until(9 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 6, "gray heal did not restore traffic");
        assert_eq!(read(&counters[0]), 9);
    }

    #[test]
    fn clock_skew_scales_timer_cadence() {
        // +100000 ppm (10% fast): ~11 beacons where a nominal clock
        // sends 10; -100000 ppm (10% slow... ppm is per-million so this
        // is 1.1s per beacon): ~9.
        for (ppm, expect) in [(100_000i64, 11u64), (-100_000, 9), (0, 10)] {
            let topo = generators::single_segment(2);
            let mut eng = Engine::new(topo, EngineConfig::default(), 1);
            let counters: Vec<_> = (0..2).map(|_| counter()).collect();
            for (i, h) in eng.hosts().into_iter().enumerate() {
                eng.add_actor(
                    h,
                    Box::new(Beacon {
                        channel: ChannelId(0),
                        ttl: 1,
                        received: counters[i].clone(),
                        sends: i == 0,
                    }),
                );
            }
            let h0 = eng.hosts()[0];
            eng.control_now(Control::SetSkew(h0, ppm));
            eng.start();
            eng.run_until(10 * SECS + 100 * crate::MILLIS);
            assert_eq!(read(&counters[1]), expect, "{ppm:+}ppm skewed beacon count");
        }
    }

    #[test]
    fn router_down_rescopes_and_revives() {
        // Ring of 4 single-host segments; host 0 beacons with TTL 2,
        // reaching hosts 1 and 3 (adjacent) but not 2 (2 hops). With r0
        // down, host 1 re-scopes to 3 hops away — out of TTL 2 — while
        // host 3 stays adjacent via r3.
        let topo = generators::ring_of_segments(4, 1);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..4).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 2,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        eng.schedule(3 * SECS + 500 * crate::MILLIS, Control::RouterDown(0));
        eng.schedule(6 * SECS + 500 * crate::MILLIS, Control::RouterUp(0));
        eng.run_until(6 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 3, "re-scoped host kept receiving");
        assert_eq!(read(&counters[3]), 6, "redundant path was lost");
        assert_eq!(read(&counters[2]), 0, "TTL 2 never covered 2 hops");
        eng.run_until(9 * SECS + 400 * crate::MILLIS);
        assert_eq!(read(&counters[1]), 6, "router-up did not restore scoping");
    }

    #[test]
    fn router_down_without_redundancy_is_unroutable() {
        // Star: the single core router is the only path. Down, every
        // cross-segment delivery must drop as Unroutable (not Partition).
        let topo = generators::star_of_segments(2, 1);
        let cfg = EngineConfig {
            metrics: true,
            ..Default::default()
        };
        let mut eng = Engine::new(topo, cfg, 1);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 2,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        eng.schedule(3 * SECS + 500 * crate::MILLIS, Control::RouterDown(0));
        eng.run_until(10 * SECS);
        assert_eq!(read(&counters[1]), 3, "unroutable traffic leaked");
        let snap = eng.registry().snapshot();
        let unroutable = snap.counter(tamp_telemetry::CLUSTER, "net", "drop.unroutable");
        assert!(unroutable == 0, "mcast scoping already excludes receivers");
        // Unicast across the dead core *does* record the drop reason.
        struct Uni;
        impl Actor for Uni {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.send_unicast(
                    tamp_wire::NodeId(1),
                    Message::SyncRequest(SyncRequest {
                        from: ctx.node_id(),
                        since_seq: 0,
                    }),
                );
            }
            fn on_packet(&mut self, _c: &mut Context, _m: PacketMeta, _msg: &Message) {}
            fn on_timer(&mut self, _c: &mut Context, _t: u64) {}
        }
        let topo = generators::star_of_segments(2, 1);
        let cfg = EngineConfig {
            metrics: true,
            ..Default::default()
        };
        let mut eng = Engine::new(topo, cfg, 1);
        let hs = eng.hosts();
        eng.control_now(Control::RouterDown(0));
        eng.add_actor(hs[0], Box::new(Uni));
        eng.start();
        eng.run_until(SECS);
        let snap = eng.registry().snapshot();
        let unroutable = snap.counter(tamp_telemetry::CLUSTER, "net", "drop.unroutable");
        assert_eq!(unroutable, 1, "unicast unroutable drop not metered");
    }

    #[test]
    fn loss_rate_drops_a_fraction() {
        let topo = generators::single_segment(2);
        let cfg = EngineConfig {
            loss: LossModel { rate: 0.5 },
            ..Default::default()
        };
        let mut eng = Engine::new(topo, cfg, 7);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        // Half a second past the 1000th send, so the last beacon is
        // delivered or dropped (not in flight) when we take the counts.
        eng.run_until(1000 * SECS + 500 * crate::MILLIS);
        let got = read(&counters[1]);
        assert!(
            (350..650).contains(&got),
            "expected ~500 of 1000 beacons, got {got}"
        );
        assert_eq!(
            got + eng.stats().host(eng.hosts()[1]).dropped_pkts,
            1000,
            "received + dropped must equal sent"
        );
    }

    #[test]
    fn set_loss_control_changes_rate_mid_run() {
        let topo = generators::single_segment(2);
        let mut eng = Engine::new(topo, EngineConfig::default(), 9);
        let counters: Vec<_> = (0..2).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        // Beacon every second; total blackout during [10 s, 20 s). The
        // receiver must see every beacon outside the window and none
        // inside it.
        eng.schedule(10 * SECS, Control::SetLoss(1.0));
        eng.schedule(20 * SECS, Control::SetLoss(0.0));
        // Sends at 1..=9 s land; the window is open.
        eng.run_until(10 * SECS - 1);
        assert_eq!(read(&counters[1]), 9, "pre-blackout beacons lost");
        // Sends at 10..=19 s all fall inside the blackout.
        eng.run_until(20 * SECS - 1);
        assert_eq!(read(&counters[1]), 9, "blackout leaked traffic");
        // Sends at 20..=29 s land again.
        eng.run_until(30 * SECS - 1);
        assert_eq!(read(&counters[1]), 19, "loss did not turn back off");
    }

    #[test]
    fn stats_account_send_and_recv() {
        let topo = generators::single_segment(3);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        let counters: Vec<_> = (0..3).map(|_| counter()).collect();
        for (i, h) in eng.hosts().into_iter().enumerate() {
            eng.add_actor(
                h,
                Box::new(Beacon {
                    channel: ChannelId(0),
                    ttl: 1,
                    received: counters[i].clone(),
                    sends: i == 0,
                }),
            );
        }
        eng.start();
        eng.run_until(4 * SECS + 100 * crate::MILLIS);
        let hs = eng.hosts();
        let sender = eng.stats().host(hs[0]);
        assert_eq!(sender.sent_pkts, 4, "one multicast = one send");
        let rcv = eng.stats().host(hs[1]);
        assert_eq!(rcv.recv_pkts, 4);
        assert!(rcv.recv_bytes > 0);
        assert!(rcv.cpu_ns >= 4 * 11_000);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let topo = generators::star_of_segments(3, 4);
            let cfg = EngineConfig {
                loss: LossModel { rate: 0.1 },
                ..Default::default()
            };
            let mut eng = Engine::new(topo, cfg, seed);
            let c = counter();
            for (i, h) in eng.hosts().into_iter().enumerate() {
                eng.add_actor(
                    h,
                    Box::new(Beacon {
                        channel: ChannelId(0),
                        ttl: 2,
                        received: c.clone(),
                        sends: i % 2 == 0,
                    }),
                );
            }
            eng.start();
            eng.run_until(20 * SECS);
            (read(&c), eng.stats().totals().recv_bytes)
        }
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(456));
    }

    #[test]
    #[should_panic(expected = "call start()")]
    fn run_before_start_panics() {
        let topo = generators::single_segment(1);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        eng.run_until(SECS);
    }

    #[test]
    fn clock_advances_to_run_until_target() {
        let topo = generators::single_segment(1);
        let mut eng = Engine::new(topo, EngineConfig::default(), 1);
        eng.start();
        eng.run_until(5 * SECS);
        assert_eq!(eng.now(), 5 * SECS);
        eng.run_for(SECS);
        assert_eq!(eng.now(), 6 * SECS);
    }
}

#[cfg(test)]
mod egress_tests {
    use super::*;
    use crate::actor::Context;
    use crate::packet::PacketMeta;
    use crate::SECS;
    use tamp_topology::generators;
    use tamp_wire::{Message, NodeId, ServiceRequest};

    /// Sends a burst of unicast messages at t=1s; records delivery times
    /// at the receiver.
    struct Burst {
        count: usize,
        payload: usize,
        deliveries: std::sync::Arc<std::sync::Mutex<Vec<SimTime>>>,
        sender: bool,
    }

    impl Actor for Burst {
        fn on_start(&mut self, ctx: &mut Context) {
            if self.sender {
                ctx.set_timer(SECS, 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context, _m: PacketMeta, _msg: &Message) {
            self.deliveries.lock().unwrap().push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut Context, _t: u64) {
            for _ in 0..self.count {
                ctx.send_unicast(
                    NodeId(1),
                    Message::ServiceRequest(ServiceRequest {
                        id: 0,
                        from: ctx.node_id(),
                        service: "x".into(),
                        partition: 0,
                        payload: vec![0; self.payload],
                        hops_left: 0,
                    }),
                );
            }
        }
    }

    #[test]
    fn burst_serializes_at_the_nic() {
        let topo = generators::single_segment(2);
        let cfg = EngineConfig {
            latency_jitter: 0,
            ..Default::default()
        };
        let mut eng = Engine::new(topo, cfg, 1);
        let deliveries = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let hs = eng.hosts();
        eng.add_actor(
            hs[0],
            Box::new(Burst {
                count: 10,
                payload: 1000,
                deliveries: deliveries.clone(),
                sender: true,
            }),
        );
        eng.add_actor(
            hs[1],
            Box::new(Burst {
                count: 0,
                payload: 0,
                deliveries: deliveries.clone(),
                sender: false,
            }),
        );
        eng.start();
        eng.run_until(2 * SECS);
        let d = deliveries.lock().unwrap();
        assert_eq!(d.len(), 10);
        // Each ~1060B packet takes ~85µs of wire time: arrivals must be
        // spaced by at least that, not stacked at one instant.
        let gaps: Vec<u64> = d.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g >= 80_000),
            "burst did not serialize: gaps {gaps:?}"
        );
        // Total spread ≈ 9 packets × ~85µs.
        let spread = d[9] - d[0];
        assert!(
            (700_000..1_000_000).contains(&spread),
            "unexpected burst spread {spread}"
        );
    }
}
