//! The per-shard half of the engine: one independently-runnable event
//! loop over the hosts of a subset of segments.
//!
//! The facade [`crate::Engine`] owns one or more `Shard`s. With a
//! single shard the shard *is* the classic sequential engine — it owns
//! the trace log and stats directly and runs events straight through.
//! With several shards the engine runs them concurrently under a
//! conservative-lookahead (null-message-free) epoch protocol:
//!
//! 1. **Epoch**: every shard executes its local events up to a common
//!    horizon `e = min(t, next + L − 1)` where `next` is the earliest
//!    pending event anywhere and `L` is the lookahead — the smallest
//!    latency any cross-shard delivery can possibly have (a pure
//!    topology floor, see `tamp_topology::sharding`). Any packet sent
//!    during the epoch arrives strictly *after* `e`, so no shard can
//!    miss an incoming event.
//! 2. **Exchange**: sends whose receivers live on other shards are not
//!    scheduled locally; they leave as [`Descriptor`]s stamped with the
//!    `(time, key, seq)` total order of the sending event. At the epoch
//!    barrier each shard expands the sorted batch of inbound
//!    descriptors into local deliveries.
//! 3. **Drain**: trace records, observations and stats deltas — each
//!    tagged with its global total order — are shipped to the facade
//!    and merged, so the merged output is byte-identical to the
//!    sequential engine's.
//!
//! Two mechanisms make the expansion exact:
//!
//! * **Determinism is mode-independent.** Actor randomness comes from a
//!   per-host RNG seeded from `(engine seed, host)`; loss and jitter
//!   rolls are stateless hashes of `(engine seed, sender, send counter,
//!   receiver)`; event tie-break `seq`s derive from `(creating host,
//!   per-host action counter)`. None of these depend on global
//!   execution interleaving, so any shard can reproduce exactly the
//!   values the sequential engine would have produced.
//! * **A rewind/replay journal.** Loss, per-link state, router health,
//!   subscriptions and host liveness may change *during* an epoch, and
//!   a descriptor from time `t` must be expanded under the state that
//!   held at `t`. Each shard journals those state changes (with their
//!   event tags) during the epoch; at the barrier it rewinds to the
//!   epoch-start state and replays entries in tag order, interleaved
//!   with the descriptor walk.
//!
//! # One queue entry per packet in flight
//!
//! A send — local, or a descriptor expanded at the barrier — rolls every
//! receiver on the spot (ascending receiver order; loss, jitter, link
//! queues, send-time drop records), but queues only the *earliest*
//! delivery. The others wait with the packet in [`PktArena`], sorted by
//! `(deliver_at, receiver)`, and each delivery queues the next as it
//! fires, under the same seq ([`Shard::launch`], [`Shard::deliver`]).
//! The event order is the one eager per-receiver events would give:
//! entry *i + 1* is strictly later than entry *i* in `(time, key, seq)`
//! and is in the queue before anything after entry *i* is popped, so it
//! pops exactly where its eagerly pushed twin would have; the queue's
//! earliest time is still the earliest pending delivery, which is all
//! the epoch protocol asks of it. What changes is what a multicast
//! costs while it is in flight: one queue entry, not one per listener
//! (`crates/netsim/tests/fanout_golden.rs` holds the bytes to constants
//! recorded from the eager engine).

use crate::actor::{Actor, Context, Effect};
use crate::engine::{
    Control, EngineConfig, CPU_PER_BYTE, CPU_PER_PACKET, HEADER_OVERHEAD, WIRE_TIME_PER_BYTE,
};
use crate::hash::IntMap;
use crate::packet::{ChannelId, Destination, PacketMeta};
use crate::scheduler::{Scheduled, TimerWheel};
use crate::stats::{HostStats, Observation, SeriesPoint, Stats};
use crate::trace::{DropReason, TraceEvent, TraceLog};
use crate::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use tamp_telemetry::{Counter, Histogram, Registry, CLUSTER};
use tamp_topology::{HostId, RouterId, SegmentId, Topology};
use tamp_wire::{Message, KINDS};

// --------------------------------------------------------------- noise

/// splitmix64 finalizer: a cheap, well-diffused 64-bit mix.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for a host's actor RNG — a function of the engine seed and the
/// host id only, so it is identical under any sharding.
pub(crate) fn host_seed(seed: u64, host: u32) -> u64 {
    mix64(seed ^ mix64(0x5851_F42D_4C95_7F2D ^ host as u64))
}

const SALT_LOSS: u64 = 0x4C4F_5353;
const SALT_JITTER: u64 = 0x4A49_5454;

/// The `(time, key)` tie-break sequence of an event created by `host`'s
/// `act`-th action. Biased by 1 so driver/start records (seq 0) sort
/// ahead of every host-created event at the same `(time, key)`.
#[inline]
fn seq_of(host: HostId, act: u32) -> u64 {
    ((host.0 as u64) << 32) | (act as u64 + 1)
}

/// Sequence-space for driver-injected controls: sorts after any
/// host-created seq at the same key (controls use key 0, which no host
/// event shares, so the offset only needs to be unique).
pub(crate) const CONTROL_SEQ_BASE: u64 = (u32::MAX as u64) << 32;

// ----------------------------------------------------------------- tag

/// Global total order of a trace record / journal entry / descriptor:
/// the `(time, key, seq)` of the event it happened inside, the
/// zero-based effect `step` within that event (0 = the event's own
/// record, `i + 1` = its `i`-th effect), and a `sub` slot for
/// per-receiver records within one effect (0 = the effect itself,
/// `to + 1` = the send-time record for receiver `to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Tag {
    pub time: SimTime,
    pub key: u32,
    pub seq: u64,
    pub step: u32,
    pub sub: u32,
}

// -------------------------------------------------------------- events

#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver {
        to: HostId,
        epoch: u32,
        /// Handle into the packet arena.
        pkt: u32,
    },
    Timer {
        host: HostId,
        epoch: u32,
        token: u64,
    },
    Control(Control),
}

/// An in-flight packet (shared across all its multicast receivers).
#[derive(Debug)]
struct Pkt {
    src: HostId,
    msg: Message,
    /// The encoded frame (wire-codec mode only,
    /// [`EngineConfig::wire_codec`]): `None` at send, kept from the
    /// first delivery that reads it while others are still to come, gone
    /// with the arena cell ([`Shard::deliver_pkt`]).
    frame: Option<Vec<u8>>,
    /// Encoded size + header overhead.
    size: u32,
    /// Multicast metadata, `None` for unicast.
    channel: Option<(ChannelId, u8)>,
    /// Send instant, for the delivery-latency histogram.
    sent_at: SimTime,
}

/// One rolled delivery of a packet: when, to whom, and the receiver's
/// epoch *at send time* (a receiver that has died since — even if it is
/// alive again — must not hear a packet addressed to its previous life).
#[derive(Debug, Clone, Copy)]
struct Hop {
    at: SimTime,
    to: HostId,
    epoch: u32,
}

/// An arena cell: the packet, and its deliveries that are not in the
/// event queue yet — latest first, so the next one to queue is `pop()`.
#[derive(Debug, Default)]
struct PktSlot {
    pkt: Option<Pkt>,
    rest: Vec<Hop>,
}

/// Packet arena: one send interns its payload once and every scheduled
/// delivery holds a `u32` handle instead of an `Arc` clone. A packet has
/// **one** event in the queue however many receivers it has: all of them
/// are rolled at send time, the earliest is queued, and the others wait
/// here in `(deliver_at, receiver)` order until the one before fires
/// (see [`Shard::launch`]). A cell lives until its last delivery has
/// fired; cells — and the capacity of their `rest` lists — are recycled
/// through a free list, so the steady-state hot path allocates nothing.
#[derive(Debug, Default)]
struct PktArena {
    slots: Vec<PktSlot>,
    free: Vec<u32>,
}

impl PktArena {
    /// Intern `pkt` with its deliveries still to queue, latest first.
    fn insert(&mut self, pkt: Pkt, rest: impl Iterator<Item = Hop>) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(PktSlot::default());
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.pkt.is_none() && slot.rest.is_empty());
        slot.pkt = Some(pkt);
        slot.rest.extend(rest);
        id
    }

    /// Move the packet out for one delivery (the shard needs it by
    /// value so the actor callback can borrow the shard mutably),
    /// together with the delivery to queue next, if any is left.
    fn checkout(&mut self, id: u32) -> (Pkt, Option<Hop>) {
        let slot = &mut self.slots[id as usize];
        let pkt = slot.pkt.take().expect("packet checked out twice");
        (pkt, slot.rest.pop())
    }

    /// Return the packet after a delivery, or — after its last one —
    /// drop it and recycle the cell.
    fn restore(&mut self, id: u32, pkt: Pkt, last: bool) {
        if last {
            self.free.push(id);
        } else {
            self.slots[id as usize].pkt = Some(pkt);
        }
    }
}

// ------------------------------------------------------------- meters

/// Cached per-host telemetry handles (no-op handles when metrics are
/// disabled, so the hot path is a branch + relaxed `fetch_add`).
#[derive(Clone, Default)]
struct HostMeters {
    sent_pkts: Counter,
    sent_bytes: Counter,
    recv_pkts: Counter,
    recv_bytes: Counter,
    dropped_pkts: Counter,
}

/// Cluster-wide telemetry handles and lazily-built per-kind /
/// per-channel counters. Each shard holds its own handle set over the
/// *shared* registry storage, so concurrent shards add into the same
/// atomics.
struct NetMeters {
    hosts: Vec<HostMeters>,
    /// `(pkts, bytes)` per message kind, node = [`CLUSTER`], at the
    /// kind's place in [`KINDS`]; made on the kind's first send.
    by_kind: [Option<(Counter, Counter)>; KINDS.len()],
    /// `(pkts, bytes)` per multicast channel, node = [`CLUSTER`].
    by_channel: BTreeMap<u16, (Counter, Counter)>,
    /// Drop counts by reason (loss / dead-host / partition / gray /
    /// unroutable).
    drop_loss: Counter,
    drop_dead: Counter,
    drop_partition: Counter,
    drop_gray: Counter,
    drop_unroutable: Counter,
    /// Send→deliver latency in ns, cluster-wide.
    delivery_ns: Histogram,
    /// Handles for the actors' own samples (`Effect::Count` / `Emit`
    /// and `Effect::Record`), by `(host, subsystem, name)`: fetched
    /// from the registry — a `String` key, its lock, a map walk — the
    /// first time a host reports a metric, not on every sample.
    actor_counters: IntMap<ActorMetric, Counter>,
    actor_histograms: IntMap<ActorMetric, Histogram>,
}

type ActorMetric = (u32, &'static str, &'static str);

impl NetMeters {
    fn new(registry: &Registry, n: usize) -> Self {
        let hosts = (0..n)
            .map(|i| {
                let node = i as u32;
                HostMeters {
                    sent_pkts: registry.counter(node, "net", "sent_pkts"),
                    sent_bytes: registry.counter(node, "net", "sent_bytes"),
                    recv_pkts: registry.counter(node, "net", "recv_pkts"),
                    recv_bytes: registry.counter(node, "net", "recv_bytes"),
                    dropped_pkts: registry.counter(node, "net", "dropped_pkts"),
                }
            })
            .collect();
        NetMeters {
            hosts,
            by_kind: Default::default(),
            by_channel: BTreeMap::new(),
            drop_loss: registry.counter(CLUSTER, "net", "drop.loss"),
            drop_dead: registry.counter(CLUSTER, "net", "drop.dead_host"),
            drop_partition: registry.counter(CLUSTER, "net", "drop.partition"),
            drop_gray: registry.counter(CLUSTER, "net", "drop.gray"),
            drop_unroutable: registry.counter(CLUSTER, "net", "drop.unroutable"),
            delivery_ns: registry.histogram(CLUSTER, "net", "delivery_ns"),
            actor_counters: IntMap::default(),
            actor_histograms: IntMap::default(),
        }
    }

    fn actor_counter(&mut self, registry: &Registry, key: ActorMetric) -> &Counter {
        self.actor_counters
            .entry(key)
            .or_insert_with(|| registry.counter(key.0, key.1, key.2))
    }

    fn on_drop(&self, host: HostId, reason: DropReason) {
        self.hosts[host.index()].dropped_pkts.inc();
        match reason {
            DropReason::Loss => self.drop_loss.inc(),
            DropReason::DeadHost => self.drop_dead.inc(),
            DropReason::Partition => self.drop_partition.inc(),
            DropReason::Gray => self.drop_gray.inc(),
            DropReason::Unroutable => self.drop_unroutable.inc(),
        }
    }
}

// --------------------------------------------------------- descriptors

/// A cross-shard send, shipped at the epoch barrier. Carries everything
/// a receiving shard needs to reproduce exactly the deliveries the
/// sequential engine would have scheduled: the sending event's tag
/// coordinates, the sender's action counter (the loss/jitter hash key),
/// and the NIC serialization delay already charged at the sender.
#[derive(Debug, Clone)]
pub(crate) struct Descriptor {
    pub time: SimTime,
    pub key: u32,
    pub seq: u64,
    /// Effect step of the `Send` within its event.
    pub step: u32,
    pub src: HostId,
    /// The sender's action counter for this send.
    pub act: u32,
    /// `None` = unicast to `to`; `Some((channel, ttl))` = multicast
    /// (receivers are computed by the expanding shard; `to` is unused).
    pub channel: Option<(ChannelId, u8)>,
    pub to: HostId,
    pub msg: Message,
    pub size: u32,
    pub serialize: SimTime,
}

impl Descriptor {
    pub(crate) fn tag(&self) -> Tag {
        Tag {
            time: self.time,
            key: self.key,
            seq: self.seq,
            step: self.step,
            sub: 0,
        }
    }
}

// ------------------------------------------------------------- journal

/// One journaled state change (recorded only in multi-shard mode, and
/// only when the state actually changed). `unapply` in reverse order
/// rewinds the shard to its epoch-start state; `reapply` in forward
/// order returns it to the live state.
#[derive(Debug)]
pub(crate) enum JEntry {
    /// `h` joined (`added`) or left a channel.
    Sub {
        ch: ChannelId,
        h: HostId,
        added: bool,
    },
    /// Base loss rate change.
    Loss { old: f64, new: f64 },
    /// Per-link loss floor change.
    LinkLoss {
        key: (u16, u16),
        old: Option<f64>,
        new: Option<f64>,
    },
    /// Per-link bandwidth cap change. `old_free` preserves the link's
    /// queue state across a cap *removal* (which clears it).
    LinkBw {
        key: (u16, u16),
        old: Option<u64>,
        new: Option<u64>,
        old_free: Option<SimTime>,
    },
    /// Router went down (`down`) or came back up.
    Router { r: u16, down: bool },
    /// Host was killed (`killed`) or revived; bumps its epoch.
    LifeCycle { h: HostId, killed: bool },
}

#[derive(Debug)]
pub(crate) struct Journaled {
    pub tag: Tag,
    pub entry: JEntry,
}

// ------------------------------------------------------------ protocol

/// One rendezvous round's request to a shard.
#[derive(Debug, Clone)]
pub(crate) enum ShardMsg {
    /// Reply with the earliest pending local event time.
    Probe,
    /// Execute all local events with `time <= until`, advance the local
    /// clock to `until`, reply with the outbound descriptor batch.
    Run { until: SimTime },
    /// Expand inbound descriptors (sorted by tag) into local events.
    Expand { batch: Vec<Descriptor> },
    /// Apply multicast receiver-count patches, then drain buffered
    /// trace/stats/observations.
    Drain { patches: Vec<(u64, u32)> },
}

/// A shard's reply for each [`ShardMsg`].
#[derive(Debug)]
pub(crate) enum ShardReply {
    NextTime(Option<SimTime>),
    RunDone {
        outbox: Vec<Descriptor>,
    },
    ExpandDone {
        patches: Vec<(u64, u32)>,
    },
    Drained {
        batch: DrainBatch,
        next: Option<SimTime>,
    },
}

/// Everything a shard buffered during one epoch, shipped to the facade
/// for the deterministic merge.
#[derive(Debug, Default)]
pub(crate) struct DrainBatch {
    pub trace: Vec<(Tag, TraceEvent)>,
    pub obs: Vec<(Tag, Observation)>,
    /// `(host index, delta)` for hosts touched this epoch.
    pub hosts: Vec<(u32, HostStats)>,
    /// First bucket index of `series`.
    pub series_from: usize,
    pub series: Vec<SeriesPoint>,
    pub kinds: Vec<(usize, (u64, u64))>,
}

// --------------------------------------------------------------- shard

/// One event loop over the hosts of a subset of segments. See the
/// module docs; with `multi == false` this is the whole engine.
pub(crate) struct Shard {
    pub(crate) id: u32,
    /// More than one shard in the engine?
    pub(crate) multi: bool,
    pub(crate) topo: Arc<Topology>,
    /// Shard index per segment (shared with the facade).
    shard_of_seg: Arc<Vec<u32>>,
    /// Shard index per host (shared with the facade).
    owner_of: Arc<Vec<u32>>,
    pub(crate) cfg: EngineConfig,
    seed: u64,
    pub(crate) clock: SimTime,
    queue: TimerWheel<EventKind>,
    arena: PktArena,
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Per-host actor RNG, seeded from `(engine seed, host)`. Present
    /// exactly where an actor is installed.
    rngs: Vec<Option<Box<StdRng>>>,
    /// Per-host action counter: bumped by every `Send`/`SetTimer`, the
    /// source of mode-independent event seqs and loss/jitter hashes.
    act: Vec<u32>,
    pub(crate) alive: Vec<bool>,
    /// Bumped on every kill/revive; stale events are discarded by epoch.
    epoch: Vec<u32>,
    /// Channel subscribers, indexed by the segment they sit on: a
    /// fan-out list is built from the segments inside the TTL only, not
    /// by filtering the channel's cluster-wide membership.
    subs: BTreeMap<(SegmentId, ChannelId), BTreeSet<HostId>>,
    /// Multicast fan-out cache: `(channel, src segment, ttl)` → the
    /// subscriber list a send from that segment reaches (sorted by host
    /// id, sender included — skipped at use). Invalidated whenever the
    /// underlying subscription sets change.
    mcast_cache: IntMap<(u16, u16, u8), Vec<HostId>>,
    /// Reusable per-send buffer of rolled `(deliver_at, receiver)` pairs.
    deliver_buf: Vec<(SimTime, HostId)>,
    /// Reusable buffer for the frame of a packet's only or last delivery
    /// (wire-codec mode).
    frame_buf: Vec<u8>,
    blocked: HashSet<(u16, u16)>,
    /// Gray partitions: `(from, to)` directed segment pairs whose
    /// traffic is severed in that direction only.
    gray_blocked: HashSet<(u16, u16)>,
    /// Per-host clock skew in ppm (fast > 0, slow < 0). Scales timer
    /// delays at arm time.
    skew_ppm: Vec<i64>,
    /// Directed inter-segment link bandwidth caps in bytes/sec, plus
    /// when each capped link's transmit queue drains. In multi-shard
    /// mode every `link_free` key has exactly one writer: the shard
    /// owning the destination segment (intra-shard keys are written on
    /// the send path, cross-shard keys during descriptor expansion).
    link_bw: HashMap<(u16, u16), u64>,
    link_free: HashMap<(u16, u16), SimTime>,
    /// Directed per-link loss floors (max of this and the global rate).
    link_loss: HashMap<(u16, u16), f64>,
    /// Reusable per-send map of link-queue delay already charged to a
    /// directed segment pair (one multicast crosses each link once).
    link_extra_buf: HashMap<(u16, u16), SimTime>,
    stats: Stats,
    effects_buf: Vec<Effect>,
    tracelog: TraceLog,
    registry: Registry,
    meters: Option<NetMeters>,
    /// Egress-NIC serialization model: when each host's transmit queue
    /// drains. A burst of sends from one host goes on the wire
    /// back-to-back, not simultaneously.
    egress_free: Vec<SimTime>,
    // --- current event tag (the base of every record's Tag) ---
    cur_time: SimTime,
    cur_key: u32,
    cur_seq: u64,
    cur_step: u32,
    // --- multi-shard buffers ---
    outbox: Vec<Descriptor>,
    journal: Vec<Journaled>,
    pending_trace: Vec<(Tag, TraceEvent)>,
    pending_obs: Vec<(Tag, Observation)>,
    /// Multicast sends with possible remote receivers whose buffered
    /// `Send` record awaits receiver-count patches: send key
    /// (`src << 32 | act`) → index into `pending_trace`.
    send_patches: IntMap<u64, u32>,
    /// Hosts whose stats changed this epoch (delta-drain bookkeeping).
    dirty: Vec<bool>,
    dirty_hosts: Vec<u32>,
    /// First series bucket not yet drained.
    series_from: usize,
    /// Expansion-time fan-out memo, valid between journal replays.
    fan_memo: IntMap<(u16, u16, u8), Vec<HostId>>,
    /// `(src segment, ttl)` → does any *other* shard's segment fall
    /// within the multicast scope? Gates descriptor emission.
    remote_reach: IntMap<(u16, u8), bool>,
}

impl Shard {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u32,
        nshards: usize,
        topo: Arc<Topology>,
        shard_of_seg: Arc<Vec<u32>>,
        owner_of: Arc<Vec<u32>>,
        cfg: EngineConfig,
        seed: u64,
        registry: Registry,
    ) -> Self {
        let n = topo.num_hosts();
        let multi = nshards > 1;
        let meters = cfg.metrics.then(|| NetMeters::new(&registry, n));
        let trace_cap = if multi { 0 } else { cfg.capacity_for_trace() };
        Shard {
            id,
            multi,
            shard_of_seg,
            owner_of,
            seed,
            clock: 0,
            queue: TimerWheel::new(),
            arena: PktArena::default(),
            actors: (0..n).map(|_| None).collect(),
            rngs: (0..n).map(|_| None).collect(),
            act: vec![0; n],
            alive: vec![true; n],
            epoch: vec![0; n],
            subs: BTreeMap::new(),
            mcast_cache: IntMap::default(),
            deliver_buf: Vec::new(),
            frame_buf: Vec::new(),
            blocked: HashSet::new(),
            gray_blocked: HashSet::new(),
            skew_ppm: vec![0; n],
            link_bw: HashMap::new(),
            link_free: HashMap::new(),
            link_loss: HashMap::new(),
            link_extra_buf: HashMap::new(),
            stats: Stats::new(n, cfg.series_bucket),
            effects_buf: Vec::new(),
            tracelog: TraceLog::new(trace_cap),
            registry,
            meters,
            egress_free: vec![0; n],
            cur_time: 0,
            cur_key: 0,
            cur_seq: 0,
            cur_step: 0,
            outbox: Vec::new(),
            journal: Vec::new(),
            pending_trace: Vec::new(),
            pending_obs: Vec::new(),
            send_patches: IntMap::default(),
            dirty: vec![false; n],
            dirty_hosts: Vec::new(),
            series_from: 0,
            fan_memo: IntMap::default(),
            remote_reach: IntMap::default(),
            topo,
            cfg,
        }
    }

    /// The rendezvous worker entry point (see [`ShardMsg`]).
    pub(crate) fn handle(_idx: usize, shard: &mut Shard, msg: ShardMsg) -> ShardReply {
        match msg {
            ShardMsg::Probe => ShardReply::NextTime(shard.next_time()),
            ShardMsg::Run { until } => {
                shard.run_epoch(until);
                ShardReply::RunDone {
                    outbox: shard.take_outbox(),
                }
            }
            ShardMsg::Expand { batch } => ShardReply::ExpandDone {
                patches: shard.expand(batch),
            },
            ShardMsg::Drain { patches } => {
                shard.apply_patches(&patches);
                let next = shard.next_time();
                ShardReply::Drained {
                    batch: shard.take_drain(),
                    next,
                }
            }
        }
    }

    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    pub(crate) fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    pub(crate) fn take_outbox(&mut self) -> Vec<Descriptor> {
        std::mem::take(&mut self.outbox)
    }

    pub(crate) fn trace_log(&self) -> &TraceLog {
        &self.tracelog
    }

    pub(crate) fn stats(&self) -> &Stats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    pub(crate) fn install(&mut self, host: HostId, actor: Box<dyn Actor>) {
        let idx = host.index();
        debug_assert!(self.owns(host), "actor installed on non-owner shard");
        self.actors[idx] = Some(actor);
        self.rngs[idx] = Some(Box::new(StdRng::seed_from_u64(host_seed(
            self.seed, host.0,
        ))));
    }

    fn owns(&self, h: HostId) -> bool {
        self.owner_of[h.index()] == self.id
    }

    /// Run `on_start` for every locally-installed actor, in host id
    /// order. Records carry tag `(0, host + 1, 0, step, sub)`, which
    /// interleaves across shards exactly like the sequential start loop.
    pub(crate) fn start_phase(&mut self) {
        for idx in 0..self.actors.len() {
            if self.actors[idx].is_some() && self.owner_of[idx] == self.id {
                let h = HostId(idx as u32);
                self.cur_time = 0;
                self.cur_key = h.0 + 1;
                self.cur_seq = 0;
                self.cur_step = 0;
                self.run_callback(h, |actor, ctx| actor.on_start(ctx));
            }
        }
    }

    /// Push a driver-scheduled control event (seq assigned by the
    /// facade so all shards agree on the global order).
    pub(crate) fn push_control(&mut self, t: SimTime, seq: u64, c: Control) {
        self.queue.push(Scheduled {
            time: t,
            key: 0,
            seq,
            payload: EventKind::Control(c),
        });
    }

    /// Apply a control immediately (the facade's `control_now`), tagged
    /// as a driver action at the current clock.
    pub(crate) fn apply_control_now(&mut self, seq: u64, c: Control) {
        self.cur_time = self.clock;
        self.cur_key = 0;
        self.cur_seq = seq;
        self.cur_step = 0;
        self.apply_control(c);
    }

    /// Execute all local events with `time <= until`; leave the clock at
    /// `until`.
    pub(crate) fn run_epoch(&mut self, until: SimTime) {
        while let Some(ev) = self.queue.pop_before(until) {
            self.clock = ev.time;
            self.cur_time = ev.time;
            self.cur_key = ev.key;
            self.cur_seq = ev.seq;
            self.cur_step = 0;
            self.dispatch(ev.payload);
        }
        self.clock = until;
        self.cur_time = until;
    }

    // ------------------------------------------------------ event loop

    fn tag(&self, sub: u32) -> Tag {
        Tag {
            time: self.cur_time,
            key: self.cur_key,
            seq: self.cur_seq,
            step: self.cur_step,
            sub,
        }
    }

    /// Record a trace event at the current tag. In single-shard mode it
    /// goes straight to the log; in multi-shard mode it is buffered
    /// with its tag for the facade's merge. Returns the buffer index
    /// when buffered (for receiver-count patching).
    fn trace_at(&mut self, sub: u32, ev: TraceEvent) -> Option<u32> {
        if !self.cfg.trace.wants(&ev) {
            return None;
        }
        if self.multi {
            self.pending_trace.push((self.tag(sub), ev));
            Some((self.pending_trace.len() - 1) as u32)
        } else {
            self.tracelog.push(self.cur_time, ev);
            None
        }
    }

    fn trace(&mut self, ev: TraceEvent) {
        let _ = self.trace_at(0, ev);
    }

    /// Trace a *globally applied* control's record: every shard applies
    /// the control, but only shard 0 may emit the record or the merge
    /// would duplicate it.
    fn trace_global(&mut self, ev: TraceEvent) {
        if !self.multi || self.id == 0 {
            self.trace(ev);
        }
    }

    /// Journal a state change for the epoch's rewind/replay (no-op in
    /// single-shard mode).
    fn jlog(&mut self, entry: JEntry) {
        if self.multi {
            let tag = self.tag(0);
            self.journal.push(Journaled { tag, entry });
        }
    }

    /// Mark a host's stats dirty for the delta drain.
    fn note(&mut self, h: HostId) {
        if self.multi && !self.dirty[h.index()] {
            self.dirty[h.index()] = true;
            self.dirty_hosts.push(h.0);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, epoch, pkt } => self.deliver(to, epoch, pkt),
            EventKind::Timer { host, epoch, token } => {
                let idx = host.index();
                if !self.alive[idx] || self.epoch[idx] != epoch {
                    return;
                }
                self.trace(TraceEvent::Timer { host, token });
                self.run_callback(host, |actor, ctx| actor.on_timer(ctx, token));
            }
            EventKind::Control(c) => self.apply_control(c),
        }
    }

    fn apply_control(&mut self, c: Control) {
        match c {
            Control::Kill(h) => {
                let idx = h.index();
                if !self.alive[idx] {
                    return;
                }
                self.alive[idx] = false;
                self.epoch[idx] += 1;
                self.egress_free[idx] = 0;
                self.jlog(JEntry::LifeCycle { h, killed: true });
                self.trace(TraceEvent::Fault("kill", h));
                let seg = self.topo.segment_of(h);
                let mut removed: Vec<ChannelId> = Vec::new();
                for (&(_, ch), set) in self
                    .subs
                    .range_mut((seg, ChannelId(0))..=(seg, ChannelId(u16::MAX)))
                {
                    if set.remove(&h) {
                        removed.push(ch);
                    }
                }
                for ch in removed {
                    self.jlog(JEntry::Sub {
                        ch,
                        h,
                        added: false,
                    });
                }
                self.mcast_cache.clear();
                if let Some(actor) = self.actors[idx].as_mut() {
                    actor.on_crash();
                }
            }
            Control::Revive(h) => {
                let idx = h.index();
                if self.alive[idx] {
                    return;
                }
                self.alive[idx] = true;
                self.epoch[idx] += 1;
                self.jlog(JEntry::LifeCycle { h, killed: false });
                self.trace(TraceEvent::Fault("revive", h));
                if self.actors[idx].is_some() {
                    self.run_callback(h, |actor, ctx| actor.on_start(ctx));
                }
            }
            Control::BlockSegments(a, b) => {
                self.blocked.insert((a.0.min(b.0), a.0.max(b.0)));
                self.trace_global(TraceEvent::Net(
                    "partition",
                    format!("seg{}–seg{}", a.0, b.0),
                ));
            }
            Control::UnblockSegments(a, b) => {
                self.blocked.remove(&(a.0.min(b.0), a.0.max(b.0)));
                self.trace_global(TraceEvent::Net("heal", format!("seg{}–seg{}", a.0, b.0)));
            }
            Control::SetLoss(rate) => {
                let old = self.cfg.loss.rate;
                self.cfg.loss.rate = rate.clamp(0.0, 1.0);
                self.jlog(JEntry::Loss {
                    old,
                    new: rate.clamp(0.0, 1.0),
                });
                self.trace_global(TraceEvent::Net("loss", format!("rate={rate:.3}")));
            }
            Control::BlockDirection(from, to) => {
                self.gray_blocked.insert((from.0, to.0));
                self.trace_global(TraceEvent::Net(
                    "gray-partition",
                    format!("seg{}→seg{}", from.0, to.0),
                ));
            }
            Control::UnblockDirection(from, to) => {
                self.gray_blocked.remove(&(from.0, to.0));
                self.trace_global(TraceEvent::Net(
                    "gray-heal",
                    format!("seg{}→seg{}", from.0, to.0),
                ));
            }
            Control::SetSkew(h, ppm) => {
                // A clock cannot run backwards faster than time itself.
                let ppm = ppm.max(-999_999);
                self.skew_ppm[h.index()] = ppm;
                self.trace(TraceEvent::Net("skew", format!("{h} {ppm:+}ppm")));
            }
            Control::RouterDown(r) => {
                if Arc::make_mut(&mut self.topo).set_router_down(RouterId(r)) {
                    // Every cached fan-out list was computed under the old
                    // scoping.
                    self.mcast_cache.clear();
                    self.remote_reach.clear();
                    self.jlog(JEntry::Router { r, down: true });
                    self.trace_global(TraceEvent::Net("router-down", format!("r{r}")));
                }
            }
            Control::RouterUp(r) => {
                if Arc::make_mut(&mut self.topo).set_router_up(RouterId(r)) {
                    self.mcast_cache.clear();
                    self.remote_reach.clear();
                    self.jlog(JEntry::Router { r, down: false });
                    self.trace_global(TraceEvent::Net("router-up", format!("r{r}")));
                }
            }
            Control::SetLinkBandwidth(from, to, bytes_per_sec) => {
                let key = (from.0, to.0);
                let old = self.link_bw.get(&key).copied();
                let old_free = self.link_free.get(&key).copied();
                let new = (bytes_per_sec != 0).then_some(bytes_per_sec);
                if bytes_per_sec == 0 {
                    self.link_bw.remove(&key);
                    self.link_free.remove(&key);
                } else {
                    self.link_bw.insert(key, bytes_per_sec);
                }
                self.jlog(JEntry::LinkBw {
                    key,
                    old,
                    new,
                    old_free,
                });
                self.trace_global(TraceEvent::Net(
                    "bandwidth",
                    format!("seg{}→seg{} {bytes_per_sec} B/s", from.0, to.0),
                ));
            }
            Control::SetLinkLoss(from, to, rate) => {
                let key = (from.0, to.0);
                let old = self.link_loss.get(&key).copied();
                let new = if rate <= 0.0 {
                    self.link_loss.remove(&key);
                    None
                } else {
                    let r = rate.clamp(0.0, 1.0);
                    self.link_loss.insert(key, r);
                    Some(r)
                };
                self.jlog(JEntry::LinkLoss { key, old, new });
                self.trace_global(TraceEvent::Net(
                    "link-loss",
                    format!("seg{}→seg{} rate={rate:.3}", from.0, to.0),
                ));
            }
        }
    }

    fn segments_blocked(&self, a: HostId, b: HostId) -> bool {
        if self.blocked.is_empty() {
            return false;
        }
        let (sa, sb) = (self.topo.segment_of(a).0, self.topo.segment_of(b).0);
        self.blocked.contains(&(sa.min(sb), sa.max(sb)))
    }

    /// Directional: is traffic *from* `a` *to* `b` gray-severed?
    fn gray_blocked_towards(&self, a: HostId, b: HostId) -> bool {
        if self.gray_blocked.is_empty() {
            return false;
        }
        let (sa, sb) = (self.topo.segment_of(a).0, self.topo.segment_of(b).0);
        self.gray_blocked.contains(&(sa, sb))
    }

    /// Is `b` currently routable from `a` (routers permitting)?
    fn routable(&self, a: HostId, b: HostId) -> bool {
        let (sa, sb) = (self.topo.segment_of(a), self.topo.segment_of(b));
        sa == sb || self.topo.segment_hops(sa, sb) != u8::MAX
    }

    fn deliver(&mut self, to: HostId, epoch: u32, pkt_id: u32) {
        // Move the packet out of the arena for the duration of the
        // callback (the shard must stay mutably borrowable); the last
        // delivery recycles the cell.
        let (mut pkt, next) = self.arena.checkout(pkt_id);
        // The packet's next receiver enters the queue before this one
        // runs, under the same seq. It sorts strictly after the current
        // event and nothing later has been popped yet, so it fires
        // exactly where an event pushed at send time would have.
        if let Some(hop) = next {
            self.queue_hop(pkt_id, self.cur_seq, hop);
        }
        let last = next.is_none();
        self.deliver_pkt(to, epoch, &mut pkt, last);
        self.arena.restore(pkt_id, pkt, last);
    }

    fn queue_hop(&mut self, pkt: u32, seq: u64, hop: Hop) {
        self.queue.push(Scheduled {
            time: hop.at,
            key: hop.to.0 + 1,
            seq,
            payload: EventKind::Deliver {
                to: hop.to,
                epoch: hop.epoch,
                pkt,
            },
        });
    }

    /// Put a rolled packet in flight: intern it, queue its earliest
    /// delivery, and park the others with it in `(deliver_at, receiver)`
    /// order for [`Shard::deliver`] to queue one at a time. Every
    /// receiver is stamped with its epoch as of now — the send instant
    /// (during descriptor expansion: the replayed state of the send
    /// instant). `rolled` comes back empty.
    fn launch(&mut self, pkt: Pkt, seq: u64, rolled: &mut Vec<(SimTime, HostId)>) {
        rolled.sort_unstable();
        let mut hops = rolled.drain(..).map(|(at, to)| Hop {
            at,
            to,
            epoch: self.epoch[to.index()],
        });
        let Some(first) = hops.next() else {
            return;
        };
        let id = self.arena.insert(pkt, hops.rev());
        self.queue_hop(id, seq, first);
    }

    /// Run one delivery of `pkt`; `last` when no other is left to come.
    fn deliver_pkt(&mut self, to: HostId, epoch: u32, pkt: &mut Pkt, last: bool) {
        let idx = to.index();
        let channel = pkt.channel.map(|(c, _)| c.0);
        if !self.alive[idx] || self.epoch[idx] != epoch {
            self.stats.on_drop(to);
            self.note(to);
            if let Some(m) = &self.meters {
                m.on_drop(to, DropReason::DeadHost);
            }
            self.trace(TraceEvent::Drop {
                src: pkt.src,
                dst: to,
                channel,
                kind: pkt.msg.kind(),
                reason: DropReason::DeadHost,
            });
            return;
        }
        // Partitions that appeared while the packet was in flight still
        // block it: the check happens at delivery time. Gray partitions
        // and router loss are checked the same way, each with its own
        // drop reason so the taxonomy stays exact.
        let blocked_reason = if self.segments_blocked(pkt.src, to) {
            Some(DropReason::Partition)
        } else if self.gray_blocked_towards(pkt.src, to) {
            Some(DropReason::Gray)
        } else if !self.routable(pkt.src, to) {
            Some(DropReason::Unroutable)
        } else {
            None
        };
        if let Some(reason) = blocked_reason {
            self.stats.on_drop(to);
            self.note(to);
            if let Some(m) = &self.meters {
                m.on_drop(to, reason);
            }
            self.trace(TraceEvent::Drop {
                src: pkt.src,
                dst: to,
                channel,
                kind: pkt.msg.kind(),
                reason,
            });
            return;
        }
        let cpu = CPU_PER_PACKET + CPU_PER_BYTE * pkt.size as u64;
        self.stats.on_recv(self.clock, to, pkt.size as u64, cpu);
        self.note(to);
        if let Some(m) = &self.meters {
            let hm = &m.hosts[idx];
            hm.recv_pkts.inc();
            hm.recv_bytes.add(pkt.size as u64);
            m.delivery_ns.record(self.clock - pkt.sent_at);
        }
        self.trace(TraceEvent::Deliver {
            src: pkt.src,
            dst: to,
            channel,
            kind: pkt.msg.kind(),
            bytes: pkt.size,
        });
        let meta = PacketMeta {
            src: pkt.src,
            channel: pkt.channel.map(|(c, _)| c),
            ttl: pkt.channel.map(|(_, t)| t),
            size: pkt.size,
        };
        let Some(kind) = self.cfg.wire_codec else {
            return self.run_callback(to, |actor, ctx| actor.on_packet(ctx, meta, &pkt.msg));
        };
        // The one place a frame is encoded: here, where a receiver is
        // about to read it, so a packet holds its `Message` while in
        // flight (a full-view unicast: ~32 B a record against ~200 B
        // encoded) and one whose every delivery is dropped never
        // encodes. A packet with receivers still to come keeps the frame
        // for them; the only or last receiver reads it out of a buffer
        // the shard reuses.
        let mut scratch = std::mem::take(&mut self.frame_buf);
        let frame: &[u8] = if last && pkt.frame.is_none() {
            tamp_wire::codec::encode_into(&pkt.msg, &mut scratch);
            &scratch
        } else {
            pkt.frame
                .get_or_insert_with(|| tamp_wire::codec::encode(&pkt.msg))
        };
        debug_assert_eq!(frame.len() as u32 + HEADER_OVERHEAD, pkt.size);
        self.run_callback(to, |actor, ctx| {
            actor.on_wire_packet(ctx, meta, frame, kind)
        });
        self.frame_buf = scratch;
    }

    /// A host's nominal timer delay as simulated time: a clock running
    /// `+ppm` fast measures out `delay` nominal ns in
    /// `delay · 10⁶ / (10⁶ + ppm)` real ns. Zero skew is the identity.
    fn skewed_delay(&self, host: HostId, delay: SimTime) -> SimTime {
        let ppm = self.skew_ppm[host.index()];
        if ppm == 0 {
            return delay;
        }
        let denom = (1_000_000 + ppm) as u128;
        ((delay as u128 * 1_000_000) / denom) as SimTime
    }

    /// Invoke an actor callback and apply its effects. The actor is moved
    /// out of the slot during the call so the shard stays borrowable.
    /// Effects run at steps `cur_step + 1, cur_step + 2, ...` of the
    /// current event tag.
    fn run_callback<F>(&mut self, host: HostId, f: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Context),
    {
        let idx = host.index();
        let Some(mut actor) = self.actors[idx].take() else {
            return;
        };
        let mut effects = std::mem::take(&mut self.effects_buf);
        {
            let rng = self.rngs[idx]
                .as_mut()
                .expect("actor installed without rng");
            let mut ctx = Context::new(self.clock, host, rng, &mut effects);
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[idx] = Some(actor);
        let base = self.cur_step;
        for (i, e) in effects.drain(..).enumerate() {
            self.cur_step = base + 1 + i as u32;
            self.apply_effect(host, e);
        }
        self.effects_buf = effects;
    }

    fn bump_act(&mut self, h: HostId) -> u32 {
        let a = &mut self.act[h.index()];
        let v = *a;
        *a += 1;
        debug_assert!(*a < u32::MAX, "per-host action counter overflow");
        v
    }

    fn apply_effect(&mut self, host: HostId, e: Effect) {
        match e {
            Effect::Send { dest, msg } => self.send(host, dest, msg),
            Effect::SetTimer { delay, token } => {
                let act = self.bump_act(host);
                let epoch = self.epoch[host.index()];
                let delay = self.skewed_delay(host, delay);
                self.queue.push(Scheduled {
                    time: self.clock + delay,
                    key: host.0 + 1,
                    seq: seq_of(host, act),
                    payload: EventKind::Timer { host, epoch, token },
                });
            }
            Effect::Subscribe(c) => {
                if self.subs_of(host, c).insert(host) {
                    self.jlog(JEntry::Sub {
                        ch: c,
                        h: host,
                        added: true,
                    });
                }
                self.mcast_cache.retain(|k, _| k.0 != c.0);
            }
            Effect::Unsubscribe(c) => {
                if self.subs_of(host, c).remove(&host) {
                    self.jlog(JEntry::Sub {
                        ch: c,
                        h: host,
                        added: false,
                    });
                }
                self.mcast_cache.retain(|k, _| k.0 != c.0);
            }
            Effect::Observe(kind) => {
                let ob = Observation {
                    time: self.clock,
                    observer: host,
                    kind,
                };
                if self.multi {
                    let tag = self.tag(0);
                    self.pending_obs.push((tag, ob));
                } else {
                    self.stats.observe(ob);
                }
            }
            // No meters, no registry to count into: both follow
            // `EngineConfig::metrics`.
            Effect::Count { subsystem, name, n } => {
                if let Some(m) = &mut self.meters {
                    m.actor_counter(&self.registry, (host.0, subsystem, name))
                        .add(n);
                }
            }
            Effect::Record {
                subsystem,
                name,
                value,
            } => {
                if let Some(m) = &mut self.meters {
                    m.actor_histograms
                        .entry((host.0, subsystem, name))
                        .or_insert_with(|| self.registry.histogram(host.0, subsystem, name))
                        .record(value);
                }
            }
            Effect::Emit(event) => {
                if let Some(m) = &mut self.meters {
                    m.actor_counter(&self.registry, (host.0, "events", event.name()))
                        .inc();
                }
                self.trace(TraceEvent::Protocol { node: host, event });
            }
        }
    }

    /// The *local* subscriber list a multicast from `src` reaches, from
    /// the fan-out cache (built on miss). The list is keyed and
    /// filtered by the *segment* of `src` — TTL distance is
    /// segment-based — so one list serves every sender on the segment.
    /// It may contain `src` itself; callers skip it (no multicast
    /// loopback). Taken out of the cache by value to keep the shard
    /// borrowable; return via [`Shard::stash_receivers`].
    fn take_receivers(&mut self, channel: ChannelId, src_seg: SegmentId, ttl: u8) -> Vec<HostId> {
        let key = (channel.0, src_seg.0, ttl);
        if let Some(list) = self.mcast_cache.get_mut(&key) {
            return std::mem::take(list);
        }
        self.filter_subs(channel, src_seg, ttl)
    }

    /// The set of `h`'s segment-mates subscribed to `ch` (created empty
    /// on first use).
    fn subs_of(&mut self, h: HostId, ch: ChannelId) -> &mut BTreeSet<HostId> {
        let seg = self.topo.segment_of(h);
        self.subs.entry((seg, ch)).or_default()
    }

    /// Every subscriber of `channel` within `ttl` of `src_seg`, sorted
    /// by host id: the subscriber sets of the segments in scope, merged.
    /// TTL 1 — the bulk of the paper's traffic — never leaves `src_seg`,
    /// so only a wider scope looks at the other segments at all.
    fn filter_subs(&self, channel: ChannelId, src_seg: SegmentId, ttl: u8) -> Vec<HostId> {
        let candidates = if ttl <= 1 {
            src_seg.0..src_seg.0 + 1
        } else {
            0..self.topo.num_segments() as u16
        };
        let mut list: Vec<HostId> = candidates
            .map(SegmentId)
            .filter(|&s| {
                let dist = if s == src_seg {
                    1
                } else {
                    self.topo.segment_hops(src_seg, s).saturating_add(1)
                };
                dist <= ttl
            })
            .filter_map(|s| self.subs.get(&(s, channel)))
            .flatten()
            .copied()
            .collect();
        // Host ids need not ascend with segment ids.
        list.sort_unstable();
        list
    }

    fn stash_receivers(&mut self, channel: ChannelId, src_seg: u16, ttl: u8, list: Vec<HostId>) {
        self.mcast_cache.insert((channel.0, src_seg, ttl), list);
    }

    /// Could a multicast from `src_seg` with `ttl` reach any segment
    /// owned by another shard? Pure topology + plan — cached, and
    /// invalidated with the fan-out cache on router changes. Gates
    /// cross-shard descriptor emission: TTL-1 traffic (the bulk of the
    /// paper's heartbeat load) never crosses, because segments are
    /// shard-atomic.
    fn remote_in_reach(&mut self, src_seg: SegmentId, ttl: u8) -> bool {
        if ttl <= 1 {
            return false;
        }
        if let Some(&b) = self.remote_reach.get(&(src_seg.0, ttl)) {
            return b;
        }
        let b = (0..self.topo.num_segments() as u16).any(|s| {
            self.shard_of_seg[s as usize] != self.id && {
                let hops = self.topo.segment_hops(src_seg, SegmentId(s));
                hops != u8::MAX && hops.saturating_add(1) <= ttl
            }
        });
        self.remote_reach.insert((src_seg.0, ttl), b);
        b
    }

    /// Roll loss, jitter and link queueing for one receiver; returns the
    /// delivery time, or `None` when the packet drops at send time (the
    /// drop record and stats are emitted here, tagged `sub = to + 1` so
    /// the merged order is per-receiver ascending, exactly the
    /// sequential emission order). Shared verbatim by the local send
    /// path and the epoch-barrier descriptor expansion — both must
    /// produce bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn roll_delivery(
        &mut self,
        src: HostId,
        act: u32,
        to: HostId,
        channel: Option<(ChannelId, u8)>,
        kind: &'static str,
        size: u32,
        sent_at: SimTime,
        serialize: SimTime,
        base_loss: f64,
    ) -> Option<SimTime> {
        // A receiver with no router path (dynamic topology) never gets a
        // delivery scheduled.
        if !self.routable(src, to) {
            self.drop_at_send(src, to, channel, kind, DropReason::Unroutable);
            return None;
        }
        let mut p = base_loss;
        if !self.link_loss.is_empty() {
            let (sa, sb) = (self.topo.segment_of(src).0, self.topo.segment_of(to).0);
            if sa != sb {
                if let Some(&link) = self.link_loss.get(&(sa, sb)) {
                    p = p.max(link);
                }
            }
        }
        if p > 0.0 && self.noise_f64(src, act, to, SALT_LOSS) < p {
            self.drop_at_send(src, to, channel, kind, DropReason::Loss);
            return None;
        }
        let jitter = if self.cfg.latency_jitter > 0 {
            self.noise(src, act, to, SALT_JITTER) % self.cfg.latency_jitter
        } else {
            0
        };
        let mut at = sent_at + serialize + self.topo.latency(src, to) + jitter;
        if !self.link_bw.is_empty() {
            let (sa, sb) = (self.topo.segment_of(src).0, self.topo.segment_of(to).0);
            if sa != sb {
                if let Some(&bw) = self.link_bw.get(&(sa, sb)).filter(|&&bw| bw > 0) {
                    // One multicast occupies the link once; every
                    // receiver behind it shares the queue delay.
                    let extra = match self.link_extra_buf.get(&(sa, sb)) {
                        Some(&e) => e,
                        None => {
                            let depart = sent_at + serialize;
                            let start = depart.max(*self.link_free.get(&(sa, sb)).unwrap_or(&0));
                            let tx = (size as u128 * 1_000_000_000 / bw as u128) as SimTime;
                            self.link_free.insert((sa, sb), start + tx);
                            let e = start + tx - depart;
                            self.link_extra_buf.insert((sa, sb), e);
                            e
                        }
                    };
                    at += extra;
                }
            }
        }
        Some(at)
    }

    fn drop_at_send(
        &mut self,
        src: HostId,
        to: HostId,
        channel: Option<(ChannelId, u8)>,
        kind: &'static str,
        reason: DropReason,
    ) {
        self.stats.on_drop(to);
        self.note(to);
        if let Some(m) = &self.meters {
            m.on_drop(to, reason);
        }
        self.trace_at(
            to.0 + 1,
            TraceEvent::Drop {
                src,
                dst: to,
                channel: channel.map(|(c, _)| c.0),
                kind,
                reason,
            },
        );
    }

    fn noise(&self, src: HostId, act: u32, to: HostId, salt: u64) -> u64 {
        let a = mix64(self.seed ^ mix64(((src.0 as u64) << 32) | act as u64));
        mix64(a ^ ((to.0 as u64) << 8) ^ salt)
    }

    /// Uniform in `[0, 1)` from 53 hash bits.
    fn noise_f64(&self, src: HostId, act: u32, to: HostId, salt: u64) -> f64 {
        (self.noise(src, act, to, salt) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    fn send(&mut self, src: HostId, dest: Destination, msg: Message) {
        let act = self.bump_act(src);
        // A send only counts, in every mode: a frame, where one is
        // wanted, is encoded when a receiver reads it (`deliver_pkt`,
        // which holds it to this length).
        let size = tamp_wire::codec::encoded_len(&msg) as u32 + HEADER_OVERHEAD;
        let kind_index = msg.kind_index();
        let kind = KINDS[kind_index];
        let channel = match dest {
            Destination::Unicast(_) => None,
            Destination::Multicast { channel, ttl } => Some((channel, ttl)),
        };
        // One NIC transmission regardless of receiver count (multicast is
        // switch-replicated, exactly why the paper prefers it).
        self.stats.on_send(self.clock, src, size as u64, kind_index);
        self.note(src);
        if let Some(m) = &mut self.meters {
            let hm = &m.hosts[src.index()];
            hm.sent_pkts.inc();
            hm.sent_bytes.add(size as u64);
            let (kp, kb) = m.by_kind[kind_index].get_or_insert_with(|| {
                (
                    self.registry
                        .counter(CLUSTER, "net", format!("sent_pkts.{kind}")),
                    self.registry
                        .counter(CLUSTER, "net", format!("sent_bytes.{kind}")),
                )
            });
            kp.inc();
            kb.add(size as u64);
            if let Some((ch, _)) = channel {
                let (cp, cb) = m.by_channel.entry(ch.0).or_insert_with(|| {
                    (
                        self.registry
                            .counter(CLUSTER, "net", format!("mcast_pkts.ch{}", ch.0)),
                        self.registry
                            .counter(CLUSTER, "net", format!("mcast_bytes.ch{}", ch.0)),
                    )
                });
                cp.inc();
                cb.add(size as u64);
            }
        }

        let src_seg = self.topo.segment_of(src);
        // Cross-shard routing decisions (always local in single-shard
        // mode): a unicast to a remote host ships as a descriptor
        // instead of rolling here; a multicast whose TTL scope touches
        // another shard ships a descriptor *in addition to* the local
        // fan-out.
        let (remote_unicast, remote_mcast) = if !self.multi {
            (false, false)
        } else {
            match dest {
                Destination::Unicast(to) => (!self.owns(to), false),
                Destination::Multicast { ttl, .. } => (false, self.remote_in_reach(src_seg, ttl)),
            }
        };

        let receivers: Option<Vec<HostId>> = match dest {
            Destination::Unicast(_) => None,
            Destination::Multicast { channel, ttl } => {
                Some(self.take_receivers(channel, src_seg, ttl))
            }
        };
        // Local receiver count; remote shards patch their counts onto
        // the buffered record at the epoch barrier.
        let receiver_count = match (&receivers, dest) {
            (None, _) => 1,
            (Some(list), _) => list.len() - list.binary_search(&src).is_ok() as usize,
        };
        // Serialize onto the wire after any transmissions already
        // queued at this host's NIC.
        let tx_start = self.egress_free[src.index()].max(self.clock);
        let on_wire = tx_start + WIRE_TIME_PER_BYTE * size as u64;
        self.egress_free[src.index()] = on_wire;
        let serialize = on_wire - self.clock;
        let rec = self.trace_at(
            0,
            TraceEvent::Send {
                src,
                multicast: channel.map(|(c, t)| (c.0, t)),
                kind,
                bytes: size,
                receivers: receiver_count as u32,
            },
        );
        if remote_mcast {
            if let Some(idx) = rec {
                self.send_patches
                    .insert(((src.0 as u64) << 32) | act as u64, idx);
            }
        }
        // Roll loss and jitter per local receiver (in ascending host
        // order — roll order is part of the determinism contract) into a
        // reusable buffer of rolled deliveries.
        let loss = self.cfg.loss.rate;
        self.link_extra_buf.clear();
        let mut rolled = std::mem::take(&mut self.deliver_buf);
        debug_assert!(rolled.is_empty());
        match (&receivers, dest) {
            (None, Destination::Unicast(to)) => {
                if !remote_unicast {
                    if let Some(at) = self.roll_delivery(
                        src, act, to, channel, kind, size, self.clock, serialize, loss,
                    ) {
                        rolled.push((at, to));
                    }
                }
            }
            (Some(list), _) => {
                for &to in list {
                    // No multicast loopback: senders do not receive
                    // their own packets.
                    if to != src {
                        if let Some(at) = self.roll_delivery(
                            src, act, to, channel, kind, size, self.clock, serialize, loss,
                        ) {
                            rolled.push((at, to));
                        }
                    }
                }
            }
            (None, Destination::Multicast { .. }) => unreachable!(),
        }
        if let (Some(list), Destination::Multicast { channel, ttl }) = (receivers, dest) {
            self.stash_receivers(channel, src_seg.0, ttl, list);
        }
        // Ship the cross-shard descriptor. A remote unicast moves the
        // message (no local delivery exists); a remote-capable multicast
        // with local receivers too keeps a clone for them.
        let local = if remote_unicast || remote_mcast {
            let local = (!rolled.is_empty()).then(|| msg.clone());
            let to = match dest {
                Destination::Unicast(to) => to,
                Destination::Multicast { .. } => src, // unused for multicast
            };
            self.outbox.push(Descriptor {
                time: self.cur_time,
                key: self.cur_key,
                seq: self.cur_seq,
                step: self.cur_step,
                src,
                act,
                channel,
                to,
                msg,
                size,
                serialize,
            });
            local
        } else {
            Some(msg)
        };
        if let Some(msg) = local {
            let pkt = Pkt {
                src,
                msg,
                frame: None,
                size,
                channel,
                sent_at: self.clock,
            };
            self.launch(pkt, seq_of(src, act), &mut rolled);
        }
        self.deliver_buf = rolled;
    }

    // ------------------------------------------------------- expansion

    /// Expand inbound cross-shard descriptors (sorted by tag) into local
    /// `Deliver` events, under a journal rewind/replay so each
    /// descriptor sees exactly the state that held at its send time.
    /// Returns `(send key, local receiver count)` patches for multicast
    /// descriptors, to be routed back to the senders' `Send` records.
    pub(crate) fn expand(&mut self, batch: Vec<Descriptor>) -> Vec<(u64, u32)> {
        if batch.is_empty() {
            return Vec::new();
        }
        debug_assert!(self.multi);
        let journal = std::mem::take(&mut self.journal);
        // Rewind to the epoch-start state.
        for j in journal.iter().rev() {
            self.unapply(&j.entry);
        }
        self.fan_memo.clear();
        let mut patches = Vec::new();
        let mut jpos = 0;
        for d in batch {
            // Roll the journal forward past everything that happened
            // strictly before this send.
            while jpos < journal.len() && journal[jpos].tag < d.tag() {
                self.reapply(&journal[jpos].entry);
                self.fan_memo.clear();
                jpos += 1;
            }
            self.expand_one(d, &mut patches);
        }
        // Replay the remainder back to the live state.
        while jpos < journal.len() {
            self.reapply(&journal[jpos].entry);
            jpos += 1;
        }
        self.fan_memo.clear();
        patches
    }

    fn expand_one(&mut self, d: Descriptor, patches: &mut Vec<(u64, u32)>) {
        // Records emitted here carry the *sending event's* tag, so the
        // merged trace interleaves them exactly where the sequential
        // engine would have put them.
        self.cur_time = d.time;
        self.cur_key = d.key;
        self.cur_seq = d.seq;
        self.cur_step = d.step;
        let loss = self.cfg.loss.rate;
        self.link_extra_buf.clear();
        let kind = d.msg.kind();
        let mut rolled = std::mem::take(&mut self.deliver_buf);
        debug_assert!(rolled.is_empty());
        let list: Vec<HostId> = match d.channel {
            None => {
                debug_assert!(self.owns(d.to), "unicast descriptor routed to wrong shard");
                vec![d.to]
            }
            Some((ch, ttl)) => {
                let src_seg = self.topo.segment_of(d.src);
                let list = self.take_fan(ch, src_seg, ttl);
                if !list.is_empty() {
                    patches.push((((d.src.0 as u64) << 32) | d.act as u64, list.len() as u32));
                }
                list
            }
        };
        for &to in &list {
            debug_assert_ne!(to, d.src, "remote sender cannot be a local receiver");
            if let Some(at) = self.roll_delivery(
                d.src,
                d.act,
                to,
                d.channel,
                kind,
                d.size,
                d.time,
                d.serialize,
                loss,
            ) {
                // THE conservative-lookahead safety invariant: a
                // cross-shard delivery lands strictly after the epoch it
                // was sent in, or this shard may already have run past
                // its delivery time.
                assert!(
                    at > self.clock,
                    "conservative lookahead violated: cross-shard delivery at {at} \
                     within epoch ending {}",
                    self.clock
                );
                rolled.push((at, to));
            }
        }
        if let Some((ch, ttl)) = d.channel {
            let src_seg = self.topo.segment_of(d.src);
            self.stash_fan(ch, src_seg.0, ttl, list);
        }
        // The hops are stamped with the receivers' epochs *as of the send
        // time* — that is what the journal replay of LifeCycle entries
        // guarantees — matching the sequential stamp.
        let pkt = Pkt {
            src: d.src,
            msg: d.msg,
            frame: None,
            size: d.size,
            channel: d.channel,
            sent_at: d.time,
        };
        self.launch(pkt, seq_of(d.src, d.act), &mut rolled);
        self.deliver_buf = rolled;
    }

    /// Expansion-time fan-out lookup (separate from `mcast_cache`, which
    /// reflects *live* state — the memo reflects replayed state and is
    /// cleared on every journal replay step).
    fn take_fan(&mut self, ch: ChannelId, src_seg: SegmentId, ttl: u8) -> Vec<HostId> {
        let key = (ch.0, src_seg.0, ttl);
        if let Some(list) = self.fan_memo.get_mut(&key) {
            return std::mem::take(list);
        }
        self.filter_subs(ch, src_seg, ttl)
    }

    fn stash_fan(&mut self, ch: ChannelId, src_seg: u16, ttl: u8, list: Vec<HostId>) {
        self.fan_memo.insert((ch.0, src_seg, ttl), list);
    }

    /// Does this shard's expansion own the queue state of link `key`?
    /// Cross-shard keys are written only during expansion; intra-shard
    /// keys only on the live send path — the journal must not clobber
    /// the latter.
    fn is_cross_shard(&self, key: (u16, u16)) -> bool {
        self.shard_of_seg[key.0 as usize] != self.shard_of_seg[key.1 as usize]
    }

    fn unapply(&mut self, e: &JEntry) {
        match e {
            JEntry::Sub { ch, h, added } => {
                if *added {
                    self.subs_of(*h, *ch).remove(h);
                } else {
                    self.subs_of(*h, *ch).insert(*h);
                }
            }
            JEntry::Loss { old, .. } => self.cfg.loss.rate = *old,
            JEntry::LinkLoss { key, old, .. } => match old {
                Some(v) => {
                    self.link_loss.insert(*key, *v);
                }
                None => {
                    self.link_loss.remove(key);
                }
            },
            JEntry::LinkBw {
                key,
                old,
                new,
                old_free,
            } => {
                match old {
                    Some(v) => {
                        self.link_bw.insert(*key, *v);
                    }
                    None => {
                        self.link_bw.remove(key);
                    }
                }
                if new.is_none() && self.is_cross_shard(*key) {
                    if let Some(f) = old_free {
                        self.link_free.insert(*key, *f);
                    }
                }
            }
            JEntry::Router { r, down } => {
                let topo = Arc::make_mut(&mut self.topo);
                if *down {
                    topo.set_router_up(RouterId(*r));
                } else {
                    topo.set_router_down(RouterId(*r));
                }
            }
            JEntry::LifeCycle { h, killed } => {
                let idx = h.index();
                // Inverse: a killed host was alive before, and vice versa.
                self.alive[idx] = *killed;
                self.epoch[idx] -= 1;
            }
        }
    }

    fn reapply(&mut self, e: &JEntry) {
        match e {
            JEntry::Sub { ch, h, added } => {
                if *added {
                    self.subs_of(*h, *ch).insert(*h);
                } else {
                    self.subs_of(*h, *ch).remove(h);
                }
            }
            JEntry::Loss { new, .. } => self.cfg.loss.rate = *new,
            JEntry::LinkLoss { key, new, .. } => match new {
                Some(v) => {
                    self.link_loss.insert(*key, *v);
                }
                None => {
                    self.link_loss.remove(key);
                }
            },
            JEntry::LinkBw { key, new, .. } => match new {
                Some(v) => {
                    self.link_bw.insert(*key, *v);
                }
                None => {
                    self.link_bw.remove(key);
                    if self.is_cross_shard(*key) {
                        self.link_free.remove(key);
                    }
                }
            },
            JEntry::Router { r, down } => {
                let topo = Arc::make_mut(&mut self.topo);
                if *down {
                    topo.set_router_down(RouterId(*r));
                } else {
                    topo.set_router_up(RouterId(*r));
                }
            }
            JEntry::LifeCycle { h, killed } => {
                let idx = h.index();
                self.alive[idx] = !*killed;
                self.epoch[idx] += 1;
            }
        }
    }

    // ----------------------------------------------------------- drain

    /// Apply multicast receiver-count patches from remote expansions to
    /// the buffered `Send` records.
    pub(crate) fn apply_patches(&mut self, patches: &[(u64, u32)]) {
        for &(key, add) in patches {
            if let Some(&idx) = self.send_patches.get(&key) {
                if let (_, TraceEvent::Send { receivers, .. }) =
                    &mut self.pending_trace[idx as usize]
                {
                    *receivers += add;
                }
            }
        }
    }

    /// Take everything buffered since the last drain. Trace and
    /// observation batches are tag-stamped but *unsorted* (expansion
    /// records interleave); the facade sorts the merged batch.
    pub(crate) fn take_drain(&mut self) -> DrainBatch {
        debug_assert!(self.multi);
        let trace = std::mem::take(&mut self.pending_trace);
        let obs = std::mem::take(&mut self.pending_obs);
        self.send_patches.clear();
        self.journal.clear();
        let mut hosts = Vec::with_capacity(self.dirty_hosts.len());
        let dirty_hosts = std::mem::take(&mut self.dirty_hosts);
        for h in dirty_hosts {
            self.dirty[h as usize] = false;
            hosts.push((h, self.stats.take_host(h as usize)));
        }
        let series_from = self.series_from;
        let series = self.stats.drain_series(series_from);
        if let Some(q) = self.clock.checked_div(self.cfg.series_bucket) {
            self.series_from = q as usize;
        }
        let kinds = self.stats.take_kinds();
        DrainBatch {
            trace,
            obs,
            hosts,
            series_from,
            series,
            kinds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_diffuses_small_inputs() {
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16, "poor diffusion: {a:x} vs {b:x}");
    }

    #[test]
    fn host_seeds_are_distinct_per_host_and_seed() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42] {
            for h in 0..100u32 {
                assert!(seen.insert(host_seed(seed, h)));
            }
        }
    }

    #[test]
    fn seq_bias_sorts_driver_records_first() {
        // Start/driver records use seq 0; the first event a host creates
        // must sort after them at the same (time, key).
        assert!(seq_of(HostId(0), 0) > 0);
        assert!(seq_of(HostId(1), 0) > seq_of(HostId(0), u32::MAX - 1));
    }

    #[test]
    fn tag_orders_by_event_then_step_then_sub() {
        let t = |time, key, seq, step, sub| Tag {
            time,
            key,
            seq,
            step,
            sub,
        };
        let mut tags = vec![
            t(1, 0, 0, 2, 0),
            t(0, 5, 1, 0, 0),
            t(1, 0, 0, 1, 3),
            t(1, 0, 0, 1, 0),
            t(0, 5, 0, 7, 9),
        ];
        tags.sort();
        assert_eq!(
            tags,
            vec![
                t(0, 5, 0, 7, 9),
                t(0, 5, 1, 0, 0),
                t(1, 0, 0, 1, 0),
                t(1, 0, 0, 1, 3),
                t(1, 0, 0, 2, 0),
            ]
        );
    }
}
