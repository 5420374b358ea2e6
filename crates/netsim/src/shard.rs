//! The packet loop: one event loop over the hosts of a subset of
//! segments — the event queue, the packet arena, the actors, and the
//! send → roll → launch → deliver path every packet takes.
//!
//! The facade [`crate::Engine`] owns one or more `Shard`s. With a single
//! shard the shard *is* the sequential engine: it records straight into
//! its stats and trace log and runs events straight through. With
//! several, the engine runs them concurrently under the epoch protocol
//! of [`multi`], the one module that holds what only that protocol
//! needs. A shard's state is split by owner: the network state a packet
//! is judged by is the [`fabric`]'s, where records land is the
//! [`ledger`]'s, and this file keeps the loop itself.
//!
//! # One queue entry per packet in flight
//!
//! A send — local, or a descriptor expanded at the barrier — rolls every
//! receiver on the spot (ascending receiver order; loss, jitter,
//! send-time drop records), but queues only the *earliest* delivery.
//! The others wait with the packet in [`PktArena`], sorted by
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
//!
//! A waiting delivery is its receiver's id, 4 B. Its time is re-derived
//! when it is queued, by the one arrival formula the send rolled it with
//! ([`arrival`]), from what the cell keeps once per packet: departure
//! time, the packet's half of the jitter hash, and the routes of the
//! send instant. Whether the receiver still hears it is judged by the
//! fabric's life count at the send instant, also kept once per packet
//! (`fabric`, "Lives"): neither a waiting receiver nor a `Deliver`
//! event carries an epoch.

mod fabric;
mod ledger;
pub(crate) mod multi;

use self::fabric::Fabric;
use self::ledger::Ledger;
use self::multi::Descriptor;
use crate::actor::{Actor, Context, Effect};
use crate::engine::{Control, EngineConfig, HEADER_OVERHEAD, WIRE_TIME_PER_BYTE};
use crate::packet::{ChannelId, Destination, PacketMeta};
use crate::scheduler::{Scheduled, TimerWheel};
use crate::stats::{Observation, Stats};
use crate::trace::{DropReason, TraceEvent, TraceLog};
use crate::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tamp_telemetry::Registry;
use tamp_topology::{HostId, Topology};
use tamp_wire::{CodecKind, Message};

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
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
        /// Handle into the packet arena.
        pkt: u32,
    },
    Timer {
        host: HostId,
        /// The fabric's life count when the timer was armed.
        life: u32,
        token: u64,
    },
    Control(Control),
}

/// An in-flight packet (shared across all its multicast receivers).
#[derive(Debug, Clone)]
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

/// An arena cell: the packet, what its send fixed for every receiver,
/// and the receivers whose deliveries are not in the event queue yet —
/// latest first, so the next one to queue is `pop()`. A pending delivery
/// is its receiver's id alone: its time is re-derived by [`arrival`] from
/// the fields below, exactly as the send rolled it.
#[derive(Debug, Default)]
struct PktSlot {
    pkt: Option<Pkt>,
    /// The fabric's life count at the send instant
    /// ([`Fabric::hears`](fabric::Fabric::hears)).
    life: u32,
    /// When the packet left the sender's NIC (send instant + queueing +
    /// serialization).
    depart: SimTime,
    /// The packet's half of the jitter hash ([`Shard::packet_mix`]).
    mix: u64,
    /// The routes of the send instant, while receivers are left: a
    /// router change during the flight re-scopes the fabric's copy, and
    /// a time re-derived from that copy would move.
    topo: Option<Arc<Topology>>,
    rest: Vec<HostId>,
}

// A pending delivery costs one receiver id.
const _: () = assert!(std::mem::size_of::<HostId>() == 4);

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
    /// A free cell, its `rest` list empty.
    fn alloc(&mut self) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(PktSlot::default());
            (self.slots.len() - 1) as u32
        });
        debug_assert!({
            let slot = &self.slots[id as usize];
            slot.pkt.is_none() && slot.rest.is_empty() && slot.topo.is_none()
        });
        id
    }

    /// Move the packet out for one delivery (the shard needs it by
    /// value so the actor callback can borrow the shard mutably),
    /// together with its life count and the delivery to queue next, if
    /// any is left: `(arrival, receiver)`.
    fn checkout(&mut self, id: u32, jitter_span: SimTime) -> (Pkt, u32, Option<(SimTime, HostId)>) {
        let slot = &mut self.slots[id as usize];
        let pkt = slot.pkt.take().expect("packet checked out twice");
        let next = slot.rest.pop().map(|to| {
            let topo = slot.topo.as_deref().expect("receivers left without routes");
            (
                arrival(topo, jitter_span, slot.depart, slot.mix, pkt.src, to),
                to,
            )
        });
        if slot.rest.is_empty() {
            slot.topo = None;
        }
        (pkt, slot.life, next)
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

/// When a packet that left `src`'s NIC at `depart` reaches `to` over
/// `topo`: the route's latency plus the receiver's share of jitter, drawn
/// from the packet's hash half `mix`. The one arrival formula: the send
/// rolls every receiver with it ([`Shard::roll_delivery`]) and the arena
/// re-derives each pending one with it ([`PktArena::checkout`]).
#[inline]
fn arrival(
    topo: &Topology,
    jitter_span: SimTime,
    depart: SimTime,
    mix: u64,
    src: HostId,
    to: HostId,
) -> SimTime {
    let jitter = if jitter_span > 0 {
        noise(mix, to, SALT_JITTER) % jitter_span
    } else {
        0
    };
    depart + topo.latency(src, to) + jitter
}

/// The loss or jitter hash of one receiver of a packet.
#[inline]
fn noise(mix: u64, to: HostId, salt: u64) -> u64 {
    mix64(mix ^ ((to.0 as u64) << 8) ^ salt)
}

/// Uniform in `[0, 1)` from 53 hash bits.
fn noise_f64(mix: u64, to: HostId, salt: u64) -> f64 {
    (noise(mix, to, salt) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

// --------------------------------------------------------------- shard

/// One event loop over the hosts of a subset of segments. See the
/// module docs; with one shard this is the whole engine.
pub(crate) struct Shard {
    id: u32,
    /// More than one shard in the engine?
    multi: bool,
    /// Shard index per host (shared with the facade).
    owner_of: Arc<Vec<u32>>,
    latency_jitter: SimTime,
    wire_codec: Option<CodecKind>,
    seed: u64,
    pub(crate) clock: SimTime,
    /// The event being executed — the tag every record, journal entry
    /// and descriptor it causes is stamped with (`step` = the effect
    /// being applied, `sub` always 0).
    cur: Tag,
    queue: TimerWheel<EventKind>,
    arena: PktArena,
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Per-host actor RNG, seeded from `(engine seed, host)`. Present
    /// exactly where an actor is installed.
    rngs: Vec<Option<Box<StdRng>>>,
    /// Per-host action counter: bumped by every `Send`/`SetTimer`, the
    /// source of mode-independent event seqs and loss/jitter hashes.
    act: Vec<u32>,
    /// Per-host clock skew in ppm (fast > 0, slow < 0). Scales timer
    /// delays at arm time.
    skew_ppm: Vec<i64>,
    /// Egress-NIC serialization model: when each host's transmit queue
    /// drains. A burst of sends from one host goes on the wire
    /// back-to-back, not simultaneously.
    egress_free: Vec<SimTime>,
    fabric: Fabric,
    ledger: Ledger,
    /// Cross-shard sends of the running epoch.
    outbox: Vec<Descriptor>,
    /// Reusable per-send buffer of rolled `(deliver_at, receiver)` pairs.
    deliver_buf: Vec<(SimTime, HostId)>,
    /// Reusable buffer for the frame of a packet's only or last delivery
    /// (wire-codec mode).
    frame_buf: Vec<u8>,
    effects_buf: Vec<Effect>,
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
        Shard {
            id,
            multi,
            owner_of,
            latency_jitter: cfg.latency_jitter,
            wire_codec: cfg.wire_codec,
            seed,
            clock: 0,
            cur: Tag::default(),
            queue: TimerWheel::new(),
            arena: PktArena::default(),
            actors: (0..n).map(|_| None).collect(),
            rngs: (0..n).map(|_| None).collect(),
            act: vec![0; n],
            skew_ppm: vec![0; n],
            egress_free: vec![0; n],
            fabric: Fabric::new(topo, shard_of_seg, cfg.loss.rate, multi),
            ledger: Ledger::new(n, &cfg, id, multi, registry),
            outbox: Vec::new(),
            deliver_buf: Vec::new(),
            frame_buf: Vec::new(),
            effects_buf: Vec::new(),
        }
    }

    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    pub(crate) fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.fabric.topo
    }

    pub(crate) fn is_alive(&self, h: HostId) -> bool {
        self.fabric.is_alive(h)
    }

    pub(crate) fn trace_log(&self) -> &TraceLog {
        &self.ledger.tracelog
    }

    pub(crate) fn stats(&self) -> &Stats {
        &self.ledger.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut Stats {
        &mut self.ledger.stats
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
                self.cur = Tag {
                    key: h.0 + 1,
                    ..Tag::default()
                };
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
        self.cur = Tag {
            time: self.clock,
            seq,
            ..Tag::default()
        };
        self.apply_control(c);
    }

    /// Execute all local events with `time <= until`; leave the clock at
    /// `until`.
    pub(crate) fn run_epoch(&mut self, until: SimTime) {
        while let Some(ev) = self.queue.pop_before(until) {
            self.clock = ev.time;
            self.cur = Tag {
                time: ev.time,
                key: ev.key,
                seq: ev.seq,
                ..Tag::default()
            };
            self.dispatch(ev.payload);
        }
        self.clock = until;
        self.cur.time = until;
    }

    // ------------------------------------------------------ event loop

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, pkt } => self.deliver(to, pkt),
            EventKind::Timer { host, life, token } => {
                if !self.fabric.hears(host, life) {
                    return;
                }
                self.ledger
                    .trace(self.cur, TraceEvent::Timer { host, token });
                self.run_callback(host, |actor, ctx| actor.on_timer(ctx, token));
            }
            EventKind::Control(c) => self.apply_control(c),
        }
    }

    /// A control's network side is the fabric's and its record the
    /// ledger's; this adds the host side: NIC queue, clock skew, actor.
    fn apply_control(&mut self, c: Control) {
        let c = match c {
            // A clock cannot run backwards faster than time itself.
            Control::SetSkew(h, ppm) => Control::SetSkew(h, ppm.max(-999_999)),
            c => c,
        };
        if !self.fabric.control(self.cur, c) {
            return;
        }
        self.ledger.control(self.cur, c);
        match c {
            Control::Kill(h) => {
                self.egress_free[h.index()] = 0;
                if let Some(actor) = self.actors[h.index()].as_mut() {
                    actor.on_crash();
                }
            }
            Control::Revive(h) => self.run_callback(h, |actor, ctx| actor.on_start(ctx)),
            Control::SetSkew(h, ppm) => self.skew_ppm[h.index()] = ppm,
            _ => {}
        }
    }

    fn deliver(&mut self, to: HostId, pkt_id: u32) {
        // Move the packet out of the arena for the duration of the
        // callback (the shard must stay mutably borrowable); the last
        // delivery recycles the cell.
        let (mut pkt, life, next) = self.arena.checkout(pkt_id, self.latency_jitter);
        // The packet's next receiver enters the queue before this one
        // runs, under the same seq. It sorts strictly after the current
        // event and nothing later has been popped yet, so it fires
        // exactly where an event pushed at send time would have.
        if let Some((at, next_to)) = next {
            self.queue_delivery(pkt_id, self.cur.seq, at, next_to);
        }
        let last = next.is_none();
        self.deliver_pkt(to, life, &mut pkt, last);
        self.arena.restore(pkt_id, pkt, last);
    }

    fn queue_delivery(&mut self, pkt: u32, seq: u64, at: SimTime, to: HostId) {
        self.queue.push(Scheduled {
            time: at,
            key: to.0 + 1,
            seq,
            payload: EventKind::Deliver { to, pkt },
        });
    }

    /// Put a rolled packet in flight: intern it, queue its earliest
    /// delivery, and park the other receivers with it in `(deliver_at,
    /// receiver)` order for [`Shard::deliver`] to queue one at a time.
    /// The cell records the life count of now — the send instant (during
    /// descriptor expansion: the replayed state of the send instant) —
    /// and, when receivers are left, the routes of now. `rolled` comes
    /// back empty.
    fn launch(
        &mut self,
        pkt: Pkt,
        seq: u64,
        depart: SimTime,
        mix: u64,
        rolled: &mut Vec<(SimTime, HostId)>,
    ) {
        rolled.sort_unstable();
        let Some((&(first_at, first), later)) = rolled.split_first() else {
            return;
        };
        let id = self.arena.alloc();
        let slot = &mut self.arena.slots[id as usize];
        slot.pkt = Some(pkt);
        slot.life = self.fabric.life();
        slot.depart = depart;
        slot.mix = mix;
        if !later.is_empty() {
            slot.topo = Some(Arc::clone(&self.fabric.topo));
            slot.rest.extend(later.iter().rev().map(|&(_, to)| to));
        }
        rolled.clear();
        self.queue_delivery(id, seq, first_at, first);
    }

    /// Run one delivery of `pkt`, sent at life count `life`; `last` when
    /// no other is left to come.
    fn deliver_pkt(&mut self, to: HostId, life: u32, pkt: &mut Pkt, last: bool) {
        let dropped = if !self.fabric.hears(to, life) {
            Some(DropReason::DeadHost)
        } else {
            self.fabric.severed(pkt.src, to)
        };
        if let Some(reason) = dropped {
            let channel = pkt.channel.map(|(c, _)| c.0);
            let kind = pkt.msg.kind();
            return self
                .ledger
                .dropped(self.cur, pkt.src, to, channel, kind, reason);
        }
        self.ledger.delivered(self.cur, to, pkt);
        let meta = PacketMeta {
            src: pkt.src,
            channel: pkt.channel.map(|(c, _)| c),
            ttl: pkt.channel.map(|(_, t)| t),
            size: pkt.size,
        };
        let Some(kind) = self.wire_codec else {
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
    /// Effects run at steps `cur.step + 1, cur.step + 2, ...` of the
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
        let base = self.cur.step;
        for (i, e) in effects.drain(..).enumerate() {
            self.cur.step = base + 1 + i as u32;
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
                let life = self.fabric.life();
                let delay = self.skewed_delay(host, delay);
                self.queue.push(Scheduled {
                    time: self.clock + delay,
                    key: host.0 + 1,
                    seq: seq_of(host, act),
                    payload: EventKind::Timer { host, life, token },
                });
            }
            Effect::Subscribe(c) => self.fabric.subscribe(self.cur, host, c, true),
            Effect::Unsubscribe(c) => self.fabric.subscribe(self.cur, host, c, false),
            Effect::Observe(kind) => {
                let ob = Observation {
                    time: self.clock,
                    observer: host,
                    kind,
                };
                self.ledger.observe(self.cur, ob);
            }
            Effect::Count { subsystem, name, n } => self.ledger.count(host, subsystem, name, n),
            Effect::Record {
                subsystem,
                name,
                value,
            } => self.ledger.record(host, subsystem, name, value),
            Effect::Emit(event) => self.ledger.emit(self.cur, host, event),
        }
    }

    /// Roll `pkt` to each of `receivers` — in ascending host order: roll
    /// order is part of the determinism contract — and put it in flight
    /// to those it is not lost to. The one roll of the local send path
    /// and of the epoch-barrier descriptor expansion, which must produce
    /// bit-identical results.
    fn fan_out(
        &mut self,
        act: u32,
        serialize: SimTime,
        pkt: Pkt,
        receivers: impl IntoIterator<Item = HostId>,
    ) {
        let mut rolled = std::mem::take(&mut self.deliver_buf);
        debug_assert!(rolled.is_empty());
        let depart = pkt.sent_at + serialize;
        let mix = self.packet_mix(pkt.src, act);
        for to in receivers {
            if let Some(at) = self.roll_delivery(&pkt, depart, mix, to) {
                // Strictly after now; for a cross-shard send, after the
                // epoch it was sent in (THE conservative-lookahead safety
                // invariant), or this shard may already have run past
                // its delivery time.
                assert!(
                    at > self.clock,
                    "conservative lookahead violated: delivery at {at} \
                     within epoch ending {}",
                    self.clock
                );
                rolled.push((at, to));
            }
        }
        let seq = seq_of(pkt.src, act);
        self.launch(pkt, seq, depart, mix, &mut rolled);
        self.deliver_buf = rolled;
    }

    /// Roll loss and jitter for one receiver of a packet that departs at
    /// `depart` with hash half `mix`; returns the delivery time, or
    /// `None` when the packet drops at send time (the drop is recorded
    /// tagged `sub = to + 1`).
    fn roll_delivery(
        &mut self,
        pkt: &Pkt,
        depart: SimTime,
        mix: u64,
        to: HostId,
    ) -> Option<SimTime> {
        let src = pkt.src;
        // A receiver with no router path (dynamic topology) never gets a
        // delivery scheduled.
        let dropped = if !self.fabric.routable(src, to) {
            Some(DropReason::Unroutable)
        } else {
            let p = self.fabric.loss();
            (p > 0.0 && noise_f64(mix, to, SALT_LOSS) < p).then_some(DropReason::Loss)
        };
        if let Some(reason) = dropped {
            let at = Tag {
                sub: to.0 + 1,
                ..self.cur
            };
            let channel = pkt.channel.map(|(c, _)| c.0);
            let kind = pkt.msg.kind();
            self.ledger.dropped(at, src, to, channel, kind, reason);
            return None;
        }
        Some(arrival(
            &self.fabric.topo,
            self.latency_jitter,
            depart,
            mix,
            src,
            to,
        ))
    }

    /// The per-packet half of the loss and jitter hashes of `src`'s
    /// `act`-th action; [`noise`] adds the receiver.
    fn packet_mix(&self, src: HostId, act: u32) -> u64 {
        mix64(self.seed ^ mix64(((src.0 as u64) << 32) | act as u64))
    }

    fn send(&mut self, src: HostId, dest: Destination, msg: Message) {
        let act = self.bump_act(src);
        // A send only counts, in every mode: a frame, where one is
        // wanted, is encoded when a receiver reads it (`deliver_pkt`,
        // which holds it to this length).
        let size = tamp_wire::codec::encoded_len(&msg) as u32 + HEADER_OVERHEAD;
        let kind_index = msg.kind_index();
        let src_seg = self.fabric.topo.segment_of(src);
        // With several shards, a unicast to another shard's host leaves
        // as a descriptor instead of rolling here, and a multicast whose
        // TTL scope touches another shard leaves as one *besides* the
        // local fan-out.
        let (channel, receivers, leaves) = match dest {
            Destination::Unicast(to) => (None, None, self.multi && !self.owns(to)),
            Destination::Multicast { channel, ttl } => (
                Some((channel, ttl)),
                Some(self.fabric.take_receivers(channel, src_seg, ttl)),
                self.multi && self.fabric.reaches_other_shard(src_seg, ttl),
            ),
        };
        // Local receiver count; other shards patch theirs onto the held
        // record at the epoch barrier.
        let receiver_count = match &receivers {
            None => 1,
            Some(list) => list.len() - list.binary_search(&src).is_ok() as usize,
        };
        // Serialize onto the wire after any transmissions already
        // queued at this host's NIC.
        let tx_start = self.egress_free[src.index()].max(self.clock);
        let on_wire = tx_start + WIRE_TIME_PER_BYTE * size as u64;
        self.egress_free[src.index()] = on_wire;
        let serialize = on_wire - self.clock;
        let rec = self.ledger.sent(
            self.cur,
            src,
            size,
            kind_index,
            channel,
            receiver_count as u32,
        );
        if leaves && channel.is_some() {
            self.ledger.await_patches(src, act, rec);
        }
        let pkt = Pkt {
            src,
            msg,
            frame: None,
            size,
            channel,
            sent_at: self.clock,
        };
        let unicast = match dest {
            Destination::Unicast(to) if !leaves => Some(to),
            _ => None,
        };
        // No multicast loopback: senders do not receive their own packets.
        let fanout = receivers.iter().flatten().copied().filter(|&to| to != src);
        let mut local = unicast.into_iter().chain(fanout).peekable();
        // A remote unicast moves the packet into its descriptor (no local
        // receiver exists); a multicast that also reaches local receivers
        // keeps a copy for them.
        let pkt = if leaves {
            let keep = local.peek().is_some().then(|| pkt.clone());
            self.ship(act, dest, serialize, pkt);
            keep
        } else {
            Some(pkt)
        };
        if let Some(pkt) = pkt {
            self.fan_out(act, serialize, pkt, local);
        }
        if let (Some(list), Some((ch, ttl))) = (receivers, channel) {
            self.fabric.stash_receivers(ch, src_seg, ttl, list);
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

    /// Host 0 multicasts one beacon (TTL 2) a second in; every host
    /// listens.
    struct OneBeacon;

    impl Actor for OneBeacon {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.subscribe(ChannelId(0));
            if ctx.me() == HostId(0) {
                ctx.set_timer(crate::SECS, 0);
            }
        }
        fn on_packet(&mut self, _: &mut Context, _: PacketMeta, _: &Message) {}
        fn on_timer(&mut self, ctx: &mut Context, _: u64) {
            let from = ctx.node_id();
            ctx.send_multicast(
                ChannelId(0),
                2,
                Message::SyncRequest(tamp_wire::SyncRequest { from, since_seq: 1 }),
            );
        }
    }

    #[test]
    fn a_receiver_killed_and_revived_at_one_instant_misses_the_packet() {
        use crate::engine::{Engine, ShardingKind};
        use crate::trace::{TraceConfig, TraceRecord};
        let run = |sharding, bounce: Option<(SimTime, HostId)>| {
            let cfg = EngineConfig {
                trace: TraceConfig::all(),
                sharding,
                shard_jobs: Some(1),
                ..EngineConfig::default()
            };
            let topo = tamp_topology::generators::star_of_segments(2, 4);
            let mut eng = Engine::new(topo, cfg, 7);
            let width = match sharding {
                ShardingKind::Sequential => 1,
                ShardingKind::Sharded(k) => k,
            };
            assert_eq!(eng.effective_shards(), width);
            for h in eng.hosts() {
                eng.add_actor(h, Box::new(OneBeacon));
            }
            eng.start();
            if let Some((t, victim)) = bounce {
                eng.run_until(t);
                eng.control_now(Control::Kill(victim));
                eng.revive_now(victim);
                assert!(eng.is_alive(victim));
            }
            eng.run_until(2 * crate::SECS);
            let trace: Vec<TraceRecord> = eng.trace_log().records().cloned().collect();
            trace
        };
        let beacon = |trace: &[TraceRecord]| -> Vec<(SimTime, HostId, bool)> {
            let mut got: Vec<_> = trace
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::Deliver {
                        src: HostId(0),
                        dst,
                        ..
                    } => Some((r.time, dst, true)),
                    TraceEvent::Drop {
                        src: HostId(0),
                        dst,
                        ..
                    } => Some((r.time, dst, false)),
                    _ => None,
                })
                .collect();
            got.sort_unstable();
            got
        };
        let clean = beacon(&run(ShardingKind::Sequential, None));
        assert_eq!(clean.len(), 7);
        assert!(clean.iter().all(|&(_, _, heard)| heard));
        // Between the first and the second delivery, the last receiver
        // dies and comes back at one instant.
        let (first, _, _) = clean[0];
        let (_, victim, _) = clean[6];
        assert!(first < clean[1].0);
        for sharding in [ShardingKind::Sequential, ShardingKind::Sharded(2)] {
            let trace = run(sharding, Some((first, victim)));
            let got = beacon(&trace);
            let want: Vec<_> = clean
                .iter()
                .map(|&(t, to, _)| (t, to, to != victim))
                .collect();
            assert_eq!(got, want, "{sharding:?}");
            assert!(
                trace.iter().any(|r| matches!(
                    r.event,
                    TraceEvent::Drop { dst, reason: DropReason::DeadHost, .. } if dst == victim
                )),
                "{sharding:?}: the victim's delivery must drop as DeadHost"
            );
        }
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
