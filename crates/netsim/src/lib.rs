//! # tamp-netsim — deterministic discrete-event cluster network simulator
//!
//! The paper evaluates its protocols on a 100-node Linux cluster; this
//! crate is the substitute substrate (see DESIGN.md). It simulates, in
//! virtual time, exactly the network mechanisms the protocols rely on:
//!
//! * **TTL-scoped multicast** — a packet sent on a channel with TTL `t`
//!   is delivered to every *subscribed* host whose
//!   [`ttl_distance`](tamp_topology::Topology::ttl_distance) from the
//!   sender is ≤ `t`. This is the mechanism the topology-adaptive group
//!   formation is built on.
//! * **Unicast UDP** with per-pair latency derived from the topology.
//! * **Probabilistic packet loss** (uniform rate, deterministic given the
//!   seed) — exercising the protocols' loss-recovery paths.
//! * **Fail-stop crashes and revivals** of hosts, and segment-level
//!   network partitions.
//! * **Accounting**: per-host packets/bytes sent and received, a modeled
//!   CPU cost per received packet (for the paper's Fig. 2), and
//!   cluster-wide packets/bytes sent per message kind.
//!
//! Protocol code plugs in via the sans-io [`Actor`] trait: the simulator
//! calls `on_packet`/`on_timer`, the actor emits effects (send, set
//! timer, subscribe) through [`Context`]. The same actor code can be
//! driven by `tamp-runtime` over real UDP sockets.
//!
//! Everything is deterministic: per-host seeded RNGs plus stateless
//! hash-derived loss/jitter noise, a totally-ordered event queue
//! (time, then a globally-unique key/sequence), and ordered multicast
//! fan-out. Running the same scenario twice produces identical traces —
//! and so does running it sharded across threads
//! ([`EngineConfig::sharding`]): the parallel engine is byte-identical
//! to the sequential one by construction.
//!
//! # What lives where
//!
//! | module | owns |
//! |---|---|
//! | `engine` | the public facade: [`EngineConfig`], [`Control`], [`Engine`] (builds the shards, routes controls, runs the clock) |
//! | `shard` | the packet loop: event queue, packet arena, actors and their RNGs, NIC queues, clock skew; send → roll → launch → deliver |
//! | `shard::fabric` | the network state a packet is judged by (liveness and epochs, subscriptions, loss, routers, partitions), its fan-out cache, and the rewind/replay journal: each transition one entry with one forward and one inverse |
//! | `shard::ledger` | where records land: a send, a delivery and a drop each recorded by one method into [`Stats`], telemetry meters and the trace |
//! | `shard::multi` | everything only the multi-shard epoch protocol uses: descriptors, expansion under journal replay, receiver-count patches, drain and merge |
//! | [`scheduler`] | the timer wheel, the engine's only event queue |
//! | `actor` | the sans-io [`Actor`] trait, [`Context`] and [`Effect`] |
//! | `stats`, [`trace`] | measurement types: [`Stats`], [`Observation`], the trace schema |
//! | `packet`, `hash` | [`ChannelId`], [`Destination`], [`PacketMeta`]; the integer-key hasher [`IntMap`] |
//!
//! ```
//! use tamp_netsim::{Engine, EngineConfig, Actor, Context, PacketMeta, SECS};
//! use tamp_topology::generators;
//! use tamp_wire::Message;
//!
//! struct Quiet;
//! impl Actor for Quiet {
//!     fn on_start(&mut self, _ctx: &mut Context) {}
//!     fn on_packet(&mut self, _ctx: &mut Context, _meta: PacketMeta, _msg: &Message) {}
//!     fn on_timer(&mut self, _ctx: &mut Context, _token: u64) {}
//! }
//!
//! let topo = generators::single_segment(3);
//! let mut engine = Engine::new(topo, EngineConfig::default(), 42);
//! for h in engine.hosts() {
//!     engine.add_actor(h, Box::new(Quiet));
//! }
//! engine.start();
//! engine.run_until(10 * SECS);
//! assert_eq!(engine.now(), 10 * SECS);
//! ```

mod actor;
mod engine;
mod hash;
mod packet;
pub mod scheduler;
mod shard;
mod stats;
pub mod trace;

pub use actor::{collect_effects, Actor, Context, Effect};
pub use engine::{
    Control, Engine, EngineConfig, LossModel, ShardingKind, CPU_PER_BYTE, CPU_PER_PACKET,
    HEADER_OVERHEAD, WIRE_TIME_PER_BYTE,
};
pub use hash::{IntHasher, IntMap};
pub use packet::{ChannelId, Destination, PacketMeta};
pub use scheduler::SchedulerKind;
pub use stats::{HostStats, Observation, ObservationKind, Stats};
pub use trace::{DropReason, ProtocolEvent, TraceConfig, TraceEvent, TraceLog, TraceRecord};

/// The shared observability substrate (re-exported so drivers can name
/// registry/snapshot types without a direct `tamp-telemetry` dep).
pub use tamp_telemetry as telemetry;

pub use tamp_topology::{Nanos, MICROS, MILLIS, SECS};

/// Virtual time since simulation start, in nanoseconds.
pub type SimTime = u64;
