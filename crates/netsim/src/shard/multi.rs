//! The multi-shard machinery: everything only the epoch protocol uses.
//! With one shard none of it runs (the ledger has no [`Pending`], the
//! fabric no journal, and no send leaves the shard).
//!
//! Several shards run concurrently under a conservative-lookahead
//! (null-message-free) epoch protocol, driven by [`run_until`]:
//!
//! 1. **Epoch**: every shard executes its local events up to a common
//!    horizon `e = min(t, next + L − 1)`, where `next` is the earliest
//!    pending event on any shard — so an idle stretch costs no
//!    rendezvous — and `L` is the lookahead, the smallest latency any
//!    cross-shard delivery can have (a pure topology floor, see
//!    `tamp_topology::sharding`). Any packet sent during the epoch
//!    arrives strictly *after* `e`, so no shard can miss an incoming
//!    event.
//! 2. **Exchange**: sends whose receivers live on other shards are not
//!    rolled locally; they leave as [`Descriptor`]s stamped with the
//!    [`Tag`] of the sending event. At the epoch barrier each shard
//!    expands the sorted batch of inbound descriptors into local
//!    deliveries ([`Shard::expand`]).
//! 3. **Drain**: trace records, observations and stats deltas — each
//!    tagged with its global total order — are shipped to the facade
//!    and merged ([`merge_drain`]), so the merged output is
//!    byte-identical to the sequential engine's.
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
//! * **A rewind/replay journal.** Loss, router health, subscriptions
//!   and host liveness may change *during* an epoch, and a descriptor
//!   from time `t` must be expanded under the state that held at `t`.
//!   The fabric journals those changes with their tags
//!   ([`super::fabric`]); at the barrier the shard rewinds to the
//!   epoch-start state and replays the entries in tag order,
//!   interleaved with the descriptor walk.

use super::fabric::{Fabric, JEntry};
use super::ledger::Ledger;
use super::{Pkt, Shard, Tag};
use crate::hash::IntMap;
use crate::packet::Destination;
use crate::stats::{HostStats, Observation, Stats};
use crate::trace::{TraceEvent, TraceLog};
use crate::SimTime;
use std::collections::HashMap;
use tamp_par::Pool;
use tamp_topology::HostId;

/// A cross-shard send, shipped at the epoch barrier. Carries everything
/// a receiving shard needs to reproduce exactly the deliveries the
/// sequential engine would have scheduled: the packet, the sending
/// event's tag (`step` = the `Send`'s effect step), the sender's action
/// counter (the loss/jitter hash key), and the NIC serialization delay
/// already charged at the sender. A multicast's receivers are computed
/// by the expanding shard.
#[derive(Debug, Clone)]
pub(super) struct Descriptor {
    tag: Tag,
    act: u32,
    dest: Destination,
    serialize: SimTime,
    pkt: Pkt,
}

/// One rendezvous round's request to a shard.
#[derive(Debug, Clone)]
enum ShardMsg {
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
enum ShardReply {
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
struct DrainBatch {
    trace: Vec<(Tag, TraceEvent)>,
    obs: Vec<(Tag, Observation)>,
    /// `(host index, delta)` for hosts touched this epoch.
    hosts: Vec<(u32, HostStats)>,
    kinds: Vec<(usize, (u64, u64))>,
}

/// What a shard's ledger recorded during one epoch, held for the drain.
#[derive(Default)]
pub(super) struct Pending {
    pub(super) trace: Vec<(Tag, TraceEvent)>,
    pub(super) obs: Vec<(Tag, Observation)>,
    /// Multicast sends with possible remote receivers whose held `Send`
    /// record awaits receiver-count patches: [`send_key`] → index into
    /// `trace`.
    patches: IntMap<u64, u32>,
    /// Hosts whose stats changed this epoch (delta-drain bookkeeping).
    dirty: Vec<bool>,
    dirty_hosts: Vec<u32>,
}

impl Pending {
    pub(super) fn new(n: usize) -> Self {
        Pending {
            dirty: vec![false; n],
            ..Pending::default()
        }
    }

    #[inline]
    pub(super) fn note(&mut self, h: HostId) {
        if !self.dirty[h.index()] {
            self.dirty[h.index()] = true;
            self.dirty_hosts.push(h.0);
        }
    }
}

/// The key receiver-count patches travel under: the sending host in the
/// high half, its action counter in the low.
fn send_key(src: HostId, act: u32) -> u64 {
    ((src.0 as u64) << 32) | act as u64
}

impl Fabric {
    /// Take the epoch's journal (empty with one shard).
    fn take_journal(&mut self) -> Vec<(Tag, JEntry)> {
        self.journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

impl Ledger {
    /// Hold the `Send` record `rec` of a multicast that may reach other
    /// shards for their receiver counts.
    pub(super) fn await_patches(&mut self, src: HostId, act: u32, rec: Option<u32>) {
        if let (Some(p), Some(idx)) = (&mut self.pending, rec) {
            p.patches.insert(send_key(src, act), idx);
        }
    }

    /// Take everything held since the last drain. Trace and observation
    /// batches are tag-stamped but *unsorted* (expansion records
    /// interleave); the facade sorts the merged batch.
    fn drain(&mut self, patches: &[(u64, u32)]) -> DrainBatch {
        let p = self
            .pending
            .as_mut()
            .expect("drain of a single-shard ledger");
        for &(key, add) in patches {
            if let Some(&idx) = p.patches.get(&key) {
                if let (_, TraceEvent::Send { receivers, .. }) = &mut p.trace[idx as usize] {
                    *receivers += add;
                }
            }
        }
        p.patches.clear();
        let mut hosts = Vec::with_capacity(p.dirty_hosts.len());
        for h in std::mem::take(&mut p.dirty_hosts) {
            p.dirty[h as usize] = false;
            hosts.push((h, self.stats.take_host(h as usize)));
        }
        DrainBatch {
            trace: std::mem::take(&mut p.trace),
            obs: std::mem::take(&mut p.obs),
            hosts,
            kinds: self.stats.take_kinds(),
        }
    }
}

impl Shard {
    /// The rendezvous worker entry point (see [`ShardMsg`]).
    fn handle(_idx: usize, shard: &mut Shard, msg: ShardMsg) -> ShardReply {
        match msg {
            ShardMsg::Run { until } => {
                shard.run_epoch(until);
                ShardReply::RunDone {
                    outbox: std::mem::take(&mut shard.outbox),
                }
            }
            ShardMsg::Expand { batch } => ShardReply::ExpandDone {
                patches: shard.expand(batch),
            },
            ShardMsg::Drain { patches } => {
                shard.fabric.take_journal();
                let batch = shard.ledger.drain(&patches);
                ShardReply::Drained {
                    batch,
                    next: shard.next_time(),
                }
            }
        }
    }

    /// Put a send that reaches another shard in the outbox, stamped with
    /// the sending event's tag.
    pub(super) fn ship(&mut self, act: u32, dest: Destination, serialize: SimTime, pkt: Pkt) {
        let tag = self.cur;
        self.outbox.push(Descriptor {
            tag,
            act,
            dest,
            serialize,
            pkt,
        });
    }

    /// Expand inbound cross-shard descriptors (sorted by tag) into local
    /// `Deliver` events, under a journal rewind/replay so each
    /// descriptor sees exactly the state that held at its send time.
    /// Returns `(send key, local receiver count)` patches for multicast
    /// descriptors, to be routed back to the senders' `Send` records.
    fn expand(&mut self, batch: Vec<Descriptor>) -> Vec<(u64, u32)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let journal = self.fabric.take_journal();
        for (_, e) in journal.iter().rev() {
            self.fabric.undo(e);
        }
        let mut replay = journal.iter().peekable();
        let mut patches = Vec::new();
        for d in batch {
            // Roll the journal forward past everything that happened
            // strictly before this send.
            while let Some((_, e)) = replay.next_if(|(tag, _)| *tag < d.tag) {
                self.fabric.redo(e);
            }
            self.expand_one(d, &mut patches);
        }
        for (_, e) in replay {
            self.fabric.redo(e);
        }
        patches
    }

    fn expand_one(&mut self, d: Descriptor, patches: &mut Vec<(u64, u32)>) {
        // Records emitted here carry the *sending event's* tag, so the
        // merged trace interleaves them exactly where the sequential
        // engine would have put them. The packet records the life count
        // and the routes as of the send time, which the journal replay
        // of LifeCycle and Router entries restores, matching the
        // sequential send.
        self.cur = d.tag;
        match d.dest {
            Destination::Unicast(to) => {
                debug_assert!(self.owns(to), "unicast descriptor routed to wrong shard");
                self.fan_out(d.act, d.serialize, d.pkt, [to]);
            }
            Destination::Multicast { channel, ttl } => {
                let (src, act) = (d.pkt.src, d.act);
                let src_seg = self.fabric.topo.segment_of(src);
                let list = self.fabric.take_receivers(channel, src_seg, ttl);
                debug_assert!(
                    !list.contains(&src),
                    "remote sender cannot be a local receiver"
                );
                if !list.is_empty() {
                    patches.push((send_key(src, act), list.len() as u32));
                }
                self.fan_out(act, d.serialize, d.pkt, list.iter().copied());
                self.fabric.stash_receivers(channel, src_seg, ttl, list);
            }
        }
    }
}

/// `Engine::run_until` with several shards: epochs on `pool` until no
/// event remains at or before `t`, then every shard's clock to `t`.
pub(crate) fn run_until(
    pool: Pool,
    shards: &mut [Shard],
    owner_of: &[u32],
    lookahead: Option<SimTime>,
    t: SimTime,
    stats: &mut Stats,
    tracelog: &mut TraceLog,
) {
    let n = shards.len();
    let mut next = shards.iter_mut().filter_map(Shard::next_time).min();
    pool.rendezvous(shards, Shard::handle, |rounds| {
        while let Some(nx) = next.filter(|&nx| nx <= t) {
            // The epoch horizon: events at `until` may still send
            // packets that arrive at `nx + lookahead > until`, so every
            // cross-shard delivery lands strictly beyond the horizon
            // (`saturating_add` guards nx = 0; lookahead is ≥ 1 because
            // zero-lookahead plans collapse to one shard at
            // construction).
            let until = match lookahead {
                None => t,
                Some(l) => t.min(nx.saturating_add(l - 1)),
            };
            let outboxes = rounds
                .round(vec![ShardMsg::Run { until }; n])
                .into_iter()
                .map(|r| match r {
                    ShardReply::RunDone { outbox } => outbox,
                    _ => unreachable!("run reply"),
                })
                .collect();
            next = barrier(owner_of, outboxes, stats, tracelog, |reqs| {
                rounds.round(reqs)
            });
        }
    });
    // No events remain at or before `t`: this executes nothing.
    for s in shards {
        s.run_epoch(t);
    }
}

/// The barrier outside an epoch (`Engine::start` and
/// `Engine::control_now`): exchange whatever the shards sent and drain
/// their buffers into the merged copies.
pub(crate) fn sync(
    shards: &mut [Shard],
    owner_of: &[u32],
    stats: &mut Stats,
    tracelog: &mut TraceLog,
) {
    let outboxes = shards
        .iter_mut()
        .map(|s| std::mem::take(&mut s.outbox))
        .collect();
    Pool::sequential().rendezvous(shards, Shard::handle, |rounds| {
        barrier(owner_of, outboxes, stats, tracelog, |reqs| {
            rounds.round(reqs)
        });
    });
}

/// One barrier: route the outboxes, expand them, send each multicast's
/// receiver counts back to its sender's shard, drain every shard and
/// merge. `round` runs one request per shard and returns the replies in
/// shard order. Returns the earliest pending event on any shard.
fn barrier(
    owner_of: &[u32],
    outboxes: Vec<Vec<Descriptor>>,
    stats: &mut Stats,
    tracelog: &mut TraceLog,
    mut round: impl FnMut(Vec<ShardMsg>) -> Vec<ShardReply>,
) -> Option<SimTime> {
    let n = outboxes.len();
    let mut patch_sum: HashMap<u64, u32> = HashMap::new();
    if let Some(inbound) = route_outboxes(owner_of, outboxes) {
        let reqs = inbound
            .into_iter()
            .map(|batch| ShardMsg::Expand { batch })
            .collect();
        for r in round(reqs) {
            let ShardReply::ExpandDone { patches } = r else {
                unreachable!("expand reply")
            };
            for (k, v) in patches {
                *patch_sum.entry(k).or_default() += v;
            }
        }
    }
    // The send key's high half is the sender host.
    let mut per_shard: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
    for (k, v) in patch_sum {
        per_shard[owner_of[(k >> 32) as usize] as usize].push((k, v));
    }
    let reqs = per_shard
        .into_iter()
        .map(|patches| ShardMsg::Drain { patches })
        .collect();
    let (batches, next): (Vec<_>, Vec<_>) = round(reqs)
        .into_iter()
        .map(|r| match r {
            ShardReply::Drained { batch, next } => (batch, next),
            _ => unreachable!("drain reply"),
        })
        .unzip();
    merge_drain(stats, tracelog, batches);
    next.into_iter().flatten().min()
}

/// Route each shard's outbound descriptors to their receiving shards:
/// unicast to the target's owner, multicast to every shard but the
/// sender (the expander computes its local fan-out, which may be
/// empty). Each inbound batch is sorted by tag — the order the journal
/// replay walks it in. `None` when no shard sent anything.
fn route_outboxes(
    owner_of: &[u32],
    outboxes: Vec<Vec<Descriptor>>,
) -> Option<Vec<Vec<Descriptor>>> {
    let mut inbound: Vec<Vec<Descriptor>> = (0..outboxes.len()).map(|_| Vec::new()).collect();
    let mut any = false;
    for (src_shard, obx) in outboxes.into_iter().enumerate() {
        for d in obx {
            any = true;
            match d.dest {
                Destination::Unicast(to) => inbound[owner_of[to.index()] as usize].push(d),
                Destination::Multicast { .. } => {
                    for (tgt, batch) in inbound.iter_mut().enumerate() {
                        if tgt != src_shard {
                            batch.push(d.clone());
                        }
                    }
                }
            }
        }
    }
    for b in &mut inbound {
        b.sort_unstable_by_key(|d| d.tag);
    }
    any.then_some(inbound)
}

/// Merge one barrier's worth of shard drains into the master stats and
/// trace log. Trace records and observations are tagged with their
/// global total order; a single sort over the concatenation reproduces
/// the sequential emission order exactly (tags are unique within a
/// barrier, so the unstable sort is deterministic).
fn merge_drain(stats: &mut Stats, tracelog: &mut TraceLog, batches: Vec<DrainBatch>) {
    let mut trace: Vec<(Tag, TraceEvent)> = Vec::new();
    let mut obs = Vec::new();
    for b in batches {
        trace.extend(b.trace);
        obs.extend(b.obs);
        for (h, d) in b.hosts {
            stats.merge_host(h as usize, &d);
        }
        stats.merge_kinds(b.kinds);
    }
    trace.sort_unstable_by_key(|a| a.0);
    for (tag, ev) in trace {
        tracelog.push(tag.time, ev);
    }
    obs.sort_unstable_by_key(|a| a.0);
    for (_, ob) in obs {
        stats.observe(ob);
    }
}
