//! The ledger: where a shard's records land. Each network fact — a
//! send, a delivery, a drop — is recorded by one method, which updates
//! [`Stats`], marks the host for the multi-shard delta drain, counts into
//! the telemetry meters and writes the trace record, so the four views
//! cannot disagree. Protocol events are recorded the same way: one
//! `Effect::Emit` is its `events/<kind>` counter, its histogram sample,
//! its observation and its trace record. The load generator's tallies
//! (`Effect::Count`) and fault records land here too.
//!
//! With one shard, records go straight to the stats and the trace log.
//! With several they wait in a [`Pending`] with their [`Tag`] for the
//! facade's merge ([`super::multi`]).

use super::multi::Pending;
use super::{Pkt, Tag};
use crate::engine::{Control, EngineConfig, CPU_PER_BYTE, CPU_PER_PACKET};
use crate::hash::IntMap;
use crate::packet::ChannelId;
use crate::stats::{Observation, ObservationKind, Stats};
use crate::trace::{DropReason, ProtocolEvent, TraceConfig, TraceEvent, TraceLog};
use crate::SimTime;
use std::collections::BTreeMap;
use tamp_telemetry::{Counter, Histogram, Registry, CLUSTER};
use tamp_topology::HostId;
use tamp_wire::KINDS;

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
    /// Handles for the actors' own samples (`Effect::Count` and what
    /// `Effect::Emit` derives), by `(host, subsystem, name)`: fetched
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
}

pub(super) struct Ledger {
    filter: TraceConfig,
    /// Records globally applied controls: the only shard, or shard 0 of
    /// several (every shard applies such a control; one records it).
    global: bool,
    pub(super) stats: Stats,
    pub(super) tracelog: TraceLog,
    registry: Registry,
    /// No meters, no registry to count into: both follow
    /// `EngineConfig::metrics`.
    meters: Option<NetMeters>,
    /// With several shards: this epoch's records, awaiting the drain.
    pub(super) pending: Option<Pending>,
}

impl Ledger {
    pub(super) fn new(
        n: usize,
        cfg: &EngineConfig,
        id: u32,
        multi: bool,
        registry: Registry,
    ) -> Self {
        Ledger {
            filter: cfg.trace.clone(),
            global: !multi || id == 0,
            stats: Stats::new(n),
            tracelog: TraceLog::new(if multi { 0 } else { cfg.capacity_for_trace() }),
            meters: cfg.metrics.then(|| NetMeters::new(&registry, n)),
            registry,
            pending: multi.then(|| Pending::new(n)),
        }
    }

    /// Record a trace event at `at`. Returns its buffer index when it is
    /// held for the merge (for receiver-count patching).
    #[inline]
    pub(super) fn trace(&mut self, at: Tag, ev: TraceEvent) -> Option<u32> {
        if !self.filter.wants(&ev) {
            return None;
        }
        match &mut self.pending {
            Some(p) => {
                p.trace.push((at, ev));
                Some((p.trace.len() - 1) as u32)
            }
            None => {
                self.tracelog.push(at.time, ev);
                None
            }
        }
    }

    /// The record of control `c`. A control on one host runs on that
    /// host's shard only; every shard runs a global one, and one records
    /// it.
    pub(super) fn control(&mut self, at: Tag, c: Control) {
        let net = TraceEvent::Net;
        let ev = match c {
            Control::Kill(h) => TraceEvent::Fault("kill", h),
            Control::Revive(h) => TraceEvent::Fault("revive", h),
            Control::SetSkew(h, ppm) => net("skew", format!("{h} {ppm:+}ppm")),
            Control::BlockSegments(a, b) => net("partition", format!("seg{}–seg{}", a.0, b.0)),
            Control::UnblockSegments(a, b) => net("heal", format!("seg{}–seg{}", a.0, b.0)),
            Control::SetLoss(rate) => net("loss", format!("rate={rate:.3}")),
            Control::BlockDirection(a, b) => {
                net("gray-partition", format!("seg{}→seg{}", a.0, b.0))
            }
            Control::UnblockDirection(a, b) => net("gray-heal", format!("seg{}→seg{}", a.0, b.0)),
            Control::RouterDown(r) => net("router-down", format!("r{r}")),
            Control::RouterUp(r) => net("router-up", format!("r{r}")),
        };
        if self.global || c.host().is_some() {
            self.trace(at, ev);
        }
    }

    #[inline]
    fn observe(&mut self, at: Tag, ob: Observation) {
        match &mut self.pending {
            Some(p) => p.obs.push((at, ob)),
            None => self.stats.observe(ob),
        }
    }

    #[inline]
    fn note(&mut self, h: HostId) {
        if let Some(p) = &mut self.pending {
            p.note(h);
        }
    }

    /// One NIC transmission of `size` bytes, however many receivers it
    /// has (multicast is switch-replicated, exactly why the paper prefers
    /// it). Returns the held `Send` record's index, as [`Ledger::trace`].
    #[inline]
    pub(super) fn sent(
        &mut self,
        at: Tag,
        src: HostId,
        size: u32,
        kind_index: usize,
        channel: Option<(ChannelId, u8)>,
        receivers: u32,
    ) -> Option<u32> {
        let kind = KINDS[kind_index];
        self.stats.on_send(src, size as u64, kind_index);
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
        self.trace(
            at,
            TraceEvent::Send {
                src,
                multicast: channel.map(|(c, t)| (c.0, t)),
                kind,
                bytes: size,
                receivers,
            },
        )
    }

    /// `pkt` reached `to`.
    #[inline]
    pub(super) fn delivered(&mut self, at: Tag, to: HostId, pkt: &Pkt) {
        let cpu = CPU_PER_PACKET + CPU_PER_BYTE * pkt.size as u64;
        self.stats.on_recv(to, pkt.size as u64, cpu);
        self.note(to);
        if let Some(m) = &self.meters {
            let hm = &m.hosts[to.index()];
            hm.recv_pkts.inc();
            hm.recv_bytes.add(pkt.size as u64);
            m.delivery_ns.record(at.time - pkt.sent_at);
        }
        self.trace(
            at,
            TraceEvent::Deliver {
                src: pkt.src,
                dst: to,
                channel: pkt.channel.map(|(c, _)| c.0),
                kind: pkt.msg.kind(),
                bytes: pkt.size,
            },
        );
    }

    /// A delivery to `to` was dropped, at send time (tagged `sub = to +
    /// 1`, so merged drops sort by receiver, the sequential order) or on
    /// arrival.
    #[inline]
    pub(super) fn dropped(
        &mut self,
        at: Tag,
        src: HostId,
        to: HostId,
        channel: Option<u16>,
        kind: &'static str,
        reason: DropReason,
    ) {
        self.stats.on_drop(to);
        self.note(to);
        if let Some(m) = &self.meters {
            m.hosts[to.index()].dropped_pkts.inc();
            match reason {
                DropReason::Loss => m.drop_loss.inc(),
                DropReason::DeadHost => m.drop_dead.inc(),
                DropReason::Partition => m.drop_partition.inc(),
                DropReason::Gray => m.drop_gray.inc(),
                DropReason::Unroutable => m.drop_unroutable.inc(),
            }
        }
        self.trace(
            at,
            TraceEvent::Drop {
                src,
                dst: to,
                channel,
                kind,
                reason,
            },
        );
    }

    #[inline]
    pub(super) fn count(
        &mut self,
        host: HostId,
        subsystem: &'static str,
        name: &'static str,
        n: u64,
    ) {
        if let Some(m) = &mut self.meters {
            m.actor_counter(&self.registry, (host.0, subsystem, name))
                .add(n);
        }
    }

    #[inline]
    fn record(&mut self, host: HostId, subsystem: &'static str, name: &'static str, value: u64) {
        if let Some(m) = &mut self.meters {
            m.actor_histograms
                .entry((host.0, subsystem, name))
                .or_insert_with(|| self.registry.histogram(host.0, subsystem, name))
                .record(value);
        }
    }

    /// One protocol fact reported by `node` at `now`, and everything
    /// derived from it.
    #[inline]
    pub(super) fn emit(&mut self, at: Tag, now: SimTime, node: HostId, event: ProtocolEvent) {
        self.count(node, "events", event.name(), 1);
        if let Some((subsystem, name, value)) = event.histogram() {
            self.record(node, subsystem, name, value);
        }
        if let Some(kind) = ObservationKind::of(&event) {
            let ob = Observation {
                time: now,
                observer: node,
                kind,
            };
            self.observe(at, ob);
        }
        self.trace(at, TraceEvent::Protocol { node, event });
    }
}
