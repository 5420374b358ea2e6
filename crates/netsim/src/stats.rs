//! Measurement: per-host counters, sends by message kind, and protocol
//! observations.

use crate::SimTime;
use tamp_telemetry::ProtocolEvent;
use tamp_topology::HostId;
use tamp_wire::{NodeId, KINDS};

/// `(packets, bytes)` per message kind, at the kind's place in [`KINDS`].
type Kinds = [(u64, u64); KINDS.len()];

/// Per-host traffic and CPU accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostStats {
    pub sent_pkts: u64,
    pub sent_bytes: u64,
    pub recv_pkts: u64,
    pub recv_bytes: u64,
    /// Packets that were addressed here but dropped (loss, crash,
    /// partition).
    pub dropped_pkts: u64,
    /// Modeled CPU time spent processing received packets.
    pub cpu_ns: u64,
}

/// What a protocol observation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationKind {
    /// Observer's directory gained `member`.
    Added(NodeId),
    /// Observer's directory removed `member`.
    Removed(NodeId),
    /// Observer started suspecting `member` (timed out, not yet
    /// removed). Suspicion precedes every legitimate removal in the
    /// suspicion/refutation extension; the chaos oracle's strict mode
    /// checks exactly that ordering.
    Suspected(NodeId),
    /// Observer cleared a suspicion of `member` after proof of life.
    Refuted(NodeId),
}

impl ObservationKind {
    /// The observation a protocol event makes, if it is one: the
    /// membership transitions (added, removed) and the suspicion
    /// transitions (suspected, refuted) the harness and the chaos
    /// oracle read. A death declaration is a removal only when it
    /// changed the directory.
    pub fn of(event: &ProtocolEvent) -> Option<Self> {
        use ProtocolEvent as E;
        let kind = match *event {
            E::MemberAdded { subject, .. } => ObservationKind::Added(NodeId(subject)),
            E::DeathDeclared {
                subject,
                removed: true,
                ..
            }
            | E::Removed { subject, .. } => ObservationKind::Removed(NodeId(subject)),
            E::SuspicionArmed { subject } | E::QuarantineSuspected { subject, .. } => {
                ObservationKind::Suspected(NodeId(subject))
            }
            E::SuspicionRefuted { subject } | E::QuarantineCleared { subject, .. } => {
                ObservationKind::Refuted(NodeId(subject))
            }
            _ => return None,
        };
        Some(kind)
    }
}

/// A timestamped protocol observation by one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    pub time: SimTime,
    pub observer: HostId,
    pub kind: ObservationKind,
}

/// All measurements collected by an [`crate::Engine`] run.
#[derive(Debug, Clone)]
pub struct Stats {
    per_host: Vec<HostStats>,
    observations: Vec<Observation>,
    /// Cluster-wide `(packets, bytes)` sent per message kind, indexed by
    /// `Message::kind_index` — lets experiments attribute traffic to
    /// sub-protocols.
    sent_by_kind: Kinds,
}

impl Stats {
    pub(crate) fn new(num_hosts: usize) -> Self {
        Stats {
            per_host: vec![HostStats::default(); num_hosts],
            observations: Vec::new(),
            sent_by_kind: Kinds::default(),
        }
    }

    /// One send of `bytes`, of the kind at `kind` in [`KINDS`].
    pub(crate) fn on_send(&mut self, host: HostId, bytes: u64, kind: usize) {
        let s = &mut self.per_host[host.index()];
        s.sent_pkts += 1;
        s.sent_bytes += bytes;
        let k = &mut self.sent_by_kind[kind];
        k.0 += 1;
        k.1 += bytes;
    }

    pub(crate) fn on_recv(&mut self, host: HostId, bytes: u64, cpu_ns: u64) {
        let s = &mut self.per_host[host.index()];
        s.recv_pkts += 1;
        s.recv_bytes += bytes;
        s.cpu_ns += cpu_ns;
    }

    pub(crate) fn on_drop(&mut self, host: HostId) {
        self.per_host[host.index()].dropped_pkts += 1;
    }

    pub(crate) fn observe(&mut self, ob: Observation) {
        self.observations.push(ob);
    }

    /// Per-host counters.
    pub fn host(&self, h: HostId) -> &HostStats {
        &self.per_host[h.index()]
    }

    /// Sum over all hosts.
    pub fn totals(&self) -> HostStats {
        let mut t = HostStats::default();
        for s in &self.per_host {
            t.sent_pkts += s.sent_pkts;
            t.sent_bytes += s.sent_bytes;
            t.recv_pkts += s.recv_pkts;
            t.recv_bytes += s.recv_bytes;
            t.dropped_pkts += s.dropped_pkts;
            t.cpu_ns += s.cpu_ns;
        }
        t
    }

    /// All protocol observations in timestamp order (engine processes
    /// events in time order, so they are naturally sorted).
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Earliest time any host (other than `subject` itself) observed
    /// `subject` removed — the paper's *failure detection time* reference
    /// point ("the earliest time when the failure is recorded").
    pub fn first_removal(&self, subject: NodeId) -> Option<SimTime> {
        self.observations
            .iter()
            .find(|o| o.kind == ObservationKind::Removed(subject) && o.observer.0 != subject.0)
            .map(|o| o.time)
    }

    /// Latest removal observation of `subject` — with complete coverage,
    /// the paper's *view convergence time* ("the latest record time of the
    /// failure").
    pub fn last_removal(&self, subject: NodeId) -> Option<SimTime> {
        self.observations
            .iter()
            .filter(|o| o.kind == ObservationKind::Removed(subject) && o.observer.0 != subject.0)
            .map(|o| o.time)
            .next_back()
    }

    /// Hosts that observed `subject` removed.
    pub fn removal_observers(&self, subject: NodeId) -> Vec<HostId> {
        let mut v: Vec<HostId> = self
            .observations
            .iter()
            .filter(|o| o.kind == ObservationKind::Removed(subject))
            .map(|o| o.observer)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Hosts that observed `subject` added.
    pub fn addition_observers(&self, subject: NodeId) -> Vec<HostId> {
        let mut v: Vec<HostId> = self
            .observations
            .iter()
            .filter(|o| o.kind == ObservationKind::Added(subject))
            .map(|o| o.observer)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Cluster-wide `(packets, bytes)` sent with the given message kind
    /// (see `tamp_wire::Message::kind`), since the last reset.
    pub fn sent_of_kind(&self, kind: &str) -> (u64, u64) {
        KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or((0, 0), |i| self.sent_by_kind[i])
    }

    /// All kinds sent at least once, in name order, with their
    /// `(packets, bytes)` counts.
    pub fn sends_by_kind(&self) -> impl Iterator<Item = (&'static str, (u64, u64))> + '_ {
        KINDS
            .iter()
            .zip(&self.sent_by_kind)
            .filter(|(_, &(pkts, _))| pkts > 0)
            .map(|(&k, &v)| (k, v))
    }

    // --- sharded-engine delta plumbing -------------------------------
    //
    // Each shard of the sharded engine keeps a private `Stats` and
    // drains it as *deltas* into the facade's master copy at every
    // epoch barrier, so the master is byte-identical to a sequential
    // run at any public API boundary (including after `reset_traffic`).

    /// Take one host's counters as a delta, zeroing them in place.
    pub(crate) fn take_host(&mut self, idx: usize) -> HostStats {
        std::mem::take(&mut self.per_host[idx])
    }

    /// Add a host delta from a shard drain.
    pub(crate) fn merge_host(&mut self, idx: usize, d: &HostStats) {
        let s = &mut self.per_host[idx];
        s.sent_pkts += d.sent_pkts;
        s.sent_bytes += d.sent_bytes;
        s.recv_pkts += d.recv_pkts;
        s.recv_bytes += d.recv_bytes;
        s.dropped_pkts += d.dropped_pkts;
        s.cpu_ns += d.cpu_ns;
    }

    /// Take the per-kind send counters as a delta, clearing them: the
    /// kinds sent at least once, by place in [`KINDS`], in name order.
    pub(crate) fn take_kinds(&mut self) -> Vec<(usize, (u64, u64))> {
        let sent = std::mem::take(&mut self.sent_by_kind);
        sent.into_iter()
            .enumerate()
            .filter(|&(_, (pkts, _))| pkts > 0)
            .collect()
    }

    /// Add per-kind send deltas.
    pub(crate) fn merge_kinds(&mut self, kinds: Vec<(usize, (u64, u64))>) {
        for (k, (p, b)) in kinds {
            let e = &mut self.sent_by_kind[k];
            e.0 += p;
            e.1 += b;
        }
    }

    /// Reset traffic counters (observations kept). Used by the harness
    /// to measure only the steady-state window of a run.
    pub fn reset_traffic(&mut self) {
        for s in &mut self.per_host {
            *s = HostStats::default();
        }
        self.sent_by_kind = Kinds::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(name: &str) -> usize {
        KINDS.iter().position(|&k| k == name).unwrap()
    }

    #[test]
    fn totals_add_up() {
        let mut s = Stats::new(2);
        s.on_send(HostId(0), 100, kind("heartbeat"));
        s.on_recv(HostId(1), 100, 5_000);
        s.on_recv(HostId(1), 50, 5_000);
        s.on_drop(HostId(0));
        let t = s.totals();
        assert_eq!(t.sent_pkts, 1);
        assert_eq!(t.sent_bytes, 100);
        assert_eq!(t.recv_pkts, 2);
        assert_eq!(t.recv_bytes, 150);
        assert_eq!(t.dropped_pkts, 1);
        assert_eq!(t.cpu_ns, 10_000);
    }

    #[test]
    fn removal_queries() {
        let mut s = Stats::new(3);
        let subject = NodeId(2);
        s.observe(Observation {
            time: 10,
            observer: HostId(0),
            kind: ObservationKind::Removed(subject),
        });
        s.observe(Observation {
            time: 30,
            observer: HostId(1),
            kind: ObservationKind::Removed(subject),
        });
        // Self-observation must not count.
        s.observe(Observation {
            time: 5,
            observer: HostId(2),
            kind: ObservationKind::Removed(subject),
        });
        assert_eq!(s.first_removal(subject), Some(10));
        assert_eq!(s.last_removal(subject), Some(30));
        assert_eq!(
            s.removal_observers(subject),
            vec![HostId(0), HostId(1), HostId(2)]
        );
        assert_eq!(s.first_removal(NodeId(9)), None);
    }

    #[test]
    fn reset_traffic_keeps_observations() {
        let mut s = Stats::new(1);
        s.on_recv(HostId(0), 10, 10);
        s.observe(Observation {
            time: 1,
            observer: HostId(0),
            kind: ObservationKind::Added(NodeId(1)),
        });
        s.on_send(HostId(0), 10, kind("update"));
        assert_eq!(s.sent_of_kind("update"), (1, 10));
        s.reset_traffic();
        assert_eq!(s.totals().recv_bytes, 0);
        assert_eq!(s.sent_of_kind("update"), (0, 0));
        assert_eq!(s.observations().len(), 1);
    }

    #[test]
    fn sends_by_kind_lists_sent_kinds_in_name_order() {
        let mut s = Stats::new(1);
        assert_eq!(s.sends_by_kind().count(), 0);
        for (name, bytes) in [("update", 7), ("heartbeat", 5), ("update", 3)] {
            s.on_send(HostId(0), bytes, kind(name));
        }
        let seen: Vec<_> = s.sends_by_kind().collect();
        assert_eq!(seen, [("heartbeat", (1, 5)), ("update", (2, 10))]);
        assert_eq!(s.sent_of_kind("no-such-kind"), (0, 0));
        let mut merged = Stats::new(1);
        merged.merge_kinds(s.take_kinds());
        assert_eq!(merged.sends_by_kind().collect::<Vec<_>>(), seen);
        assert_eq!(s.sends_by_kind().count(), 0);
    }
}
