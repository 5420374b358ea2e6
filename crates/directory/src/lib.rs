//! # tamp-directory — the membership "yellow page" directory
//!
//! Every node in a TAMP cluster keeps a full local copy of the service
//! directory: one [`Entry`] per known node, holding its yellow-page
//! [`NodeRecord`] (services, partitions, machine attributes), how the
//! entry got here (heard directly vs relayed by a group leader), and when
//! it was last refreshed.
//!
//! Key protocol rules implemented here:
//!
//! * **Incarnation ordering** — a record with a higher incarnation always
//!   wins; a `Leave` only kills the incarnation it names, so a stale death
//!   report cannot cancel a newer rejoin.
//! * **Relayed lifetimes** — "membership information relayed by a group
//!   leader has the same life time as the leader itself" (§3.1.2). When a
//!   relayer is purged, everything it relayed goes with it, which is what
//!   lets the protocol detect switch/partition failures quickly.
//! * **Soft state** — entries expire unless refreshed; expiry deadlines
//!   are supplied by the caller because they are level-dependent in the
//!   hierarchical protocol.
//!
//! The lookup side ([`Directory::lookup`]) implements the paper's §5 API:
//! regex matching on the service name and on the partition list. Request
//! routers, which hold a literal name and one partition number, use the
//! typed scan [`Directory::providers`] instead.

mod lookup;
mod reconcile;
mod shared;

pub use lookup::{LookupQuery, Machine};
pub use reconcile::Reconcile;
pub use shared::{DirectoryClient, SharedDirectory};

use std::collections::BTreeMap;
use std::sync::Arc;
use tamp_wire::{
    DigestEntry, MemberEvent, NodeId, NodeRecord, RecordPayload, RelayedRecord, ServiceAvail,
};

/// Nanosecond timestamps, matching `tamp_topology::Nanos`.
pub type Nanos = u64;

/// How an entry is known to this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// This entry is the local node itself.
    Local,
    /// Heard directly (shares a multicast group with us).
    Direct,
    /// Relayed by a group leader; carries the relayer's id.
    Relayed(NodeId),
}

impl Provenance {
    pub fn relayer(&self) -> Option<NodeId> {
        match self {
            Provenance::Relayed(n) => Some(*n),
            _ => None,
        }
    }
}

/// One directory entry: a row borrowed from the [`Directory`]'s columns.
/// Services and attributes are reachable through `Deref`.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    pub node: NodeId,
    pub incarnation: u64,
    payload: &'a Arc<RecordPayload>,
    pub provenance: Provenance,
    /// Last time a heartbeat or update touched this entry.
    pub last_refresh: Nanos,
}

impl Entry<'_> {
    /// The stored yellow-page record (an `Arc` bump).
    pub fn record(&self) -> NodeRecord {
        NodeRecord::from_shared(self.node, self.incarnation, Arc::clone(self.payload))
    }
}

impl std::ops::Deref for Entry<'_> {
    type Target = RecordPayload;
    fn deref(&self) -> &RecordPayload {
        self.payload
    }
}

/// Result of applying an event to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The directory changed (new node, newer incarnation, or removal).
    Changed,
    /// Event was stale or redundant; directory unchanged. Idempotent
    /// redundant delivery is a feature: "because the operation caused by
    /// an update message at each node is idempotent, redundant messages
    /// will not cause confusion" (§3.1.1).
    Ignored,
}

impl Applied {
    pub fn changed(self) -> bool {
        self == Applied::Changed
    }
}

/// The yellow-page directory: complete view of cluster membership.
///
/// One struct-of-arrays store sorted by `NodeId`: row `i` is
/// `keys[i]`, `payload[i]`, `last_refresh[i]`, `provenance[i]`, and the
/// four columns always have one length. Every node holds every other
/// node's entry (§3), so a simulated cluster holds n² of these rows:
/// 40 bytes each, a lookup a binary search over contiguous 16-byte
/// keys, the heartbeat refresh one store into `last_refresh`, the
/// expiry and relayer scans walks of one or two flat columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    /// The key column, and the anti-entropy digest itself: one `(node,
    /// incarnation)` pair per live entry, strictly ascending by node
    /// id. Ascending order is a determinism requirement, not a
    /// convenience: it reaches digests, relay cascades and expiry
    /// scans, and must not vary by process or thread.
    keys: Vec<DigestEntry>,
    /// Services and attributes, shared with every other holder of the
    /// same record.
    payload: Vec<Arc<RecordPayload>>,
    last_refresh: Vec<Nanos>,
    provenance: Vec<Provenance>,
    /// Incarnations known dead: `dead[n]` is the highest incarnation of
    /// `n` declared dead plus when it was declared. Records must exceed
    /// the incarnation to be accepted while the tombstone is fresh.
    dead: BTreeMap<NodeId, (u64, Nanos)>,
    /// How long a death declaration suppresses same-incarnation rejoins.
    /// Finite TTL keeps the directory soft-state: after a false positive
    /// (e.g. a healed partition), the node's own heartbeats re-add it
    /// once the tombstone ages out, without requiring re-incarnation.
    tombstone_ttl: Nanos,
}

impl Default for Directory {
    fn default() -> Self {
        Directory {
            keys: Vec::new(),
            payload: Vec::new(),
            last_refresh: Vec::new(),
            provenance: Vec::new(),
            dead: BTreeMap::new(),
            tombstone_ttl: DEFAULT_TOMBSTONE_TTL,
        }
    }
}

/// Default [`Directory::set_tombstone_ttl`]: 15 s — comfortably longer
/// than update-propagation time (so in-flight stale leaves stay
/// suppressed) but short enough that partition false-positives heal fast.
pub const DEFAULT_TOMBSTONE_TTL: Nanos = 15_000_000_000;

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the tombstone TTL (0 disables suppression entirely).
    pub fn set_tombstone_ttl(&mut self, ttl: Nanos) {
        self.tombstone_ttl = ttl;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Live node ids, in `NodeId` order (see [`Directory::entries`]).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.keys.iter().map(|k| k.node)
    }

    /// `node`'s row, or the row it would be inserted at.
    fn slot(&self, node: NodeId) -> Result<usize, usize> {
        self.keys.binary_search_by_key(&node, |k| k.node)
    }

    fn row(&self, i: usize) -> Entry<'_> {
        Entry {
            node: self.keys[i].node,
            incarnation: self.keys[i].incarnation,
            payload: &self.payload[i],
            provenance: self.provenance[i],
            last_refresh: self.last_refresh[i],
        }
    }

    /// Take row `i` out of all four columns.
    fn remove_row(&mut self, i: usize) -> NodeRecord {
        let key = self.keys.remove(i);
        self.last_refresh.remove(i);
        self.provenance.remove(i);
        NodeRecord::from_shared(key.node, key.incarnation, self.payload.remove(i))
    }

    /// Nodes held as `Relayed(relayer)`, in `NodeId` order.
    fn relayed_by(&self, relayer: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let held = Provenance::Relayed(relayer);
        self.provenance
            .iter()
            .zip(&self.keys)
            .filter(move |(p, _)| **p == held)
            .map(|(_, k)| k.node)
    }

    /// Look up one entry.
    pub fn get(&self, node: NodeId) -> Option<Entry<'_>> {
        self.slot(node).ok().map(|i| self.row(i))
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_ok()
    }

    /// All entries, in `NodeId` order.
    pub fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Insert or refresh a record.
    ///
    /// Acceptance rules, in order:
    /// 1. rejected if its incarnation was already declared dead;
    /// 2. accepted as [`Applied::Changed`] if the node is unknown or the
    ///    incarnation is newer, or (same incarnation) the record content
    ///    differs (a node republished its services via `update_value`);
    /// 3. otherwise refreshes `last_refresh` (and upgrades provenance
    ///    from relayed to direct if we now hear it ourselves) but reports
    ///    [`Applied::Ignored`].
    pub fn apply_join(
        &mut self,
        record: NodeRecord,
        provenance: Provenance,
        now: Nanos,
    ) -> Applied {
        // `NodeRecord` clones are an Arc bump (copy-on-write payload),
        // so routing through the generic path costs nothing extra.
        self.apply_join_with(
            record.node,
            record.incarnation,
            provenance,
            now,
            || record.clone(),
            |held| *record == *held,
        )
        .0
    }

    /// Generic form of [`Directory::apply_join`]: the acceptance rules
    /// run on `(node, incarnation)` alone, and the record is only
    /// produced — via `make_record` — when it will actually be stored.
    /// `same` is consulted on a same-incarnation collision, with the
    /// services and attributes held, and must answer "is the offered
    /// record content-identical to this one?"; a `true` must imply
    /// `make_record()` carries an equal payload.
    ///
    /// This is the single implementation both the owned path and the
    /// borrowed wire-view path go through: a zero-copy caller passes
    /// `make_record = || view.to_record()` and `same = |held|
    /// view.same_payload(held)`, and skips materialization entirely on
    /// the (dominant) same-incarnation refresh case. A conservative
    /// `same` that answers `false` is safe: the record is materialized
    /// and compared-by-storage, converging to the same final state.
    ///
    /// Also reports whether `node` had an entry before the call: callers
    /// that announce first sightings get it from the same search instead
    /// of a `contains` before it.
    pub fn apply_join_with(
        &mut self,
        node: NodeId,
        incarnation: u64,
        provenance: Provenance,
        now: Nanos,
        make_record: impl FnOnce() -> NodeRecord,
        same: impl FnOnce(&RecordPayload) -> bool,
    ) -> (Applied, bool) {
        let mut no_hint = u32::MAX;
        self.apply_join_hinted(
            &mut no_hint,
            node,
            incarnation,
            provenance,
            now,
            make_record,
            same,
        )
    }

    /// [`Directory::apply_join_with`] for a caller that remembers the
    /// row it found `node` in last time, which is every heartbeat
    /// receiver: `*hint` is believed only if that row still holds
    /// `node`; otherwise `node` is searched for as usual. Either way
    /// `*hint` leaves as the row `node` is in now (or would go in), so
    /// the refresh of a settled directory is four array accesses and
    /// no search.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_join_hinted(
        &mut self,
        hint: &mut u32,
        node: NodeId,
        incarnation: u64,
        provenance: Provenance,
        now: Nanos,
        make_record: impl FnOnce() -> NodeRecord,
        same: impl FnOnce(&RecordPayload) -> bool,
    ) -> (Applied, bool) {
        let slot = match self.keys.get(*hint as usize) {
            Some(k) if k.node == node => Ok(*hint as usize),
            _ => self.slot(node),
        };
        let (Ok(i) | Err(i)) = slot;
        *hint = i as u32;
        let was_known = slot.is_ok();
        if let Some(&(dead_inc, at)) = self.dead.get(&node) {
            if incarnation <= dead_inc && now.saturating_sub(at) < self.tombstone_ttl {
                return (Applied::Ignored, was_known);
            }
        }
        let materialize = || {
            let (n, inc, payload) = make_record().into_parts();
            debug_assert_eq!((n, inc), (node, incarnation));
            payload
        };
        let applied = match slot {
            Err(i) => {
                let payload = materialize();
                self.keys.insert(i, DigestEntry { node, incarnation });
                self.payload.insert(i, payload);
                self.last_refresh.insert(i, now);
                self.provenance.insert(i, provenance);
                Applied::Changed
            }
            Ok(i) => {
                let held = self.keys[i].incarnation;
                if incarnation > held || (incarnation == held && !same(&self.payload[i])) {
                    self.keys[i].incarnation = incarnation;
                    self.payload[i] = materialize();
                    self.last_refresh[i] = now;
                    self.provenance[i] = provenance;
                    Applied::Changed
                } else {
                    if incarnation == held {
                        self.last_refresh[i] = now;
                        // Provenance re-stamping: relayed knowledge may
                        // be upgraded to direct, or re-attributed to a
                        // new relayer (the takeover leader re-announcing
                        // its directory). Direct knowledge never
                        // downgrades to relayed — we keep detecting the
                        // failure ourselves.
                        if matches!(self.provenance[i], Provenance::Relayed(_))
                            && !matches!(provenance, Provenance::Local)
                        {
                            self.provenance[i] = provenance;
                        }
                    }
                    Applied::Ignored
                }
            }
        };
        (applied, was_known)
    }

    /// Declare `node`'s given incarnation dead. A stale leave (for an
    /// incarnation older than the live record) is ignored.
    pub fn apply_leave(&mut self, node: NodeId, incarnation: u64, now: Nanos) -> Applied {
        let dead = self.dead.entry(node).or_insert((0, now));
        if incarnation >= dead.0 {
            *dead = (incarnation, now);
        }
        match self.slot(node) {
            Ok(i) if self.keys[i].incarnation <= incarnation => {
                self.remove_row(i);
                Applied::Changed
            }
            _ => Applied::Ignored,
        }
    }

    /// Apply a wire event.
    pub fn apply_event(&mut self, ev: &MemberEvent, provenance: Provenance, now: Nanos) -> Applied {
        match ev {
            MemberEvent::Join(r) => self.apply_join(r.clone(), provenance, now),
            MemberEvent::Leave(n, inc) => self.apply_leave(*n, *inc, now),
            // Suspicion is a membership-layer state, not a directory
            // change: the suspect stays in the yellow pages (and thus
            // remains resolvable) until the suspicion is confirmed as a
            // Leave. The node state machine tracks the pending suspicion.
            MemberEvent::Suspect(..) => Applied::Ignored,
            // Cut-detection alerts are likewise a membership-layer
            // signal (one reporter's vote); the subject stays resolvable
            // until the aggregated cut is confirmed as a Leave.
            MemberEvent::Alert { .. } => Applied::Ignored,
            // A refutation carries a full record at a (usually bumped)
            // incarnation; directory-wise it is a join/refresh.
            MemberEvent::Refute(r) => self.apply_join(r.clone(), provenance, now),
        }
    }

    /// The incarnation of `node` most recently declared dead, if that
    /// declaration is still fresh (within the tombstone TTL). Lets the
    /// protocol push death knowledge back at peers that still advertise
    /// the node (digest reconciliation).
    pub fn fresh_tombstone(&self, node: NodeId, now: Nanos) -> Option<u64> {
        self.dead
            .get(&node)
            .and_then(|&(inc, at)| (now.saturating_sub(at) < self.tombstone_ttl).then_some(inc))
    }

    /// Raw tombstone record for `node`: `(incarnation, declared_at)`.
    pub fn tombstone_of(&self, node: NodeId) -> Option<(u64, Nanos)> {
        self.dead.get(&node).copied()
    }

    /// The configured tombstone TTL.
    pub fn tombstone_ttl(&self) -> Nanos {
        self.tombstone_ttl
    }

    /// Remove an entry without recording a tombstone — used by digest
    /// reconciliation, where the node may well be alive and simply no
    /// longer vouched for by this relayer.
    pub fn remove(&mut self, node: NodeId) -> Option<NodeRecord> {
        self.slot(node).ok().map(|i| self.remove_row(i))
    }

    /// Touch `node`'s entry (heartbeat received) without changing content.
    /// Returns false if the node is unknown.
    pub fn refresh(&mut self, node: NodeId, now: Nanos) -> bool {
        match self.slot(node) {
            Ok(i) => {
                if now > self.last_refresh[i] {
                    self.last_refresh[i] = now;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Remove every entry whose age exceeds the deadline computed by
    /// `deadline_for`, then cascade: entries relayed by a node removed in
    /// the same sweep are removed too (repeat to fixpoint). Returns the
    /// removed records (so the caller can announce departures).
    pub fn expire<F>(&mut self, now: Nanos, deadline_for: F) -> Vec<NodeRecord>
    where
        F: FnMut(Entry<'_>) -> Nanos,
    {
        self.expire_with_next(now, deadline_for).0
    }

    /// Like [`Directory::expire`], but also returns the earliest absolute
    /// time at which a *surviving* entry could expire (`u64::MAX` if every
    /// survivor has an infinite deadline). Callers use it to skip the
    /// full-directory scan until something can actually rot — the scan is
    /// O(members) and at 10k nodes dominates the sweep if run blindly.
    pub fn expire_with_next<F>(
        &mut self,
        now: Nanos,
        mut deadline_for: F,
    ) -> (Vec<NodeRecord>, Nanos)
    where
        F: FnMut(Entry<'_>) -> Nanos,
    {
        let mut removed = Vec::new();
        let mut next_due = u64::MAX;
        let mut frontier = Vec::new();
        for i in 0..self.len() {
            if matches!(self.provenance[i], Provenance::Local) {
                continue;
            }
            let deadline = deadline_for(self.row(i));
            let last_refresh = self.last_refresh[i];
            if now.saturating_sub(last_refresh) >= deadline {
                frontier.push(self.keys[i].node);
            } else if deadline != u64::MAX {
                next_due = next_due.min(last_refresh.saturating_add(deadline));
            }
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for n in frontier {
                if let Ok(i) = self.slot(n) {
                    removed.push(self.remove_row(i));
                    // Cascade to everything this node relayed to us.
                    next.extend(self.relayed_by(n));
                }
            }
            frontier = next;
        }
        (removed, next_due)
    }

    /// Remove every entry relayed by `relayer` ("the membership
    /// information relayed by a group leader has the same life time as the
    /// leader itself"). Cascades like [`Directory::expire`]. Does not
    /// remove `relayer` itself.
    pub fn purge_relayed_by(&mut self, relayer: NodeId) -> Vec<NodeRecord> {
        let mut removed = Vec::new();
        let mut frontier = vec![relayer];
        while let Some(r) = frontier.pop() {
            let victims: Vec<NodeId> = self.relayed_by(r).collect();
            for v in victims {
                if let Ok(i) = self.slot(v) {
                    removed.push(self.remove_row(i));
                    frontier.push(v);
                }
            }
        }
        removed
    }

    /// Snapshot all entries as wire records with their relay provenance,
    /// for bootstrap/sync responses.
    pub fn snapshot(&self) -> Vec<RelayedRecord> {
        self.entries()
            .map(|e| RelayedRecord {
                record: e.record(),
                relayed_by: e.provenance.relayer(),
            })
            .collect()
    }

    /// Aggregate per-service availability for the proxy summary: one
    /// [`ServiceAvail`] per service name, with the union of partitions and
    /// the instance count, sorted by name for deterministic comparison.
    pub fn service_summary(&self) -> Vec<ServiceAvail> {
        let mut agg: BTreeMap<&str, (Vec<u16>, u16)> = BTreeMap::new();
        for p in &self.payload {
            for s in &p.services {
                let slot = agg.entry(s.name.as_str()).or_default();
                slot.0.extend(s.partitions.iter());
                slot.1 += 1;
            }
        }
        agg.into_iter()
            .map(|(name, (parts, instances))| ServiceAvail {
                name: name.to_string(),
                partitions: tamp_wire::PartitionSet::from_iter(parts),
                instances,
            })
            .collect()
    }

    /// The anti-entropy digest: one `(node, incarnation)` pair per live
    /// entry, sorted by node id. It is the directory's key column, so
    /// this is a borrow — no per-tick rescan, and nothing to keep in
    /// sync.
    pub fn digest(&self) -> &[DigestEntry] {
        &self.keys
    }

    /// Forget the dead-incarnation memory for nodes no longer present —
    /// bounded-memory hygiene for long-running simulations. Retains
    /// tombstones for live nodes (still needed for ordering).
    pub fn compact_tombstones(&mut self) {
        let keys = &self.keys;
        self.dead
            .retain(|n, _| keys.binary_search_by_key(n, |k| k.node).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_wire::{PartitionSet, ServiceDecl};

    fn rec(id: u32, inc: u64) -> NodeRecord {
        NodeRecord::new(NodeId(id), inc)
            .with_service(ServiceDecl::new("svc", PartitionSet::from_iter([0])))
    }

    #[test]
    fn join_then_get() {
        let mut d = Directory::new();
        assert!(d.apply_join(rec(1, 1), Provenance::Direct, 10).changed());
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(NodeId(1)).unwrap().last_refresh, 10);
        assert!(d.contains(NodeId(1)));
    }

    #[test]
    fn duplicate_join_is_idempotent_refresh() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 10);
        let r = d.apply_join(rec(1, 1), Provenance::Direct, 20);
        assert_eq!(r, Applied::Ignored);
        assert_eq!(d.get(NodeId(1)).unwrap().last_refresh, 20);
    }

    #[test]
    fn newer_incarnation_wins() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 2), Provenance::Direct, 0);
        assert_eq!(
            d.apply_join(rec(1, 1), Provenance::Direct, 5),
            Applied::Ignored
        );
        assert!(d.apply_join(rec(1, 3), Provenance::Direct, 5).changed());
        assert_eq!(d.get(NodeId(1)).unwrap().incarnation, 3);
    }

    #[test]
    fn same_incarnation_content_change_is_change() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        let updated = rec(1, 1).with_attr("load", "0.5");
        assert!(d.apply_join(updated, Provenance::Direct, 1).changed());
    }

    #[test]
    fn leave_removes_and_blocks_stale_rejoin() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        assert!(d.apply_leave(NodeId(1), 1, 1).changed());
        assert!(d.is_empty());
        // Same-incarnation rejoin rejected; newer accepted.
        assert_eq!(
            d.apply_join(rec(1, 1), Provenance::Direct, 2),
            Applied::Ignored
        );
        assert!(d.apply_join(rec(1, 2), Provenance::Direct, 2).changed());
    }

    #[test]
    fn stale_leave_does_not_kill_newer_incarnation() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 5), Provenance::Direct, 0);
        assert_eq!(d.apply_leave(NodeId(1), 3, 1), Applied::Ignored);
        assert!(d.contains(NodeId(1)));
    }

    #[test]
    fn leave_unknown_node_records_tombstone() {
        let mut d = Directory::new();
        assert_eq!(d.apply_leave(NodeId(9), 4, 0), Applied::Ignored);
        // Join of that incarnation later is rejected.
        assert_eq!(
            d.apply_join(rec(9, 4), Provenance::Direct, 1),
            Applied::Ignored
        );
        assert!(d.apply_join(rec(9, 5), Provenance::Direct, 1).changed());
    }

    #[test]
    fn refresh_touches_known_only() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        assert!(d.refresh(NodeId(1), 7));
        assert!(!d.refresh(NodeId(2), 7));
        assert_eq!(d.get(NodeId(1)).unwrap().last_refresh, 7);
    }

    #[test]
    fn refresh_never_moves_time_backwards() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 10);
        d.refresh(NodeId(1), 5);
        assert_eq!(d.get(NodeId(1)).unwrap().last_refresh, 10);
    }

    #[test]
    fn expire_removes_stale_spares_fresh() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        d.apply_join(rec(2, 1), Provenance::Direct, 90);
        let removed = d.expire(100, |_| 50);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].node, NodeId(1));
        assert!(d.contains(NodeId(2)));
    }

    #[test]
    fn expire_never_removes_local() {
        let mut d = Directory::new();
        d.apply_join(rec(0, 1), Provenance::Local, 0);
        let removed = d.expire(1_000_000, |_| 1);
        assert!(removed.is_empty());
        assert!(d.contains(NodeId(0)));
    }

    #[test]
    fn expire_cascades_to_relayed_entries() {
        let mut d = Directory::new();
        // Leader 5 heard directly; nodes 6,7 relayed by 5; node 8 direct.
        d.apply_join(rec(5, 1), Provenance::Direct, 0);
        d.apply_join(rec(6, 1), Provenance::Relayed(NodeId(5)), 100);
        d.apply_join(rec(7, 1), Provenance::Relayed(NodeId(5)), 100);
        d.apply_join(rec(8, 1), Provenance::Direct, 100);
        // Only node 5 is stale, but 6 and 7 must cascade with it.
        let removed = d.expire(100, |e| if e.node == NodeId(5) { 50 } else { 500 });
        let mut ids: Vec<u32> = removed.iter().map(|r| r.node.0).collect();
        ids.sort();
        assert_eq!(ids, vec![5, 6, 7]);
        assert!(d.contains(NodeId(8)));
    }

    #[test]
    fn purge_relayed_by_cascades_transitively() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        d.apply_join(rec(2, 1), Provenance::Relayed(NodeId(1)), 0);
        d.apply_join(rec(3, 1), Provenance::Relayed(NodeId(2)), 0);
        d.apply_join(rec(4, 1), Provenance::Direct, 0);
        let removed = d.purge_relayed_by(NodeId(1));
        let mut ids: Vec<u32> = removed.iter().map(|r| r.node.0).collect();
        ids.sort();
        assert_eq!(ids, vec![2, 3]);
        assert!(d.contains(NodeId(1)));
        assert!(d.contains(NodeId(4)));
    }

    #[test]
    fn direct_supersedes_relayed_provenance() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Relayed(NodeId(9)), 0);
        d.apply_join(rec(1, 1), Provenance::Direct, 1);
        assert_eq!(d.get(NodeId(1)).unwrap().provenance, Provenance::Direct);
        // But relayed does not downgrade direct.
        d.apply_join(rec(1, 1), Provenance::Relayed(NodeId(9)), 2);
        assert_eq!(d.get(NodeId(1)).unwrap().provenance, Provenance::Direct);
    }

    #[test]
    fn snapshot_carries_relayers() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        d.apply_join(rec(2, 1), Provenance::Relayed(NodeId(1)), 0);
        let snap = d.snapshot();
        assert_eq!(snap.len(), 2);
        let relayed = snap.iter().find(|r| r.record.node == NodeId(2)).unwrap();
        assert_eq!(relayed.relayed_by, Some(NodeId(1)));
    }

    #[test]
    fn service_summary_aggregates() {
        let mut d = Directory::new();
        let a = NodeRecord::new(NodeId(1), 1)
            .with_service(ServiceDecl::new("idx", PartitionSet::from_iter([0, 1])));
        let b = NodeRecord::new(NodeId(2), 1)
            .with_service(ServiceDecl::new("idx", PartitionSet::from_iter([1, 2])))
            .with_service(ServiceDecl::new("doc", PartitionSet::from_iter([0])));
        d.apply_join(a, Provenance::Direct, 0);
        d.apply_join(b, Provenance::Direct, 0);
        let sum = d.service_summary();
        assert_eq!(sum.len(), 2);
        assert_eq!(sum[0].name, "doc");
        assert_eq!(sum[1].name, "idx");
        assert_eq!(sum[1].instances, 2);
        assert_eq!(sum[1].partitions.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn digest_tracks_every_mutation_class() {
        let mut d = Directory::new();
        assert!(d.digest().is_empty());
        d.apply_join(rec(2, 1), Provenance::Direct, 0);
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        d.apply_join(rec(3, 1), Provenance::Relayed(NodeId(1)), 0);
        // Sorted by node regardless of insertion order.
        let ids: Vec<u32> = d.digest().iter().map(|e| e.node.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Incarnation bump updates in place.
        d.apply_join(rec(2, 5), Provenance::Direct, 1);
        assert_eq!(d.digest()[1].incarnation, 5);
        // Same-incarnation refresh leaves the digest alone.
        let before = d.digest().to_vec();
        d.apply_join(rec(2, 5), Provenance::Direct, 2);
        assert_eq!(d.digest(), before);
        // Leave removes; purge cascades; remove drops.
        d.apply_leave(NodeId(2), 5, 3);
        d.purge_relayed_by(NodeId(1));
        d.remove(NodeId(1));
        assert!(d.digest().is_empty());
    }

    #[test]
    fn digest_survives_expiry_cascade() {
        let mut d = Directory::new();
        d.apply_join(rec(5, 1), Provenance::Direct, 0);
        d.apply_join(rec(6, 1), Provenance::Relayed(NodeId(5)), 100);
        d.apply_join(rec(8, 1), Provenance::Direct, 100);
        d.expire(100, |e| if e.node == NodeId(5) { 50 } else { 500 });
        let ids: Vec<u32> = d.digest().iter().map(|e| e.node.0).collect();
        assert_eq!(ids, vec![8]);
    }

    #[test]
    fn apply_join_with_skips_materialization_on_match() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 3), Provenance::Direct, 0);
        // Same incarnation, `same` says identical: refresh only, the
        // record must never be built.
        let applied = d.apply_join_with(
            NodeId(1),
            3,
            Provenance::Direct,
            7,
            || unreachable!("fast path must not materialize"),
            |_| true,
        );
        assert_eq!(applied, (Applied::Ignored, true));
        assert_eq!(d.get(NodeId(1)).unwrap().last_refresh, 7);
        // Older incarnation: also no materialization.
        let applied = d.apply_join_with(
            NodeId(1),
            2,
            Provenance::Direct,
            8,
            || unreachable!("stale join must not materialize"),
            |_| false,
        );
        assert_eq!(applied, (Applied::Ignored, true));
        // Newer incarnation materializes and lands.
        let applied =
            d.apply_join_with(NodeId(1), 4, Provenance::Direct, 9, || rec(1, 4), |_| false);
        assert_eq!(applied, (Applied::Changed, true));
        assert_eq!(d.get(NodeId(1)).unwrap().incarnation, 4);
        assert_eq!(d.digest()[0].incarnation, 4);
        // A first sighting reports the node as not known before, and a
        // join a fresh tombstone rejects still answers for the entry.
        let applied =
            d.apply_join_with(NodeId(2), 1, Provenance::Direct, 9, || rec(2, 1), |_| false);
        assert_eq!(applied, (Applied::Changed, false));
        d.apply_leave(NodeId(2), 1, 10);
        let applied = d.apply_join_with(
            NodeId(2),
            1,
            Provenance::Direct,
            11,
            || unreachable!("tombstoned join must not materialize"),
            |_| false,
        );
        assert_eq!(applied, (Applied::Ignored, false));
    }

    #[test]
    fn apply_join_with_conservative_same_still_converges() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 3), Provenance::Direct, 0);
        // `same` answering false on an identical record: re-stores (one
        // wasted materialization) but final state is unchanged.
        let applied =
            d.apply_join_with(NodeId(1), 3, Provenance::Direct, 5, || rec(1, 3), |_| false);
        assert_eq!(applied, (Applied::Changed, true));
        assert_eq!(d.get(NodeId(1)).unwrap().record(), rec(1, 3));
    }

    #[test]
    fn compact_tombstones_drops_departed() {
        let mut d = Directory::new();
        d.apply_join(rec(1, 1), Provenance::Direct, 0);
        d.apply_leave(NodeId(1), 1, 0);
        d.apply_join(rec(2, 1), Provenance::Direct, 0);
        d.apply_leave(NodeId(2), 1, 0);
        d.apply_join(rec(2, 2), Provenance::Direct, 0);
        d.compact_tombstones();
        // Node 1 tombstone gone: an old-incarnation join now sneaks in —
        // acceptable soft-state behaviour; heartbeat absence re-kills it.
        assert!(d.apply_join(rec(1, 1), Provenance::Direct, 1).changed());
        // Node 2 tombstone kept (node present).
        assert_eq!(
            d.apply_join(rec(2, 1), Provenance::Direct, 1),
            Applied::Ignored
        );
    }
}
