//! The directory as it was before the columns: a `BTreeMap<NodeId,
//! Entry>` plus a second, incrementally maintained digest `Vec`, moved
//! here verbatim (the type renamed, the regex lookup left behind) as the
//! reference model. `columns.rs` drives it and the columnar
//! [`tamp_directory::Directory`] with the same scripts and compares
//! everything either can be asked.

use std::collections::{BTreeMap, HashSet};
use tamp_directory::{Applied, Nanos, Provenance, Reconcile, DEFAULT_TOMBSTONE_TTL};
use tamp_wire::{DigestEntry, MemberEvent, NodeId, NodeRecord, RelayedRecord, ServiceAvail};

/// One directory entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub record: NodeRecord,
    pub provenance: Provenance,
    /// Last time a heartbeat or update touched this entry.
    pub last_refresh: Nanos,
}

/// The yellow-page directory: complete view of cluster membership.
#[derive(Debug, Clone, PartialEq)]
pub struct MapDirectory {
    entries: BTreeMap<NodeId, Entry>,
    /// Incarnations known dead: `dead[n]` is the highest incarnation of
    /// `n` declared dead plus when it was declared. Records must exceed
    /// the incarnation to be accepted while the tombstone is fresh.
    dead: BTreeMap<NodeId, (u64, Nanos)>,
    /// How long a death declaration suppresses same-incarnation rejoins.
    /// Finite TTL keeps the directory soft-state: after a false positive
    /// (e.g. a healed partition), the node's own heartbeats re-add it
    /// once the tombstone ages out, without requiring re-incarnation.
    tombstone_ttl: Nanos,
    /// Anti-entropy digest, maintained incrementally: one `(node,
    /// incarnation)` pair per live entry, sorted by node id (the same
    /// order the `entries` map iterates in). Every mutation path —
    /// insert, incarnation bump, leave/tombstone, reconciliation
    /// removal, expiry cascade, relayed purge — keeps it in sync, so
    /// [`MapDirectory::digest`] is a borrow instead of an O(members)
    /// rescan per anti-entropy tick. Same-incarnation refreshes and
    /// content republishes do not touch it: digest identity is the
    /// `(node, incarnation)` pair only.
    digest: Vec<DigestEntry>,
}

impl Default for MapDirectory {
    fn default() -> Self {
        MapDirectory {
            entries: BTreeMap::new(),
            dead: BTreeMap::new(),
            tombstone_ttl: DEFAULT_TOMBSTONE_TTL,
            digest: Vec::new(),
        }
    }
}

impl MapDirectory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the tombstone TTL (0 disables suppression entirely).
    pub fn set_tombstone_ttl(&mut self, ttl: Nanos) {
        self.tombstone_ttl = ttl;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live node ids, in `NodeId` order (see [`MapDirectory::entries`]).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }

    /// Look up one entry.
    pub fn get(&self, node: NodeId) -> Option<&Entry> {
        self.entries.get(&node)
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.contains_key(&node)
    }

    /// All entries, in `NodeId` order. The ordered backing map is a
    /// determinism requirement, not a convenience: iteration order here
    /// reaches digests, relay cascades, and expiry scans, and must not
    /// vary by process or thread.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
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
            |e| *e == record,
        )
        .0
    }

    /// Generic form of [`MapDirectory::apply_join`]: the acceptance rules
    /// run on `(node, incarnation)` alone, and the record is only
    /// produced — via `make_record` — when it will actually be stored.
    /// `same` is consulted on a same-incarnation collision and must
    /// answer "is the offered record content-identical to this one?";
    /// a `true` must imply `make_record()` equals the existing record.
    ///
    /// This is the single implementation both the owned path and the
    /// borrowed wire-view path go through: a zero-copy caller passes
    /// `make_record = || view.to_record()` and `same = |e|
    /// view.matches(e)`, and skips materialization entirely on the
    /// (dominant) same-incarnation refresh case. A conservative `same`
    /// that answers `false` is safe: the record is materialized and
    /// compared-by-storage, converging to the same final state.
    ///
    /// Also reports whether `node` had an entry before the call: callers
    /// that announce first sightings get it from the same walk instead
    /// of a `contains` before it.
    pub fn apply_join_with(
        &mut self,
        node: NodeId,
        incarnation: u64,
        provenance: Provenance,
        now: Nanos,
        make_record: impl FnOnce() -> NodeRecord,
        same: impl FnOnce(&NodeRecord) -> bool,
    ) -> (Applied, bool) {
        if let Some(&(dead_inc, at)) = self.dead.get(&node) {
            if incarnation <= dead_inc && now.saturating_sub(at) < self.tombstone_ttl {
                return (Applied::Ignored, self.entries.contains_key(&node));
            }
        }
        let existing = self.entries.get_mut(&node);
        let was_known = existing.is_some();
        let applied = match existing {
            None => {
                let record = make_record();
                debug_assert_eq!((record.node, record.incarnation), (node, incarnation));
                self.entries.insert(
                    node,
                    Entry {
                        record,
                        provenance,
                        last_refresh: now,
                    },
                );
                self.digest_upsert(node, incarnation);
                Applied::Changed
            }
            Some(e) => {
                if incarnation > e.record.incarnation
                    || (incarnation == e.record.incarnation && !same(&e.record))
                {
                    let record = make_record();
                    debug_assert_eq!((record.node, record.incarnation), (node, incarnation));
                    let inc_changed = e.record.incarnation != incarnation;
                    e.record = record;
                    e.provenance = provenance;
                    e.last_refresh = now;
                    if inc_changed {
                        self.digest_upsert(node, incarnation);
                    }
                    Applied::Changed
                } else if incarnation == e.record.incarnation {
                    e.last_refresh = now;
                    // Provenance re-stamping: relayed knowledge may be
                    // upgraded to direct, or re-attributed to a new
                    // relayer (the takeover leader re-announcing its
                    // directory). Direct knowledge never downgrades to
                    // relayed — we keep detecting the failure ourselves.
                    if matches!(e.provenance, Provenance::Relayed(_))
                        && !matches!(provenance, Provenance::Local)
                    {
                        e.provenance = provenance;
                    }
                    Applied::Ignored
                } else {
                    Applied::Ignored
                }
            }
        };
        self.debug_assert_digest_coherent();
        (applied, was_known)
    }

    /// Declare `node`'s given incarnation dead. A stale leave (for an
    /// incarnation older than the live record) is ignored.
    pub fn apply_leave(&mut self, node: NodeId, incarnation: u64, now: Nanos) -> Applied {
        let dead = self.dead.entry(node).or_insert((0, now));
        if incarnation >= dead.0 {
            *dead = (incarnation, now);
        }
        let applied = match self.entries.get(&node) {
            Some(e) if e.record.incarnation <= incarnation => {
                self.entries.remove(&node);
                self.digest_remove(node);
                Applied::Changed
            }
            _ => Applied::Ignored,
        };
        self.debug_assert_digest_coherent();
        applied
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
        let removed = self.entries.remove(&node).map(|e| e.record);
        if removed.is_some() {
            self.digest_remove(node);
        }
        self.debug_assert_digest_coherent();
        removed
    }

    /// Touch `node`'s entry (heartbeat received) without changing content.
    /// Returns false if the node is unknown.
    pub fn refresh(&mut self, node: NodeId, now: Nanos) -> bool {
        match self.entries.get_mut(&node) {
            Some(e) => {
                if now > e.last_refresh {
                    e.last_refresh = now;
                }
                true
            }
            None => false,
        }
    }

    /// Remove every entry whose age exceeds the deadline computed by
    /// `deadline_for`, then cascade: entries relayed by a node removed in
    /// the same sweep are removed too (repeat to fixpoint). Returns the
    /// removed records and the earliest absolute
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
        F: FnMut(&Entry) -> Nanos,
    {
        let mut removed = Vec::new();
        let mut next_due = u64::MAX;
        let stale: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| {
                if matches!(e.provenance, Provenance::Local) {
                    return false;
                }
                let deadline = deadline_for(e);
                if now.saturating_sub(e.last_refresh) >= deadline {
                    true
                } else {
                    if deadline != u64::MAX {
                        next_due = next_due.min(e.last_refresh.saturating_add(deadline));
                    }
                    false
                }
            })
            .map(|(&n, _)| n)
            .collect();
        let mut frontier = stale;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for n in frontier {
                if let Some(e) = self.entries.remove(&n) {
                    self.digest_remove(n);
                    // Cascade to everything this node relayed to us.
                    for (&m, me) in &self.entries {
                        if me.provenance.relayer() == Some(n) {
                            next.push(m);
                        }
                    }
                    removed.push(e.record);
                }
            }
            frontier = next;
        }
        self.debug_assert_digest_coherent();
        (removed, next_due)
    }

    /// Remove every entry relayed by `relayer` ("the membership
    /// information relayed by a group leader has the same life time as the
    /// leader itself"). Cascades like [`MapDirectory::expire`]. Does not
    /// remove `relayer` itself.
    pub fn purge_relayed_by(&mut self, relayer: NodeId) -> Vec<NodeRecord> {
        let mut removed = Vec::new();
        let mut frontier = vec![relayer];
        while let Some(r) = frontier.pop() {
            let victims: Vec<NodeId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.provenance.relayer() == Some(r))
                .map(|(&n, _)| n)
                .collect();
            for v in victims {
                if let Some(e) = self.entries.remove(&v) {
                    self.digest_remove(v);
                    removed.push(e.record);
                    frontier.push(v);
                }
            }
        }
        self.debug_assert_digest_coherent();
        removed
    }

    /// Snapshot all entries as wire records with their relay provenance,
    /// for bootstrap/sync responses.
    pub fn snapshot(&self) -> Vec<RelayedRecord> {
        self.entries
            .values()
            .map(|e| RelayedRecord {
                record: e.record.clone(),
                relayed_by: e.provenance.relayer(),
            })
            .collect()
    }

    /// Aggregate per-service availability for the proxy summary: one
    /// [`ServiceAvail`] per service name, with the union of partitions and
    /// the instance count, sorted by name for deterministic comparison.
    pub fn service_summary(&self) -> Vec<ServiceAvail> {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<&str, (Vec<u16>, u16)> = BTreeMap::new();
        for e in self.entries.values() {
            for s in &e.record.services {
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
    /// entry, sorted by node id. Maintained incrementally by every
    /// mutation, so this is a borrow — no per-tick rescan.
    pub fn digest(&self) -> &[DigestEntry] {
        &self.digest
    }

    /// Reference implementation of [`MapDirectory::digest`]: rebuild the
    /// digest from scratch by scanning the entries map. Used by the
    /// differential tests (and the coherence debug-assert) to pin the
    /// incremental digest against first principles.
    pub fn rescan_digest(&self) -> Vec<DigestEntry> {
        self.entries
            .iter()
            .map(|(&node, e)| DigestEntry {
                node,
                incarnation: e.record.incarnation,
            })
            .collect()
    }

    /// True iff the incremental digest matches a from-scratch rescan.
    pub fn digest_is_coherent(&self) -> bool {
        self.digest.len() == self.entries.len()
            && self
                .digest
                .iter()
                .zip(self.entries.iter())
                .all(|(d, (&n, e))| d.node == n && d.incarnation == e.record.incarnation)
    }

    /// Insert or overwrite `node`'s digest entry, preserving sort order.
    fn digest_upsert(&mut self, node: NodeId, incarnation: u64) {
        match self.digest.binary_search_by_key(&node, |d| d.node) {
            Ok(i) => self.digest[i].incarnation = incarnation,
            Err(i) => self.digest.insert(i, DigestEntry { node, incarnation }),
        }
    }

    fn digest_remove(&mut self, node: NodeId) {
        if let Ok(i) = self.digest.binary_search_by_key(&node, |d| d.node) {
            self.digest.remove(i);
        }
    }

    /// Debug-profile tripwire: every mutation re-checks the incremental
    /// digest against the entries map, so the whole chaos/property suite
    /// (which runs in the debug profile) exercises the invariant after
    /// every mutation batch. Release builds compile this away.
    fn debug_assert_digest_coherent(&self) {
        debug_assert!(
            self.digest_is_coherent(),
            "incremental digest diverged from entries: digest={:?} rescan={:?}",
            self.digest,
            self.rescan_digest()
        );
    }
}

impl MapDirectory {
    /// Reconcile against the digest `entries` sent by `from`: refresh
    /// (to `now`) every entry listed at the incarnation held, and report
    /// the rest as a [`Reconcile`]. Touches neither membership nor the
    /// own digest, so a caller under `SharedDirectory::update` reports
    /// "unchanged".
    ///
    /// One walk of the entries in step with the digest; a digest that
    /// is not strictly ascending by node id (none this code sends) goes
    /// through [`MapDirectory::reconcile_digest_per_entry`] instead, and
    /// debug builds check every digest against it.
    pub fn reconcile_digest(
        &mut self,
        me: NodeId,
        from: NodeId,
        entries: impl Iterator<Item = DigestEntry> + Clone,
        now: Nanos,
        settled: Nanos,
        stale_before: Nanos,
    ) -> Reconcile {
        let model = cfg!(debug_assertions).then(|| self.clone());
        let got = match self.merge_digest(me, from, entries.clone(), now, settled, stale_before) {
            Some(r) => r,
            None => self.reconcile_digest_per_entry(
                me,
                from,
                entries.clone(),
                now,
                settled,
                stale_before,
            ),
        };
        if let Some(mut model) = model {
            let want =
                model.reconcile_digest_per_entry(me, from, entries, now, settled, stale_before);
            debug_assert!(
                got == want && *self == model,
                "digest merge diverged from the per-entry model: {got:?} vs {want:?}"
            );
        }
        got
    }

    /// The merge behind [`MapDirectory::reconcile_digest`]. `None` when
    /// `entries` turns out not to be strictly ascending; the refreshes
    /// made up to that point are ones the per-entry path makes too.
    fn merge_digest(
        &mut self,
        me: NodeId,
        from: NodeId,
        entries: impl Iterator<Item = DigestEntry>,
        now: Nanos,
        settled: Nanos,
        stale_before: Nanos,
    ) -> Option<Reconcile> {
        let (dead, ttl) = (&self.dead, self.tombstone_ttl);
        let orphaned =
            |e: &Entry| e.provenance == Provenance::Relayed(from) && e.last_refresh <= stale_before;
        let mut out = Reconcile::default();
        let mut held = self.entries.iter_mut().peekable();
        let mut prev = None;
        for listed in entries {
            if prev.is_some_and(|p| p >= listed.node) {
                return None;
            }
            prev = Some(listed.node);
            // Everything held below the listed id is unlisted.
            while let Some((&n, e)) = held.next_if(|(&n, _)| n < listed.node) {
                if orphaned(e) {
                    out.orphans.push(n);
                }
            }
            let held_inc = held.next_if(|(&n, _)| n == listed.node).map(|(_, e)| {
                if e.record.incarnation == listed.incarnation && now > e.last_refresh {
                    e.last_refresh = now;
                }
                e.record.incarnation
            });
            if held_inc.is_some_and(|inc| inc >= listed.incarnation) {
                continue;
            }
            // Lacked, or held at an older incarnation: the only cases
            // that consult the tombstones.
            let fresh = dead
                .get(&listed.node)
                .map(|&(inc, at)| (inc, now.saturating_sub(at)))
                .filter(|&(_, age)| age < ttl);
            if let (None, Some((dead_inc, age))) = (held_inc, fresh) {
                if dead_inc >= listed.incarnation && age >= settled {
                    out.dead_listed.push((listed.node, dead_inc));
                }
            }
            if listed.node != me && fresh.is_none_or(|(dead_inc, _)| dead_inc < listed.incarnation)
            {
                out.missing = true;
            }
        }
        out.orphans
            .extend(held.filter(|(_, e)| orphaned(e)).map(|(&n, _)| n));
        Some(out)
    }

    /// [`MapDirectory::reconcile_digest`] one listed entry at a time, for
    /// any order of `entries` (duplicates included): a pass per
    /// question, each a lookup per entry. The path for digests that are
    /// not sorted, and the reference the merge is held to.
    pub fn reconcile_digest_per_entry(
        &mut self,
        me: NodeId,
        from: NodeId,
        entries: impl Iterator<Item = DigestEntry> + Clone,
        now: Nanos,
        settled: Nanos,
        stale_before: Nanos,
    ) -> Reconcile {
        for e in entries.clone() {
            if self
                .get(e.node)
                .is_some_and(|have| have.record.incarnation == e.incarnation)
            {
                self.refresh(e.node, now);
            }
        }
        let dead_listed = entries
            .clone()
            .filter(|e| !self.contains(e.node))
            .filter_map(|e| {
                self.tombstone_of(e.node).and_then(|(dead_inc, at)| {
                    let age = now.saturating_sub(at);
                    (dead_inc >= e.incarnation && age >= settled && age < self.tombstone_ttl())
                        .then_some((e.node, dead_inc))
                })
            })
            .collect();
        let missing = entries.clone().any(|e| {
            e.node != me
                && self
                    .fresh_tombstone(e.node, now)
                    .is_none_or(|i| i < e.incarnation)
                && self
                    .get(e.node)
                    .is_none_or(|have| have.record.incarnation < e.incarnation)
        });
        let listed: HashSet<NodeId> = entries.map(|e| e.node).collect();
        let orphans = self
            .entries()
            .filter(|e| {
                e.provenance == Provenance::Relayed(from)
                    && !listed.contains(&e.record.node)
                    && e.last_refresh <= stale_before
            })
            .map(|e| e.record.node)
            .collect();
        Reconcile {
            dead_listed,
            missing,
            orphans,
        }
    }
}

impl MapDirectory {
    /// Request routing: the nodes currently believed to host `partition`
    /// of the service named exactly `service` (`None` = any partition,
    /// including none), in `NodeId` order, once per matching declaration.
    ///
    /// The typed counterpart of [`MapDirectory::lookup`] for callers that
    /// already hold a literal name and a partition number: no pattern is
    /// compiled and nothing is allocated. For a metacharacter-free name
    /// it yields exactly the `.node`s that `lookup_service` returns for
    /// the partition's decimal form (`""` for `None`), in the same order
    /// and multiplicity.
    pub fn providers<'a>(
        &'a self,
        service: &'a str,
        partition: Option<u16>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.entries().flat_map(move |e| {
            e.record
                .services
                .iter()
                .filter(move |s| {
                    s.name == service && partition.is_none_or(|p| s.partitions.contains(p))
                })
                .map(|_| e.record.node)
        })
    }
}
