//! Anti-entropy reconcile: a leader's `(node, incarnation)` digest
//! against this directory.
//!
//! A digest is the leader vouching for everything it lists (§3.1.2:
//! relayed knowledge lives as long as its relayer stands behind it).
//! The receiver refreshes what matches, pushes settled deaths back at a
//! leader that still advertises them, pulls a full image when the
//! digest lists something it lacks, and drops what it holds on that
//! leader's word alone once the leader stops listing it. Both sides are
//! sorted by node id, so all four fall out of one merge walk
//! ([`Directory::reconcile_digest`]); the per-entry form it replaced
//! stays as the path for digests that are not sorted and as the model
//! the merge is checked against ([`Directory::reconcile_digest_per_entry`]).

use crate::{Directory, Nanos, Packed, Provenance, Rows};
use std::collections::HashSet;
use tamp_wire::{DigestEntry, NodeId};

/// What a digest asks of its receiver, beyond the refreshes already
/// made in place.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Reconcile {
    /// Listed nodes this directory lacks and holds a tombstone for that
    /// is at or above the listed incarnation, at least `settled` old and
    /// still fresh: `(node, dead incarnation)` in digest order. The
    /// digesting leader is advertising a ghost; push the death back.
    pub dead_listed: Vec<(NodeId, u64)>,
    /// The digest lists a node other than `me` that this directory lacks
    /// or holds at an older incarnation, and no fresh tombstone at or
    /// above the listed incarnation explains it: worth a full pull.
    pub missing: bool,
    /// Entries held as `Relayed(from)` that the digest does not list and
    /// that were last refreshed at or before `stale_before`, in
    /// directory order. Not removed here.
    pub orphans: Vec<NodeId>,
}

impl Directory {
    /// Reconcile against the digest `entries` sent by `from`: refresh
    /// (to `now`) every entry listed at the incarnation held, and report
    /// the rest as a [`Reconcile`]. Touches neither membership nor the
    /// own digest, so a caller under `SharedDirectory::update` reports
    /// "unchanged".
    ///
    /// One walk of the rows in step with the digest; a digest that
    /// is not strictly ascending by node id (none this code sends) goes
    /// through [`Directory::reconcile_digest_per_entry`] instead, and
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

    /// The merge behind [`Directory::reconcile_digest`]. `None` when
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
        let held = Packed::new(Provenance::Relayed(from));
        let orphaned = |provenance: Packed, last_refresh: Nanos| {
            provenance == held && last_refresh <= stale_before
        };
        let mut out = Reconcile::default();
        // The rows, walked in step with the digest; `i` is the column
        // index of the next.
        let mut rows = Rows::new(&self.pages, self.len());
        let mut i = 0;
        let mut prev = None;
        for listed in entries {
            if prev.is_some_and(|p| p >= listed.node) {
                return None;
            }
            prev = Some(listed.node);
            // Everything held below the listed id is unlisted.
            while let Some(row) = rows.next_if(|row| row.key.node < listed.node) {
                if orphaned(self.provenance[i], self.last_refresh[i]) {
                    out.orphans.push(row.key.node);
                }
                i += 1;
            }
            let held_inc = rows.next_if(|row| row.key.node == listed.node).map(|row| {
                let inc = row.key.incarnation;
                if inc == listed.incarnation && now > self.last_refresh[i] {
                    self.last_refresh[i] = now;
                }
                i += 1;
                inc
            });
            if held_inc.is_some_and(|inc| inc >= listed.incarnation) {
                continue;
            }
            // Lacked, or held at an older incarnation: the only cases
            // that consult the tombstones.
            let fresh = self
                .dead
                .get(&listed.node)
                .map(|&(inc, at)| (inc, now.saturating_sub(at)))
                .filter(|&(_, age)| age < self.tombstone_ttl);
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
        for (row, i) in rows.zip(i..) {
            if orphaned(self.provenance[i], self.last_refresh[i]) {
                out.orphans.push(row.key.node);
            }
        }
        Some(out)
    }

    /// [`Directory::reconcile_digest`] one listed entry at a time, for
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
                .is_some_and(|have| have.incarnation == e.incarnation)
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
                    .is_none_or(|have| have.incarnation < e.incarnation)
        });
        let listed: HashSet<NodeId> = entries.map(|e| e.node).collect();
        let orphans = self
            .entries()
            .filter(|e| {
                e.provenance == Provenance::Relayed(from)
                    && !listed.contains(&e.node)
                    && e.last_refresh <= stale_before
            })
            .map(|e| e.node)
            .collect();
        Reconcile {
            dead_listed,
            missing,
            orphans,
        }
    }
}
