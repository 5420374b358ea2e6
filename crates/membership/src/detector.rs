//! The two aging devices of every failure detector in the workspace,
//! each written once: [`GroupState`](crate::group::GroupState)'s peer
//! tables and the all-to-all, gossip and SWIM columns of
//! `tamp-baselines` all age their books on [`Floor`] and [`Tombstones`].

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use tamp_topology::Nanos;
use tamp_wire::{NodeId, NodeRecord};

/// A lower bound on the stamps a sweep ages a book by. The book notes
/// the stamp of each entry that enters it; refreshing or removing an
/// entry can only loosen the bound. A sweep walks the book only once the
/// bound is a whole window old, and the walk sets it to the exact
/// minimum of the stamps it leaves. `None`: no entry the sweep ages.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floor(Option<Nanos>);

impl Floor {
    /// An entry stamped `t` entered the book.
    #[inline]
    pub fn note(&mut self, t: Nanos) {
        self.0 = Some(self.0.map_or(t, |f| f.min(t)));
    }

    /// Is `t` at or above the bound?
    #[inline]
    pub(crate) fn bounds(&self, t: Nanos) -> bool {
        self.0.is_some_and(|f| f <= t)
    }

    /// How old the bound is at `now`; `None` while no entry is aged.
    #[inline]
    pub(crate) fn age(&self, now: Nanos) -> Option<Nanos> {
        self.0.map(|f| now.saturating_sub(f))
    }

    /// The members of `book` whose stamp is `window` old at `now`, in
    /// ascending id order: `book` yields every member in that order with
    /// its stamp, `None` for an entry the sweep does not age. The caller
    /// removes every member named.
    pub fn due(
        &mut self,
        book: impl IntoIterator<Item = (NodeId, Option<Nanos>)>,
        now: Nanos,
        window: Nanos,
    ) -> Vec<NodeId> {
        let old = |t: Nanos| now.saturating_sub(t) >= window;
        if !self.0.is_some_and(old) {
            debug_assert!(
                book.into_iter().filter_map(|(_, t)| t).all(|t| !old(t)),
                "sweep gate skipped a due entry: floor={:?} now={now} window={window}",
                self.0
            );
            return Vec::new();
        }
        self.0 = None;
        let mut ids = Vec::new();
        for (n, t) in book {
            match t {
                Some(t) if old(t) => ids.push(n),
                Some(t) => self.note(t),
                None => {}
            }
        }
        ids
    }

    /// Remove from `book` every member [`Floor::due`] names, in
    /// ascending id order; `stamp` reads an entry's stamp.
    pub fn take_due<V>(
        &mut self,
        book: &mut BTreeMap<NodeId, V>,
        now: Nanos,
        window: Nanos,
        stamp: impl Fn(&V) -> Option<Nanos>,
    ) -> Vec<NodeId> {
        let ids = self.due(book.iter().map(|(&n, v)| (n, stamp(v))), now, window);
        for n in &ids {
            book.remove(n);
        }
        ids
    }
}

/// Members declared dead, in id order, each with what the detector keeps
/// of it and the time it may be forgotten. Expiry runs on the sweep: an
/// entry stands until the first sweep at or after its time.
#[derive(Default)]
pub struct Tombstones<R>(BTreeMap<NodeId, (R, Nanos)>);

impl<R> Deref for Tombstones<R> {
    type Target = BTreeMap<NodeId, (R, Nanos)>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<R> DerefMut for Tombstones<R> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<R> Tombstones<R> {
    /// Forget every entry whose time has come.
    pub fn expire(&mut self, now: Nanos) {
        self.0.retain(|_, &mut (_, until)| now < until);
    }
}

impl Tombstones<NodeRecord> {
    /// Does the tombstone of `node` turn away a record at `incarnation`?
    /// Only a higher incarnation than the buried record's passes.
    #[inline]
    pub fn blocks(&self, node: NodeId, incarnation: u64) -> bool {
        self.0
            .get(&node)
            .is_some_and(|(r, _)| incarnation <= r.incarnation)
    }
}
