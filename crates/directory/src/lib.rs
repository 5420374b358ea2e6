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

/// A [`Provenance`] in four bytes, as the directory stores it per
/// holder: the relayer's id, or one of the two ids at the top of the
/// range. Node ids are host numbers; a relayer id up there (a corrupt
/// frame's) is held as the highest one left, `u32::MAX - 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed(u32);

impl Packed {
    const LOCAL: u32 = u32::MAX;
    const DIRECT: u32 = u32::MAX - 1;

    #[inline]
    fn new(provenance: Provenance) -> Packed {
        Packed(match provenance {
            Provenance::Local => Packed::LOCAL,
            Provenance::Direct => Packed::DIRECT,
            Provenance::Relayed(n) => n.0.min(Packed::DIRECT - 1),
        })
    }

    #[inline]
    fn get(self) -> Provenance {
        match self.0 {
            Packed::LOCAL => Provenance::Local,
            Packed::DIRECT => Provenance::Direct,
            n => Provenance::Relayed(NodeId(n)),
        }
    }
}

/// One directory entry: a row borrowed from the [`Directory`]'s key
/// pages and its own columns. Services and attributes are reachable
/// through `Deref`.
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

/// Rows a key page holds at most. 16, 32 and 64 were measured
/// (docs/PERFORMANCE.md, "Shared key pages"): smaller pages make the one
/// page a holder writes cheaper, larger ones make the page table and the
/// per-page overhead smaller.
const PAGE_ROWS: usize = 32;

/// Low bits of a row hint that hold the row's offset in its page.
const OFFSET_BITS: u32 = 8;
const _: () = assert!(PAGE_ROWS < 1 << OFFSET_BITS);

/// The part of a row every holder of the same record agrees on.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    key: DigestEntry,
    /// Services and attributes, shared with every other holder of the
    /// same record; `None` only in a page's unused slots.
    payload: Option<Arc<RecordPayload>>,
}

impl Row {
    /// What a page's unused slot holds.
    const VACANT: Row = Row {
        key: DigestEntry {
            node: NodeId(0),
            incarnation: 0,
        },
        payload: None,
    };

    #[inline]
    fn payload(&self) -> &Arc<RecordPayload> {
        self.payload.as_ref().expect("a held row has a payload")
    }

    fn vacate(&mut self) -> Row {
        std::mem::replace(self, Row::VACANT)
    }
}

/// A key page as one directory holds it: where it sits in that
/// directory's table, and the slots that hold the rows.
#[derive(Debug, Clone)]
struct Page {
    /// The first row's node id, which a search bisects.
    first: NodeId,
    /// Rows in the pages before this one: the column index of its first
    /// row.
    start: u32,
    /// Slots `..len` hold the rows, ascending by node id; the rest are
    /// vacant. Never 0.
    len: u32,
    /// At most [`PAGE_ROWS`] of them, shared by clones of the directory
    /// until one of them writes them. The reference counts and the rows
    /// are one allocation, so a row is one pointer away from the page
    /// table, and a write to a private page with a free slot moves rows
    /// instead of allocating.
    slots: Arc<[Row]>,
}

impl Page {
    /// A page of `rows` (ascending, at least one) with room for `cap`,
    /// whose first row is column `start`.
    fn new(start: u32, rows: Vec<Row>, cap: usize) -> Page {
        let (first, len) = (rows[0].key.node, rows.len() as u32);
        let mut rows = rows.into_iter();
        let slots = (0..cap)
            .map(|_| rows.next().unwrap_or(Row::VACANT))
            .collect();
        Page {
            first,
            start,
            len,
            slots,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn rows(&self) -> &[Row] {
        &self.slots[..self.len()]
    }

    #[inline]
    fn search(&self, node: NodeId) -> Result<usize, usize> {
        self.rows().binary_search_by_key(&node, |r| r.key.node)
    }

    /// The slots, to write: copied first if another directory shares
    /// them.
    fn write(&mut self) -> &mut [Row] {
        Arc::make_mut(&mut self.slots)
    }

    /// The first row's node id, after a write.
    fn reset_first(&mut self) {
        self.first = self.slots[0].key.node;
    }

    /// All the rows, moved out (copied, if another directory shares
    /// them): a page about to be rebuilt.
    fn take(&mut self) -> Vec<Row> {
        let len = self.len();
        match Arc::get_mut(&mut self.slots) {
            Some(slots) => slots[..len].iter_mut().map(Row::vacate).collect(),
            None => self.rows().to_vec(),
        }
    }

    /// Put `row` in at `off`; the page must hold fewer than
    /// [`PAGE_ROWS`]. Out of slots, it grows by eight.
    fn insert(&mut self, off: usize, row: Row) {
        let len = self.len();
        if len == self.slots.len() {
            let mut rows = self.take();
            rows.insert(off, row);
            *self = Page::new(self.start, rows, (len + 8).min(PAGE_ROWS));
            return;
        }
        let slots = self.write();
        slots[len] = row;
        slots[off..=len].rotate_right(1);
        self.len += 1;
        self.reset_first();
    }

    /// Take the row at `off` out; the page must keep one.
    fn remove(&mut self, off: usize) -> Row {
        let len = self.len();
        let slots = self.write();
        slots[off..len].rotate_left(1);
        let row = slots[len - 1].vacate();
        self.len -= 1;
        self.reset_first();
        row
    }

    /// Take the rows from `cut` on out.
    fn split_off(&mut self, cut: usize) -> Vec<Row> {
        let len = self.len();
        let upper = self.write()[cut..len].iter_mut().map(Row::vacate).collect();
        self.len = cut as u32;
        upper
    }
}

/// The shared half of a table's rows, page after page: ascending by node
/// id, and as long as the table.
#[derive(Clone)]
struct Rows<'a> {
    pages: std::slice::Iter<'a, Page>,
    page: std::slice::Iter<'a, Row>,
    left: usize,
}

impl<'a> Rows<'a> {
    fn new(pages: &'a [Page], len: usize) -> Self {
        let (pages, page) = (pages.iter(), [].iter());
        Rows {
            pages,
            page,
            left: len,
        }
    }

    /// The next row, if `take` accepts it.
    #[inline]
    fn next_if(&mut self, take: impl FnOnce(&Row) -> bool) -> Option<&'a Row> {
        while self.page.as_slice().is_empty() {
            self.page = self.pages.next()?.rows().iter();
        }
        let row = self.page.as_slice().first().filter(|r| take(r))?;
        self.page.next();
        self.left -= 1;
        Some(row)
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        loop {
            if let Some(row) = self.page.next() {
                self.left -= 1;
                return Some(row);
            }
            self.page = self.pages.next()?.rows().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Where a row is, or would go: page and offset in the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    page: usize,
    off: usize,
}

impl Pos {
    /// The position as a row hint (see [`Directory::apply_join_hinted`]).
    #[inline]
    fn hint(self) -> u32 {
        (self.page as u32) << OFFSET_BITS | self.off as u32
    }

    #[inline]
    fn from_hint(hint: u32) -> Pos {
        Pos {
            page: (hint >> OFFSET_BITS) as usize,
            off: (hint & ((1 << OFFSET_BITS) - 1)) as usize,
        }
    }
}

/// The yellow-page directory: complete view of cluster membership.
///
/// Every node holds every other node's entry (§3), so a simulated
/// cluster holds n² rows, and most of them say the same thing at every
/// holder. A row's key and payload pointer (24 bytes) live in sorted
/// key pages of at most 32 rows, behind an `Arc`: a cloned
/// directory shares every page with its source until it writes one
/// (`Arc::make_mut`). What differs per holder — `last_refresh`, which
/// every heartbeat moves, and `provenance` (12 bytes) — sits in two
/// dense columns, row `i` being the `i`-th row of the pages in order.
///
/// A lookup is a binary search over the pages' first keys and one
/// within the page; the heartbeat refresh, given its hint, is a store
/// into `last_refresh` and writes no page; the expiry, relayer and
/// digest scans walk the pages in order beside the columns.
#[derive(Debug, Clone)]
pub struct Directory {
    /// The key column, page after page: strictly ascending by node id
    /// across page boundaries. It is the anti-entropy digest itself;
    /// ascending order is a determinism requirement, not a convenience:
    /// it reaches digests, relay cascades and expiry scans, and must not
    /// vary by process or thread.
    pages: Vec<Page>,
    last_refresh: Vec<Nanos>,
    provenance: Vec<Packed>,
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
            pages: Vec::new(),
            last_refresh: Vec::new(),
            provenance: Vec::new(),
            dead: BTreeMap::new(),
            tombstone_ttl: DEFAULT_TOMBSTONE_TTL,
        }
    }
}

/// Two directories are equal when they hold the same rows, whatever
/// their page boundaries.
impl PartialEq for Directory {
    fn eq(&self, other: &Self) -> bool {
        self.last_refresh == other.last_refresh
            && self.provenance == other.provenance
            && self.rows().eq(other.rows())
            && self.dead == other.dead
            && self.tombstone_ttl == other.tombstone_ttl
    }
}

/// Default [`Directory::set_tombstone_ttl`]: 15 s — comfortably longer
/// than update-propagation time (so in-flight stale leaves stay
/// suppressed) but short enough that partition false-positives heal fast.
pub const DEFAULT_TOMBSTONE_TTL: Nanos = 15_000_000_000;

/// The anti-entropy digest: a view of the directory's key column.
#[derive(Clone, Copy)]
pub struct DigestView<'a> {
    pages: &'a [Page],
    len: usize,
}

impl<'a> DigestView<'a> {
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries, ascending by node id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DigestEntry> + Clone + 'a {
        Rows::new(self.pages, self.len).map(|r| r.key)
    }

    pub fn to_vec(&self) -> Vec<DigestEntry> {
        let mut out = Vec::with_capacity(self.len);
        for page in self.pages {
            out.extend(page.rows().iter().map(|r| r.key));
        }
        out
    }
}

impl std::fmt::Debug for DigestView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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
        self.last_refresh.len()
    }

    pub fn is_empty(&self) -> bool {
        self.last_refresh.is_empty()
    }

    /// The shared half of every row, in `NodeId` order.
    fn rows(&self) -> Rows<'_> {
        Rows::new(&self.pages, self.len())
    }

    /// Live node ids, in `NodeId` order (see [`Directory::entries`]).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rows().map(|r| r.key.node)
    }

    /// `node`'s position, or the one it would be inserted at. Between
    /// two pages, that is the end of the first unless only the second
    /// is private to this directory: a holder that takes its own row out
    /// of a page it shared and puts it back writes that one page. (A
    /// count that another thread's clone changes meanwhile only moves the
    /// row to the other page; rows and their order are the same.)
    fn find(&self, node: NodeId) -> Result<Pos, Pos> {
        let page = self
            .pages
            .partition_point(|p| p.first <= node)
            .saturating_sub(1);
        let Some(p) = self.pages.get(page) else {
            return Err(Pos { page, off: 0 });
        };
        match p.search(node) {
            Ok(off) => Ok(Pos { page, off }),
            Err(off)
                if off == p.len()
                    && self.pages.get(page + 1).is_some_and(|next| {
                        Arc::strong_count(&p.slots) > 1 && Arc::strong_count(&next.slots) == 1
                    }) =>
            {
                Err(Pos {
                    page: page + 1,
                    off: 0,
                })
            }
            Err(off) => Err(Pos { page, off }),
        }
    }

    /// Column index of the row at `pos`.
    #[inline]
    fn index(&self, pos: Pos) -> usize {
        self.pages[pos.page].start as usize + pos.off
    }

    #[inline]
    fn row(&self, pos: Pos) -> &Row {
        &self.pages[pos.page].rows()[pos.off]
    }

    #[inline]
    fn entry<'a>(&'a self, row: &'a Row, i: usize) -> Entry<'a> {
        Entry {
            node: row.key.node,
            incarnation: row.key.incarnation,
            payload: row.payload(),
            provenance: self.provenance[i].get(),
            last_refresh: self.last_refresh[i],
        }
    }

    /// Put `row` in at `pos` (as [`Directory::find`] gave it). A full
    /// page is cut at the insertion point, but no lower than its middle,
    /// and the rows above the cut move to a new page; the row goes on
    /// the end of the lower part (on the front of the new one, if the
    /// lower is still full). Rows put in ascending order — a template, a
    /// sync image — fill their pages, and anywhere else a page keeps at
    /// least half. Returns where the row went.
    fn insert_row(&mut self, pos: Pos, row: Row, now: Nanos, provenance: Provenance) -> Pos {
        let Pos { page, off } = pos;
        let i = self.pages.get(page).map_or(0, |p| p.start as usize + off);
        self.last_refresh.insert(i, now);
        self.provenance.insert(i, Packed::new(provenance));
        let Some(lower) = self.pages.get_mut(page) else {
            self.pages.push(Page::new(0, vec![row], 1));
            return pos;
        };
        if lower.len() < PAGE_ROWS {
            lower.insert(off, row);
            for p in &mut self.pages[page + 1..] {
                p.start += 1;
            }
            return pos;
        }
        let cut = off.max(PAGE_ROWS / 2);
        let mut upper = lower.split_off(cut);
        let at = if cut < PAGE_ROWS {
            lower.insert(off, row);
            pos
        } else {
            upper.push(row);
            Pos {
                page: page + 1,
                off: 0,
            }
        };
        let start = lower.start + lower.len() as u32;
        let cap = upper.len();
        self.pages.insert(page + 1, Page::new(start, upper, cap));
        for p in &mut self.pages[page + 2..] {
            p.start += 1;
        }
        at
    }

    /// Take the row at `pos` out; a page it empties leaves the table.
    fn remove_row(&mut self, pos: Pos) -> NodeRecord {
        let i = self.index(pos);
        self.last_refresh.remove(i);
        self.provenance.remove(i);
        let (row, shifted) = if self.pages[pos.page].len() == 1 {
            (self.pages.remove(pos.page).rows()[0].clone(), pos.page)
        } else {
            (self.pages[pos.page].remove(pos.off), pos.page + 1)
        };
        for p in &mut self.pages[shifted..] {
            p.start -= 1;
        }
        let payload = row.payload.expect("a held row has a payload");
        NodeRecord::from_shared(row.key.node, row.key.incarnation, payload)
    }

    /// True iff the pages and the columns describe one table: every
    /// page's first `len` slots held and the rest vacant, `len` not 0,
    /// no page over [`PAGE_ROWS`] slots, node ids strictly ascending
    /// within and across pages, every page's `first` and `start` its
    /// first row and the running row count, and the columns as long as
    /// the pages hold rows. Checked after every mutation in debug builds.
    fn pages_hold(&self) -> bool {
        let mut rows = 0;
        let mut prev = None;
        for page in &self.pages {
            let (held, vacant) = page.slots.split_at(page.len().min(page.slots.len()));
            if page.len() == 0
                || page.slots.len() > PAGE_ROWS
                || held.iter().any(|r| r.payload.is_none())
                || vacant.iter().any(|r| *r != Row::VACANT)
                || held[0].key.node != page.first
                || page.start as usize != rows
            {
                return false;
            }
            for r in held {
                if prev.is_some_and(|p| p >= r.key.node) {
                    return false;
                }
                prev = Some(r.key.node);
            }
            rows += page.len();
        }
        self.last_refresh.len() == rows && self.provenance.len() == rows
    }

    fn debug_assert_pages(&self) {
        debug_assert!(
            self.pages_hold(),
            "key pages no longer describe the table: (first, start, rows) = {:?}, columns {}",
            self.pages
                .iter()
                .map(|p| (p.first, p.start, p.len()))
                .collect::<Vec<_>>(),
            self.last_refresh.len()
        );
    }

    /// Nodes held as `Relayed(relayer)`, in `NodeId` order.
    fn relayed_by(&self, relayer: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let held = Packed::new(Provenance::Relayed(relayer));
        (self.rows().zip(&self.provenance))
            .filter(move |(_, &provenance)| provenance == held)
            .map(|(r, _)| r.key.node)
    }

    /// Look up one entry.
    pub fn get(&self, node: NodeId) -> Option<Entry<'_>> {
        let pos = self.find(node).ok()?;
        Some(self.entry(self.row(pos), self.index(pos)))
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.find(node).is_ok()
    }

    /// All entries, in `NodeId` order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = Entry<'_>> {
        (self.rows().zip(&self.last_refresh))
            .zip(&self.provenance)
            .map(|((row, &last_refresh), &provenance)| Entry {
                node: row.key.node,
                incarnation: row.key.incarnation,
                payload: row.payload(),
                provenance: provenance.get(),
                last_refresh,
            })
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

    /// [`Directory::apply_join_with`] for a caller that remembers where
    /// it found `node` last time, which is every heartbeat receiver:
    /// `*hint` names a page and an offset in it, and is believed only if
    /// that row still holds `node`; otherwise `node` is searched for as
    /// usual. Either way `*hint` leaves as [`Directory::hint_for`]`(node)`
    /// — where `node` is now, or would go — so the refresh of a settled
    /// directory is a few array accesses, no search, and no page write.
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
        let hinted = Pos::from_hint(*hint);
        let slot = match self
            .pages
            .get(hinted.page)
            .and_then(|p| p.rows().get(hinted.off))
        {
            Some(r) if r.key.node == node => Ok(hinted),
            _ => self.find(node),
        };
        let (Ok(pos) | Err(pos)) = slot;
        *hint = pos.hint();
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
            Err(pos) => {
                let key = DigestEntry { node, incarnation };
                let row = Row {
                    key,
                    payload: Some(materialize()),
                };
                *hint = self.insert_row(pos, row, now, provenance).hint();
                Applied::Changed
            }
            Ok(pos) => {
                let i = self.index(pos);
                let held = self.row(pos);
                let held_inc = held.key.incarnation;
                if incarnation > held_inc || (incarnation == held_inc && !same(held.payload())) {
                    let row = &mut self.pages[pos.page].write()[pos.off];
                    row.key.incarnation = incarnation;
                    row.payload = Some(materialize());
                    self.last_refresh[i] = now;
                    self.provenance[i] = Packed::new(provenance);
                    Applied::Changed
                } else {
                    if incarnation == held_inc {
                        self.last_refresh[i] = now;
                        // Provenance re-stamping: relayed knowledge may
                        // be upgraded to direct, or re-attributed to a
                        // new relayer (the takeover leader re-announcing
                        // its directory). Direct knowledge never
                        // downgrades to relayed — we keep detecting the
                        // failure ourselves.
                        if matches!(self.provenance[i].get(), Provenance::Relayed(_))
                            && !matches!(provenance, Provenance::Local)
                        {
                            self.provenance[i] = Packed::new(provenance);
                        }
                    }
                    return (Applied::Ignored, was_known);
                }
            }
        };
        self.debug_assert_pages();
        (applied, was_known)
    }

    /// The row hint [`Directory::apply_join_hinted`] leaves for `node`:
    /// where its row is, or where it would be inserted.
    pub fn hint_for(&self, node: NodeId) -> u32 {
        let (Ok(pos) | Err(pos)) = self.find(node);
        pos.hint()
    }

    /// Declare `node`'s given incarnation dead. A stale leave (for an
    /// incarnation older than the live record) is ignored.
    pub fn apply_leave(&mut self, node: NodeId, incarnation: u64, now: Nanos) -> Applied {
        let dead = self.dead.entry(node).or_insert((0, now));
        if incarnation >= dead.0 {
            *dead = (incarnation, now);
        }
        match self.find(node) {
            Ok(pos) if self.row(pos).key.incarnation <= incarnation => {
                self.remove_row(pos);
                self.debug_assert_pages();
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
        let removed = self.remove_row(self.find(node).ok()?);
        self.debug_assert_pages();
        Some(removed)
    }

    /// Touch `node`'s entry (heartbeat received) without changing content.
    /// Returns false if the node is unknown.
    pub fn refresh(&mut self, node: NodeId, now: Nanos) -> bool {
        match self.find(node) {
            Ok(pos) => {
                let i = self.index(pos);
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
        for e in self.entries() {
            if matches!(e.provenance, Provenance::Local) {
                continue;
            }
            let last_refresh = e.last_refresh;
            let node = e.node;
            let deadline = deadline_for(e);
            if now.saturating_sub(last_refresh) >= deadline {
                frontier.push(node);
            } else if deadline != u64::MAX {
                next_due = next_due.min(last_refresh.saturating_add(deadline));
            }
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for n in frontier {
                if let Ok(pos) = self.find(n) {
                    removed.push(self.remove_row(pos));
                    // Cascade to everything this node relayed to us.
                    next.extend(self.relayed_by(n));
                }
            }
            frontier = next;
        }
        if !removed.is_empty() {
            self.debug_assert_pages();
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
                if let Ok(pos) = self.find(v) {
                    removed.push(self.remove_row(pos));
                    frontier.push(v);
                }
            }
        }
        if !removed.is_empty() {
            self.debug_assert_pages();
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
        for row in self.rows() {
            for s in &row.payload().services {
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
    /// this is a view — no per-tick rescan, and nothing to keep in sync.
    pub fn digest(&self) -> DigestView<'_> {
        DigestView {
            pages: &self.pages,
            len: self.len(),
        }
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
        assert_eq!(d.digest().to_vec()[1].incarnation, 5);
        // Same-incarnation refresh leaves the digest alone.
        let before = d.digest().to_vec();
        d.apply_join(rec(2, 5), Provenance::Direct, 2);
        assert_eq!(d.digest().to_vec(), before);
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
        assert_eq!(d.digest().to_vec()[0].incarnation, 4);
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

    /// Pages of `d` that are not one of `template`'s.
    fn private_pages(d: &Directory, template: &Directory) -> usize {
        let shared = |p: &Page| {
            template
                .pages
                .iter()
                .any(|t| Arc::ptr_eq(&p.slots, &t.slots))
        };
        d.pages.iter().filter(|p| !shared(p)).count()
    }

    /// The A9 warm start: one template per segment, cloned into each of
    /// its holders, each of which takes its own row out and puts it back
    /// as `Local` (`preload_directory`, then `install_own_record`). Every
    /// holder must write one page at most and share the rest, and a
    /// heartbeat refresh or a provenance re-stamp must write none.
    #[test]
    fn warm_start_holders_share_all_but_one_page() {
        // 196 segments of 20 ids, every 20th id a leader. The template
        // of segment 50 (ids 1000..1020): every leader, the segment, the
        // victim — 216 rows, the segment's rows straddling a page
        // boundary (rows 50..70).
        let (segment, victim) = (1000..1020, 3919);
        let leader = NodeId(segment.start);
        let ids: Vec<u32> = (0..3920)
            .filter(|&i| i % 20 == 0 || segment.contains(&i) || i == victim)
            .collect();
        assert_eq!(ids.len(), 216);
        let provenance = |i: u32| match segment.contains(&i) {
            true => Provenance::Direct,
            false => Provenance::Relayed(leader),
        };
        let mut template = Directory::new();
        for &i in &ids {
            template.apply_join(rec(i, 1), provenance(i), 0);
        }
        let (last, full) = template.pages.split_last().unwrap();
        assert!(full.iter().all(|p| p.len() == PAGE_ROWS) && last.len() <= PAGE_ROWS);

        for me in segment.clone() {
            let mut d = template.clone();
            d.remove(NodeId(me));
            d.apply_join(rec(me, 1), Provenance::Local, 0);
            let rows: Vec<_> = d.entries().map(|e| (e.record(), e.provenance)).collect();
            let want: Vec<_> = ids
                .iter()
                .map(|&i| {
                    (
                        rec(i, 1),
                        if i == me {
                            Provenance::Local
                        } else {
                            provenance(i)
                        },
                    )
                })
                .collect();
            assert_eq!(rows, want, "holder {me}");
            assert_eq!(d.pages.len(), template.pages.len(), "holder {me}");
            assert!(private_pages(&d, &template) <= 1, "holder {me}");

            // A same-content heartbeat from every segment peer, and a
            // leader's relayed row re-stamped as heard directly.
            let before = d.pages.clone();
            for peer in segment.clone().filter(|&p| p != me) {
                let mut hint = d.hint_for(NodeId(peer));
                let applied = d.apply_join_hinted(
                    &mut hint,
                    NodeId(peer),
                    1,
                    Provenance::Direct,
                    5,
                    || unreachable!("a refresh must not materialize"),
                    |_| true,
                );
                assert_eq!(applied, (Applied::Ignored, true));
            }
            assert!(!d.apply_join(rec(20, 1), Provenance::Direct, 6).changed());
            assert_eq!(d.get(NodeId(20)).unwrap().provenance, Provenance::Direct);
            assert!(segment.clone().filter(|&p| p != me).all(|p| d
                .get(NodeId(p))
                .unwrap()
                .last_refresh
                == 5));
            assert!(
                d.pages
                    .iter()
                    .zip(&before)
                    .all(|(a, b)| Arc::ptr_eq(&a.slots, &b.slots)),
                "holder {me}: a refresh wrote a page"
            );
        }
    }

    #[test]
    fn provenance_packs_into_four_bytes() {
        let top = Provenance::Relayed(NodeId(u32::MAX - 2));
        for p in [Provenance::Local, Provenance::Direct, top] {
            assert_eq!(Packed::new(p).get(), p);
        }
        // The two ids Local and Direct use are no relayer's: a record
        // that names one (a corrupt frame) is held, as relayed by the
        // highest id left.
        let mut d = Directory::new();
        for (node, relayer) in [(1, u32::MAX), (2, u32::MAX - 1)] {
            d.apply_join(rec(node, 1), Provenance::Relayed(NodeId(relayer)), 0);
            assert_eq!(d.get(NodeId(node)).unwrap().provenance, top);
        }
    }

    #[test]
    fn pages_split_and_empty_pages_leave() {
        let mut d = Directory::new();
        // Ascending appends fill their pages.
        for i in 0..3 * PAGE_ROWS as u32 {
            d.apply_join(rec(2 * i, 1), Provenance::Direct, 0);
        }
        assert_eq!(d.pages.len(), 3);
        // An insert into a full page in the middle halves it.
        d.apply_join(rec(2 * PAGE_ROWS as u32 + 1, 1), Provenance::Direct, 0);
        assert_eq!(d.pages.len(), 4);
        assert!(d.pages_hold());
        // Emptying a page removes it from the table.
        let first: Vec<NodeId> = d.pages[0].rows().iter().map(|r| r.key.node).collect();
        for n in first {
            d.remove(n);
        }
        assert_eq!(d.pages.len(), 3);
        assert!(d.pages_hold());
        assert_eq!(d.nodes().next(), Some(NodeId(2 * PAGE_ROWS as u32)));
    }
}
