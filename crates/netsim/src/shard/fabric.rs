//! The fabric: the network state a packet is judged by — host liveness
//! and the life count, channel subscriptions, the loss rate, router
//! health (kept in the shard's copy of the topology) and segment
//! partitions — plus the fan-out lists derived from it.
//!
//! # Lives
//!
//! A packet or a timer belongs to the life of its receiver that was
//! current when it was sent or armed: a host that has died since — even
//! if it is alive again — must not hear it. The fabric counts the kills
//! and revives it has applied ([`Fabric::life`]) and marks each host with
//! the count of its last one, so a send records one number for all its
//! receivers, and a receiver hears it if and only if it is alive and its
//! mark is no later than that number ([`Fabric::hears`]).
//!
//! # The journal
//!
//! In multi-shard mode a send from another shard is rolled at the epoch
//! barrier, under the state that held when it was sent
//! ([`super::multi`]). So every change to state a roll or a fan-out
//! reads is one [`JEntry`]: a transition builds the entry from the
//! current state, [`Fabric::commit`] applies it with the one forward
//! function [`Fabric::redo`] and, with several shards, journals it under
//! the tag of the event it happened in. [`Fabric::undo`] is the inverse.
//! Undoing the epoch's entries in reverse rewinds the fabric to the
//! epoch start; redoing them in tag order, interleaved with the
//! descriptor walk, brings it back to the live state. Partitions are not
//! journaled: they are checked when a packet arrives, never when it is
//! sent.

use super::Tag;
use crate::engine::Control;
use crate::hash::IntMap;
use crate::packet::ChannelId;
use crate::trace::DropReason;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use tamp_topology::{HostId, RouterId, SegmentId, Topology};

/// A directed segment pair `(from, to)`.
type Link = (u16, u16);

/// One journaled state change, made only when the state changes.
/// [`Fabric::redo`] applies it; [`Fabric::undo`] takes it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum JEntry {
    /// `h` joined (`added`) or left a channel.
    Sub {
        ch: ChannelId,
        h: HostId,
        added: bool,
    },
    /// Loss rate change.
    Loss { old: f64, new: f64 },
    /// Router went down (`down`) or came back up.
    Router { r: u16, down: bool },
    /// Host was killed (`killed`) or revived: one more life change,
    /// and `h`'s mark moves from `prev` to the new count.
    LifeCycle { h: HostId, killed: bool, prev: u32 },
}

pub(super) struct Fabric {
    /// Router health lives here: a router transition re-scopes this
    /// shard's copy.
    pub(super) topo: Arc<Topology>,
    /// Shard index per segment (shared with the facade; all 0 with one
    /// shard).
    shard_of_seg: Arc<Vec<u32>>,
    alive: Vec<bool>,
    /// Kills and revives applied so far.
    lives: u32,
    /// Per host: `lives` right after its last kill or revive (0 if none).
    marks: Vec<u32>,
    /// Channel subscribers, indexed by the segment they sit on: a
    /// fan-out list is built from the segments inside the TTL only, not
    /// by filtering the channel's cluster-wide membership.
    subs: BTreeMap<(SegmentId, ChannelId), BTreeSet<HostId>>,
    /// `(channel, src segment, ttl)` → the subscriber list a multicast
    /// from that segment reaches (sorted by host id, sender included —
    /// skipped at use). Dropped by every change of the channel's
    /// subscriptions or of a router, live or replayed, so it always
    /// answers for the current state.
    fanout: IntMap<(u16, u16, u8), Vec<HostId>>,
    /// `(src segment, ttl)` → does the scope hold another shard's
    /// segment? Dropped with `fanout` on router changes.
    reach: IntMap<(u16, u8), bool>,
    loss: f64,
    blocked: HashSet<Link>,
    /// Gray partitions: directed pairs severed in that direction only.
    gray_blocked: HashSet<Link>,
    /// The epoch's entries and their tags, with several shards (`None`
    /// with one).
    pub(super) journal: Option<Vec<(Tag, JEntry)>>,
}

/// `key` in `set` (`on`) or not.
fn toggle(set: &mut HashSet<Link>, key: Link, on: bool) {
    if on {
        set.insert(key);
    } else {
        set.remove(&key);
    }
}

impl Fabric {
    pub(super) fn new(
        topo: Arc<Topology>,
        shard_of_seg: Arc<Vec<u32>>,
        loss: f64,
        journaled: bool,
    ) -> Self {
        let n = topo.num_hosts();
        Fabric {
            topo,
            shard_of_seg,
            alive: vec![true; n],
            lives: 0,
            marks: vec![0; n],
            subs: BTreeMap::new(),
            fanout: IntMap::default(),
            reach: IntMap::default(),
            loss,
            blocked: HashSet::new(),
            gray_blocked: HashSet::new(),
            journal: journaled.then(Vec::new),
        }
    }

    // ------------------------------------------------------ transitions

    /// Apply the network side of control `c`. False when it changes
    /// nothing worth a record: a kill of a dead host, a revive of a live
    /// one, a router already in that state.
    pub(super) fn control(&mut self, at: Tag, c: Control) -> bool {
        match c {
            Control::Kill(h) | Control::Revive(h) => {
                let alive = matches!(c, Control::Revive(_));
                if self.alive[h.index()] == alive {
                    return false;
                }
                let prev = self.marks[h.index()];
                self.commit(
                    at,
                    JEntry::LifeCycle {
                        h,
                        killed: !alive,
                        prev,
                    },
                );
                if !alive {
                    // A killed host leaves every channel it listened on.
                    let seg = self.topo.segment_of(h);
                    let channels: Vec<ChannelId> = self
                        .subs
                        .range((seg, ChannelId(0))..=(seg, ChannelId(u16::MAX)))
                        .map(|(&(_, ch), _)| ch)
                        .collect();
                    for ch in channels {
                        self.subscribe(at, h, ch, false);
                    }
                }
            }
            Control::BlockSegments(a, b) | Control::UnblockSegments(a, b) => {
                let on = matches!(c, Control::BlockSegments(..));
                toggle(&mut self.blocked, (a.0.min(b.0), a.0.max(b.0)), on);
            }
            Control::BlockDirection(from, to) | Control::UnblockDirection(from, to) => {
                let on = matches!(c, Control::BlockDirection(..));
                toggle(&mut self.gray_blocked, (from.0, to.0), on);
            }
            Control::SetLoss(rate) => {
                let (old, new) = (self.loss, rate.clamp(0.0, 1.0));
                self.commit(at, JEntry::Loss { old, new });
            }
            Control::SetSkew(..) => {}
            Control::RouterDown(r) | Control::RouterUp(r) => {
                let down = matches!(c, Control::RouterDown(_));
                assert!(
                    (r as usize) < self.topo.num_routers(),
                    "unknown router {}",
                    RouterId(r)
                );
                if self.topo.router_is_up(RouterId(r)) != down {
                    return false;
                }
                self.commit(at, JEntry::Router { r, down });
            }
        }
        true
    }

    /// `h` joins (`on`) or leaves `ch`.
    pub(super) fn subscribe(&mut self, at: Tag, h: HostId, ch: ChannelId, on: bool) {
        let seg = self.topo.segment_of(h);
        if self.subs.get(&(seg, ch)).is_some_and(|s| s.contains(&h)) != on {
            self.commit(at, JEntry::Sub { ch, h, added: on });
        }
    }

    // ---------------------------------------------------------- journal

    /// Apply `entry` and, with several shards, journal it at `at`.
    fn commit(&mut self, at: Tag, entry: JEntry) {
        self.redo(&entry);
        if let Some(journal) = &mut self.journal {
            journal.push((at, entry));
        }
    }

    /// The forward function of every entry.
    pub(super) fn redo(&mut self, e: &JEntry) {
        match *e {
            JEntry::Sub { ch, h, added } => self.set_sub(ch, h, added),
            JEntry::Loss { new, .. } => self.loss = new,
            JEntry::Router { r, down } => self.set_router_state(r, down),
            JEntry::LifeCycle { h, killed, .. } => {
                self.alive[h.index()] = !killed;
                self.lives += 1;
                self.marks[h.index()] = self.lives;
            }
        }
    }

    /// The inverse of [`Fabric::redo`].
    pub(super) fn undo(&mut self, e: &JEntry) {
        match *e {
            JEntry::Sub { ch, h, added } => self.set_sub(ch, h, !added),
            JEntry::Loss { old, .. } => self.loss = old,
            JEntry::Router { r, down } => self.set_router_state(r, !down),
            JEntry::LifeCycle { h, killed, prev } => {
                self.alive[h.index()] = killed;
                self.lives -= 1;
                self.marks[h.index()] = prev;
            }
        }
    }

    fn set_sub(&mut self, ch: ChannelId, h: HostId, on: bool) {
        let set = self.subs.entry((self.topo.segment_of(h), ch)).or_default();
        if on {
            set.insert(h);
        } else {
            set.remove(&h);
        }
        self.fanout.retain(|k, _| k.0 != ch.0);
    }

    fn set_router_state(&mut self, r: u16, down: bool) {
        let topo = Arc::make_mut(&mut self.topo);
        if down {
            topo.set_router_down(RouterId(r));
        } else {
            topo.set_router_up(RouterId(r));
        }
        // Every cached scope was computed under the old routing.
        self.fanout.clear();
        self.reach.clear();
    }

    // ---------------------------------------------------------- queries

    pub(super) fn is_alive(&self, h: HostId) -> bool {
        self.alive[h.index()]
    }

    /// The life count now: what a send or a timer records for
    /// [`Fabric::hears`].
    #[inline]
    pub(super) fn life(&self) -> u32 {
        self.lives
    }

    /// Is `h` alive, and has it neither died nor revived since the life
    /// count read `life`?
    #[inline]
    pub(super) fn hears(&self, h: HostId, life: u32) -> bool {
        self.alive[h.index()] && self.marks[h.index()] <= life
    }

    /// Is `b` currently routable from `a` (routers permitting)?
    #[inline]
    pub(super) fn routable(&self, a: HostId, b: HostId) -> bool {
        self.routes(self.topo.segment_of(a), self.topo.segment_of(b))
    }

    #[inline]
    fn routes(&self, sa: SegmentId, sb: SegmentId) -> bool {
        sa == sb || self.topo.segment_hops(sa, sb) != u8::MAX
    }

    /// Why a packet from `src` cannot reach `to` now, if it cannot:
    /// partitions raised while it was in flight still block it, each
    /// cause with its own drop reason.
    #[inline]
    pub(super) fn severed(&self, src: HostId, to: HostId) -> Option<DropReason> {
        let (sa, sb) = (self.topo.segment_of(src), self.topo.segment_of(to));
        let key = (sa.0, sb.0);
        if !self.blocked.is_empty() && self.blocked.contains(&(key.0.min(key.1), key.0.max(key.1)))
        {
            Some(DropReason::Partition)
        } else if !self.gray_blocked.is_empty() && self.gray_blocked.contains(&key) {
            Some(DropReason::Gray)
        } else if !self.routes(sa, sb) {
            Some(DropReason::Unroutable)
        } else {
            None
        }
    }

    /// The probability that one delivery is lost.
    #[inline]
    pub(super) fn loss(&self) -> f64 {
        self.loss
    }

    /// The *local* subscriber list a multicast from `src_seg` reaches,
    /// from the fan-out cache (built on a miss). It may contain the
    /// sender; callers skip it (no multicast loopback). Taken out of the
    /// cache by value to keep the shard borrowable; give it back with
    /// [`Fabric::stash_receivers`].
    #[inline]
    pub(super) fn take_receivers(
        &mut self,
        ch: ChannelId,
        src_seg: SegmentId,
        ttl: u8,
    ) -> Vec<HostId> {
        match self.fanout.get_mut(&(ch.0, src_seg.0, ttl)) {
            Some(list) => std::mem::take(list),
            None => self.filter_subs(ch, src_seg, ttl),
        }
    }

    #[inline]
    pub(super) fn stash_receivers(
        &mut self,
        ch: ChannelId,
        src_seg: SegmentId,
        ttl: u8,
        list: Vec<HostId>,
    ) {
        self.fanout.insert((ch.0, src_seg.0, ttl), list);
    }

    /// Every subscriber of `ch` within `ttl` of `src_seg`, sorted by host
    /// id: the subscriber sets of the segments in scope, merged. TTL 1 —
    /// the bulk of the paper's traffic — never leaves `src_seg`, so only
    /// a wider scope looks at the other segments at all.
    fn filter_subs(&self, ch: ChannelId, src_seg: SegmentId, ttl: u8) -> Vec<HostId> {
        let candidates = if ttl <= 1 {
            src_seg.0..src_seg.0 + 1
        } else {
            0..self.topo.num_segments() as u16
        };
        let mut list: Vec<HostId> = candidates
            .map(SegmentId)
            .filter(|&s| {
                let dist = if s == src_seg {
                    1
                } else {
                    self.topo.segment_hops(src_seg, s).saturating_add(1)
                };
                dist <= ttl
            })
            .filter_map(|s| self.subs.get(&(s, ch)))
            .flatten()
            .copied()
            .collect();
        // Host ids need not ascend with segment ids.
        list.sort_unstable();
        list
    }

    /// Could a multicast from `src_seg` with `ttl` reach a segment of
    /// another shard than `src_seg`'s? Gates cross-shard descriptors:
    /// TTL-1 traffic (the bulk of the paper's heartbeat load) never
    /// crosses, because segments are shard-atomic.
    pub(super) fn reaches_other_shard(&mut self, src_seg: SegmentId, ttl: u8) -> bool {
        if ttl <= 1 {
            return false;
        }
        if let Some(&b) = self.reach.get(&(src_seg.0, ttl)) {
            return b;
        }
        let b = (0..self.topo.num_segments() as u16).any(|s| {
            self.shard_of_seg[s as usize] != self.shard_of_seg[src_seg.0 as usize] && {
                let hops = self.topo.segment_hops(src_seg, SegmentId(s));
                hops != u8::MAX && hops.saturating_add(1) <= ttl
            }
        });
        self.reach.insert((src_seg.0, ttl), b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::generators;

    /// Everything the journal owns, in comparable form, plus the fan-out
    /// lists a multicast from segment 0 reaches (so a cache that outlives
    /// the state it was built from shows).
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        alive: Vec<bool>,
        lives: u32,
        marks: Vec<u32>,
        subs: Vec<(SegmentId, ChannelId, HostId)>,
        loss: f64,
        routers_up: Vec<bool>,
        fanout: Vec<Vec<HostId>>,
    }

    fn snapshot(f: &mut Fabric) -> Snapshot {
        let fanout = [(7, 1), (7, 2), (8, 2)]
            .into_iter()
            .map(|(ch, ttl)| {
                let list = f.take_receivers(ChannelId(ch), SegmentId(0), ttl);
                let fresh = f.filter_subs(ChannelId(ch), SegmentId(0), ttl);
                assert_eq!(list, fresh, "a cached fan-out list outlived its state");
                f.stash_receivers(ChannelId(ch), SegmentId(0), ttl, list.clone());
                list
            })
            .collect();
        Snapshot {
            alive: f.alive.clone(),
            lives: f.lives,
            marks: f.marks.clone(),
            subs: f
                .subs
                .iter()
                .flat_map(|(&(seg, ch), set)| set.iter().map(move |&h| (seg, ch, h)))
                .collect(),
            loss: f.loss,
            routers_up: (0..f.topo.num_routers() as u16)
                .map(|r| f.topo.router_is_up(RouterId(r)))
                .collect(),
            fanout,
        }
    }

    #[test]
    fn journal_undoes_to_epoch_start_and_redoes_to_live_state() {
        // Four segments of three hosts (segment s holds hosts 3s..3s+2)
        // around one router, split over two shards.
        let topo = Arc::new(generators::star_of_segments(4, 3));
        let mut f = Fabric::new(topo, Arc::new(vec![0, 0, 1, 1]), 0.0, true);
        let mut step = 0;
        let mut at = || {
            step += 1;
            Tag {
                time: step,
                ..Tag::default()
            }
        };
        let (ch7, ch8) = (ChannelId(7), ChannelId(8));
        // The epoch-start state.
        for (h, ch) in [(0, ch7), (1, ch7), (1, ch8), (3, ch7), (6, ch7)] {
            f.subscribe(at(), HostId(h), ch, true);
        }
        f.control(at(), Control::SetLoss(0.1));
        // A life change before the epoch, so an undo must restore a mark
        // that is not the initial zero.
        f.control(at(), Control::Kill(HostId(5)));
        f.journal.as_mut().unwrap().clear();
        let start = snapshot(&mut f);
        assert_eq!((start.lives, start.marks[5]), (1, 1));

        // The epoch: every journaled transition, live, with the state
        // between the subscription changes and the rest kept too.
        f.subscribe(at(), HostId(4), ch7, true);
        f.subscribe(at(), HostId(3), ch7, false);
        for c in [
            Control::Kill(HostId(1)),
            Control::Revive(HostId(1)),
            Control::Kill(HostId(0)),
        ] {
            assert!(f.control(at(), c), "{c:?} changed nothing");
        }
        let (mid_tag, mid) = (at(), snapshot(&mut f));
        assert_eq!((mid.lives, &mid.marks[..2]), (4, &[4, 3][..]));
        for c in [
            Control::SetLoss(0.5),
            Control::RouterDown(0),
            Control::Revive(HostId(5)),
            Control::RouterUp(0),
            Control::RouterDown(0),
        ] {
            assert!(f.control(at(), c), "{c:?} changed nothing");
        }
        let live = snapshot(&mut f);
        assert_ne!(live, start);
        assert_eq!((live.lives, live.marks[5]), (5, 5));
        // What a packet sent mid-epoch is judged by: host 1 (revived
        // before the send) hears it, host 5 (revived after) does not, nor
        // does host 0 (dead).
        assert!(f.hears(HostId(1), mid.lives));
        assert!(!f.hears(HostId(5), mid.lives));
        assert!(!f.hears(HostId(0), mid.lives));
        assert!(f.hears(HostId(5), live.lives));

        let journal = std::mem::take(f.journal.as_mut().unwrap());
        let kinds: BTreeSet<_> = journal
            .iter()
            .map(|(_, e)| match e {
                JEntry::Sub { added: true, .. } => "subscribe",
                JEntry::Sub { added: false, .. } => "unsubscribe",
                JEntry::Loss { .. } => "loss",
                JEntry::Router { .. } => "router",
                JEntry::LifeCycle { .. } => "life cycle",
            })
            .collect();
        assert_eq!(kinds.len(), 5, "the script misses a transition: {kinds:?}");
        for (_, e) in journal.iter().rev() {
            f.undo(e);
        }
        assert_eq!(
            snapshot(&mut f),
            start,
            "undo did not rewind to the epoch start"
        );
        // Redo in two legs, as the descriptor walk does.
        let (before, after): (Vec<_>, Vec<_>) = journal.iter().partition(|(tag, _)| *tag < mid_tag);
        for &(_, e) in before {
            f.redo(&e);
        }
        assert_eq!(
            snapshot(&mut f),
            mid,
            "redo did not reach the mid-epoch state"
        );
        for &(_, e) in after {
            f.redo(&e);
        }
        assert_eq!(
            snapshot(&mut f),
            live,
            "redo did not return to the live state"
        );
    }
}
