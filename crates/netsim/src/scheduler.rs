//! The event queue of the discrete-event engine.
//!
//! The engine needs one operation done billions of times: "hand me the
//! next pending event at or before time `t`, in deterministic order".
//! [`TimerWheel`] does it: a hierarchical timer wheel (Varghese & Lauck)
//! with 256-slot levels, per-level occupancy bitmaps and a binary-heap
//! overflow for far-future timers. Every slot is an intrusive list
//! through one slab of events, so a push is a link, a cascade relinks
//! without copying, and no tick allocates or frees: the slab grows to
//! the queue's high-water mark and stays there.
//!
//! # Ordering contract
//!
//! Events are totally ordered by `(time, key, seq)`:
//!
//! * `time` — absolute virtual time in ns;
//! * `key` — a small integer derived from the event target (the engine
//!   uses `0` for control events and `host_id + 1` for deliveries and
//!   timers), so that equal-timestamp events at *different hosts* fire
//!   in host order rather than in whatever order they were inserted;
//! * `seq` — a creator-derived sequence number breaking the remaining
//!   ties (same instant, same host) in causal creation order. The
//!   engine derives it from `(creating host, per-host action counter)`
//!   so the value is independent of global execution interleaving —
//!   that independence is what lets the sharded engine reproduce the
//!   sequential event order exactly.
//!
//! There is no way to withdraw an event: the engine stamps events with
//! the target host's epoch, and a stale event is inert when it fires.
//!
//! # The access pattern the wheel is built for
//!
//! The engine keeps **one entry per packet in flight**: a multicast's
//! receivers are rolled at send time, but only the earliest delivery is
//! queued; each delivery queues the packet's next one as it fires (see
//! `shard.rs`). So the commonest push lands a few microseconds ahead of
//! the event being dispatched — in the tick being drained, or one of
//! the next few. A tick that opens is sorted once and popped from the
//! end; an event pushed into it afterwards goes to a small side heap
//! (an O(log n) insert, not a memmove) and the two are merged on pop.
//! That is why the tick is as fine as a microsecond: only pushes into
//! the *open* tick pay the heap, and with slots that cost nothing to
//! open a fine tick keeps that heap a few dozen deep even when a flood
//! puts tens of thousands of packets in flight at once.
//!
//! # What pins it
//!
//! The specification is an ordered set of `(time, key, seq)`: the
//! proptest suite in `tests/timer_wheel_props.rs` drives the wheel and
//! that model in lock step and compares every pop.
//! `tests/scheduler_tiebreak.rs` pins the contract at the engine level,
//! and `tests/fanout_golden.rs` holds whole runs to recorded constants.
//!
//! The module is public so property tests and benches can drive the
//! wheel directly; the engine is its only in-tree production consumer.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};

/// One scheduled event carrying an opaque payload.
///
/// Ordering ignores the payload entirely — see the module docs for the
/// `(time, key, seq)` contract.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Absolute due time (virtual ns).
    pub time: SimTime,
    /// Host-derived tie-break key (`0` = engine control events).
    pub key: u32,
    /// Creator-derived sequence number; `(time, key, seq)` is unique.
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

impl<T> Scheduled<T> {
    #[inline]
    fn ord_key(&self) -> (SimTime, u32, u64) {
        (self.time, self.key, self.seq)
    }
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ord_key() == other.ord_key()
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ord_key().cmp(&other.ord_key())
    }
}

/// Names the one event queue there is. Nothing dispatches on it. It and
/// [`EventQueue`] exist only because `benchmark/src/micro.rs` builds its
/// queue as `EventQueue::new(SchedulerKind::default())`, and the next
/// change to `benchmark/` removes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// [`TimerWheel`].
    #[default]
    TimerWheel,
}

/// [`TimerWheel`] under the name `benchmark/` builds it by (see
/// [`SchedulerKind`]); everything else is the wheel's, through `Deref`.
#[derive(Debug)]
pub struct EventQueue<T>(TimerWheel<T>);

impl<T> EventQueue<T> {
    pub fn new(_kind: SchedulerKind) -> Self {
        EventQueue(TimerWheel::new())
    }
}

impl<T> Deref for EventQueue<T> {
    type Target = TimerWheel<T>;
    fn deref(&self) -> &TimerWheel<T> {
        &self.0
    }
}

impl<T> DerefMut for EventQueue<T> {
    fn deref_mut(&mut self) -> &mut TimerWheel<T> {
        &mut self.0
    }
}

// Wheel geometry: 256 slots per level, 2^10 ns (≈ 1 µs) finest tick.
// Level spans: L0 ≈ 262 µs, L1 ≈ 67 ms, L2 ≈ 17.2 s, L3 ≈ 73 min;
// anything further out sits in the overflow heap until its level-3
// frame opens.
//
// The tick is this fine because of where pushes land. A delivery queues
// its packet's next one a few microseconds ahead (20 receivers over
// 200 µs of jitter), and whatever falls into the tick already open goes
// through the `late` heap. Counted on the A9 run at n = 3920 (first two
// million pops, level-climb flood included): at the former 2^16 ns tick
// 59 % of all pops came off that heap and it grew 19 481 deep; at
// 2^12 ns 12 % and 732; at 2^10 ns 3 % and 72; at 2^8 ns 1 % and 10,
// for 10 % more ticks opened and 19 % more relinks than 2^10. A slot is
// a `u32` and opening one copies nothing, so the fourth level the finer
// tick needs costs one more relink per far timer and nothing per tick.
// docs/PERFORMANCE.md ("Event queue: one entry per packet in flight")
// has the whole table.
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
const TICK_BITS: u32 = 10;
const LEVELS: usize = 4;
/// Ticks of one top-level frame: an event parks in the wheel only while
/// it shares this frame with the cursor (beyond → overflow heap).
const TOP_SHIFT: u32 = SLOT_BITS * LEVELS as u32;

/// "No node": the end of a slot's list.
const NIL: u32 = u32::MAX;

/// One slab cell: an event parked in some wheel slot, linked to the next
/// event of the same slot — or a free cell (`ev` is `None`) listed in
/// [`TimerWheel::free`].
#[derive(Debug)]
struct Node<T> {
    next: u32,
    ev: Option<Scheduled<T>>,
}

#[derive(Debug)]
struct Level {
    /// First slab node of each slot's list (`NIL` = empty slot).
    heads: [u32; SLOTS],
    /// One bit per slot; lets the cursor skip empty regions in O(1).
    occupied: [u64; SLOTS / 64],
}

impl Level {
    fn new() -> Self {
        Level {
            heads: [NIL; SLOTS],
            occupied: [0; SLOTS / 64],
        }
    }

    /// The first occupied slot index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= SLOTS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// Hierarchical timer wheel with exact `(time, key, seq)` ordering.
///
/// Events wait in per-slot lists threaded through one slab; when the
/// cursor reaches a finest-level tick (1 µs) that tick's events move
/// into `ready` and are sorted, and higher-level slots cascade down — by
/// relinking, not copying — as virtual time approaches them. `ready`
/// and `late` between them always hold the globally-earliest events, so
/// `pop_before` is a `Vec::pop` in the common case, and an event pushed
/// into the tick being drained is a push onto a small heap.
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: Vec<Level>,
    /// Every event parked in a wheel slot lives here; slots and the free
    /// list refer to cells by index. Grows to the high-water mark of
    /// parked events and is reused from then on.
    nodes: Vec<Node<T>>,
    /// Indices of the free cells of `nodes`.
    free: Vec<u32>,
    /// Events currently linked into wheel slots.
    parked: usize,
    /// Events beyond the cursor's top-level frame.
    overflow: BinaryHeap<Reverse<Scheduled<T>>>,
    /// The events of the tick opened last, sorted latest first: the next
    /// one is `pop()`. Invariant: every event here and in `late` is
    /// earlier than everything still in the wheel.
    ready: Vec<Scheduled<T>>,
    /// Events pushed into a tick after it was opened.
    late: BinaryHeap<Reverse<Scheduled<T>>>,
    /// All ticks `< horizon` have been drained into `ready` (or popped).
    horizon: u64,
    peak: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            nodes: Vec::new(),
            free: Vec::new(),
            parked: 0,
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            late: BinaryHeap::new(),
            horizon: 0,
            peak: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.parked + self.ready.len() + self.late.len() + self.overflow.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most events this queue ever held at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    #[inline]
    fn tick_of(time: SimTime) -> u64 {
        time >> TICK_BITS
    }

    pub fn push(&mut self, ev: Scheduled<T>) {
        let tick = Self::tick_of(ev.time);
        if tick < self.horizon {
            // The tick is already open (a delivery queues its packet's
            // next one a few microseconds ahead, now and then into the
            // same tick): merge by heap, not by memmove.
            self.late.push(Reverse(ev));
        } else {
            self.place(ev, tick);
        }
        self.peak = self.peak.max(self.len());
    }

    /// Park `ev`, due in `tick >= horizon`: in its wheel slot, or in the
    /// overflow heap while it shares no frame with the cursor.
    fn place(&mut self, ev: Scheduled<T>, tick: u64) {
        match self.slot_for(tick) {
            Some((level, slot)) => {
                let node = self.alloc(ev);
                self.link(node, level, slot);
            }
            None => self.overflow.push(Reverse(ev)),
        }
    }

    /// Where an event due in `tick` parks relative to `horizon`: the
    /// lowest level at which the two share a frame (level 0 holds the
    /// current frame), i.e. the level of their highest differing slot
    /// digit. `None` when they share no frame at all — the overflow
    /// heap's business.
    #[inline]
    fn slot_for(&self, tick: u64) -> Option<(usize, usize)> {
        debug_assert!(
            tick >= self.horizon,
            "scheduler invariant: placing into an already-drained tick"
        );
        let differing = (tick ^ self.horizon) | 1;
        let level = ((63 - differing.leading_zeros()) / SLOT_BITS) as usize;
        (level < LEVELS).then(|| {
            let slot = (tick >> (SLOT_BITS * level as u32)) & SLOT_MASK;
            (level, slot as usize)
        })
    }

    /// Move `ev` into a slab cell (a recycled one when there is one).
    fn alloc(&mut self, ev: Scheduled<T>) -> u32 {
        debug_assert_eq!(self.parked + self.free.len(), self.nodes.len());
        self.parked += 1;
        match self.free.pop() {
            Some(node) => {
                self.nodes[node as usize].ev = Some(ev);
                node
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "timer wheel slab full");
                self.nodes.push(Node {
                    next: NIL,
                    ev: Some(ev),
                });
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Put `node` at the head of a slot's list. Order within a slot is
    /// irrelevant: a tick is sorted when it opens.
    #[inline]
    fn link(&mut self, node: u32, level: usize, slot: usize) {
        let l = &mut self.levels[level];
        self.nodes[node as usize].next = l.heads[slot];
        l.heads[slot] = node;
        l.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Detach a slot's whole list and return its first node.
    #[inline]
    fn unlink_all(&mut self, level: usize, slot: usize) -> u32 {
        let l = &mut self.levels[level];
        l.occupied[slot / 64] &= !(1 << (slot % 64));
        std::mem::replace(&mut l.heads[slot], NIL)
    }

    /// Re-place every event of a higher-level slot the cursor has
    /// entered: each node is relinked one or more levels down.
    fn cascade(&mut self, level: usize, slot: usize) {
        if self.levels[level].heads[slot] == NIL {
            return;
        }
        let mut node = self.unlink_all(level, slot);
        while node != NIL {
            let n = &self.nodes[node as usize];
            let next = n.next;
            let tick = Self::tick_of(n.ev.as_ref().expect("free node in a slot").time);
            let (to_level, to_slot) = self
                .slot_for(tick)
                .expect("cascade out of the cursor's own frame");
            debug_assert!(to_level < level);
            self.link(node, to_level, to_slot);
            node = next;
        }
    }

    /// Where the next event waits and when it is due, opening ticks
    /// until there is one: `true` = on top of `late`, `false` = at the
    /// end of `ready`.
    fn head(&mut self) -> Option<(bool, SimTime)> {
        loop {
            match (self.ready.last(), self.late.peek()) {
                (Some(r), Some(Reverse(l))) if l < r => return Some((true, l.time)),
                (Some(r), _) => return Some((false, r.time)),
                (None, Some(Reverse(l))) => return Some((true, l.time)),
                (None, None) if self.is_empty() => return None,
                (None, None) => self.advance(),
            }
        }
    }

    pub fn pop_before(&mut self, t: SimTime) -> Option<Scheduled<T>> {
        let (late, due) = self.head()?;
        if due > t {
            return None;
        }
        let ev = if late {
            self.late.pop().map(|Reverse(ev)| ev)
        } else {
            self.ready.pop()
        };
        debug_assert!(
            !self.is_empty() || self.all_nodes_free(),
            "drained to empty with slab cells still linked"
        );
        ev
    }

    /// Due time of the next event, without removing it. Cascades frames
    /// exactly as a `pop_before` probe would until the head is staged.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.head().map(|(_, due)| due)
    }

    /// Slab invariant at rest: nothing parked, every cell on the free
    /// list, every slot empty.
    fn all_nodes_free(&self) -> bool {
        self.parked == 0
            && self.free.len() == self.nodes.len()
            && self.nodes.iter().all(|n| n.ev.is_none())
            && self
                .levels
                .iter()
                .all(|l| l.occupied == [0; SLOTS / 64] && l.heads.iter().all(|&h| h == NIL))
    }

    /// Open the next occupied tick into `ready`, cascading higher
    /// levels / overflow down as frames open. Only called when `ready`
    /// and `late` are empty and at least one event is pending.
    fn advance(&mut self) {
        loop {
            // Overflow events whose top-level frame the cursor is in
            // belong in the wheel now. The cursor enters such a frame at
            // its first tick — by the jump at the bottom of this loop,
            // or by rolling over from the last tick of the frame before
            // — so none of them is behind it.
            while let Some(Reverse(head)) = self.overflow.peek() {
                let tick = Self::tick_of(head.time);
                if tick >> TOP_SHIFT != self.horizon >> TOP_SHIFT {
                    break;
                }
                let Reverse(ev) = self.overflow.pop().expect("peeked");
                self.place(ev, tick);
            }
            // Open the higher-level slots enclosing the current position:
            // after `horizon` rolls across a frame boundary by plain
            // slot-to-slot advancement, the new frame's events still sit
            // one level up and must cascade down before level 0 is
            // scanned (else later level-0 arrivals would overtake them).
            for level in (1..LEVELS).rev() {
                let slot = ((self.horizon >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
                self.cascade(level, slot);
            }
            // Next occupied level-0 slot within the current frame.
            let l0_from = (self.horizon & SLOT_MASK) as usize;
            if let Some(slot) = self.levels[0].next_occupied(l0_from) {
                self.horizon = (self.horizon & !SLOT_MASK | slot as u64) + 1;
                let mut node = self.unlink_all(0, slot);
                while node != NIL {
                    let n = &mut self.nodes[node as usize];
                    self.ready.push(n.ev.take().expect("free node in a slot"));
                    self.free.push(node);
                    self.parked -= 1;
                    node = n.next;
                }
                debug_assert_eq!(self.parked + self.free.len(), self.nodes.len());
                // One sort per tick, then every pop is O(1). A tick is
                // often one instant many hosts share (lock-step protocol
                // timers): a heap would pay its full depth per pop there.
                self.ready.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            // Level-0 frame exhausted: open the next occupied frame at
            // the lowest level that has one, cascading its slot down.
            let next_frame = (1..LEVELS).find_map(|level| {
                let shift = SLOT_BITS * level as u32;
                let from = ((self.horizon >> shift) & SLOT_MASK) as usize + 1;
                let slot = self.levels[level].next_occupied(from)?;
                Some((level, shift, slot))
            });
            if let Some((level, shift, slot)) = next_frame {
                let frame_base = self.horizon >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
                self.horizon = frame_base | ((slot as u64) << shift);
                self.cascade(level, slot);
                continue;
            }
            // Wheel empty: jump to the overflow head's top-level frame;
            // the top of the loop pulls that frame's events in.
            let Reverse(head) = self
                .overflow
                .peek()
                .expect("advance() with nothing pending");
            self.horizon = Self::tick_of(head.time) >> TOP_SHIFT << TOP_SHIFT;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nanoseconds spanned by one slot of `level` (level 0: one tick).
    const fn slot_ns(level: u32) -> u64 {
        1 << (TICK_BITS + SLOT_BITS * level)
    }
    /// Nanoseconds the wheel proper spans (beyond → overflow heap).
    const WHEEL_NS: u64 = slot_ns(LEVELS as u32);

    fn ev(time: SimTime, key: u32, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time,
            key,
            seq,
            payload: seq,
        }
    }

    fn drain<T>(q: &mut TimerWheel<T>) -> Vec<(SimTime, u32, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_before(SimTime::MAX) {
            out.push((e.time, e.key, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_key_seq_order() {
        let mut w = TimerWheel::new();
        w.push(ev(500, 3, 1));
        w.push(ev(500, 1, 2));
        w.push(ev(100, 9, 3));
        w.push(ev(500, 1, 4));
        assert_eq!(
            drain(&mut w),
            vec![(100, 9, 3), (500, 1, 2), (500, 1, 4), (500, 3, 1)]
        );
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut w = TimerWheel::new();
        // Past the wheel's span (≈ 73 min): must park in the overflow
        // heap, then still pop in order once time reaches it.
        let far = WHEEL_NS + WHEEL_NS / 2;
        w.push(ev(far, 1, 1));
        w.push(ev(10, 1, 2));
        assert_eq!(w.overflow.len(), 1);
        assert!(w.pop_before(far - 1).map(|e| e.seq) == Some(2));
        assert!(w.pop_before(far - 1).is_none());
        assert_eq!(w.pop_before(far).map(|e| e.seq), Some(1));
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_insert_while_draining() {
        let mut w = TimerWheel::new();
        w.push(ev(1000, 1, 1));
        w.push(ev(1000, 1, 2));
        assert_eq!(w.pop_before(2000).map(|e| e.seq), Some(1));
        // Insert into the already-drained tick (as a delivery queuing its
        // packet's next receiver would): must slot between/after by order.
        w.push(ev(1001, 0, 3));
        w.push(ev(3000, 0, 4));
        assert_eq!(w.pop_before(2000).map(|e| e.seq), Some(2));
        assert_eq!(w.pop_before(2000).map(|e| e.seq), Some(3));
        assert!(w.pop_before(2000).is_none());
        assert_eq!(w.pop_before(3000).map(|e| e.seq), Some(4));
    }

    #[test]
    fn next_time_peeks_without_consuming() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_time(), None, "empty queue");
        // One event per wheel level and one in the overflow heap, so the
        // peek has to cascade.
        let times = [
            slot_ns(0) + 7,
            slot_ns(1) + 7,
            slot_ns(2) + 7,
            slot_ns(3) + 7,
            2 * WHEEL_NS,
        ];
        for (i, t) in times.into_iter().enumerate() {
            w.push(ev(t, 0, i as u64));
        }
        assert_eq!(w.next_time(), Some(times[0]));
        assert_eq!(w.next_time(), Some(times[0]), "peek must not pop");
        assert_eq!(w.len(), times.len());
        assert_eq!(w.pop_before(u64::MAX).unwrap().time, times[0]);
        assert_eq!(w.next_time(), Some(times[1]));
        while w.pop_before(u64::MAX).is_some() {}
        assert_eq!(w.next_time(), None, "drained");
        assert_eq!(w.peak_len(), times.len());
    }

    #[test]
    fn sparse_far_apart_events() {
        let mut w = TimerWheel::new();
        // One event on each side of every level's span, out to three
        // top-level frames away: exercises every cascade path.
        let mut times = vec![1u64];
        for level in 0..=LEVELS as u32 {
            times.extend([slot_ns(level) - 1, slot_ns(level), slot_ns(level) * 255]);
        }
        times.push(3 * WHEEL_NS + 5);
        for (i, &t) in times.iter().enumerate() {
            w.push(ev(t, 0, i as u64));
        }
        let got = drain(&mut w);
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), times.len());
    }

    #[test]
    fn overflow_frame_opens_when_the_cursor_rolls_into_it() {
        // The cursor reaches the first tick of the second top-level frame
        // by draining the last tick of the first — no jump. An event
        // parked in the overflow heap for that frame must come back into
        // the wheel before a later arrival in the same frame is popped.
        let mut w = TimerWheel::new();
        let last_tick = WHEEL_NS - 1;
        w.push(ev(last_tick, 0, 1));
        w.push(ev(WHEEL_NS + 3 * slot_ns(0), 0, 2));
        assert_eq!(w.overflow.len(), 1);
        assert_eq!(w.pop_before(u64::MAX).map(|e| e.seq), Some(1));
        w.push(ev(WHEEL_NS + 5 * slot_ns(0), 0, 3));
        assert_eq!(w.pop_before(u64::MAX).map(|e| e.seq), Some(2));
        assert_eq!(w.pop_before(u64::MAX).map(|e| e.seq), Some(3));
        assert!(w.is_empty());
    }

    #[test]
    fn slab_cells_are_recycled_not_grown() {
        // A steady pattern — pop one, push one a little ahead — must run
        // in the cells the first fill allocated.
        let mut w = TimerWheel::new();
        for i in 0..64u64 {
            w.push(ev(i * 10_000, 0, i));
        }
        let cells = w.nodes.len();
        for i in 64..10_000u64 {
            let e = w.pop_before(u64::MAX).expect("queue stays 64 deep");
            w.push(ev(e.time + 640_000, 0, i));
        }
        assert_eq!(w.nodes.len(), cells);
        assert_eq!(w.len(), 64);
        assert_eq!(w.peak_len(), 64);
        while w.pop_before(u64::MAX).is_some() {}
        assert!(w.all_nodes_free());
    }
}
