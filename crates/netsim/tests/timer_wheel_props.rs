//! Property suite for the event schedulers: the hierarchical
//! [`TimerWheel`] must be observationally identical to a trivial
//! ordered-set model under arbitrary interleavings of insert and advance.
//!
//! This is the lock on the `(time, key, seq)` total order the whole
//! simulator's determinism rests on (see the `scheduler` module docs).
//! Failing seeds persist to `timer_wheel_props.proptest-regressions`
//! next to this file and re-run before novel cases.
//!
//! Run it in the debug profile too (CI does): the wheel's slab
//! invariants — parked + free cells = slab length, nothing left linked
//! after a drain to empty — are `debug_assert`s.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tamp_netsim::scheduler::{Scheduled, TimerWheel};

/// An event's observable identity: everything but the payload.
type Key = (u64, u32, u64);

fn ev((time, key, seq): Key) -> Scheduled<u64> {
    Scheduled {
        time,
        key,
        seq,
        payload: seq,
    }
}

/// The wheel and the executable specification (an ordered set of
/// `(time, key, seq)`; seqs are unique), driven in lock step.
#[derive(Default)]
struct Pair {
    wheel: TimerWheel<u64>,
    model: BTreeSet<Key>,
    next_seq: u64,
    peak: usize,
}

impl Pair {
    fn push(&mut self, time: u64, key: u32) {
        let e = (time, key, self.next_seq);
        self.next_seq += 1;
        self.wheel.push(ev(e));
        self.model.insert(e);
        self.peak = self.peak.max(self.model.len());
    }

    /// Pop the next event due at or before `t` from both, asserting they
    /// agree (also on "nothing due").
    fn pop_before(&mut self, t: u64) -> Result<Option<Key>, TestCaseError> {
        let w = self.wheel.pop_before(t).map(|e| (e.time, e.key, e.seq));
        let m = match self.model.first() {
            Some(&e) if e.0 <= t => self.model.pop_first(),
            _ => None,
        };
        prop_assert_eq!(w, m, "wheel vs ordered-set model at t={}", t);
        prop_assert_eq!(self.wheel.len(), self.model.len());
        Ok(w)
    }

    fn drain_to(&mut self, t: u64) -> Result<(), TestCaseError> {
        while self.pop_before(t)?.is_some() {}
        Ok(())
    }

    /// Final full drain: nothing live may be left behind in any slot,
    /// cascade level, or the overflow heap, and the high-water mark is
    /// the model's.
    fn finish(mut self) -> Result<(), TestCaseError> {
        self.drain_to(u64::MAX)?;
        prop_assert!(self.wheel.is_empty(), "wheel not empty after full drain");
        prop_assert!(self.wheel.pop_before(u64::MAX).is_none());
        prop_assert_eq!(self.wheel.next_time(), None);
        prop_assert_eq!(self.wheel.peak_len(), self.peak);
        Ok(())
    }
}

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert at an absolute time (may land before the current cursor:
    /// that exercises the push into the already-open `ready` heap).
    Push { time: u64, key: u32 },
    /// Advance the cursor by `dt` and pop everything due from wheel and
    /// model, comparing each popped event.
    Drain { dt: u64 },
}

/// Times on both sides of every power-of-two multiple from 2^8 to 2^56
/// ns: whatever tick width and level count the wheel is tuned to, each
/// of its slot, frame and overflow boundaries is one of these.
fn arb_boundary_time() -> BoxedStrategy<u64> {
    (8u32..57, 1u64..4, 0u64..7)
        .prop_map(|(bits, mult, off)| (mult << bits) + off - 3)
        .boxed()
}

/// Times spanning every wheel regime: within a few ticks, each level's
/// span, past the wheel's span into the overflow heap (including several
/// top-level frames apart), and hugging the boundaries between them.
fn arb_time() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..(1 << 12),
        0u64..(1 << 19),
        0u64..(1 << 27),
        0u64..(1 << 35),
        0u64..(1 << 45),
        (1u64 << 50)..(1 << 54),
        arb_boundary_time(),
        arb_boundary_time(),
    ]
    .boxed()
}

fn arb_push() -> BoxedStrategy<Op> {
    (arb_time(), 0u32..40)
        .prop_map(|(time, key)| Op::Push { time, key })
        .boxed()
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        arb_push(),
        arb_push(), // bias toward pushes so queues stay populated
        arb_time().prop_map(|dt| Op::Drain { dt }),
    ]
    .boxed()
}

fn run_schedule(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut q = Pair::default();
    let mut cursor = 0u64;
    for op in ops {
        match *op {
            Op::Push { time, key } => q.push(time, key),
            Op::Drain { dt } => {
                cursor = cursor.saturating_add(dt);
                q.drain_to(cursor)?;
            }
        }
    }
    q.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The headline property: arbitrary insert/advance schedules are
    /// indistinguishable between wheel and model.
    #[test]
    fn wheel_matches_model(
        ops in prop::collection::vec(arb_op(), 1..140)
    ) {
        run_schedule(&ops)?;
    }

    /// Pure ordering: a batch drain pops exactly the sorted
    /// `(time, key, seq)` permutation of what went in — equal-time
    /// events by key, equal `(time, key)` events by seq.
    #[test]
    fn full_drain_is_globally_sorted(
        pushes in prop::collection::vec((arb_time(), 0u32..8), 1..120)
    ) {
        let mut wheel = TimerWheel::new();
        let mut expect: Vec<Key> = Vec::new();
        for (seq, &(time, key)) in pushes.iter().enumerate() {
            wheel.push(ev((time, key, seq as u64)));
            expect.push((time, key, seq as u64));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = wheel.pop_before(u64::MAX) {
            got.push((e.time, e.key, e.seq));
        }
        prop_assert_eq!(got, expect);
        prop_assert!(wheel.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The engine's own access pattern, thousands deep: `depth` packets
    /// in flight, and every pop pushes that packet's next delivery a
    /// little ahead — into the tick being drained, the next one, or (one
    /// step in sixteen) a timer-like distance away. `base` puts the whole
    /// chase on top of a level or overflow boundary.
    #[test]
    fn pop_one_push_one_into_the_open_tick(
        base in arb_boundary_time(),
        depth in 1usize..3000,
        spread in 0u64..300_000,
        steps in prop::collection::vec((0u64..1500, 0u32..24, 0u32..16), 1000..4000),
    ) {
        let mut q = Pair::default();
        let base = base.saturating_sub(spread / 2);
        for i in 0..depth as u64 {
            // A deterministic scatter over `spread` ns.
            let at = base + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % (spread + 1);
            q.push(at, (i % 24) as u32);
        }
        for (ahead, key, far) in steps {
            let (now, ..) = q.pop_before(u64::MAX)?.expect("depth stays constant");
            let ahead = if far == 0 { ahead << 16 } else { ahead };
            q.push(now + ahead, key);
        }
        prop_assert_eq!(q.model.len(), depth);
        q.finish()?;
    }

    /// Bursts of events at one `(time, key)` that differ only in seq —
    /// what a zero-jitter multicast round looks like to the queue — with
    /// pops in between, so part of a burst arrives after its tick opened.
    #[test]
    fn equal_time_and_key_bursts_order_by_seq(
        bursts in prop::collection::vec(
            (arb_time(), 0u32..3, 1usize..40, 0usize..30),
            1..24,
        )
    ) {
        let mut q = Pair::default();
        for (time, key, len, pops) in bursts {
            for _ in 0..len {
                q.push(time, key);
            }
            for _ in 0..pops {
                q.pop_before(u64::MAX)?;
            }
            // The rest of the burst's tick is open now: same instant,
            // later seqs, straight into the `ready` heap.
            for _ in 0..len / 2 {
                q.push(time, key);
            }
        }
        q.finish()?;
    }
}
