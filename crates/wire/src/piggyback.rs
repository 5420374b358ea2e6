//! Piggyback window of recent update events.
//!
//! "Since each update about a node departure or join is very small, we let
//! an update message piggyback last three updates so that the receiver can
//! tolerate up to three consecutive packet losses. If more than three
//! consecutive packets are lost, the receiver will poll the sender to
//! synchronize its membership directory." (§3.1.2)
//!
//! [`UpdateLog`] is the sender side: it assigns sequence numbers to events
//! and produces outgoing windows of the newest event plus up to
//! `window - 1` predecessors. The receiver replays the whole window with
//! no staleness gate: relay paths of different lengths can reorder one
//! origin's updates, so the incarnation-ordered directory deduplicates
//! (a replayed event changes nothing and is not relayed on). Sequence
//! numbers, kept per origin in the receiver's `SeqTracker`, serve gap
//! detection only: the receiver escalates to a sync poll when even the
//! oldest event of the window leaves a gap.

use crate::messages::{MemberEvent, SeqEvent};
use std::collections::VecDeque;

/// Nanosecond timestamps (kept as a bare u64 so this crate stays free of
/// clock dependencies).
type Nanos = u64;

/// Sender-side log of recent membership events.
///
/// Retention is bounded **by count and by age**: an event older than
/// `max_age` is never retransmitted. The age bound is a correctness
/// requirement, not an optimization — replaying an ancient `Join` after
/// its subject died (and its tombstone aged out) would resurrect a ghost
/// member. With `max_age` at most half the directory's tombstone TTL,
/// any replayed event is still covered by a fresh tombstone.
#[derive(Debug, Clone)]
pub struct UpdateLog {
    /// How many events each outgoing update carries (the paper uses 4:
    /// the new event plus the last 3).
    window: usize,
    /// Maximum age of a retransmittable event (0 = unbounded).
    max_age: Nanos,
    next_seq: u64,
    recent: VecDeque<(SeqEvent, Nanos)>,
}

/// The paper's window: current event + last three updates.
pub const DEFAULT_WINDOW: usize = 4;

impl Default for UpdateLog {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

impl UpdateLog {
    /// `window` is the total number of events per outgoing message
    /// (must be ≥ 1). No age bound; see [`UpdateLog::with_max_age`].
    pub fn new(window: usize) -> Self {
        Self::with_max_age(window, 0)
    }

    /// A log whose events stop being retransmitted once older than
    /// `max_age` nanoseconds.
    pub fn with_max_age(window: usize, max_age: Nanos) -> Self {
        assert!(window >= 1, "piggyback window must hold the new event");
        UpdateLog {
            window,
            max_age,
            next_seq: 0,
            recent: VecDeque::with_capacity(window),
        }
    }

    /// A log whose next assigned sequence number is `next_seq + 1` —
    /// restores a checkpointed counter, and lets tests exercise the
    /// behavior at the top of the sequence range.
    pub fn with_next_seq(window: usize, max_age: Nanos, next_seq: u64) -> Self {
        let mut log = Self::with_max_age(window, max_age);
        log.next_seq = next_seq;
        log
    }

    fn fresh(&self, logged_at: Nanos, now: Nanos) -> bool {
        self.max_age == 0 || now.saturating_sub(logged_at) < self.max_age
    }

    /// Append a new event at time `now` and return the event window to
    /// transmit, oldest first (so receivers can apply sequentially).
    ///
    /// Sequence numbers saturate at `u64::MAX` rather than wrapping to 0:
    /// a wrapped counter would classify every later event as stale on the
    /// receiver side (`SeqTracker` is monotonic), silently freezing that
    /// origin's updates. Saturation keeps the window self-consistent —
    /// receivers see repeated seqs as duplicates and fall back to the
    /// sync-poll path, which transfers the full directory and does not
    /// depend on sequence progress. At one event per nanosecond the
    /// boundary is ~584 years away; this is a defensive posture, not an
    /// operational mode.
    pub fn push(&mut self, event: MemberEvent, now: Nanos) -> Vec<SeqEvent> {
        self.next_seq = self.next_seq.saturating_add(1);
        let se = SeqEvent {
            seq: self.next_seq,
            event,
        };
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back((se, now));
        self.window_events(now)
    }

    /// Append a batch of events at time `now` and return the combined
    /// transmit window in one pass: every fresh retained predecessor
    /// followed by every new event, oldest first. Equivalent to calling
    /// [`UpdateLog::push`] per event, deduplicating against
    /// [`UpdateLog::window_events`], and sorting by sequence — without
    /// the per-event window materialization or the quadratic dedup.
    /// This is the batched piggyback assembly the relay path uses, so
    /// one multicast's event window is built exactly once.
    pub fn push_batch(
        &mut self,
        events: impl IntoIterator<Item = MemberEvent>,
        now: Nanos,
    ) -> Vec<SeqEvent> {
        // Predecessors are everything logged before this batch; at the
        // saturation boundary new events repeat `u64::MAX`, and the
        // strict `<` below drops the older duplicates exactly like the
        // per-event dedup did.
        let first_new_seq = self.next_seq.saturating_add(1);
        let mut new_events: Vec<SeqEvent> = Vec::new();
        for event in events {
            self.next_seq = self.next_seq.saturating_add(1);
            let se = SeqEvent {
                seq: self.next_seq,
                event,
            };
            if self.recent.len() == self.window {
                self.recent.pop_front();
            }
            self.recent.push_back((se.clone(), now));
            new_events.push(se);
        }
        let mut out: Vec<SeqEvent> = self
            .recent
            .iter()
            .filter(|(e, t)| e.seq < first_new_seq && self.fresh(*t, now))
            .map(|(e, _)| e.clone())
            .collect();
        out.extend(new_events);
        out
    }

    /// The sequence number of the most recent event (0 if none yet).
    pub fn latest_seq(&self) -> u64 {
        self.next_seq
    }

    /// Fresh events currently held, oldest first (what the next
    /// retransmission would carry).
    pub fn window_events(&self, now: Nanos) -> Vec<SeqEvent> {
        self.recent
            .iter()
            .filter(|(_, t)| self.fresh(*t, now))
            .map(|(e, _)| e.clone())
            .collect()
    }

    /// Fresh events with `seq > since`, oldest first — used to answer a
    /// sync poll cheaply when the requester is only slightly behind.
    pub fn events_after(&self, since: u64, now: Nanos) -> Vec<SeqEvent> {
        self.recent
            .iter()
            .filter(|(e, t)| e.seq > since && self.fresh(*t, now))
            .map(|(e, _)| e.clone())
            .collect()
    }

    /// True if the log can fill a gap starting after `since` entirely
    /// from the retained *fresh* window (i.e. nothing in the gap has been
    /// dropped by count or by age).
    pub fn can_backfill(&self, since: u64, now: Nanos) -> bool {
        let oldest_fresh = self
            .recent
            .iter()
            .find(|(_, t)| self.fresh(*t, now))
            .map(|(e, _)| e.seq);
        match oldest_fresh {
            None => since >= self.next_seq,
            Some(oldest) => since + 1 >= oldest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::NodeId;

    fn leave(n: u32) -> MemberEvent {
        MemberEvent::Leave(NodeId(n), 1)
    }

    #[test]
    fn push_assigns_increasing_seqs() {
        let mut log = UpdateLog::default();
        let w1 = log.push(leave(1), 0);
        let w2 = log.push(leave(2), 1);
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].seq, 1);
        assert_eq!(w2.len(), 2);
        assert_eq!(w2[1].seq, 2);
        assert_eq!(log.latest_seq(), 2);
    }

    #[test]
    fn window_is_bounded_by_count() {
        let mut log = UpdateLog::new(4);
        for i in 0..10 {
            log.push(leave(i), i as u64);
        }
        let w = log.window_events(10);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].seq, 7);
        assert_eq!(w[3].seq, 10);
    }

    #[test]
    fn window_is_bounded_by_age() {
        let mut log = UpdateLog::with_max_age(8, 100);
        log.push(leave(1), 0); // stale at t >= 100
        log.push(leave(2), 50); // stale at t >= 150
        assert_eq!(log.window_events(60).len(), 2, "both fresh at t=60");
        log.push(leave(3), 120);
        let w = log.window_events(130);
        assert_eq!(w.len(), 2, "event 1 aged out");
        assert_eq!(w[0].seq, 2);
        assert_eq!(log.window_events(400).len(), 0, "everything aged out");
    }

    #[test]
    fn events_are_oldest_first() {
        let mut log = UpdateLog::new(3);
        for i in 0..5 {
            log.push(leave(i), 0);
        }
        let w = log.window_events(0);
        assert!(w.windows(2).all(|p| p[0].seq < p[1].seq));
    }

    #[test]
    fn events_after_filters_by_seq_and_age() {
        let mut log = UpdateLog::with_max_age(4, 1_000);
        for i in 0..6 {
            log.push(leave(i), i as u64 * 10);
        }
        // Window holds seqs 3..=6, all fresh at t=60.
        assert_eq!(log.events_after(4, 60).len(), 2);
        assert_eq!(log.events_after(6, 60).len(), 0);
        assert_eq!(log.events_after(0, 60).len(), 4);
        // At t=1025, events logged at t<=20 (seqs <= 3) are stale.
        assert_eq!(log.events_after(0, 1_025).len(), 3);
    }

    #[test]
    fn can_backfill_reflects_window_and_age() {
        let mut log = UpdateLog::with_max_age(4, 1_000);
        for i in 0..6 {
            log.push(leave(i), i as u64 * 10);
        }
        // Oldest retained is seq 3: gaps starting at >=2 are fillable.
        assert!(log.can_backfill(2, 60));
        assert!(log.can_backfill(5, 60));
        assert!(!log.can_backfill(1, 60));
        assert!(!log.can_backfill(0, 60));
        // Aging shrinks the fillable range: at t=1_025 the oldest fresh
        // event is seq 4 (logged at 30).
        assert!(log.can_backfill(3, 1_025));
        assert!(!log.can_backfill(2, 1_025));
    }

    #[test]
    fn empty_log_backfills_nothing_new() {
        let log = UpdateLog::default();
        assert!(log.can_backfill(0, 0));
        assert!(log.window_events(0).is_empty());
    }

    #[test]
    fn no_age_bound_when_zero() {
        let mut log = UpdateLog::new(2);
        log.push(leave(1), 0);
        assert_eq!(log.window_events(u64::MAX).len(), 1);
    }

    #[test]
    #[should_panic(expected = "piggyback window")]
    fn zero_window_panics() {
        UpdateLog::new(0);
    }

    #[test]
    fn with_next_seq_resumes_numbering() {
        let mut log = UpdateLog::with_next_seq(4, 0, 100);
        let w = log.push(leave(1), 0);
        assert_eq!(w[0].seq, 101);
        assert_eq!(log.latest_seq(), 101);
    }

    /// `push_batch` must be indistinguishable from the per-event
    /// reference (push each, dedup the final window against the new
    /// events, sort by seq) — log state and returned window alike.
    fn reference_batch(log: &mut UpdateLog, events: Vec<MemberEvent>, now: Nanos) -> Vec<SeqEvent> {
        let mut seq_events = Vec::new();
        for ev in events {
            let w = log.push(ev, now);
            seq_events.push(w.last().unwrap().clone());
        }
        let seen: Vec<u64> = seq_events.iter().map(|e| e.seq).collect();
        let mut window = log.window_events(now);
        window.retain(|e| !seen.contains(&e.seq));
        window.extend(seq_events);
        window.sort_by_key(|e| e.seq);
        window
    }

    #[test]
    fn push_batch_matches_per_event_reference() {
        for batch_len in [1usize, 2, 3, 4, 6, 9] {
            let mut a = UpdateLog::with_max_age(4, 1_000);
            let mut b = a.clone();
            // Pre-populate with history at varying ages.
            for i in 0..5 {
                a.push(leave(i), i as u64 * 100);
                b.push(leave(i), i as u64 * 100);
            }
            let evs: Vec<MemberEvent> = (10..10 + batch_len as u32).map(leave).collect();
            let got = a.push_batch(evs.clone(), 450);
            let want = reference_batch(&mut b, evs, 450);
            assert_eq!(got, want, "batch of {batch_len} diverges");
            assert_eq!(a.latest_seq(), b.latest_seq());
            assert_eq!(a.window_events(450), b.window_events(450));
        }
    }

    #[test]
    fn push_batch_at_saturation_drops_duplicate_predecessors() {
        let mut a = UpdateLog::with_next_seq(4, 0, u64::MAX - 1);
        let mut b = a.clone();
        a.push(leave(1), 0); // seq MAX-... saturating toward MAX
        b.push(leave(1), 0);
        a.push(leave(2), 0); // seq MAX
        b.push(leave(2), 0);
        let evs = vec![leave(3), leave(4)]; // both land on MAX
        let got = a.push_batch(evs.clone(), 1);
        let want = reference_batch(&mut b, evs, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn push_batch_empty_returns_current_window() {
        let mut log = UpdateLog::new(4);
        for i in 0..3 {
            log.push(leave(i), 0);
        }
        assert_eq!(log.push_batch([], 0), log.window_events(0));
        assert_eq!(log.latest_seq(), 3, "no sequence consumed");
    }

    #[test]
    fn seq_saturates_at_the_top_of_the_range() {
        let mut log = UpdateLog::with_next_seq(4, 0, u64::MAX - 2);
        let w1 = log.push(leave(1), 0);
        let w2 = log.push(leave(2), 1);
        assert_eq!(w1[0].seq, u64::MAX - 1);
        assert_eq!(w2[1].seq, u64::MAX);
        // Further pushes must not panic or wrap to 0; they pin at MAX.
        let w3 = log.push(leave(3), 2);
        assert_eq!(w3.last().unwrap().seq, u64::MAX);
        assert_eq!(log.latest_seq(), u64::MAX);
    }

    #[test]
    fn window_recovery_across_the_wrap_boundary() {
        use crate::seqnum::{SeqStatus, SeqTracker};
        // Sender approaches the top of the range; a receiver that missed
        // the last few updates must still recover them from the window
        // rather than wrapping into a permanently-stale state.
        let mut log = UpdateLog::with_next_seq(4, 0, u64::MAX - 4);
        for i in 0..4 {
            log.push(leave(i), i as u64);
        }
        let mut rx: SeqTracker<u32> = SeqTracker::new();
        rx.advance(9, u64::MAX - 4); // receiver last applied before the burst
        assert_eq!(
            rx.classify(9, log.latest_seq()),
            SeqStatus::Gap { missed: 3 }
        );
        assert!(log.can_backfill(rx.last_applied(9).unwrap(), 10));
        for se in log.events_after(rx.last_applied(9).unwrap(), 10) {
            assert!(matches!(
                rx.classify(9, se.seq),
                SeqStatus::InOrder | SeqStatus::Gap { .. }
            ));
            rx.advance(9, se.seq);
        }
        assert_eq!(rx.last_applied(9), Some(u64::MAX));
        // Once saturated, anything further from this origin is a
        // duplicate: the receiver leans on sync polls, never on a wrap.
        assert_eq!(rx.classify(9, u64::MAX), SeqStatus::Stale);
    }
}
