//! Per-level group state: peers, leadership, and election bookkeeping.
//!
//! A node holds one [`GroupState`] per membership level it participates
//! in: level 0 always, level `k+1` exactly while it is the leader at
//! level `k`. The state is this node's *local view* of "the group on
//! channel `base + level` reachable within TTL `level + 1`" — overlapping
//! groups in non-transitive topologies (paper Fig. 4) need no special
//! representation because each node only ever sees the members within its
//! own TTL horizon.

use crate::detector::Floor;
use tamp_topology::Nanos;
use tamp_wire::NodeId;

/// What we know about one peer heard on a group channel.
///
/// Fields are readable everywhere but writable only through
/// [`GroupState::heard`] / [`GroupState::heard_heartbeat`]: the table
/// hands out `&PeerState` only, because [`GroupState`]'s sweep floors
/// rest on these times never being lowered behind its back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerState {
    /// Last time any packet from this peer arrived on this channel.
    pub last_heard: Nanos,
    /// Whether its latest heartbeat carried the leader flag.
    pub claims_leader: bool,
    /// The node's record incarnation as of the last heartbeat.
    pub incarnation: u64,
    /// EWMA of inter-arrival times (ns) — feeds the adaptive failure
    /// detector. 0 until two arrivals have been seen.
    pub ewma_interval: f64,
    /// EWMA of squared deviation from `ewma_interval`.
    pub ewma_var: f64,
    /// Last *heartbeat* arrival (cadence reference; `last_heard` also
    /// counts control traffic).
    pub last_heartbeat: Nanos,
}

/// EWMA smoothing factor for inter-arrival tracking (TCP-RTT-style).
const EWMA_ALPHA: f64 = 0.125;

impl PeerState {
    /// A peer first heard at `now`, by a packet that asserted nothing.
    fn first_heard(now: Nanos) -> Self {
        PeerState {
            last_heard: now,
            claims_leader: false,
            incarnation: 0,
            ewma_interval: 0.0,
            ewma_var: 0.0,
            last_heartbeat: 0,
        }
    }

    /// Adaptive failure timeout for this peer: `max_loss` expected
    /// inter-arrivals plus a 4-sigma safety margin. Falls back to
    /// `fallback` until enough samples exist. Under packet loss the
    /// observed inter-arrivals stretch, so the timeout stretches with
    /// them — no operator retuning of MAX_LOSS required (extension over
    /// the paper; ablation A7).
    pub fn adaptive_timeout(&self, max_loss: u32, fallback: Nanos) -> Nanos {
        if self.ewma_interval <= 0.0 {
            return fallback;
        }
        let t = max_loss as f64 * self.ewma_interval + 4.0 * self.ewma_var.sqrt();
        (t as Nanos).max(fallback / 2)
    }
}

/// Election progress within one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Election {
    /// No election in progress.
    Idle,
    /// We noticed the leader (and backup) are gone; waiting out
    /// `backup_grace` for the backup's takeover before we act.
    AwaitingBackup { deadline: Nanos },
    /// We multicast `Election` and are waiting for an objection from a
    /// lower-id node or a rival `Coordinator` until `deadline`.
    Candidate { deadline: Nanos },
}

/// The peers heard on one group channel: a sorted id column and a
/// parallel state column. A group holds ~20 peers, so a lookup is a
/// binary search over one or two cache lines of ids plus one line of
/// state, and iteration is ascending `NodeId` — the determinism
/// requirement every downstream byte (backup choice, expiry order,
/// relay order) rests on. Read-only outside this module; all mutation
/// goes through [`GroupState`].
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    ids: Vec<NodeId>,
    states: Vec<PeerState>,
    /// Where each peer's directory entry was (key page and offset) when
    /// its last heartbeat was applied (`u32::MAX` before the first): a
    /// hint the directory checks before it believes it, so that the next
    /// heartbeat's refresh skips the search.
    dir_slots: Vec<u32>,
}

impl PeerTable {
    pub fn get(&self, peer: &NodeId) -> Option<&PeerState> {
        self.ids.binary_search(peer).ok().map(|i| &self.states[i])
    }

    pub fn contains_key(&self, peer: &NodeId) -> bool {
        self.ids.binary_search(peer).is_ok()
    }

    /// Peer ids, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, NodeId> {
        self.ids.iter()
    }

    /// Peer states, in ascending id order.
    pub fn values(&self) -> std::slice::Iter<'_, PeerState> {
        self.states.iter()
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &PeerState)> {
        self.ids.iter().copied().zip(&self.states)
    }

    /// The row of `peer`, inserted with state `fresh` if absent; the
    /// flag says whether it was inserted.
    fn entry(&mut self, peer: NodeId, fresh: PeerState) -> (usize, bool) {
        match self.ids.binary_search(&peer) {
            Ok(i) => (i, false),
            Err(i) => {
                // Grow by eight rows, like a directory key page: a
                // 20-host segment's 19 peers take 24 slots, not 32.
                if self.ids.len() == self.ids.capacity() {
                    self.ids.reserve_exact(8);
                    self.states.reserve_exact(8);
                    self.dir_slots.reserve_exact(8);
                }
                self.ids.insert(i, peer);
                self.states.insert(i, fresh);
                self.dir_slots.insert(i, u32::MAX);
                (i, true)
            }
        }
    }

    fn remove(&mut self, peer: NodeId) -> Option<PeerState> {
        let i = self.ids.binary_search(&peer).ok()?;
        self.ids.remove(i);
        self.dir_slots.remove(i);
        Some(self.states.remove(i))
    }
}

/// This node's view of one membership group.
#[derive(Debug, Clone)]
pub struct GroupState {
    pub level: u8,
    /// Peers currently heard on this channel (not including ourselves).
    peers: PeerTable,
    /// Sweep floors: `heard_floor` bounds every peer's `last_heard`,
    /// `hb_floor` every non-zero `last_heartbeat`, and `max_ewma ≥` every
    /// `ewma_interval`. They let the 100 ms sweep prove "no peer can be
    /// expired / late yet" without walking the table. They stay valid
    /// between scans because per-peer times only grow, a new peer enters
    /// at the time it was heard, and a removal only loosens a bound; a
    /// scan that does run recomputes them exactly.
    heard_floor: Floor,
    hb_floor: Floor,
    max_ewma: f64,
    /// Current believed leader (may be ourselves).
    pub leader: Option<NodeId>,
    /// Backup designated by the current leader.
    pub backup: Option<NodeId>,
    pub election: Election,
    /// When we joined this channel (listen period reference).
    pub joined_at: Nanos,
    /// Heartbeat sequence for our own beats on this channel.
    pub hb_seq: u64,
    /// Whether we have pulled the directory from this group's leader yet.
    pub bootstrapped: bool,
    /// When we last sent a bootstrap request (for lossy-network retry).
    pub last_bootstrap_attempt: Nanos,
}

impl GroupState {
    pub fn new(level: u8, now: Nanos) -> Self {
        GroupState {
            level,
            peers: PeerTable::default(),
            heard_floor: Floor::default(),
            hb_floor: Floor::default(),
            max_ewma: 0.0,
            leader: None,
            backup: None,
            election: Election::Idle,
            joined_at: now,
            hb_seq: 0,
            bootstrapped: false,
            last_bootstrap_attempt: 0,
        }
    }

    /// Peers currently heard on this channel, ordered by id.
    pub fn peers(&self) -> &PeerTable {
        &self.peers
    }

    /// Record a non-heartbeat packet from `peer`: refreshes liveness but
    /// not the cadence statistics (control traffic arrives irregularly
    /// and would corrupt the adaptive detector's inter-arrival model).
    pub fn heard(&mut self, peer: NodeId, now: Nanos, claims_leader: bool, incarnation: u64) {
        let (i, inserted) = self.peers.entry(peer, PeerState::first_heard(now));
        if inserted {
            self.heard_floor.note(now);
        }
        let e = &mut self.peers.states[i];
        e.last_heard = e.last_heard.max(now);
        // Control traffic can only *assert* leadership (a Coordinator),
        // never silently retract it — elections and digests pass `false`
        // here and must not stomp the flag a heartbeat set; only the
        // next heartbeat (the authoritative periodic signal) may clear it.
        e.claims_leader = e.claims_leader || claims_leader;
        e.incarnation = e.incarnation.max(incarnation);
        self.debug_assert_floors();
    }

    /// Record a *heartbeat* from `peer`: refreshes liveness and feeds
    /// the adaptive detector's inter-arrival EWMA (heartbeats are the
    /// only periodic signal). Returns the peer's directory hint
    /// ([`GroupState::set_dir_slot`]).
    pub fn heard_heartbeat(
        &mut self,
        peer: NodeId,
        now: Nanos,
        claims_leader: bool,
        incarnation: u64,
    ) -> u32 {
        let (i, inserted) = self.peers.entry(peer, PeerState::first_heard(now));
        if inserted {
            self.heard_floor.note(now);
        }
        let e = &mut self.peers.states[i];
        if e.last_heartbeat > 0 && now > e.last_heartbeat {
            let interval = (now - e.last_heartbeat) as f64;
            if e.ewma_interval <= 0.0 {
                e.ewma_interval = interval;
            } else {
                let dev = (interval - e.ewma_interval).abs();
                e.ewma_var = (1.0 - EWMA_ALPHA) * e.ewma_var + EWMA_ALPHA * dev * dev;
                e.ewma_interval = (1.0 - EWMA_ALPHA) * e.ewma_interval + EWMA_ALPHA * interval;
            }
            self.max_ewma = self.max_ewma.max(e.ewma_interval);
        }
        if now > e.last_heartbeat {
            if e.last_heartbeat == 0 {
                // First heartbeat from this peer: a new time enters the
                // cadence column (later ones only move an old one up).
                self.hb_floor.note(now);
            }
            e.last_heartbeat = now;
        }
        e.last_heard = e.last_heard.max(now);
        e.claims_leader = claims_leader;
        e.incarnation = e.incarnation.max(incarnation);
        self.debug_assert_floors();
        self.peers.dir_slots[i]
    }

    /// Remember where `peer`'s directory entry was found, for its next
    /// heartbeat. The directory validates the hint, so a stale or absent
    /// one costs a search, never a wrong row.
    pub fn set_dir_slot(&mut self, peer: NodeId, slot: u32) {
        if let Ok(i) = self.peers.ids.binary_search(&peer) {
            self.peers.dir_slots[i] = slot;
        }
    }

    /// Remove a peer; returns its last known state.
    pub fn remove_peer(&mut self, peer: NodeId) -> Option<PeerState> {
        if self.leader == Some(peer) {
            self.leader = None;
        }
        if self.backup == Some(peer) {
            self.backup = None;
        }
        // The floors stay: dropping a peer can only loosen them.
        self.peers.remove(peer)
    }

    /// Peers whose last contact is older than `timeout` at `now`, in id
    /// order; the caller removes every one named ([`Floor::due`]). Walks
    /// the table only once the oldest contact it could hold is that old.
    pub fn expired_peers(&mut self, now: Nanos, timeout: Nanos) -> Vec<NodeId> {
        let heard = self.peers.iter().map(|(n, p)| (n, Some(p.last_heard)));
        self.heard_floor.due(heard, now, timeout)
    }

    /// Like [`GroupState::expired_peers`], but each peer gets its own
    /// adaptive deadline (see [`PeerState::adaptive_timeout`]). Those
    /// deadlines can shrink between sweeps, so no floor bounds them:
    /// this one walks the table every time.
    pub fn expired_peers_adaptive(
        &self,
        now: Nanos,
        max_loss: u32,
        fallback: Nanos,
    ) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, p)| {
                now.saturating_sub(p.last_heard) >= p.adaptive_timeout(max_loss, fallback)
            })
            .map(|(n, _)| n)
            .collect()
    }

    /// Peers that look late at `now`: EWMA inter-arrival estimate or
    /// current heartbeat silence (whichever is worse) beyond `late_after`
    /// nanoseconds. A peer that never heartbeated has no silence yet.
    fn late_peers(&self, now: Nanos, late_after: f64) -> usize {
        self.peers
            .values()
            .filter(|p| {
                let silence = if p.last_heartbeat > 0 {
                    now.saturating_sub(p.last_heartbeat) as f64
                } else {
                    0.0
                };
                p.ewma_interval.max(silence) > late_after
            })
            .count()
    }

    /// This group's loss-distress verdict: at least half of its peers
    /// look late — EWMA inter-arrival estimate or current heartbeat
    /// silence beyond `late_after` nanoseconds. Groups with fewer than
    /// three peers carry no usable correlation signal. Walks the table
    /// only once some peer could be late.
    pub fn distressed(&mut self, now: Nanos, late_after: f64) -> bool {
        let len = self.peers.len();
        if len < 3 {
            return false;
        }
        let silence = self.hb_floor.age(now).unwrap_or(0);
        if self.max_ewma <= late_after && silence as f64 <= late_after {
            debug_assert_eq!(
                self.late_peers(now, late_after),
                0,
                "distress gate skipped a scan with late peers: hb_floor={:?} max_ewma={} now={now}",
                self.hb_floor,
                self.max_ewma
            );
            return false;
        }
        self.hb_floor = Floor::default();
        self.max_ewma = 0.0;
        for p in self.peers.values() {
            if p.last_heartbeat > 0 {
                self.hb_floor.note(p.last_heartbeat);
            }
            self.max_ewma = self.max_ewma.max(p.ewma_interval);
        }
        self.late_peers(now, late_after) * 2 >= len
    }

    /// True iff the three sweep floors bound the peer table — the
    /// invariant both gates rest on. Checked after every mutation in
    /// debug builds, and by the model tests.
    pub fn floors_hold(&self) -> bool {
        self.peers.values().all(|p| {
            self.heard_floor.bounds(p.last_heard)
                && (p.last_heartbeat == 0 || self.hb_floor.bounds(p.last_heartbeat))
                && self.max_ewma >= p.ewma_interval
        })
    }

    fn debug_assert_floors(&self) {
        debug_assert!(
            self.floors_hold(),
            "sweep floors no longer bound the peer table: heard_floor={:?} hb_floor={:?} max_ewma={} peers={:?}",
            self.heard_floor,
            self.hb_floor,
            self.max_ewma,
            self.peers
        );
    }

    /// True if `me` has the lowest id among `me` and all live peers —
    /// the bully winner-to-be.
    pub fn am_lowest(&self, me: NodeId) -> bool {
        self.peers.keys().all(|&p| me < p)
    }

    /// Is the believed leader actually present (or us)?
    pub fn leader_present(&self, me: NodeId) -> bool {
        match self.leader {
            None => false,
            Some(l) => l == me || self.peers.contains_key(&l),
        }
    }

    /// Pick a backup deterministically-pseudorandomly: the peer whose id
    /// hashes lowest with `salt`. The paper picks a random member; using a
    /// salted hash keeps simulation runs reproducible while still
    /// spreading the choice.
    pub fn pick_backup(&self, salt: u64) -> Option<NodeId> {
        self.peers
            .keys()
            .min_by_key(|n| {
                let x = (n.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                x.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            })
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> GroupState {
        GroupState::new(0, 0)
    }

    #[test]
    fn heard_inserts_and_refreshes() {
        let mut s = g();
        s.heard(NodeId(5), 10, false, 1);
        s.heard(NodeId(5), 20, true, 1);
        let p = *s.peers().get(&NodeId(5)).unwrap();
        assert_eq!(p.last_heard, 20);
        assert!(p.claims_leader);
    }

    #[test]
    fn heard_never_regresses_time_or_incarnation() {
        let mut s = g();
        s.heard(NodeId(5), 20, false, 3);
        s.heard(NodeId(5), 10, false, 2);
        let p = *s.peers().get(&NodeId(5)).unwrap();
        assert_eq!(p.last_heard, 20);
        assert_eq!(p.incarnation, 3);
    }

    #[test]
    fn expired_peers_respects_timeout() {
        let mut s = g();
        s.heard(NodeId(1), 0, false, 1);
        s.heard(NodeId(2), 90, false, 1);
        assert_eq!(s.expired_peers(100, 50), vec![NodeId(1)]);
        assert!(s.expired_peers(100, 200).is_empty());
    }

    #[test]
    fn remove_peer_clears_roles() {
        let mut s = g();
        s.heard(NodeId(1), 0, true, 1);
        s.heard(NodeId(2), 0, false, 1);
        s.leader = Some(NodeId(1));
        s.backup = Some(NodeId(2));
        s.remove_peer(NodeId(1));
        assert_eq!(s.leader, None);
        assert_eq!(s.backup, Some(NodeId(2)));
        s.remove_peer(NodeId(2));
        assert_eq!(s.backup, None);
    }

    #[test]
    fn am_lowest_among_peers() {
        let mut s = g();
        assert!(s.am_lowest(NodeId(9)), "alone means lowest");
        s.heard(NodeId(3), 0, false, 1);
        s.heard(NodeId(7), 0, true, 1);
        assert!(s.am_lowest(NodeId(2)));
        assert!(!s.am_lowest(NodeId(5)));
    }

    #[test]
    fn leader_present_logic() {
        let mut s = g();
        let me = NodeId(0);
        assert!(!s.leader_present(me));
        s.leader = Some(me);
        assert!(s.leader_present(me));
        s.leader = Some(NodeId(4));
        assert!(!s.leader_present(me), "leader not among peers");
        s.heard(NodeId(4), 0, true, 1);
        assert!(s.leader_present(me));
    }

    #[test]
    fn pick_backup_is_deterministic_and_salt_sensitive() {
        let mut s = g();
        for i in 1..=10 {
            s.heard(NodeId(i), 0, false, 1);
        }
        let a = s.pick_backup(42).unwrap();
        let b = s.pick_backup(42).unwrap();
        assert_eq!(a, b);
        // Different salts should usually pick different peers; check a few.
        let picks: std::collections::BTreeSet<_> = (0..20u64)
            .map(|salt| s.pick_backup(salt).unwrap())
            .collect();
        assert!(picks.len() > 1, "backup choice never varies");
        assert!(s.pick_backup(0).is_some());
        assert_eq!(g().pick_backup(7), None);
    }
}
