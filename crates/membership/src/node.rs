//! The hierarchical membership protocol state machine.
//!
//! One [`MembershipNode`] runs on every cluster host. It implements, as a
//! sans-io [`Actor`], all the sub-protocols of paper §3.1:
//!
//! * **Topology-aware group formation** — join the level-0 channel with
//!   TTL 1; when elected leader of level `k`, also join level `k+1` with
//!   TTL `k+2`, up to `MAX_TTL`. Group boundaries emerge purely from TTL
//!   scoping, so the tree adapts to the physical topology with zero
//!   configuration.
//! * **Failure detection** — every member independently declares a peer
//!   dead after `MAX_LOSS` heartbeat periods of silence, with larger
//!   timeouts at higher levels.
//! * **Leader election** — sticky bully (lowest id wins, an incumbent is
//!   never deposed by a lower-id newcomer) with a leader-designated
//!   backup for fast takeover.
//! * **Bootstrap** — a joining node pulls the directory from the first
//!   leader it hears, and symmetrically offers its own (it may be a
//!   lower-level leader bringing a subtree).
//! * **Update propagation** — leaders relay joins/leaves up the tree;
//!   members relay into the groups they lead, flooding the whole cluster
//!   in one up-pass and one down-pass.
//! * **Timeout protocol** — relayed entries live exactly as long as their
//!   relayer: when a leader heard at level > 0 dies, everything it relayed
//!   is purged (how switch/partition failures are detected quickly), while
//!   the longer high-level timeouts give lower groups time to re-elect.
//! * **Message-loss handling** — updates carry sequence numbers and
//!   piggyback the previous `piggyback_window - 1` events; a gap beyond
//!   the window triggers a full-directory resynchronization poll.
//!
//! The node is a dispatcher: it owns the directory, the groups and the
//! update log, and routes packets and sweep ticks to the books that own
//! the rest — `evidence.rs` (suspicions, refutation memory, flap
//! scores, distress latch), `cuts.rs` (cut-detection votes) and
//! `quarantine.rs` (escrowed subtrees). Its own methods are split
//! by sub-protocol: election in `election.rs`, anti-entropy and loss
//! repair in `sync.rs`, timeout → suspicion → removal in `removal.rs`,
//! the update handler in `update.rs`. docs/PROTOCOL.md has the map of
//! who may write what.

use crate::config::{MembershipConfig, RemovalDiscipline, DEGRADE_STRETCH_THRESHOLD};
use crate::cuts::CutBook;
use crate::election::Claim;
use crate::evidence::Evidence;
use crate::group::GroupState;
use crate::quarantine::QuarantineBook;
use parking_lot::Mutex;
use std::sync::Arc;
use tamp_directory::{Provenance, SharedDirectory};
use tamp_netsim::{Actor, ChannelId, Context, PacketMeta, ProtocolEvent};

use tamp_wire::piggyback::UpdateLog;
use tamp_wire::seqnum::SeqTracker;
use tamp_wire::{Heartbeat, MemberEvent, Message, NodeId, NodeRecord, RecordSource, UpdateMsg};

/// The header fields of a heartbeat, copied out of either an owned
/// [`Heartbeat`] or a borrowed [`tamp_wire::HeartbeatView`] — the part
/// of the message the handler always needs, independent of whether the
/// sender's record ever gets materialized.
struct HeartbeatHeader {
    from: NodeId,
    level: u8,
    is_leader: bool,
    backup: Option<NodeId>,
    latest_update_seq: u64,
}

/// Timer tokens: kind in the low byte, group level in the next byte.
const T_HEARTBEAT: u64 = 1;
const T_SWEEP: u64 = 2;
const T_ELECTION: u64 = 3;
const T_DIGEST: u64 = 4;

pub(crate) fn election_token(level: u8) -> u64 {
    T_ELECTION | ((level as u64) << 8)
}

fn token_kind(token: u64) -> (u64, u8) {
    (token & 0xff, ((token >> 8) & 0xff) as u8)
}

/// Shared introspection snapshot, updated by the node as it runs. Lets
/// tests and the experiment harness observe protocol state without
/// reaching into the actor.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProbeState {
    /// `leaders[ℓ]` = believed leader of our level-ℓ group (None when
    /// the level is inactive or leaderless).
    pub leaders: Vec<Option<NodeId>>,
    /// Levels this node currently participates in.
    pub active_levels: Vec<u8>,
    pub incarnation: u64,
}

/// Cloneable handle to a node's [`ProbeState`].
pub type Probe = Arc<Mutex<ProbeState>>;

/// What the probe carries, copied without allocating, so that a sweep
/// can tell whether it moved: the incarnation and, per level, the
/// group's leader if the level is active (`None` if not).
#[derive(PartialEq)]
struct ProbeMark {
    incarnation: u64,
    levels: [Option<Option<NodeId>>; ProbeMark::LEVELS],
}

impl ProbeMark {
    /// Levels a mark holds; a node of more has none taken.
    const LEVELS: usize = 8;
}

/// A deferred mutation of this node's published record, applied on the
/// next sweep — how application code calls the paper's
/// `register_service` / `update_value` / `delete_value` *while the
/// daemon is running* (the node itself is owned by the driver).
#[derive(Debug, Clone)]
pub enum ServiceCommand {
    Register(tamp_wire::ServiceDecl),
    Unregister(String),
    UpdateValue(String, String),
    DeleteValue(String),
    /// Graceful departure: announce our own leave to every group before
    /// going quiet, so peers remove us immediately instead of waiting
    /// out the failure timeout (an extension — the paper handles
    /// departures by timeout only).
    GracefulLeave,
}

/// Cloneable command queue attached to a running node.
pub type ControlHandle = Arc<Mutex<Vec<ServiceCommand>>>;

/// What this node's own failure detector timing a peer out turns into —
/// the one place [`RemovalDiscipline`] is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnTimeout {
    /// The paper: remove at once (`suspicion_window = 0`).
    Remove,
    /// Enter the refutable `Suspect` state; remove if it survives.
    Suspect,
    /// Cut detection: cast an `Alert` vote; batches of votes remove.
    Vote,
}

fn fresh_log(cfg: &MembershipConfig) -> UpdateLog {
    UpdateLog::with_max_age(cfg.piggyback_window, cfg.effective_tombstone_ttl() / 2)
}

/// One cluster node running the hierarchical membership protocol.
pub struct MembershipNode {
    pub(crate) cfg: MembershipConfig,
    pub(crate) me: NodeId,
    pub(crate) incarnation: u64,
    crashed: bool,
    pub(crate) record: NodeRecord,
    pub(crate) directory: SharedDirectory,
    /// Events this node originated, with its own sequence numbers.
    pub(crate) log: UpdateLog,
    /// Highest applied update seq per origin.
    pub(crate) seqs: SeqTracker<NodeId>,
    /// `groups[ℓ]` = state of our level-ℓ group, if active.
    pub(crate) groups: Vec<Option<GroupState>>,
    /// Last time we sync-polled each peer (suppresses duplicate polls
    /// while a response is in flight).
    pub(crate) sync_polls: std::collections::HashMap<NodeId, u64>,
    pub(crate) evidence: Evidence,
    pub(crate) cuts: CutBook,
    pub(crate) quarantine: QuarantineBook,
    pub(crate) on_timeout: OnTimeout,
    /// Next instant the catch-all directory expiry needs to scan. The
    /// scan is O(members); re-armed from the earliest surviving deadline
    /// (and forced by group-coverage changes) instead of running every
    /// sweep.
    pub(crate) next_catchall: u64,
    /// Deferred record mutations from application code.
    control: ControlHandle,
    probe: Probe,
}

impl MembershipNode {
    pub fn new(me: NodeId, cfg: MembershipConfig) -> Self {
        let levels = cfg.top_level() as usize + 1;
        let mut node = MembershipNode {
            record: NodeRecord::new(me, 0),
            me,
            incarnation: 0,
            crashed: false,
            directory: SharedDirectory::new(),
            log: fresh_log(&cfg),
            seqs: SeqTracker::new(),
            groups: (0..levels).map(|_| None).collect(),
            sync_polls: std::collections::HashMap::new(),
            evidence: Evidence::new(&cfg),
            cuts: CutBook::default(),
            quarantine: QuarantineBook::default(),
            on_timeout: match cfg.removal_discipline {
                RemovalDiscipline::CutDetection => OnTimeout::Vote,
                RemovalDiscipline::Timeout if cfg.suspicion_window == 0 => OnTimeout::Remove,
                RemovalDiscipline::Timeout => OnTimeout::Suspect,
            },
            next_catchall: 0,
            control: Arc::new(Mutex::new(Vec::new())),
            probe: Arc::new(Mutex::new(ProbeState::default())),
            cfg,
        };
        node.rebuild_record();
        node
    }

    /// Read-only handle to this node's yellow pages (the paper's
    /// `MClient` attach point). Valid before and after the node is boxed
    /// into a driver.
    pub fn directory_client(&self) -> tamp_directory::DirectoryClient {
        self.directory.client()
    }

    /// Introspection handle for tests/harness.
    pub fn probe(&self) -> Probe {
        Arc::clone(&self.probe)
    }

    /// Resolve `(service, partition)` through this node's live view:
    /// the node ids currently believed to host that partition (`None` =
    /// any) of the service named exactly `service`, in `NodeId` order.
    /// The view-resolution entry point used by request routers
    /// (gateways, proxies, the `tamp-load` generator) — equivalent to
    /// `directory_client().resolve(...)` without constructing a client.
    /// The answer is the directory's own ([`Directory::providers`]),
    /// shared until the view changes.
    ///
    /// [`Directory::providers`]: tamp_directory::Directory::providers
    pub fn resolve_service(&self, service: &str, partition: Option<u16>) -> Arc<[NodeId]> {
        self.directory.read(|d| d.providers(service, partition))
    }

    /// Command queue for mutating this node's published services and
    /// attributes at runtime (applied on the next sweep, announced on
    /// the heartbeat that follows).
    pub fn control_handle(&self) -> ControlHandle {
        Arc::clone(&self.control)
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    fn make_record(&self, incarnation: u64) -> NodeRecord {
        let mut r = NodeRecord::new(self.me, incarnation);
        r.services = self.cfg.services.clone();
        r.attrs = self.cfg.attrs.clone();
        if self.cfg.pad_heartbeat_to > 0 {
            r.pad_to_encoded_size(self.cfg.pad_heartbeat_to);
        }
        r
    }

    pub(crate) fn rebuild_record(&mut self) {
        self.record = self.make_record(self.incarnation);
    }

    /// Preview the record this node will announce on its first
    /// `on_start` (including the incarnation bump). A warm-starting
    /// harness captures every node's boot record before the run and
    /// [`preload`](MembershipNode::preload)s them into the others, so
    /// the cluster boots already converged.
    pub fn boot_record(&self) -> NodeRecord {
        self.make_record(self.incarnation + 1)
    }

    /// Pre-seed this node's directory before the simulation starts (the
    /// warm-start path; pair with [`MembershipConfig::warm_start`]).
    /// Records are inserted as-is with the given provenance and a
    /// last-refresh of t=0; entries covered by a group are kept alive by
    /// heartbeats, relayed entries by their relayer, exactly as if the
    /// cluster had converged the slow way.
    pub fn preload(
        &mut self,
        records: impl IntoIterator<Item = (NodeRecord, tamp_directory::Provenance)>,
    ) {
        self.directory.update(|d| {
            let mut changed = false;
            for (r, p) in records {
                if r.node == self.me {
                    continue; // `on_start` installs the Local self-entry
                }
                changed |= d.apply_join(r, p, 0).changed();
            }
            (changed, ())
        });
    }

    /// Bulk variant of [`preload`](MembershipNode::preload): replace the
    /// directory wholesale with a pre-built template. At 10k nodes the
    /// harness builds one template per segment and clones it into every
    /// member — O(clone) instead of 10k individual merges per node.
    ///
    /// A template self-entry is dropped, like [`Self::preload`] skips it:
    /// `on_start` must install the `Local` self-entry itself. Keeping a
    /// `Direct` one would be a time bomb — `on_start`'s equal-incarnation
    /// re-apply does not change provenance, and a `Direct` self-entry is
    /// covered by no group, so the catch-all expiry would remove it at
    /// `2·timeout(top)` and cascade to everything stamped
    /// `Relayed(self)` (on a leaf leader: the entire remote directory).
    pub fn preload_directory(&mut self, template: &tamp_directory::Directory) {
        let me = self.me;
        self.directory.update(|d| {
            *d = template.clone();
            d.remove(me);
            (true, ())
        });
    }

    /// Publish or update a service at runtime (the paper's
    /// `register_service`). Takes effect on the next heartbeat; peers
    /// pick up the change as a same-incarnation content update.
    pub fn register_service(&mut self, svc: tamp_wire::ServiceDecl) {
        self.cfg.services.retain(|s| s.name != svc.name);
        self.cfg.services.push(svc);
        self.rebuild_record();
    }

    /// Publish a key-value attribute (the paper's `update_value`).
    pub fn update_value(&mut self, key: &str, value: &str) {
        self.cfg.attrs.retain(|(k, _)| k != key);
        self.cfg.attrs.push((key.to_string(), value.to_string()));
        self.rebuild_record();
    }

    /// Remove a key (the paper's `delete_value`).
    pub fn delete_value(&mut self, key: &str) {
        self.cfg.attrs.retain(|(k, _)| k != key);
        self.rebuild_record();
    }

    // ----------------------------------------------------------- helpers

    pub(crate) fn level_of_channel(&self, ch: ChannelId) -> Option<u8> {
        let base = self.cfg.base_channel.0;
        if ch.0 < base {
            return None;
        }
        let level = (ch.0 - base) as u8;
        (level <= self.cfg.top_level()).then_some(level)
    }

    pub(crate) fn active_levels(&self) -> impl Iterator<Item = u8> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_some())
            .map(|(l, _)| l as u8)
    }

    pub(crate) fn am_leader(&self, level: u8) -> bool {
        self.groups[level as usize]
            .as_ref()
            .is_some_and(|g| g.leader == Some(self.me))
    }

    /// Is `peer` currently a member of any group we sit in?
    pub(crate) fn heard_anywhere(&self, peer: NodeId) -> bool {
        self.groups
            .iter()
            .flatten()
            .any(|g| g.peers().contains_key(&peer))
    }

    /// Fresh direct liveness: any packet from `peer` on any of our
    /// channels within the last two heartbeat periods.
    pub(crate) fn heard_recently(&self, peer: NodeId, now: u64) -> bool {
        self.groups.iter().flatten().any(|g| {
            g.peers()
                .get(&peer)
                .is_some_and(|p| now.saturating_sub(p.last_heard) <= 2 * self.cfg.heartbeat_period)
        })
    }

    /// The record we hold for `node` if it is at incarnation ≥ `inc`:
    /// the directory's proof of life against an accusation at `inc`.
    pub(crate) fn proof_of_life(&self, node: NodeId, inc: u64) -> Option<NodeRecord> {
        self.directory.read(|d| {
            d.get(node)
                .filter(|e| e.incarnation >= inc)
                .map(|e| e.record())
        })
    }

    /// What the probe carries now; `None` on a node of more levels than
    /// a mark holds.
    fn probe_mark(&self) -> Option<ProbeMark> {
        if self.groups.len() > ProbeMark::LEVELS {
            return None;
        }
        let mut levels = [None; ProbeMark::LEVELS];
        for (mark, g) in levels.iter_mut().zip(&self.groups) {
            *mark = g.as_ref().map(|g| g.leader);
        }
        Some(ProbeMark {
            incarnation: self.incarnation,
            levels,
        })
    }

    pub(crate) fn update_probe(&self) {
        let mut p = self.probe.lock();
        // Reuse the probe's buffers: this runs after every sweep and
        // packet that moved something the probe carries, and fresh
        // allocations here show up at 10k-node scale.
        p.leaders.clear();
        p.leaders.extend(
            self.groups
                .iter()
                .map(|g| g.as_ref().and_then(|g| g.leader)),
        );
        p.active_levels.clear();
        p.active_levels.extend(self.active_levels());
        p.incarnation = self.incarnation;
    }

    /// Apply a record heard *directly* (heartbeat from the node itself);
    /// returns whether the directory changed. Routes through the
    /// directory's lazy-materialization join so borrowed wire views skip
    /// decoding on the dominant same-incarnation refresh path, which is
    /// one search of the directory — or none, when `dir_slot` (where the
    /// sender's entry was last time) still holds; it is brought up to
    /// date either way.
    fn apply_direct_with(
        &mut self,
        ctx: &mut Context,
        record: &impl RecordSource,
        dir_slot: &mut u32,
    ) -> bool {
        let now = ctx.now();
        let (applied, was_known) = self.directory.update(|d| {
            let (applied, was_known) = d.apply_join_hinted(
                dir_slot,
                record.node(),
                record.incarnation(),
                Provenance::Direct,
                now,
                || record.to_record(),
                |held| record.same_payload(held),
            );
            (applied.changed(), (applied, was_known))
        });
        if applied.changed() && !was_known {
            ctx.emit(ProtocolEvent::MemberAdded {
                subject: record.node().0,
                incarnation: record.incarnation(),
            });
        }
        applied.changed()
    }

    /// Groups to relay an event into, given the level it arrived on
    /// (`arrival`): every group we lead, plus every higher-level group we
    /// participate in (upward path). `arrival` itself is excluded.
    pub(crate) fn relay_levels(&self, arrival: u8) -> Vec<u8> {
        self.active_levels()
            .filter(|&l| l != arrival && (self.am_leader(l) || l > arrival))
            .collect()
    }

    /// Relay set for information that arrived point-to-point (directory
    /// exchanges, sync responses) and therefore has no arrival group:
    /// every group we lead plus every higher-level group we sit in.
    pub(crate) fn relay_levels_all(&self) -> Vec<u8> {
        self.active_levels()
            .filter(|&l| self.am_leader(l) || l > 0)
            .collect()
    }

    // ------------------------------------------------- loss degradation

    /// Graceful degradation under measured heavy loss: when at least half
    /// of a group's peers look late — by the EWMA inter-arrival estimate
    /// (the A7 detector signal) *or* by their current heartbeat silence,
    /// whichever is worse — beyond [`DEGRADE_STRETCH_THRESHOLD`] ×
    /// `heartbeat_period`, the *network* is in distress, not the peers: a
    /// real crash makes exactly one peer late, a loss burst makes them
    /// all late. The current-silence term matters because the EWMA only
    /// updates on arrival: a burst that silences the whole group leaves
    /// the estimate frozen at its healthy value right when the signal is
    /// needed most.
    ///
    /// The signal is judged per group but applied host-wide: groups with
    /// fewer than three peers (typically the higher leader levels) carry
    /// no usable correlation signal of their own, yet share the same
    /// network as the well-populated level-0 group, so any distressed
    /// group stretches every level's windows.
    ///
    /// The per-group verdict is [`GroupState::distressed`], which skips
    /// its walk while the group's floors prove no peer is late.
    ///
    /// Returns the current stretch factor for timeouts and suspicion
    /// windows: that raw reading through the evidence book's latch.
    pub(crate) fn distress_stretch(&mut self, now: u64) -> f64 {
        let late_after = DEGRADE_STRETCH_THRESHOLD * self.cfg.heartbeat_period as f64;
        let raw = self
            .groups
            .iter_mut()
            .flatten()
            .any(|g| g.distressed(now, late_after));
        self.evidence.stretch(raw, now)
    }

    // ---------------------------------------------------------- sending

    /// Multicast `msg` into the level-`level` group: its channel, at the
    /// TTL that scopes it.
    pub(crate) fn multicast(&self, ctx: &mut Context, level: u8, msg: Message) {
        ctx.send_multicast(self.cfg.channel(level), self.cfg.ttl(level), msg);
    }

    /// `events` as an update message of our own origination.
    pub(crate) fn update_msg(&self, events: Vec<tamp_wire::SeqEvent>) -> Message {
        Message::Update(UpdateMsg {
            origin: self.me,
            events,
        })
    }

    /// Record freshly learned events in our log and multicast them to the
    /// given levels as one update message per level.
    pub(crate) fn relay_events(
        &mut self,
        ctx: &mut Context,
        events: Vec<MemberEvent>,
        levels: Vec<u8>,
    ) {
        if events.is_empty() || levels.is_empty() {
            return;
        }
        let now = ctx.now();
        // One batched log append returns the full piggyback window —
        // older fresh events (loss tolerance) followed by the new batch,
        // already deduped and seq-ordered.
        let window = self.log.push_batch(events, now);
        let n_events = window.len() as u32;
        let msg = self.update_msg(window);
        for l in levels {
            ctx.emit(ProtocolEvent::UpdateRelayed {
                level: l,
                events: n_events,
            });
            self.multicast(ctx, l, msg.clone());
        }
    }

    /// Our next heartbeat on `level`'s channel (which must be active).
    fn next_heartbeat(&mut self, level: u8) -> Message {
        let g = self.groups[level as usize]
            .as_mut()
            .expect("heartbeat on an inactive level");
        g.hb_seq += 1;
        let is_leader = g.leader == Some(self.me);
        Message::Heartbeat(Heartbeat {
            from: self.me,
            level,
            seq: g.hb_seq,
            is_leader,
            backup: g.backup.filter(|_| is_leader),
            latest_update_seq: self.log.latest_seq(),
            record: self.record.clone(),
        })
    }

    pub(crate) fn send_heartbeats(&mut self, ctx: &mut Context) {
        for l in 0..self.groups.len() as u8 {
            if self.groups[l as usize].is_none() {
                continue;
            }
            let msg = self.next_heartbeat(l);
            ctx.emit(ProtocolEvent::HeartbeatSent { level: l });
            self.multicast(ctx, l, msg);
        }
    }

    pub(crate) fn activate_level(&mut self, ctx: &mut Context, level: u8) {
        if self.groups[level as usize].is_some() {
            return;
        }
        let mut group = GroupState::new(level, ctx.now());
        // A warm-started node's directory was pre-seeded; pulling the
        // leader's snapshot would only re-fetch what it already holds.
        group.bootstrapped = self.cfg.warm_start;
        self.groups[level as usize] = Some(group);
        ctx.subscribe(self.cfg.channel(level));
        // Announce ourselves on the new channel immediately so existing
        // members learn of us within one heartbeat period.
        let msg = self.next_heartbeat(level);
        self.multicast(ctx, level, msg);
    }

    /// Leave every level above `level` (used when we lose leadership of
    /// `level`'s lower group, or crash).
    pub(crate) fn deactivate_above(&mut self, ctx: &mut Context, level: u8) {
        for l in (level as usize + 1)..self.groups.len() {
            if self.groups[l].is_some() {
                self.groups[l] = None;
                ctx.unsubscribe(self.cfg.channel(l as u8));
            }
        }
    }

    // ------------------------------------------------------------ sweep

    /// The periodic tick. The order is part of the protocol: commands,
    /// the failure detector, the three books' sweep-time verdicts
    /// (suspicions, then cuts, then quarantines — a confirmation can
    /// open a quarantine that the same sweep already looks at), the
    /// leadership invariant, elections, and the catch-all expiry.
    fn sweep(&mut self, ctx: &mut Context) {
        let before = self.probe_mark();
        if self.apply_commands(ctx) {
            return; // left gracefully
        }
        self.expire_silent_peers(ctx);
        self.process_suspicions(ctx);
        self.process_cuts(ctx);
        self.process_quarantines(ctx);
        self.enforce_leadership_invariant(ctx);
        self.run_elections(ctx);
        self.expire_uncovered(ctx);
        // Publish only what moved: an idle sweep republishing the probe
        // would be a lock and two buffer refills for an identical
        // snapshot.
        if before.is_none() || self.probe_mark() != before {
            self.update_probe();
        }
    }

    /// Apply deferred application commands; an actual change is
    /// announced immediately (peers apply it as a same-incarnation
    /// content update and relay it on). Returns whether the node left.
    fn apply_commands(&mut self, ctx: &mut Context) -> bool {
        let cmds: Vec<ServiceCommand> = std::mem::take(&mut *self.control.lock());
        if cmds.is_empty() {
            return false;
        }
        for cmd in cmds {
            match cmd {
                ServiceCommand::Register(svc) => self.register_service(svc),
                ServiceCommand::Unregister(name) => {
                    self.cfg.services.retain(|s| s.name != name);
                    self.rebuild_record();
                }
                ServiceCommand::UpdateValue(k, v) => self.update_value(&k, &v),
                ServiceCommand::DeleteValue(k) => self.delete_value(&k),
                ServiceCommand::GracefulLeave => {
                    self.leave_gracefully(ctx);
                    return true;
                }
            }
        }
        self.publish_own_record(ctx);
        false
    }

    /// Announce our own departure into every active group, then stop
    /// participating: peers apply the leave at once (no 5 s timeout) and
    /// the next restart's higher incarnation re-adds us cleanly.
    fn leave_gracefully(&mut self, ctx: &mut Context) {
        let levels = self.active_levels().collect();
        let leave = MemberEvent::Leave(self.me, self.incarnation);
        self.relay_events(ctx, vec![leave], levels);
        for l in self.active_levels() {
            ctx.unsubscribe(self.cfg.channel(l));
        }
        self.on_crash(); // a future on_start is a fresh life
        for g in &mut self.groups {
            *g = None;
        }
        self.update_probe();
    }

    /// Install our current record as the `Local` self-entry.
    fn install_own_record(&mut self, now: u64) {
        let me_rec = self.record.clone();
        self.directory
            .update(|d| (d.apply_join(me_rec, Provenance::Local, now).changed(), ()));
    }

    /// Install our current record and announce it on every channel at
    /// once.
    pub(crate) fn publish_own_record(&mut self, ctx: &mut Context) {
        self.install_own_record(ctx.now());
        self.send_heartbeats(ctx);
    }

    /// The failure detector: peers silent past their level's timeout
    /// leave the group and go to [`MembershipNode::handle_peer_timeout`].
    /// Measured heavy loss widens the effective timeout (in effect
    /// widening MAX_LOSS) while the distress lasts; one evaluation
    /// covers every level in this sweep.
    fn expire_silent_peers(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        let stretch = self.distress_stretch(now);
        for level in 0..self.groups.len() as u8 {
            let Some(g) = self.groups[level as usize].as_mut() else {
                continue;
            };
            let timeout = (self.cfg.timeout(level) as f64 * stretch) as u64;
            let expired = if self.cfg.adaptive_timeout {
                // Level scaling carries over: the fixed per-level
                // timeout acts as the floor/fallback.
                g.expired_peers_adaptive(now, self.cfg.max_loss, timeout)
            } else {
                g.expired_peers(now, timeout)
            };
            for &p in &expired {
                g.remove_peer(p);
            }
            for peer in expired {
                self.handle_peer_timeout(ctx, peer, level);
            }
        }
    }

    /// Leadership invariant: we sit at level ℓ+1 only while leading ℓ.
    fn enforce_leadership_invariant(&mut self, ctx: &mut Context) {
        for level in 1..self.groups.len() as u8 {
            if self.groups[level as usize].is_some() && !self.am_leader(level - 1) {
                self.groups[level as usize] = None;
                ctx.unsubscribe(self.cfg.channel(level));
                // Entries only that group covered may now be catch-all
                // eligible: re-arm the throttled scan.
                self.next_catchall = 0;
            }
        }
    }

    // -------------------------------------------------------- heartbeat

    /// The single heartbeat implementation behind both the owned and
    /// the borrowed paths. `record` is the sender's, materialized (a
    /// cheap Arc bump when owned, a decode when borrowed) only where it
    /// is stored or relayed; its `matches` may answer a conservative
    /// `false`, which only costs one materialization.
    fn handle_heartbeat(
        &mut self,
        ctx: &mut Context,
        hb: HeartbeatHeader,
        record: impl RecordSource,
    ) {
        if hb.from == self.me {
            return;
        }
        let me = self.me;
        let Some(g) = self
            .groups
            .get_mut(hb.level as usize)
            .and_then(|g| g.as_mut())
        else {
            return;
        };
        let now = ctx.now();
        let dir_slot = g.heard_heartbeat(hb.from, now, hb.is_leader, record.incarnation());
        // What the probe carries and this handler can move: the group's
        // leader (losing ours also drops the levels above).
        let leader_before = g.leader;
        let claim = hb
            .is_leader
            .then(|| g.hear_claim(me, hb.from, hb.backup, true));
        let level = hb.level;
        let leader_now = g.leader;
        // Bootstrap pull, retried every two heartbeat periods until the
        // leader's reply arrives (the request or reply may be lost).
        let needs_bootstrap = !g.bootstrapped
            && hb.is_leader
            && leader_now == Some(hb.from)
            && (g.last_bootstrap_attempt == 0
                || now.saturating_sub(g.last_bootstrap_attempt) >= 2 * self.cfg.heartbeat_period);
        if needs_bootstrap {
            g.last_bootstrap_attempt = now;
        }
        match claim {
            Some(Claim::Deposed) => self.deactivate_above(ctx, level),
            Some(Claim::Reassert) => self.announce_leadership(ctx, level),
            Some(Claim::Followed) | None => {}
        }

        // Yellow-page maintenance + join detection. On the dominant
        // same-incarnation refresh path the record is never built: the
        // directory's generic join only calls `to_record` when it
        // stores. A relayed Join reuses the freshly stored record (an
        // Arc bump) instead of materializing again.
        let mut slot = dir_slot;
        let changed = self.apply_direct_with(ctx, &record, &mut slot);
        if slot != dir_slot {
            if let Some(g) = self.groups[level as usize].as_mut() {
                g.set_dir_slot(hb.from, slot);
            }
        }
        if changed {
            if let Some(rec) = self.proof_of_life(record.node(), 0) {
                let levels = self.relay_levels(level);
                self.relay_events(ctx, vec![MemberEvent::Join(rec)], levels);
            }
        }

        // Proof of life: a heartbeat from a node we (or the tree) suspect
        // refutes the suspicion. Relay the refutation to where the
        // suspicion travelled — for a plain member the relay set is
        // empty, so only leaders speak for their members upward (the
        // "group leader refutes on the suspect's behalf" path).
        if self.refute(ctx, hb.from, record.incarnation(), true) {
            let levels = self.relay_levels(level);
            self.relay_events(ctx, vec![MemberEvent::Refute(record.to_record())], levels);
        }

        // Bootstrap pull: first leader heard on this channel.
        if needs_bootstrap {
            let offer = self.snapshot_exchange(true);
            ctx.send_unicast(hb.from, Message::DirectoryExchange(offer));
        }

        // Loss repair: the heartbeat advertises how many updates its
        // sender has originated. If we have applied fewer, an update
        // multicast was lost — poll the sender for a resync.
        if hb.latest_update_seq > self.seqs.last_applied(hb.from).unwrap_or(0) {
            self.maybe_sync_poll(ctx, hb.from);
        }
        // The steady-state heartbeat moved nothing the probe carries:
        // republishing it would be a lock and two buffer refills per
        // packet for an identical snapshot.
        if leader_now != leader_before {
            self.update_probe();
        }
    }
}

impl Actor for MembershipNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            // A restart loses all soft state; the incarnation bump makes
            // the rebirth unambiguous to everyone else.
            self.crashed = false;
            // The directory was already cleared in place by `on_crash`
            // (clearing rather than replacing keeps externally held
            // DirectoryClient handles attached, like re-initializing the
            // same shm segment after a daemon restart).
            self.seqs = SeqTracker::new();
            self.log = fresh_log(&self.cfg);
            self.sync_polls.clear();
            self.evidence.reset();
            self.cuts.reset();
            self.quarantine.reset();
            self.next_catchall = 0;
            for g in &mut self.groups {
                *g = None;
            }
        }
        self.incarnation += 1;
        self.rebuild_record();
        self.install_own_record(ctx.now());

        let ttl = self.cfg.effective_tombstone_ttl();
        self.directory.update(|d| {
            d.set_tombstone_ttl(ttl);
            (false, ())
        });

        self.activate_level(ctx, 0);
        let phase = ctx.jitter(self.cfg.startup_jitter);
        ctx.set_timer(phase + self.cfg.heartbeat_period, T_HEARTBEAT);
        ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
        if self.cfg.anti_entropy_period > 0 {
            ctx.set_timer(phase + self.cfg.anti_entropy_period, T_DIGEST);
        }
        self.update_probe();
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        // Model the process dying: its published directory vanishes with
        // it. Clear in place so externally held clients see it empty.
        self.directory.update(|d| {
            *d = tamp_directory::Directory::new();
            (true, ())
        });
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        match msg {
            Message::Heartbeat(hb) => {
                let header = HeartbeatHeader {
                    from: hb.from,
                    level: hb.level,
                    is_leader: hb.is_leader,
                    backup: hb.backup,
                    latest_update_seq: hb.latest_update_seq,
                };
                self.handle_heartbeat(ctx, header, &hb.record)
            }
            Message::Update(u) => self.handle_update(ctx, meta, u),
            Message::DirectoryExchange(d) => self.handle_exchange(
                ctx,
                meta,
                d.from,
                d.reply_wanted,
                d.latest_seq,
                d.records.iter().map(|r| &r.record),
            ),
            Message::SyncRequest(q) => self.handle_sync_request(ctx, q),
            Message::SyncResponse(r) => self.handle_sync_response(
                ctx,
                r.from,
                r.latest_seq,
                r.records.iter().map(|r| &r.record),
            ),
            Message::Election(e) => self.handle_election(ctx, e),
            Message::Digest(d) => {
                self.handle_digest(ctx, meta, d.from, d.level, d.entries.iter().copied())
            }
            // Proxy / gossip / RPC traffic is handled by other actors.
            _ => {}
        }
    }

    /// Zero-copy receive: heartbeats — the overwhelming share of packets
    /// — digests and full-view transfers (sync responses, directory
    /// exchanges) are read straight off the wire bytes; all funnel into
    /// the same generic handlers as the owned path, so the two codec
    /// modes cannot diverge. Everything else materializes once and takes
    /// the owned dispatch.
    fn on_packet_view(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        view: &tamp_wire::MessageView<'_>,
    ) {
        if let Some(hb) = view.as_heartbeat() {
            // Header fields come straight off the borrowed view; the
            // record is only materialized when the directory actually
            // stores it (first join, incarnation bump, content
            // republish) or a refutation must carry it.
            let header = HeartbeatHeader {
                from: hb.from,
                level: hb.level,
                is_leader: hb.is_leader,
                backup: hb.backup,
                latest_update_seq: hb.latest_update_seq,
            };
            self.handle_heartbeat(ctx, header, hb.record);
        } else if let Some(d) = view.as_digest() {
            self.handle_digest(ctx, meta, d.from, d.level, d.entries());
        } else if let Some(r) = view.as_sync_response() {
            self.handle_sync_response(ctx, r.from, r.latest_seq, r.records.map(|r| r.record));
        } else if let Some(d) = view.as_directory_exchange() {
            let records = d.records.map(|r| r.record);
            self.handle_exchange(ctx, meta, d.from, d.reply_wanted, d.latest_seq, records);
        } else {
            self.on_packet(ctx, meta, &view.to_owned());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let (kind, level) = token_kind(token);
        match kind {
            T_HEARTBEAT => {
                self.send_heartbeats(ctx);
                ctx.set_timer(self.cfg.heartbeat_period, T_HEARTBEAT);
            }
            T_SWEEP => {
                self.sweep(ctx);
                ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
            }
            T_DIGEST => {
                self.send_digests(ctx);
                ctx.set_timer(self.cfg.anti_entropy_period, T_DIGEST);
            }
            T_ELECTION if self.groups.get(level as usize).is_some_and(|g| g.is_some()) => {
                self.start_or_progress_election(ctx, level);
                self.update_probe();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tamp_wire::SyncResponse;

    #[test]
    fn token_encoding_roundtrip() {
        for level in [0u8, 1, 3, 255] {
            let t = election_token(level);
            assert_eq!(token_kind(t), (T_ELECTION, level));
        }
        assert_eq!(token_kind(T_HEARTBEAT), (T_HEARTBEAT, 0));
    }

    #[test]
    fn node_exposes_client_and_probe() {
        let node = MembershipNode::new(NodeId(4), MembershipConfig::default());
        assert_eq!(node.id(), NodeId(4));
        let c = node.directory_client();
        assert_eq!(c.member_count(), 0, "empty before start");
        let p = node.probe();
        assert_eq!(p.lock().incarnation, 0);
    }

    pub(crate) fn drive(
        node: &mut MembershipNode,
        now: u64,
        f: impl FnOnce(&mut MembershipNode, &mut Context),
    ) -> Vec<tamp_netsim::Effect> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let host = tamp_topology::HostId(node.me.0);
        tamp_netsim::collect_effects(now, host, &mut rng, |ctx| f(node, ctx))
    }

    /// The messages among `effects`, with their unicast destination
    /// (`None` for a multicast).
    pub(crate) fn sent(effects: &[tamp_netsim::Effect]) -> Vec<(Option<u32>, &Message)> {
        use tamp_netsim::{Destination, Effect};
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { dest, msg } => Some((
                    match dest {
                        Destination::Unicast(h) => Some(h.0),
                        Destination::Multicast { .. } => None,
                    },
                    msg,
                )),
                _ => None,
            })
            .collect()
    }

    /// The protocol events among `effects` whose kind is one of
    /// `kinds`, in emission order.
    pub(crate) fn emitted(effects: &[tamp_netsim::Effect], kinds: &[&str]) -> Vec<ProtocolEvent> {
        effects
            .iter()
            .filter_map(|e| match e {
                tamp_netsim::Effect::Emit(ev) if kinds.contains(&ev.name()) => Some(*ev),
                _ => None,
            })
            .collect()
    }

    /// `events` as an update multicast by [`LEADER`] into level 0.
    pub(crate) fn update(
        node: &mut MembershipNode,
        now: u64,
        first_seq: u64,
        events: Vec<tamp_wire::MemberEvent>,
    ) -> Vec<tamp_netsim::Effect> {
        let events = events
            .into_iter()
            .zip(first_seq..)
            .map(|(event, seq)| tamp_wire::SeqEvent { seq, event })
            .collect();
        let msg = Message::Update(tamp_wire::UpdateMsg {
            origin: LEADER,
            events,
        });
        let meta = from_leader(Some(ChannelId(0)));
        drive(node, now, |n, ctx| n.on_packet(ctx, meta, &msg))
    }

    pub(crate) const LEADER: NodeId = NodeId(3);

    pub(crate) fn from_leader(channel: Option<ChannelId>) -> PacketMeta {
        PacketMeta {
            src: tamp_topology::HostId(LEADER.0),
            channel,
            ttl: channel.map(|_| 1),
            size: 0,
        }
    }

    /// A full-view answer from [`LEADER`] carrying nodes `ids`.
    pub(crate) fn sync_response(ids: std::ops::RangeInclusive<u32>) -> Message {
        let records = ids
            .map(|i| tamp_wire::RelayedRecord {
                record: NodeRecord::new(NodeId(i), 1).with_attr("rack", format!("r{i}")),
                relayed_by: None,
            })
            .collect();
        Message::SyncResponse(SyncResponse {
            from: LEADER,
            latest_seq: 0,
            records,
        })
    }

    /// Node 5, started, holding nodes 1..=8 off one sync from [`LEADER`].
    pub(crate) fn synced_node() -> MembershipNode {
        synced_node_with(MembershipConfig::default())
    }

    pub(crate) fn synced_node_with(cfg: MembershipConfig) -> MembershipNode {
        let mut node = MembershipNode::new(NodeId(5), cfg);
        drive(&mut node, 0, |n, ctx| n.on_start(ctx));
        let sync = sync_response(1..=8);
        drive(&mut node, 1, |n, ctx| {
            n.on_packet(ctx, from_leader(None), &sync)
        });
        assert_eq!(node.directory.read(|d| d.len()), 8);
        node
    }

    /// A level-0 heartbeat from node `from` at incarnation 1.
    pub(crate) fn hear(
        node: &mut MembershipNode,
        now: u64,
        from: u32,
        is_leader: bool,
        latest: u64,
    ) {
        let hb = Heartbeat {
            from: NodeId(from),
            level: 0,
            seq: 1,
            is_leader,
            backup: None,
            latest_update_seq: latest,
            record: NodeRecord::new(NodeId(from), 1),
        };
        let meta = from_leader(Some(ChannelId(0)));
        drive(node, now, |n, ctx| {
            n.on_packet(ctx, meta, &Message::Heartbeat(hb))
        });
    }

    /// The published probe, checked against what publishing right now
    /// would give.
    fn truthful_probe(node: &MembershipNode) -> ProbeState {
        let published = node.probe.lock().clone();
        node.update_probe();
        assert_eq!(published, *node.probe.lock(), "published probe is stale");
        published
    }

    #[test]
    fn heartbeats_publish_the_probe_when_and_only_when_it_moved() {
        use tamp_topology::MILLIS;
        let mut node = MembershipNode::new(NodeId(5), MembershipConfig::default());
        drive(&mut node, 0, |n, ctx| n.on_start(ctx));
        let members = node.directory_client();
        truthful_probe(&node);
        assert_eq!(members.member_count(), 1);

        // A new member, then a leader: each visible before any sweep.
        hear(&mut node, MILLIS, 7, false, 0);
        truthful_probe(&node);
        assert_eq!(members.member_count(), 2);
        hear(&mut node, 2 * MILLIS, 3, true, 0);
        let p = truthful_probe(&node);
        assert_eq!((members.member_count(), p.leaders[0]), (3, Some(NodeId(3))));

        // Steady state: nothing the probe carries moves, so nothing is
        // published (the marker survives) and nothing is missed.
        node.probe.lock().incarnation = u64::MAX;
        for i in 0..1000u64 {
            let (from, is_leader) = if i % 2 == 0 { (7, false) } else { (3, true) };
            hear(&mut node, (3 + i) * 50 * MILLIS, from, is_leader, 0);
        }
        assert_eq!(node.probe.lock().incarnation, u64::MAX);
        node.probe.lock().incarnation = node.incarnation;
        assert_eq!(truthful_probe(&node), p);

        // A lower-id rival takes the group over from the leader we follow.
        hear(&mut node, 60_000 * MILLIS, 2, true, 0);
        assert_eq!(truthful_probe(&node).leaders[0], Some(NodeId(2)));
    }

    #[test]
    fn sweeps_publish_the_probe_when_and_only_when_it_moved() {
        use tamp_topology::MILLIS;
        let mut node = MembershipNode::new(NodeId(5), MembershipConfig::default());
        drive(&mut node, 0, |n, ctx| n.on_start(ctx));
        let sweep = |node: &mut MembershipNode, now: u64| {
            drive(node, now, |n, ctx| n.sweep(ctx));
        };
        // Leader 3, and member 2: below our id, so losing the leader
        // makes us no candidate whose own step would publish the loss.
        hear(&mut node, MILLIS, 3, true, 0);
        hear(&mut node, MILLIS, 2, false, 0);
        let p = truthful_probe(&node);
        assert_eq!(p.leaders[0], Some(NodeId(3)));

        // Idle sweeps between heartbeats: nothing the probe carries
        // moves, so nothing is published (the marker survives).
        node.probe.lock().incarnation = u64::MAX;
        let mut now = MILLIS;
        for _ in 0..50 {
            now += 100 * MILLIS;
            hear(&mut node, now, 3, true, 0);
            hear(&mut node, now, 2, false, 0);
            sweep(&mut node, now);
        }
        assert_eq!(node.probe.lock().incarnation, u64::MAX);
        node.probe.lock().incarnation = node.incarnation;
        assert_eq!(truthful_probe(&node), p);

        // The leader falls silent: the sweep that times it out publishes
        // the loss.
        let lost = (0..200).find(|_| {
            now += 100 * MILLIS;
            hear(&mut node, now, 2, false, 0);
            sweep(&mut node, now);
            truthful_probe(&node).leaders[0] != Some(NodeId(3))
        });
        assert!(lost.is_some(), "the silent leader was never timed out");
    }

    #[test]
    fn register_service_and_update_value_rebuild_record() {
        let mut node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        node.register_service(tamp_wire::ServiceDecl::new(
            "cache",
            tamp_wire::PartitionSet::from_iter([1]),
        ));
        node.update_value("load", "0.3");
        assert!(node.record.services.iter().any(|s| s.name == "cache"));
        assert!(node
            .record
            .attrs
            .iter()
            .any(|(k, v)| k == "load" && v == "0.3"));
        node.update_value("load", "0.9");
        assert_eq!(
            node.record
                .attrs
                .iter()
                .filter(|(k, _)| k == "load")
                .count(),
            1,
            "update_value must replace, not append"
        );
        node.delete_value("load");
        assert!(!node.record.attrs.iter().any(|(k, _)| k == "load"));
    }

    #[test]
    fn heartbeat_is_padded_to_paper_size() {
        let cfg = MembershipConfig::default();
        let node = MembershipNode::new(NodeId(1), cfg);
        let msg = Message::Heartbeat(Heartbeat {
            from: node.me,
            level: 0,
            seq: 1,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: node.record.clone(),
        });
        assert_eq!(tamp_wire::codec::encoded_len(&msg), 228);
    }

    #[test]
    fn level_of_channel_maps_back() {
        let node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        assert_eq!(node.level_of_channel(ChannelId(0)), Some(0));
        assert_eq!(node.level_of_channel(ChannelId(3)), Some(3));
        assert_eq!(node.level_of_channel(ChannelId(9)), None);
    }

    #[test]
    fn relay_levels_excludes_arrival_and_respects_roles() {
        let mut node = MembershipNode::new(NodeId(1), MembershipConfig::default());
        // Manually wire: active at 0 (member), 1 (leader of 0), leader at 1 too.
        node.groups[0] = Some(GroupState::new(0, 0));
        node.groups[0].as_mut().unwrap().leader = Some(NodeId(1));
        node.groups[1] = Some(GroupState::new(1, 0));
        node.groups[1].as_mut().unwrap().leader = Some(NodeId(0));
        // Event arrived at level 1: relay into level 0 (we lead it), not
        // level 1 (arrival), nothing above.
        assert_eq!(node.relay_levels(1), vec![0]);
        // Event arrived at level 0: we lead level 0? yes (but arrival) —
        // relay upward into level 1.
        assert_eq!(node.relay_levels(0), vec![1]);
    }
}
