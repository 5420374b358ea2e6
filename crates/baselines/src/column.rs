//! The shell every baseline column runs in.
//!
//! All-to-all, gossip and SWIM differ in who monitors whom and how news
//! spreads; the rest of a node's life is the same, and [`Baseline`] is
//! the one copy of it:
//!
//! * **Identity.** The node id, its incarnation, the padded record it
//!   exports and the yellow pages it publishes ([`Shell`]).
//! * **Restart.** A crash empties the yellow pages; the restart after it
//!   resets the column once ([`Column::reset`]), empties them again and
//!   publishes the record at the next incarnation.
//! * **Timers.** The first periodic tick fires at a startup jitter plus
//!   the period, the sweep every sweep period; each re-arms after its
//!   handler.
//! * **Reports.** Every yellow-page write a column makes goes through a
//!   [`Shell`] method, and the writes that are reported emit their
//!   event there: `Shell::admit`, `Shell::introduce`, `Shell::remove`,
//!   `Shell::refute`.
//!
//! A column keeps its own books. Those whose iteration reaches an effect
//! are ordered by [`NodeId`] (`take_due`, `Tombstones`), so
//! simultaneous removals leave in ascending id order and a seed replays
//! exactly.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use tamp_directory::{Directory, DirectoryClient, Provenance, SharedDirectory};
use tamp_netsim::telemetry::Declared;
use tamp_netsim::{Actor, Context, Nanos, PacketMeta, ProtocolEvent};
use tamp_wire::{Message, MessageView, NodeId, NodeRecord, RecordPayload, ServiceDecl};

/// What a column fixes about its node besides its books: the record it
/// exports and the pace of its two timers.
pub struct Profile {
    pub services: Vec<ServiceDecl>,
    /// Pad the exported record to this encoded size (0 = no padding).
    pub pad_to: usize,
    /// The first tick fires within this much of `period` after start.
    pub startup_jitter: Nanos,
    /// Tick period: one heartbeat, gossip round or probe.
    pub period: Nanos,
    pub sweep_period: Nanos,
}

/// One baseline protocol: its monitoring relation and its
/// dissemination. Callbacks get the node's [`Shell`] for identity and
/// for every yellow-page write.
pub trait Column: Send + Sized {
    type Config;

    fn new(cfg: Self::Config) -> (Self, Profile);

    /// Forget the soft state a crash loses. Called once per restart.
    fn reset(&mut self);

    /// The node (re)started and published its record; its timers are
    /// not armed yet.
    fn on_start(&mut self, _shell: &mut Shell, _ctx: &mut Context) {}

    fn on_packet(&mut self, shell: &mut Shell, ctx: &mut Context, meta: PacketMeta, msg: &Message);

    fn on_packet_view(
        &mut self,
        shell: &mut Shell,
        ctx: &mut Context,
        meta: PacketMeta,
        view: &MessageView<'_>,
    ) {
        self.on_packet(shell, ctx, meta, &view.to_owned());
    }

    /// Once per [`Profile::period`].
    fn on_tick(&mut self, shell: &mut Shell, ctx: &mut Context);

    /// Once per [`Profile::sweep_period`].
    fn on_sweep(&mut self, shell: &mut Shell, ctx: &mut Context);
}

/// A node's identity and yellow pages: what every column shares.
pub struct Shell {
    me: NodeId,
    incarnation: u64,
    record: NodeRecord,
    directory: SharedDirectory,
    profile: Profile,
}

impl Shell {
    pub(crate) fn me(&self) -> NodeId {
        self.me
    }

    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The record this node exports at its current incarnation.
    pub(crate) fn record(&self) -> &NodeRecord {
        &self.record
    }

    /// Read the yellow pages.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        self.directory.read(f)
    }

    fn rebuild(&mut self) {
        let mut r = NodeRecord::new(self.me, self.incarnation);
        r.services = self.profile.services.clone();
        if self.profile.pad_to > 0 {
            r.pad_to_encoded_size(self.profile.pad_to);
        }
        self.record = r;
    }

    /// Rebuild the record at the current incarnation and publish it.
    fn publish(&mut self, now: Nanos) {
        self.rebuild();
        let rec = self.record.clone();
        self.directory
            .update(|d| (d.apply_join(rec, Provenance::Local, now).changed(), ()));
    }

    fn clear(&self) {
        self.directory.update(|d| {
            *d = Directory::new();
            (true, ())
        });
    }

    /// Join or refresh `node` at incarnation `inc` as heard directly, and
    /// announce it if the yellow pages did not hold it. `make_record`
    /// and `same` are [`Directory::apply_join_with`]'s.
    pub(crate) fn admit(
        &self,
        ctx: &mut Context,
        node: NodeId,
        inc: u64,
        make_record: impl FnOnce() -> NodeRecord,
        same: impl FnOnce(&RecordPayload) -> bool,
    ) {
        let now = ctx.now();
        let (applied, was) = self.directory.update(|d| {
            let (a, was) = d.apply_join_with(node, inc, Provenance::Direct, now, make_record, same);
            (a.changed(), (a, was))
        });
        if applied.changed() && !was {
            ctx.emit(ProtocolEvent::MemberAdded {
                subject: node.0,
                incarnation: inc,
            });
        }
    }

    /// [`Shell::admit`] for a member the column's own book just gained:
    /// announced whatever the yellow pages answer.
    pub(crate) fn introduce(&self, ctx: &mut Context, record: NodeRecord) {
        let event = ProtocolEvent::MemberAdded {
            subject: record.node.0,
            incarnation: record.incarnation,
        };
        self.join(ctx.now(), record);
        ctx.emit(event);
    }

    /// Join or refresh `record` as heard directly, without a report.
    pub(crate) fn join(&self, now: Nanos, record: NodeRecord) {
        self.directory
            .update(|d| (d.apply_join(record, Provenance::Direct, now).changed(), ()));
    }

    /// Withdraw `node` at `incarnation`, without a report: a death
    /// learned about a member this node never held.
    pub(crate) fn withdraw(&self, now: Nanos, node: NodeId, incarnation: u64) {
        self.directory
            .update(|d| (d.apply_leave(node, incarnation, now).changed(), ()));
    }

    /// Declare `node` dead at `incarnation` on the column's own
    /// evidence and report it; a death that `confirms` a suspicion is
    /// reported as that too. The column's book has lost `node`, so the
    /// death is a removal whatever the yellow pages held.
    pub(crate) fn remove(&self, ctx: &mut Context, node: NodeId, incarnation: u64, confirms: bool) {
        self.withdraw(ctx.now(), node, incarnation);
        if confirms {
            ctx.emit(ProtocolEvent::SuspicionConfirmed { subject: node.0 });
        }
        ctx.emit(ProtocolEvent::DeathDeclared {
            subject: node.0,
            incarnation,
            evidence: Declared::Detector,
            removed: true,
        });
    }

    /// [`Shell::remove`] at the incarnation the yellow pages hold; a
    /// member they do not hold is not reported.
    pub(crate) fn remove_held(&self, ctx: &mut Context, node: NodeId) {
        if let Some(inc) = self.directory.read(|d| d.get(node).map(|e| e.incarnation)) {
            self.remove(ctx, node, inc, false);
        }
    }

    /// Refute an accusation at incarnation `accused`: re-incarnate above
    /// it and publish the new record.
    pub(crate) fn refute(&mut self, ctx: &mut Context, accused: u64) {
        self.incarnation = accused + 1;
        self.publish(ctx.now());
        ctx.emit(ProtocolEvent::SelfRefuted {
            incarnation: self.incarnation,
        });
    }
}

/// Remove from `book` every member `due` picks, in ascending id order.
pub(crate) fn take_due<V>(book: &mut BTreeMap<NodeId, V>, due: impl Fn(&V) -> bool) -> Vec<NodeId> {
    let ids: Vec<NodeId> = book
        .iter()
        .filter(|(_, v)| due(v))
        .map(|(&n, _)| n)
        .collect();
    for n in &ids {
        book.remove(n);
    }
    ids
}

/// Members declared dead, in id order, each with what the column keeps
/// of it and the time it may be forgotten. Expiry runs on the sweep: an
/// entry stands until the first sweep at or after its time.
#[derive(Default)]
pub(crate) struct Tombstones<R>(BTreeMap<NodeId, (R, Nanos)>);

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
    pub(crate) fn expire(&mut self, now: Nanos) {
        self.0.retain(|_, &mut (_, until)| now < until);
    }
}

impl Tombstones<NodeRecord> {
    /// Does the tombstone of `node` turn away a record at `incarnation`?
    /// Only a higher incarnation than the buried record's passes.
    pub(crate) fn blocks(&self, node: NodeId, incarnation: u64) -> bool {
        self.0
            .get(&node)
            .is_some_and(|(r, _)| incarnation <= r.incarnation)
    }
}

pub(crate) const T_TICK: u64 = 1;
pub(crate) const T_SWEEP: u64 = 2;

/// A baseline node: the shell and one column, installed as one actor.
pub struct Baseline<C> {
    pub(crate) shell: Shell,
    pub(crate) column: C,
    crashed: bool,
}

impl<C: Column> Baseline<C> {
    pub fn new(me: NodeId, cfg: C::Config) -> Self {
        let (column, profile) = C::new(cfg);
        let mut shell = Shell {
            me,
            incarnation: 0,
            record: NodeRecord::new(me, 0),
            directory: SharedDirectory::new(),
            profile,
        };
        shell.rebuild();
        Baseline {
            shell,
            column,
            crashed: false,
        }
    }

    /// Yellow-page read handle.
    pub fn directory_client(&self) -> DirectoryClient {
        self.shell.directory.client()
    }
}

impl<C: Column> Actor for Baseline<C> {
    fn on_start(&mut self, ctx: &mut Context) {
        let shell = &mut self.shell;
        if self.crashed {
            self.crashed = false;
            self.column.reset();
            shell.clear();
        }
        shell.incarnation += 1;
        shell.publish(ctx.now());
        self.column.on_start(shell, ctx);
        let phase = ctx.jitter(shell.profile.startup_jitter);
        ctx.set_timer(phase + shell.profile.period, T_TICK);
        ctx.set_timer(shell.profile.sweep_period, T_SWEEP);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.shell.clear();
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        self.column.on_packet(&mut self.shell, ctx, meta, msg);
    }

    fn on_packet_view(&mut self, ctx: &mut Context, meta: PacketMeta, view: &MessageView<'_>) {
        self.column.on_packet_view(&mut self.shell, ctx, meta, view);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        match token {
            T_TICK => {
                self.column.on_tick(&mut self.shell, ctx);
                ctx.set_timer(self.shell.profile.period, T_TICK);
            }
            T_SWEEP => {
                self.column.on_sweep(&mut self.shell, ctx);
                ctx.set_timer(self.shell.profile.sweep_period, T_SWEEP);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tamp_netsim::{collect_effects, Effect, ObservationKind, MILLIS, SECS};
    use tamp_topology::HostId;
    use tamp_wire::Heartbeat;

    /// Admits the record of every heartbeat; its sweep removes every
    /// member it has heard.
    #[derive(Default)]
    struct Listener {
        resets: u32,
        heard: BTreeMap<NodeId, Nanos>,
    }

    impl Column for Listener {
        type Config = ();

        fn new(_: ()) -> (Self, Profile) {
            let profile = Profile {
                services: Vec::new(),
                pad_to: 0,
                startup_jitter: 0,
                period: SECS,
                sweep_period: 100 * MILLIS,
            };
            (Listener::default(), profile)
        }

        fn reset(&mut self) {
            self.resets += 1;
            self.heard.clear();
        }

        fn on_packet(
            &mut self,
            shell: &mut Shell,
            ctx: &mut Context,
            _: PacketMeta,
            msg: &Message,
        ) {
            let Message::Heartbeat(hb) = msg else { return };
            self.heard.insert(hb.from, ctx.now());
            let rec = &hb.record;
            shell.admit(
                ctx,
                rec.node,
                rec.incarnation,
                || rec.clone(),
                |held| **rec == *held,
            );
        }

        fn on_tick(&mut self, _: &mut Shell, _: &mut Context) {}

        fn on_sweep(&mut self, shell: &mut Shell, ctx: &mut Context) {
            for n in take_due(&mut self.heard, |_| true) {
                shell.remove_held(ctx, n);
            }
        }
    }

    struct Harness {
        node: Baseline<Listener>,
        rng: StdRng,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                node: Baseline::new(NodeId(1), ()),
                rng: StdRng::seed_from_u64(1),
            }
        }

        fn run(
            &mut self,
            now: Nanos,
            f: impl FnOnce(&mut Baseline<Listener>, &mut Context),
        ) -> Vec<Effect> {
            let node = &mut self.node;
            collect_effects(now, HostId(1), &mut self.rng, |ctx| f(node, ctx))
        }

        fn start(&mut self, now: Nanos) {
            self.run(now, |n, ctx| n.on_start(ctx));
        }

        fn heartbeat(&mut self, now: Nanos, from: u32) {
            let msg = Message::Heartbeat(Heartbeat {
                from: NodeId(from),
                level: 0,
                seq: 1,
                is_leader: false,
                backup: None,
                latest_update_seq: 0,
                record: NodeRecord::new(NodeId(from), 1),
            });
            let meta = PacketMeta::unicast(HostId(from), 100);
            self.run(now, |n, ctx| n.on_packet(ctx, meta, &msg));
        }
    }

    #[test]
    fn restart_after_a_crash_resets_the_column_once_and_clears_the_directory() {
        let mut h = Harness::new();
        let client = h.node.directory_client();
        h.start(0);
        h.heartbeat(SECS, 2);
        assert_eq!(client.member_count(), 2);
        h.node.on_crash();
        assert_eq!(client.member_count(), 0, "a crash empties the yellow pages");
        assert_eq!(h.node.column.resets, 0, "the reset waits for the restart");
        h.start(2 * SECS);
        assert_eq!(h.node.column.resets, 1);
        assert!(h.node.column.heard.is_empty());
        assert_eq!(h.node.shell.incarnation(), 2);
        let view: Vec<_> = client.read(|d| d.entries().map(|e| (e.node, e.incarnation)).collect());
        assert_eq!(
            view,
            vec![(NodeId(1), 2)],
            "only the new incarnation of self"
        );
        h.start(3 * SECS);
        assert_eq!(
            h.node.column.resets, 1,
            "a start without a crash keeps the books"
        );
    }

    #[test]
    fn due_removals_leave_in_ascending_id_order() {
        let mut h = Harness::new();
        h.start(0);
        for from in [5, 3, 9, 4] {
            h.heartbeat(SECS, from);
        }
        let fx = h.run(2 * SECS, |n, ctx| n.on_timer(ctx, T_SWEEP));
        let removed: Vec<NodeId> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Emit(ev) => match ObservationKind::of(ev) {
                    Some(ObservationKind::Removed(n)) => Some(n),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(removed, [3, 4, 5, 9].map(NodeId));
        assert_eq!(h.node.directory_client().member_count(), 1);
    }

    #[test]
    fn a_removal_is_a_death_on_the_columns_own_evidence() {
        let mut h = Harness::new();
        h.start(0);
        h.heartbeat(SECS, 5);
        let fx = h.run(2 * SECS, |n, ctx| n.shell.remove(ctx, NodeId(5), 1, true));
        let events: Vec<ProtocolEvent> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Emit(ev) => Some(*ev),
                _ => None,
            })
            .collect();
        assert_eq!(
            events,
            [
                ProtocolEvent::SuspicionConfirmed { subject: 5 },
                ProtocolEvent::DeathDeclared {
                    subject: 5,
                    incarnation: 1,
                    evidence: Declared::Detector,
                    removed: true,
                },
            ]
        );
        assert_eq!(h.node.directory_client().member_count(), 1);
    }

    #[test]
    fn a_tombstone_blocks_its_incarnation_until_it_expires() {
        let mut dead = Tombstones::default();
        let subject = NodeId(7);
        dead.insert(subject, (NodeRecord::new(subject, 2), 10 * SECS));
        assert!(dead.blocks(subject, 2), "a stale same-incarnation record");
        assert!(dead.blocks(subject, 1));
        assert!(!dead.blocks(subject, 3), "a higher incarnation passes");
        assert!(!dead.blocks(NodeId(8), 1), "no tombstone, nothing blocked");
        dead.expire(10 * SECS - 1);
        assert!(dead.blocks(subject, 2), "stands until its time");
        dead.expire(10 * SECS);
        assert!(!dead.blocks(subject, 2));
        assert!(dead.is_empty());
    }
}
