//! A service hosted beside its membership daemon (paper §5: every
//! service process runs `MService` next to it; §3.2: a proxy is a full
//! cluster member too).
//!
//! A [`Role`] is what a host does besides membership — a proxy, a
//! provider, a gateway, a load generator. [`Hosted`] is the one actor
//! that runs a role next to its [`MembershipNode`], and the only place
//! that knows three rules:
//!
//! * **Restart after a crash.** The daemon resets its own soft state;
//!   the role's ([`Role::reset`]) is reset once, when the host comes
//!   back, before either of them starts again.
//! * **Timer tokens.** Tokens below [`ROLE_TOKENS`] are the daemon's;
//!   a role arms only tokens at or above it and gets every such timer
//!   back, unchanged.
//! * **Packet ownership.** A role claims the kinds it handles
//!   ([`Role::claims`]) and receives them owned; everything else goes
//!   to the daemon — through its zero-copy path when the driver delivers
//!   wire views, so a role never costs the heartbeat flood a decode.

use crate::node::{MembershipNode, Probe};
use tamp_directory::DirectoryClient;
use tamp_netsim::{Actor, Context, PacketMeta};
use tamp_wire::{Message, MessageView};

/// The first timer token a role may arm: the daemon's tokens all sit
/// below it (kind in the low byte, group level in the next).
pub const ROLE_TOKENS: u64 = 1 << 32;

/// What a host runs beside its membership daemon. Every callback gets
/// the daemon read-only: its view is what a role routes by.
pub trait Role: Send {
    /// Is a packet of this [`Message::kind`] arriving as `meta` this
    /// role's? Claimed packets never reach the daemon.
    fn claims(&self, kind: &str, meta: PacketMeta) -> bool;

    /// The host started, first boot or revival; the daemon already has.
    fn on_start(&mut self, _daemon: &MembershipNode, _ctx: &mut Context) {}

    /// Forget the soft state a crash loses. Called once per restart.
    fn reset(&mut self);

    /// A packet this role [claimed](Role::claims).
    fn on_packet(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        meta: PacketMeta,
        msg: &Message,
    );

    /// A timer this role armed (`token >= ROLE_TOKENS`).
    fn on_timer(&mut self, daemon: &MembershipNode, ctx: &mut Context, token: u64);
}

/// A role and its membership daemon, installed as one actor.
pub struct Hosted<R> {
    daemon: MembershipNode,
    role: R,
    crashed: bool,
}

impl<R: Role> Hosted<R> {
    pub fn new(daemon: MembershipNode, role: R) -> Self {
        Hosted {
            daemon,
            role,
            crashed: false,
        }
    }

    pub fn role(&self) -> &R {
        &self.role
    }

    /// Yellow pages of the host's cluster (the daemon's).
    pub fn directory_client(&self) -> DirectoryClient {
        self.daemon.directory_client()
    }

    /// Introspection handle of the daemon (leader votes for chaos
    /// target resolution).
    pub fn probe(&self) -> Probe {
        self.daemon.probe()
    }
}

impl<R: Role> Actor for Hosted<R> {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            self.crashed = false;
            self.role.reset();
        }
        self.daemon.on_start(ctx);
        self.role.on_start(&self.daemon, ctx);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.daemon.on_crash();
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        if self.role.claims(msg.kind(), meta) {
            self.role.on_packet(&self.daemon, ctx, meta, msg);
        } else {
            self.daemon.on_packet(ctx, meta, msg);
        }
    }

    fn on_packet_view(&mut self, ctx: &mut Context, meta: PacketMeta, view: &MessageView<'_>) {
        if self.role.claims(view.kind(), meta) {
            self.role
                .on_packet(&self.daemon, ctx, meta, &view.to_owned());
        } else {
            self.daemon.on_packet_view(ctx, meta, view);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token < ROLE_TOKENS {
            self.daemon.on_timer(ctx, token);
        } else {
            self.role.on_timer(&self.daemon, ctx, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MembershipConfig;
    use rand::SeedableRng;
    use tamp_netsim::{collect_effects, ChannelId, Effect};
    use tamp_topology::HostId;
    use tamp_wire::{Heartbeat, NodeId, NodeRecord, ServiceResponse};

    /// Claims service responses; records what reached it.
    #[derive(Default)]
    struct Echo {
        packets: Vec<&'static str>,
        timers: Vec<u64>,
        resets: u32,
        starts: u32,
    }

    impl Role for Echo {
        fn claims(&self, kind: &str, _meta: PacketMeta) -> bool {
            kind == "svc-resp"
        }
        fn on_start(&mut self, _daemon: &MembershipNode, _ctx: &mut Context) {
            self.starts += 1;
        }
        fn reset(&mut self) {
            self.resets += 1;
        }
        fn on_packet(&mut self, _: &MembershipNode, _: &mut Context, _: PacketMeta, msg: &Message) {
            self.packets.push(msg.kind());
        }
        fn on_timer(&mut self, _daemon: &MembershipNode, _ctx: &mut Context, token: u64) {
            self.timers.push(token);
        }
    }

    fn drive(
        h: &mut Hosted<Echo>,
        now: u64,
        f: impl FnOnce(&mut Hosted<Echo>, &mut Context),
    ) -> Vec<Effect> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        collect_effects(now, HostId(5), &mut rng, |ctx| f(h, ctx))
    }

    fn started() -> Hosted<Echo> {
        let mut h = Hosted::new(
            MembershipNode::new(NodeId(5), MembershipConfig::default()),
            Echo::default(),
        );
        drive(&mut h, 0, |h, ctx| h.on_start(ctx));
        h
    }

    fn heartbeat(from: u32) -> Message {
        Message::Heartbeat(Heartbeat {
            from: NodeId(from),
            level: 0,
            seq: 1,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: NodeRecord::new(NodeId(from), 1),
        })
    }

    fn response() -> Message {
        Message::ServiceResponse(ServiceResponse {
            id: 1,
            from: NodeId(9),
            ok: true,
            payload: Vec::new(),
        })
    }

    #[test]
    fn claimed_kinds_reach_the_role_and_the_rest_the_daemon() {
        let mut h = started();
        let members = h.directory_client();
        assert_eq!(members.member_count(), 1, "the daemon's self-entry");
        let level0 = PacketMeta::multicast(HostId(7), ChannelId(0), 1, 228);
        let unicast = PacketMeta::unicast(HostId(9), 64);

        // Owned.
        drive(&mut h, 1, |h, ctx| h.on_packet(ctx, level0, &heartbeat(7)));
        drive(&mut h, 2, |h, ctx| h.on_packet(ctx, unicast, &response()));
        assert_eq!(
            members.member_count(),
            2,
            "the heartbeat reached the daemon"
        );
        assert_eq!(h.role().packets, ["svc-resp"]);

        // Borrowed: a view of each, through the same split.
        for (now, meta, msg) in [(3, level0, heartbeat(8)), (4, unicast, response())] {
            let bytes = tamp_wire::codec::encode(&msg);
            let view = MessageView::parse(&bytes).unwrap();
            drive(&mut h, now, |h, ctx| h.on_packet_view(ctx, meta, &view));
        }
        assert_eq!(members.member_count(), 3, "the view reached the daemon");
        assert_eq!(h.role().packets, ["svc-resp", "svc-resp"]);
    }

    #[test]
    fn timers_go_to_whoever_armed_them() {
        let mut h = started();
        // A role token: the daemon does nothing (no heartbeat, no re-arm).
        let effects = drive(&mut h, 1, |h, ctx| h.on_timer(ctx, ROLE_TOKENS | 3));
        assert!(effects.is_empty(), "{effects:?}");
        assert_eq!(h.role().timers, [ROLE_TOKENS | 3]);
        // The daemon's heartbeat timer: heartbeats out, re-armed below
        // ROLE_TOKENS, and the role never hears of it.
        let effects = drive(&mut h, 2, |h, ctx| h.on_timer(ctx, 1));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: Message::Heartbeat(_),
                ..
            }
        )));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::SetTimer { token, .. } if *token < ROLE_TOKENS)));
        assert_eq!(h.role().timers, [ROLE_TOKENS | 3]);
    }

    #[test]
    fn a_restart_after_a_crash_resets_the_role_once() {
        let mut h = started();
        assert_eq!((h.role().starts, h.role().resets), (1, 0), "first boot");
        h.on_crash();
        drive(&mut h, 10, |h, ctx| h.on_start(ctx));
        assert_eq!((h.role().starts, h.role().resets), (2, 1));
        // A start with no crash before it is no restart.
        drive(&mut h, 20, |h, ctx| h.on_start(ctx));
        assert_eq!((h.role().starts, h.role().resets), (3, 1));
        h.on_crash();
        drive(&mut h, 30, |h, ctx| h.on_start(ctx));
        assert_eq!((h.role().starts, h.role().resets), (4, 2));
        assert_eq!(h.probe().lock().incarnation, 4, "the daemon restarted too");
    }
}
