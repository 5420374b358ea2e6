//! The sans-io protocol interface: [`Actor`] and [`Context`].
//!
//! An actor is one protocol endpoint running on one host. It never touches
//! sockets or clocks directly: the driver (this simulator, or the real-UDP
//! runtime in `tamp-runtime`) invokes its callbacks and executes the
//! [`Effect`]s it queues on the [`Context`]. This keeps every protocol in
//! the workspace testable in isolation and byte-identical across virtual
//! and real time.

use crate::packet::{ChannelId, Destination, PacketMeta};
use crate::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use tamp_topology::HostId;
use tamp_wire::{CodecKind, Message, MessageView, NodeId};

/// A protocol endpoint on one host.
pub trait Actor: Send {
    /// Called once when the host starts (and again after a revival).
    fn on_start(&mut self, ctx: &mut Context);

    /// A packet arrived.
    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message);

    /// A packet arrived as a validated borrowed view over its wire
    /// bytes. Drivers that hold encoded frames (the real-UDP runtime,
    /// the engine's opt-in wire-codec mode) reach this through
    /// [`Actor::on_wire_packet`] instead of [`Actor::on_packet`], so
    /// actors can read hot-path fields without materializing an owned
    /// [`Message`]. The default materializes and delegates, so actors
    /// only override this where zero-copy pays.
    fn on_packet_view(&mut self, ctx: &mut Context, meta: PacketMeta, view: &MessageView<'_>) {
        self.on_packet(ctx, meta, &view.to_owned());
    }

    /// A packet arrived as raw wire bytes: validates a [`MessageView`]
    /// into [`Actor::on_packet_view`]. Undecodable frames are dropped
    /// silently, as a real UDP receive loop would. `_kind` has one
    /// value and is read by nothing ([`CodecKind`] says why it is here).
    fn on_wire_packet(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        bytes: &[u8],
        _kind: CodecKind,
    ) {
        if let Ok(view) = MessageView::parse(bytes) {
            self.on_packet_view(ctx, meta, &view);
        }
    }

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context, token: u64);

    /// The host crashed (fail-stop). State is *not* wiped automatically —
    /// a real crash loses memory, so actors that support revival should
    /// reset themselves here. Default: no-op.
    fn on_crash(&mut self) {}
}

/// One queued side effect of an actor callback.
#[derive(Debug, Clone)]
pub enum Effect {
    Send {
        dest: Destination,
        msg: Message,
    },
    SetTimer {
        delay: SimTime,
        token: u64,
    },
    Subscribe(ChannelId),
    Unsubscribe(ChannelId),
    /// Add `n` to the telemetry counter `(me, subsystem, name)`.
    Count {
        subsystem: &'static str,
        name: &'static str,
        n: u64,
    },
    /// Record one protocol fact. The driver derives everything else
    /// from it: the counter `events/<kind>`, the trace record, the
    /// observation ([`crate::ObservationKind::of`]) and the event's
    /// histogram sample ([`tamp_telemetry::ProtocolEvent::histogram`]).
    Emit(tamp_telemetry::ProtocolEvent),
}

/// Capability handle passed to actor callbacks.
///
/// All methods queue effects; the driver applies them after the callback
/// returns, in order.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) me: HostId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> Context<'a> {
    /// Construct a context over caller-provided buffers. Public so that
    /// actor unit tests and alternative drivers (`tamp-runtime`) can
    /// drive actors without an [`crate::Engine`].
    #[inline]
    pub fn new(
        now: SimTime,
        me: HostId,
        rng: &'a mut StdRng,
        effects: &'a mut Vec<Effect>,
    ) -> Self {
        Context {
            now,
            me,
            rng,
            effects,
        }
    }

    /// Current virtual (or real, under `tamp-runtime`) time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This host's id.
    #[inline]
    pub fn me(&self) -> HostId {
        self.me
    }

    /// This host's protocol identity (numerically identical to `me`).
    #[inline]
    pub fn node_id(&self) -> NodeId {
        NodeId(self.me.0)
    }

    /// Send a unicast message.
    #[inline]
    pub fn send_unicast(&mut self, to: NodeId, msg: Message) {
        self.effects.push(Effect::Send {
            dest: Destination::Unicast(HostId(to.0)),
            msg,
        });
    }

    /// Send a TTL-scoped multicast on `channel`.
    #[inline]
    pub fn send_multicast(&mut self, channel: ChannelId, ttl: u8, msg: Message) {
        self.effects.push(Effect::Send {
            dest: Destination::Multicast { channel, ttl },
            msg,
        });
    }

    /// Arrange for [`Actor::on_timer`] to fire with `token` after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.effects.push(Effect::SetTimer { delay, token });
    }

    /// Join a multicast channel (start receiving packets whose TTL covers
    /// the distance from their sender to this host).
    #[inline]
    pub fn subscribe(&mut self, channel: ChannelId) {
        self.effects.push(Effect::Subscribe(channel));
    }

    /// Leave a multicast channel.
    #[inline]
    pub fn unsubscribe(&mut self, channel: ChannelId) {
        self.effects.push(Effect::Unsubscribe(channel));
    }

    /// Add `n` to this host's telemetry counter `subsystem/name`: a
    /// tally that is no membership fact (the load generator's request
    /// counts). Facts are [`Context::emit`]ted. No-op when the driver
    /// runs without a metrics registry.
    #[inline]
    pub fn count(&mut self, subsystem: &'static str, name: &'static str, n: u64) {
        self.effects.push(Effect::Count { subsystem, name, n });
    }

    /// Record a protocol fact (heartbeat sent, suspicion armed, member
    /// removed and why, …): the one recording call a protocol makes.
    /// The driver counts it as `events/<kind>`, traces it, and turns
    /// it into an observation where it is one.
    #[inline]
    pub fn emit(&mut self, event: tamp_telemetry::ProtocolEvent) {
        self.effects.push(Effect::Emit(event));
    }

    /// Deterministic uniform random in `[0, n)`.
    #[inline]
    pub fn rand_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Jitter helper: uniform in `[0, max)`, or 0 when `max == 0`. Used
    /// to desynchronize heartbeat phases across nodes.
    #[inline]
    pub fn jitter(&mut self, max: SimTime) -> SimTime {
        self.rand_below(max)
    }
}

/// Drive an actor callback outside an engine (for unit tests and the
/// real-time runtime): runs `f` with a fresh context and returns the
/// effects it queued.
pub fn collect_effects<F>(now: SimTime, me: HostId, rng: &mut StdRng, f: F) -> Vec<Effect>
where
    F: FnOnce(&mut Context),
{
    let mut effects = Vec::new();
    let mut ctx = Context::new(now, me, rng, &mut effects);
    f(&mut ctx);
    effects
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_queues_effects_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let effects = collect_effects(5, HostId(2), &mut rng, |ctx| {
            assert_eq!(ctx.now(), 5);
            assert_eq!(ctx.me(), HostId(2));
            assert_eq!(ctx.node_id(), NodeId(2));
            ctx.subscribe(ChannelId(1));
            ctx.set_timer(100, 7);
            ctx.send_unicast(
                NodeId(3),
                Message::SyncRequest(tamp_wire::SyncRequest {
                    from: NodeId(2),
                    since_seq: 0,
                }),
            );
        });
        assert_eq!(effects.len(), 3);
        assert!(matches!(effects[0], Effect::Subscribe(ChannelId(1))));
        assert!(matches!(
            effects[1],
            Effect::SetTimer {
                delay: 100,
                token: 7
            }
        ));
        assert!(matches!(
            effects[2],
            Effect::Send {
                dest: Destination::Unicast(HostId(3)),
                ..
            }
        ));
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let va: Vec<u64> = {
            let mut effects = Vec::new();
            let mut ctx = Context::new(0, HostId(0), &mut a, &mut effects);
            (0..10).map(|_| ctx.rand_below(1000)).collect()
        };
        let vb: Vec<u64> = {
            let mut effects = Vec::new();
            let mut ctx = Context::new(0, HostId(0), &mut b, &mut effects);
            (0..10).map(|_| ctx.rand_below(1000)).collect()
        };
        assert_eq!(va, vb);
    }

    #[test]
    fn rand_below_zero_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects = Vec::new();
        let mut ctx = Context::new(0, HostId(0), &mut rng, &mut effects);
        assert_eq!(ctx.rand_below(0), 0);
        assert_eq!(ctx.jitter(0), 0);
    }
}
