//! Service provider: the Neptune provider module + a service-specific
//! handler with a simple FIFO processing model.

use tamp_membership::{Hosted, MembershipConfig, MembershipNode, Role};
use tamp_netsim::{Context, IntMap, Nanos, PacketMeta, MILLIS};
use tamp_wire::{Message, NodeId, ServiceRequest, ServiceResponse};

/// Poll marker payload for the random-polling load balancer: a provider
/// answers a request with this payload immediately with its current
/// queue length instead of doing work.
pub const POLL_PAYLOAD: &[u8] = b"\x00__POLL";

/// Response payload size in bytes.
pub const RESPONSE_SIZE: usize = 64;

/// Tunables of one provider node.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Embedded membership configuration; `membership.services` declares
    /// what this provider serves.
    pub membership: MembershipConfig,
    /// Time to process one request (FIFO; requests queue behind each
    /// other).
    pub service_time: Nanos,
}

impl ProviderConfig {
    pub fn new(membership: MembershipConfig, service_time: Nanos) -> Self {
        ProviderConfig {
            membership,
            service_time,
        }
    }
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            membership: MembershipConfig::default(),
            service_time: 10 * MILLIS,
        }
    }
}

const T_DONE: u64 = 5 << 32;

/// A cluster node that serves requests for its registered services: a
/// [`Role`] hosted beside the membership daemon that publishes them.
pub struct ProviderNode {
    cfg: ProviderConfig,
    me: NodeId,
    /// When the currently queued work drains.
    busy_until: Nanos,
    /// Requests queued but not yet answered.
    queue_len: u32,
    /// Completion-timer sequence → response to send.
    in_service: IntMap<u64, (NodeId, u64)>,
    next_done: u64,
}

impl ProviderNode {
    /// A provider and its membership daemon, ready to install.
    pub fn new(me: NodeId, cfg: ProviderConfig) -> Hosted<Self> {
        let daemon = MembershipNode::new(me, cfg.membership.clone());
        Hosted::new(daemon, ProviderNode::role(me, cfg))
    }

    fn role(me: NodeId, cfg: ProviderConfig) -> Self {
        ProviderNode {
            me,
            busy_until: 0,
            queue_len: 0,
            in_service: IntMap::default(),
            next_done: 0,
            cfg,
        }
    }

    /// Current queue length (what a poll reports).
    pub fn queue_len(&self) -> u32 {
        self.queue_len
    }

    fn handle_request(&mut self, ctx: &mut Context, req: &ServiceRequest) {
        if req.payload == POLL_PAYLOAD {
            // Random-polling probe: answer with the queue length, no work.
            ctx.send_unicast(
                req.from,
                Message::ServiceResponse(ServiceResponse {
                    id: req.id,
                    from: self.me,
                    ok: true,
                    payload: self.queue_len.to_le_bytes().to_vec(),
                }),
            );
            return;
        }
        let now = ctx.now();
        let start = self.busy_until.max(now);
        self.busy_until = start + self.cfg.service_time;
        self.queue_len += 1;
        self.next_done += 1;
        let token = T_DONE | self.next_done;
        self.in_service.insert(self.next_done, (req.from, req.id));
        ctx.set_timer(self.busy_until - now, token);
    }
}

impl Role for ProviderNode {
    /// Service RPC: requests are served, stray responses dropped.
    fn claims(&self, kind: &str, _meta: PacketMeta) -> bool {
        matches!(kind, "svc-req" | "svc-resp")
    }

    fn reset(&mut self) {
        self.busy_until = 0;
        self.queue_len = 0;
        self.in_service.clear();
    }

    fn on_packet(&mut self, _: &MembershipNode, ctx: &mut Context, _: PacketMeta, msg: &Message) {
        if let Message::ServiceRequest(r) = msg {
            self.handle_request(ctx, r);
        }
    }

    fn on_timer(&mut self, _daemon: &MembershipNode, ctx: &mut Context, token: u64) {
        if token & !0xffff_ffff == T_DONE {
            if let Some((reply_to, id)) = self.in_service.remove(&(token & 0xffff_ffff)) {
                self.queue_len = self.queue_len.saturating_sub(1);
                ctx.send_unicast(
                    reply_to,
                    Message::ServiceResponse(ServiceResponse {
                        id,
                        from: self.me,
                        ok: true,
                        payload: vec![0u8; RESPONSE_SIZE],
                    }),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tamp_netsim::{collect_effects, Destination, Effect};
    use tamp_topology::HostId;

    fn drive_request(provider: &mut ProviderNode, now: Nanos, payload: Vec<u8>) -> Vec<Effect> {
        let mut rng = StdRng::seed_from_u64(1);
        collect_effects(now, HostId(1), &mut rng, |ctx| {
            provider.handle_request(
                ctx,
                &ServiceRequest {
                    id: 42,
                    from: NodeId(9),
                    service: "doc".into(),
                    partition: 0,
                    payload,
                    hops_left: 0,
                },
            );
        })
    }

    #[test]
    fn poll_answers_immediately_with_queue_length() {
        let mut p = ProviderNode::role(NodeId(1), ProviderConfig::default());
        p.queue_len = 3;
        let effects = drive_request(&mut p, 0, POLL_PAYLOAD.to_vec());
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            Effect::Send {
                dest: Destination::Unicast(h),
                msg: Message::ServiceResponse(r),
            } => {
                assert_eq!(h.0, 9);
                assert_eq!(r.payload, 3u32.to_le_bytes().to_vec());
                assert!(r.ok);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(p.queue_len, 3, "polls must not enqueue work");
    }

    #[test]
    fn requests_queue_fifo() {
        let mut p = ProviderNode::role(NodeId(1), ProviderConfig::default());
        // Two back-to-back requests at t=0: completions at 10ms and 20ms.
        let e1 = drive_request(&mut p, 0, vec![1]);
        let e2 = drive_request(&mut p, 0, vec![2]);
        let delay = |e: &[Effect]| match e[0] {
            Effect::SetTimer { delay, .. } => delay,
            _ => panic!(),
        };
        assert_eq!(delay(&e1), 10 * MILLIS);
        assert_eq!(delay(&e2), 20 * MILLIS);
        assert_eq!(p.queue_len(), 2);
    }

    #[test]
    fn idle_provider_starts_fresh() {
        let mut p = ProviderNode::role(NodeId(1), ProviderConfig::default());
        let _ = drive_request(&mut p, 0, vec![1]);
        // Next request arrives long after the queue drained.
        let e = drive_request(&mut p, 100 * MILLIS, vec![2]);
        match e[0] {
            Effect::SetTimer { delay, .. } => assert_eq!(delay, 10 * MILLIS),
            _ => panic!(),
        }
    }
}
