//! The request router both consumers share (paper §2, Fig. 6). A
//! workflow step is routed with the yellow pages: it goes to an untried
//! local replica of its `(service, partition)` while local attempts
//! remain, then — once per step — to a local membership proxy, which
//! forwards it to a remote data center; after that the step gives up.
//!
//! The router owns that decision and the attempt it sends; the
//! consumer owns its requests, its draws and what a give-up means.

use tamp_membership::MembershipNode;
use tamp_netsim::{Context, Nanos, MILLIS};
use tamp_proxy::PROXY_SERVICE;
use tamp_wire::{Message, NodeId, ServiceRequest};

/// Timer-token tag of an attempt's timeout; the low 32 bits carry the
/// attempt's sequence number.
pub const T_ATTEMPT: u64 = 7 << 32;

/// Payload bytes of a routed request.
const PAYLOAD_SIZE: usize = 96;

/// Local replica attempts per step before the proxy fallback.
pub const MAX_LOCAL_ATTEMPTS: u32 = 2;

/// How a step picks among its untried local replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Uniform random replica choice.
    Random,
    /// Random polling \[20\]: probe two random replicas for queue
    /// length, dispatch to the shorter queue.
    PollTwo,
}

/// Attempt timeouts.
#[derive(Debug, Clone, Copy)]
pub struct RouteConfig {
    /// Per-attempt timeout against a local instance.
    pub request_timeout: Nanos,
    /// Timeout for a proxied (remote DC) attempt.
    pub proxy_timeout: Nanos,
}

impl RouteConfig {
    pub fn new(request_timeout: Nanos) -> Self {
        RouteConfig {
            request_timeout,
            proxy_timeout: 2_000 * MILLIS,
        }
    }
}

/// One step's attempt state against one partition.
#[derive(Debug, Default)]
pub struct Route {
    pub partition: u16,
    /// Local attempts made.
    pub attempts: u32,
    /// Local replicas already tried.
    pub tried: Vec<NodeId>,
    /// The proxy fallback was taken.
    pub used_proxy: bool,
}

impl Route {
    pub fn new(partition: u16) -> Self {
        Route {
            partition,
            ..Route::default()
        }
    }

    /// Start the next step, against `partition`.
    pub fn reset(&mut self, partition: u16) {
        self.partition = partition;
        self.attempts = 0;
        self.tried.clear();
        self.used_proxy = false;
    }
}

/// What [`Router::dispatch`] did.
#[derive(Debug)]
pub enum Dispatch {
    /// An attempt went out under this sequence number.
    Sent(u32),
    /// [`LoadBalance::PollTwo`] with two or more untried replicas: these
    /// are the consumer's to probe before it sends.
    Poll(Vec<NodeId>),
    /// No local attempt left and the proxy fallback spent or absent.
    GaveUp,
}

/// A consumer's routing half: its identity, attempt numbering and
/// timeouts.
#[derive(Debug)]
pub struct Router {
    me: NodeId,
    next_seq: u32,
    cfg: RouteConfig,
}

impl Router {
    pub fn new(me: NodeId, cfg: RouteConfig) -> Self {
        Router {
            me,
            next_seq: 0,
            cfg,
        }
    }

    /// A fresh request id, `me << 32 | seq`, and its `seq`.
    pub fn next_id(&mut self) -> (u32, u64) {
        self.next_seq += 1;
        let seq = self.next_seq;
        (seq, (u64::from(self.me.0) << 32) | u64::from(seq))
    }

    /// Route the next attempt of `route`'s step on `service`: a local
    /// replica picked by `lb` (a uniform pick is `draw(ctx, n)`), else a
    /// proxy picked by `draw`, else give up.
    pub fn dispatch(
        &mut self,
        ctx: &mut Context,
        node: &MembershipNode,
        route: &mut Route,
        service: &str,
        lb: LoadBalance,
        draw: &mut impl FnMut(&mut Context, u64) -> u64,
    ) -> Dispatch {
        let resolved = node.resolve_service(service, Some(route.partition));
        let candidates: Vec<NodeId> = (resolved.iter().copied())
            .filter(|n| !route.tried.contains(n))
            .collect();
        if !candidates.is_empty() && route.attempts < MAX_LOCAL_ATTEMPTS {
            let target = match lb {
                LoadBalance::Random => candidates[draw(ctx, candidates.len() as u64) as usize],
                LoadBalance::PollTwo if candidates.len() == 1 => candidates[0],
                LoadBalance::PollTwo => return Dispatch::Poll(candidates),
            };
            return Dispatch::Sent(self.send(ctx, route, target, false, service));
        }
        if !route.used_proxy {
            let proxies = node.resolve_service(PROXY_SERVICE, None);
            if !proxies.is_empty() {
                let proxy = proxies[draw(ctx, proxies.len() as u64) as usize];
                return Dispatch::Sent(self.send(ctx, route, proxy, true, service));
            }
        }
        Dispatch::GaveUp
    }

    /// Send one attempt of `route`'s step to `target` and arm its
    /// timeout: a local replica counts against the step's local
    /// attempts and is not tried again; a proxy may forward it two hops
    /// and gets the longer timeout.
    pub fn send(
        &mut self,
        ctx: &mut Context,
        route: &mut Route,
        target: NodeId,
        proxied: bool,
        service: &str,
    ) -> u32 {
        let (seq, id) = self.next_id();
        if proxied {
            route.used_proxy = true;
        } else {
            route.attempts += 1;
            route.tried.push(target);
        }
        ctx.send_unicast(
            target,
            Message::ServiceRequest(ServiceRequest {
                id,
                from: self.me,
                service: service.to_string(),
                partition: route.partition,
                payload: vec![0u8; PAYLOAD_SIZE],
                hops_left: if proxied { 2 } else { 0 },
            }),
        );
        let timeout = if proxied {
            self.cfg.proxy_timeout
        } else {
            self.cfg.request_timeout
        };
        ctx.set_timer(timeout, T_ATTEMPT | u64::from(seq));
        seq
    }
}

/// True when the view lists an instance of every partition of
/// `service`.
pub fn serves(node: &MembershipNode, service: &str, partitions: u16) -> bool {
    (0..partitions).all(|p| !node.resolve_service(service, Some(p)).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_embed_the_sender() {
        let mut r = Router::new(NodeId(9), RouteConfig::new(MILLIS));
        let (seq, id) = r.next_id();
        assert_eq!(id >> 32, 9);
        assert_eq!((id & 0xffff_ffff) as u32, seq);
        assert_eq!(r.next_id().0, seq + 1);
    }
}
