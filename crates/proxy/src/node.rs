//! The proxy actor: embedded cluster membership + proxy-group leadership
//! + WAN summary exchange + cross-DC request forwarding.

use crate::view::{RemoteView, VipTable};
use std::collections::HashMap;
use tamp_membership::{Hosted, MembershipConfig, MembershipNode, Role};
use tamp_netsim::{ChannelId, Context, Nanos, PacketMeta, ProtocolEvent, MILLIS, SECS};
use tamp_wire::{
    DcId, Heartbeat, Message, NodeId, PartitionSet, ProxySummary, ProxyUpdate, ServiceAvail,
    ServiceDecl, ServiceRequest, ServiceResponse, SummaryEvent,
};

/// Pseudo-service name proxies export through the cluster membership, so
/// consumers can locate their local proxies with an ordinary lookup.
pub const PROXY_SERVICE: &str = "__proxy";

/// Reserved multicast channel for the proxy group. One channel is
/// shared by all DCs — TTL scoping keeps the groups apart.
pub const PROXY_CHANNEL: ChannelId = ChannelId(200);
/// TTL spanning the local DC (so all local proxies hear each other).
pub const PROXY_TTL: u8 = 2;
/// Max services per summary packet; larger summaries are split ("if the
/// size of the membership summary is too big, the summary is broken
/// into multiple heartbeat packets").
pub const MAX_AVAIL_PER_PACKET: usize = 50;
/// Drop forwarded requests with no response after this long.
pub const PENDING_TIMEOUT: Nanos = 10 * SECS;

/// Tunables of one membership proxy.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// This proxy's data center.
    pub dc: DcId,
    /// Proxy-group heartbeat period, also the WAN summary period.
    pub heartbeat_period: Nanos,
    /// Missed proxy heartbeats before a proxy is considered dead.
    pub max_loss: u32,
    /// How often the leader diffs its local summary and pushes
    /// incremental updates to remote DCs ("the leader informs other
    /// proxy leaders immediately" — this bounds "immediately").
    pub change_check_period: Nanos,
    /// Remote data centers to exchange membership with.
    pub remote_dcs: Vec<DcId>,
    /// Configuration for the embedded cluster membership node.
    pub membership: MembershipConfig,
}

impl ProxyConfig {
    pub fn new(dc: DcId, remote_dcs: Vec<DcId>, membership: MembershipConfig) -> Self {
        ProxyConfig {
            dc,
            heartbeat_period: SECS,
            max_loss: 5,
            change_check_period: 250 * MILLIS,
            remote_dcs,
            membership,
        }
    }
}

const T_PROXY_HB: u64 = 1 << 32;
const T_PROXY_SWEEP: u64 = 2 << 32;
const T_PROXY_CHANGE: u64 = 3 << 32;

/// Where to send a forwarded request's response. The originating
/// request id rides the whole forwarding chain unchanged (every hop
/// forwards `req.id` verbatim), so `origin` — the issuing node, encoded
/// in the id's high half — survives even though `req.from` is rewritten
/// at each hop. That is what lets `tamp-exp metrics` attribute
/// proxy-path latency back to the request's source.
#[derive(Debug, Clone, Copy)]
struct Pending {
    reply_to: NodeId,
    /// Issuing node of the original request (`req.id >> 32`).
    origin: u32,
    at: Nanos,
}

/// One membership proxy (paper §3.2): a [`Role`] hosted beside the
/// local cluster's membership daemon, bridging membership and requests
/// across DCs.
pub struct ProxyNode {
    cfg: ProxyConfig,
    me: NodeId,
    /// Local proxy peers heard on the proxy channel.
    proxy_peers: HashMap<NodeId, Nanos>,
    am_leader: bool,
    vips: VipTable,
    remote: RemoteView,
    /// WAN summary sequence (ours).
    summary_seq: u64,
    /// Last summary actually pushed to remote DCs (diff base).
    last_pushed: Vec<ServiceAvail>,
    /// Reassembly of multi-part remote summaries.
    partial: HashMap<(DcId, u64), Vec<Option<Vec<ServiceAvail>>>>,
    /// Highest summary seq accepted per remote DC.
    remote_seq: HashMap<DcId, u64>,
    /// Forwarded requests awaiting responses.
    pending: HashMap<u64, Pending>,
}

impl ProxyNode {
    /// A proxy and its membership daemon, ready to install.
    pub fn new(me: NodeId, cfg: ProxyConfig, vips: VipTable, remote: RemoteView) -> Hosted<Self> {
        let role = ProxyNode::role(me, cfg, vips, remote);
        Hosted::new(MembershipNode::new(me, role.cfg.membership.clone()), role)
    }

    fn role(me: NodeId, mut cfg: ProxyConfig, vips: VipTable, remote: RemoteView) -> Self {
        // Export the __proxy pseudo-service through the cluster
        // membership; the "partition" encodes the DC id.
        cfg.membership.services.retain(|s| s.name != PROXY_SERVICE);
        cfg.membership.services.push(ServiceDecl::new(
            PROXY_SERVICE,
            PartitionSet::from_iter([cfg.dc.0]),
        ));
        ProxyNode {
            me,
            proxy_peers: HashMap::new(),
            am_leader: false,
            vips,
            remote,
            summary_seq: 0,
            last_pushed: Vec::new(),
            partial: HashMap::new(),
            remote_seq: HashMap::new(),
            pending: HashMap::new(),
            cfg,
        }
    }

    fn evaluate_leadership(&mut self, now: Nanos) {
        let timeout = self.cfg.max_loss as u64 * self.cfg.heartbeat_period;
        self.proxy_peers
            .retain(|_, &mut t| now.saturating_sub(t) < timeout);
        let lowest_peer = self.proxy_peers.keys().min().copied();
        let lead = lowest_peer.is_none_or(|p| self.me < p);
        if lead {
            // Hold (or take over) the virtual IP. Re-asserting every
            // evaluation — like periodic gratuitous ARP — heals the
            // startup race where two proxies have not yet heard each
            // other and both briefly claimed the VIP.
            self.vips.set(self.cfg.dc, self.me);
        }
        self.am_leader = lead;
    }

    fn local_summary(daemon: &MembershipNode) -> Vec<ServiceAvail> {
        daemon
            .directory_client()
            .read(|d| d.service_summary())
            .into_iter()
            .filter(|s| s.name != PROXY_SERVICE)
            .collect()
    }

    /// Send the full summary to every remote DC, split into parts.
    fn send_summaries(&mut self, daemon: &MembershipNode, ctx: &mut Context) {
        let summary = Self::local_summary(daemon);
        self.summary_seq += 1;
        let chunks: Vec<Vec<ServiceAvail>> = if summary.is_empty() {
            vec![Vec::new()]
        } else {
            summary
                .chunks(MAX_AVAIL_PER_PACKET)
                .map(|c| c.to_vec())
                .collect()
        };
        let total = chunks.len() as u16;
        for dc in self.cfg.remote_dcs.clone() {
            let Some(vip) = self.vips.get(dc) else {
                continue;
            };
            ctx.emit(ProtocolEvent::ProxySummary {
                services: summary.len() as u32,
                dc: dc.0,
            });
            for (i, chunk) in chunks.iter().enumerate() {
                ctx.send_unicast(
                    vip,
                    Message::ProxySummary(ProxySummary {
                        dc: self.cfg.dc,
                        seq: self.summary_seq,
                        part: i as u16,
                        total_parts: total,
                        services: chunk.clone(),
                    }),
                );
            }
        }
        self.last_pushed = summary;
    }

    /// Diff the current summary against the last pushed one; push
    /// incremental updates when something changed.
    fn push_changes(&mut self, daemon: &MembershipNode, ctx: &mut Context) {
        let current = Self::local_summary(daemon);
        let mut events = Vec::new();
        for s in &current {
            match self.last_pushed.iter().find(|o| o.name == s.name) {
                Some(old) if old == s => {}
                _ => events.push(SummaryEvent::Avail(s.clone())),
            }
        }
        for old in &self.last_pushed {
            if !current.iter().any(|s| s.name == old.name) {
                events.push(SummaryEvent::Gone {
                    name: old.name.clone(),
                });
            }
        }
        if events.is_empty() {
            return;
        }
        self.summary_seq += 1;
        for dc in self.cfg.remote_dcs.clone() {
            let Some(vip) = self.vips.get(dc) else {
                continue;
            };
            ctx.emit(ProtocolEvent::ProxyUpdate {
                events: events.len() as u32,
                dc: dc.0,
            });
            ctx.send_unicast(
                vip,
                Message::ProxyUpdate(ProxyUpdate {
                    dc: self.cfg.dc,
                    seq: self.summary_seq,
                    events: events.clone(),
                }),
            );
        }
        self.last_pushed = current;
    }

    fn handle_summary(&mut self, ctx: &mut Context, meta: PacketMeta, s: &ProxySummary) {
        if s.dc == self.cfg.dc {
            return;
        }
        // Ignore summaries older than what we already accepted.
        if self.remote_seq.get(&s.dc).is_some_and(|&q| s.seq < q) {
            return;
        }
        let total = s.total_parts.max(1) as usize;
        let slot = self
            .partial
            .entry((s.dc, s.seq))
            .or_insert_with(|| vec![None; total]);
        if (s.part as usize) < slot.len() {
            slot[s.part as usize] = Some(s.services.clone());
        }
        if slot.iter().all(|p| p.is_some()) {
            let full: Vec<ServiceAvail> = self
                .partial
                .remove(&(s.dc, s.seq))
                .unwrap()
                .into_iter()
                .flatten()
                .flatten()
                .collect();
            self.remote_seq.insert(s.dc, s.seq);
            self.remote.set_dc(s.dc, full);
            self.partial
                .retain(|&(dc, seq), _| dc != s.dc || seq > s.seq);
            // Leader relays remote knowledge into the local proxy group
            // so a failover loses nothing (unless this *was* the group
            // relay already).
            if self.am_leader && meta.channel.is_none() {
                ctx.send_multicast(PROXY_CHANNEL, PROXY_TTL, Message::ProxySummary(s.clone()));
            }
        } else if self.am_leader && meta.channel.is_none() {
            ctx.send_multicast(PROXY_CHANNEL, PROXY_TTL, Message::ProxySummary(s.clone()));
        }
    }

    fn handle_proxy_update(&mut self, ctx: &mut Context, meta: PacketMeta, u: &ProxyUpdate) {
        if u.dc == self.cfg.dc {
            return;
        }
        if self.remote_seq.get(&u.dc).is_some_and(|&q| u.seq <= q) {
            return;
        }
        self.remote_seq.insert(u.dc, u.seq);
        for ev in &u.events {
            self.remote.apply(u.dc, ev);
        }
        if self.am_leader && meta.channel.is_none() {
            ctx.send_multicast(PROXY_CHANNEL, PROXY_TTL, Message::ProxyUpdate(u.clone()));
        }
    }

    /// The Fig. 6 request flow. `hops_left` encodes the position:
    /// 2 = fresh from a local consumer, 1 = arrived from a remote proxy.
    fn handle_request(&mut self, daemon: &MembershipNode, ctx: &mut Context, req: &ServiceRequest) {
        let now = ctx.now();
        // The issuing node: the high half of the request id.
        let origin = (req.id >> 32) as u32;
        if req.hops_left >= 2 {
            // Step (2): find a data center that has the service and
            // forward to its proxy VIP.
            let candidates = self.remote.find(&req.service, req.partition);
            let target = candidates.into_iter().find_map(|dc| self.vips.get(dc));
            match target {
                Some(vip) => {
                    ctx.emit(ProtocolEvent::RequestForwarded { origin });
                    self.pending.insert(
                        req.id,
                        Pending {
                            reply_to: req.from,
                            origin,
                            at: now,
                        },
                    );
                    let mut fwd = req.clone();
                    fwd.from = self.me;
                    fwd.hops_left = 1;
                    ctx.send_unicast(vip, Message::ServiceRequest(fwd));
                }
                None => {
                    // "If it cannot find an appropriate data center, the
                    // request will be rejected."
                    ctx.emit(ProtocolEvent::RequestRejected { origin });
                    ctx.send_unicast(
                        req.from,
                        Message::ServiceResponse(ServiceResponse {
                            id: req.id,
                            from: self.me,
                            ok: false,
                            payload: Vec::new(),
                        }),
                    );
                }
            }
        } else if req.hops_left == 1 {
            // Step (3): pick a local backend instance. The service name
            // came off the wire: it is compared literally, like step
            // (2)'s `RemoteView::find`, never compiled as a pattern.
            let backends = daemon.resolve_service(&req.service, Some(req.partition));
            let target = if backends.is_empty() {
                None
            } else {
                let i = ctx.rand_below(backends.len() as u64) as usize;
                Some(backends[i])
            };
            match target {
                Some(node) => {
                    ctx.emit(ProtocolEvent::RequestForwarded { origin });
                    self.pending.insert(
                        req.id,
                        Pending {
                            reply_to: req.from,
                            origin,
                            at: now,
                        },
                    );
                    let mut fwd = req.clone();
                    fwd.from = self.me;
                    fwd.hops_left = 0;
                    ctx.send_unicast(node, Message::ServiceRequest(fwd));
                }
                None => {
                    ctx.emit(ProtocolEvent::RequestRejected { origin });
                    ctx.send_unicast(
                        req.from,
                        Message::ServiceResponse(ServiceResponse {
                            id: req.id,
                            from: self.me,
                            ok: false,
                            payload: Vec::new(),
                        }),
                    );
                }
            }
        }
        // hops_left == 0 requests are for providers, not proxies.
    }

    fn handle_response(&mut self, ctx: &mut Context, resp: &ServiceResponse) {
        // Steps (4)–(6): unwind the forwarding chain. The hop latency
        // (request seen here → response back here) is recorded against
        // this proxy and attributed to the originating request id, so
        // the metrics dashboard can split proxy-path time out of the
        // end-to-end latency the consumer sees.
        if let Some(p) = self.pending.remove(&resp.id) {
            ctx.emit(ProtocolEvent::ProxyForwarded {
                origin: p.origin,
                hop_ns: ctx.now().saturating_sub(p.at),
            });
            let mut fwd = resp.clone();
            fwd.from = self.me;
            ctx.send_unicast(p.reply_to, Message::ServiceResponse(fwd));
        }
    }

    fn proxy_heartbeat(&mut self, ctx: &mut Context) {
        // A lean heartbeat on the reserved proxy channel; level 0 in the
        // proxy group's own little namespace.
        let rec = tamp_wire::NodeRecord::new(self.me, 1);
        ctx.send_multicast(
            PROXY_CHANNEL,
            PROXY_TTL,
            Message::Heartbeat(Heartbeat {
                from: self.me,
                level: 0,
                seq: self.summary_seq,
                is_leader: self.am_leader,
                backup: None,
                latest_update_seq: 0,
                record: rec,
            }),
        );
    }
}

impl Role for ProxyNode {
    /// Proxy-channel traffic and WAN proxy messages; the rest is the
    /// daemon's.
    fn claims(&self, kind: &str, meta: PacketMeta) -> bool {
        meta.channel == Some(PROXY_CHANNEL)
            || matches!(
                kind,
                "proxy-summary" | "proxy-update" | "svc-req" | "svc-resp"
            )
    }

    fn on_start(&mut self, _daemon: &MembershipNode, ctx: &mut Context) {
        ctx.subscribe(PROXY_CHANNEL);
        let phase = ctx.jitter(self.cfg.heartbeat_period / 2);
        ctx.set_timer(phase + self.cfg.heartbeat_period, T_PROXY_HB);
        ctx.set_timer(self.cfg.heartbeat_period / 2, T_PROXY_SWEEP);
        ctx.set_timer(phase + self.cfg.change_check_period, T_PROXY_CHANGE);
    }

    fn reset(&mut self) {
        self.proxy_peers.clear();
        self.am_leader = false;
        self.partial.clear();
        self.pending.clear();
        self.last_pushed.clear();
    }

    fn on_packet(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        meta: PacketMeta,
        msg: &Message,
    ) {
        match msg {
            // Claimed heartbeats are the proxy group's own.
            Message::Heartbeat(hb) if hb.from != self.me => {
                self.proxy_peers.insert(hb.from, ctx.now());
                self.evaluate_leadership(ctx.now());
            }
            Message::ProxySummary(s) => self.handle_summary(ctx, meta, s),
            Message::ProxyUpdate(u) => self.handle_proxy_update(ctx, meta, u),
            Message::ServiceRequest(r) => self.handle_request(daemon, ctx, r),
            Message::ServiceResponse(r) => self.handle_response(ctx, r),
            _ => {}
        }
    }

    fn on_timer(&mut self, daemon: &MembershipNode, ctx: &mut Context, token: u64) {
        match token {
            T_PROXY_HB => {
                self.proxy_heartbeat(ctx);
                if self.am_leader {
                    self.send_summaries(daemon, ctx);
                }
                ctx.set_timer(self.cfg.heartbeat_period, T_PROXY_HB);
            }
            T_PROXY_SWEEP => {
                let now = ctx.now();
                self.evaluate_leadership(now);
                self.pending
                    .retain(|_, p| now.saturating_sub(p.at) < PENDING_TIMEOUT);
                ctx.set_timer(self.cfg.heartbeat_period / 2, T_PROXY_SWEEP);
            }
            T_PROXY_CHANGE => {
                if self.am_leader {
                    self.push_changes(daemon, ctx);
                }
                ctx.set_timer(self.cfg.change_check_period, T_PROXY_CHANGE);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tamp_membership::ROLE_TOKENS;
    use tamp_netsim::{collect_effects, Actor, Destination, Effect};
    use tamp_topology::HostId;

    fn mk_proxy(id: u32) -> ProxyNode {
        ProxyNode::role(
            NodeId(id),
            ProxyConfig::new(DcId(0), vec![DcId(1)], MembershipConfig::default()),
            VipTable::new(),
            RemoteView::new(),
        )
    }

    #[test]
    fn exports_proxy_pseudo_service() {
        let p = mk_proxy(3);
        assert!(p
            .cfg
            .membership
            .services
            .iter()
            .any(|s| s.name == PROXY_SERVICE && s.partitions.contains(0)));
    }

    #[test]
    fn leadership_is_lowest_alive() {
        let mut p = mk_proxy(5);
        p.evaluate_leadership(0);
        assert!(p.am_leader, "alone means leader");
        p.proxy_peers.insert(NodeId(2), 0);
        p.evaluate_leadership(1);
        assert!(!p.am_leader, "lower-id peer leads");
        // Peer times out (5 × 1 s).
        p.evaluate_leadership(6_000_000_000);
        assert!(p.am_leader, "takeover after peer death");
    }

    #[test]
    fn leadership_updates_vip() {
        let vips = VipTable::new();
        let mut p = ProxyNode::role(
            NodeId(7),
            ProxyConfig::new(DcId(2), vec![], MembershipConfig::default()),
            vips.clone(),
            RemoteView::new(),
        );
        p.evaluate_leadership(0);
        assert_eq!(vips.get(DcId(2)), Some(NodeId(7)));
    }

    /// Fig. 6 step (3) on a proxy whose cluster view holds backends
    /// `index` (node 10) and `doc` (node 11), partition 0 each: what
    /// the proxy does with an inbound request for `service`.
    fn step3(service: &str) -> Vec<Effect> {
        let mut p = ProxyNode::new(
            NodeId(3),
            ProxyConfig::new(DcId(0), vec![DcId(1)], MembershipConfig::default()),
            VipTable::new(),
            RemoteView::new(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = collect_effects(0, HostId(3), &mut rng, |ctx| p.on_start(ctx));
        for (from, name) in [(10, "index"), (11, "doc")] {
            let record = tamp_wire::NodeRecord::new(NodeId(from), 1)
                .with_service(ServiceDecl::new(name, PartitionSet::from_iter([0])));
            let hb = Message::Heartbeat(Heartbeat {
                from: NodeId(from),
                level: 0,
                seq: 1,
                is_leader: false,
                backup: None,
                latest_update_seq: 0,
                record,
            });
            let meta = PacketMeta::multicast(HostId(from), ChannelId(0), 1, 228);
            let _ = collect_effects(SECS, HostId(3), &mut rng, |ctx| p.on_packet(ctx, meta, &hb));
        }
        let req = Message::ServiceRequest(ServiceRequest {
            id: (20 << 32) | 1,
            from: NodeId(30),
            service: service.to_string(),
            partition: 0,
            payload: Vec::new(),
            hops_left: 1,
        });
        let meta = PacketMeta::unicast(HostId(30), 64);
        collect_effects(2 * SECS, HostId(3), &mut rng, |ctx| {
            p.on_packet(ctx, meta, &req)
        })
    }

    fn counted(effects: &[Effect], kind: &str) -> bool {
        effects
            .iter()
            .any(|e| matches!(e, Effect::Emit(ev) if ev.name() == kind))
    }

    #[test]
    fn step3_forwards_a_literal_service_name() {
        let effects = step3("index");
        assert!(counted(&effects, "request-forwarded"));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                dest: Destination::Unicast(h),
                msg: Message::ServiceRequest(r),
            } if h.0 == 10 && r.hops_left == 0
        )));
    }

    #[test]
    fn step3_never_reads_a_wire_service_name_as_a_pattern() {
        for service in ["ind.x", ".*", "(index|doc)", "("] {
            let effects = step3(service);
            assert!(counted(&effects, "request-rejected"), "{service:?}");
            assert!(!counted(&effects, "request-forwarded"), "{service:?}");
            assert!(
                !effects.iter().any(|e| matches!(
                    e,
                    Effect::Send {
                        msg: Message::ServiceRequest(_),
                        ..
                    }
                )),
                "{service:?} reached a backend"
            );
        }
    }

    #[test]
    fn proxy_timer_tokens_are_role_tokens() {
        for token in [T_PROXY_HB, T_PROXY_SWEEP, T_PROXY_CHANGE] {
            assert!(token >= ROLE_TOKENS);
        }
    }
}
