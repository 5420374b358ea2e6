//! The proxy actor: embedded cluster membership + proxy-group leadership
//! + WAN summary exchange + cross-DC request forwarding.

use crate::view::{RemoteView, VipTable};
use std::collections::HashMap;
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Actor, ChannelId, Context, Nanos, PacketMeta, MILLIS, SECS};
use tamp_wire::{
    DcId, Heartbeat, Message, NodeId, PartitionSet, ProxySummary, ProxyUpdate, ServiceAvail,
    ServiceDecl, ServiceRequest, ServiceResponse, SummaryEvent,
};

/// Pseudo-service name proxies export through the cluster membership, so
/// consumers can locate their local proxies with an ordinary lookup.
pub const PROXY_SERVICE: &str = "__proxy";

/// Tunables of one membership proxy.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// This proxy's data center.
    pub dc: DcId,
    /// Reserved multicast channel for the proxy group. One channel is
    /// shared by all DCs — TTL scoping keeps the groups apart.
    pub proxy_channel: ChannelId,
    /// TTL spanning the local DC (so all local proxies hear each other).
    pub proxy_ttl: u8,
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
    /// Max services per summary packet; larger summaries are split
    /// ("if the size of the membership summary is too big, the summary
    /// is broken into multiple heartbeat packets").
    pub max_avail_per_packet: usize,
    /// Drop forwarded requests with no response after this long.
    pub pending_timeout: Nanos,
    /// Configuration for the embedded cluster membership node.
    pub membership: MembershipConfig,
}

impl ProxyConfig {
    pub fn new(dc: DcId, remote_dcs: Vec<DcId>, membership: MembershipConfig) -> Self {
        ProxyConfig {
            dc,
            proxy_channel: ChannelId(200),
            proxy_ttl: 2,
            heartbeat_period: SECS,
            max_loss: 5,
            change_check_period: 250 * MILLIS,
            remote_dcs,
            max_avail_per_packet: 50,
            pending_timeout: 10 * SECS,
            membership,
        }
    }
}

// Proxy timer tokens live above bit 32 so they can never collide with
// the embedded membership node's tokens.
const T_PROXY_HB: u64 = 1 << 32;
const T_PROXY_SWEEP: u64 = 2 << 32;
const T_PROXY_CHANGE: u64 = 3 << 32;
const PROXY_TOKEN_MASK: u64 = !0u64 << 32;

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

/// One membership proxy (paper §3.2). Install it like any other actor;
/// it participates in the local cluster membership via an embedded
/// [`MembershipNode`] and bridges membership + requests across DCs.
pub struct ProxyNode {
    cfg: ProxyConfig,
    me: NodeId,
    inner: MembershipNode,
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
    crashed: bool,
}

impl ProxyNode {
    pub fn new(me: NodeId, mut cfg: ProxyConfig, vips: VipTable, remote: RemoteView) -> Self {
        // Export the __proxy pseudo-service through the cluster
        // membership; the "partition" encodes the DC id.
        cfg.membership.services.retain(|s| s.name != PROXY_SERVICE);
        cfg.membership.services.push(ServiceDecl::new(
            PROXY_SERVICE,
            PartitionSet::from_iter([cfg.dc.0]),
        ));
        let inner = MembershipNode::new(me, cfg.membership.clone());
        ProxyNode {
            me,
            inner,
            proxy_peers: HashMap::new(),
            am_leader: false,
            vips,
            remote,
            summary_seq: 0,
            last_pushed: Vec::new(),
            partial: HashMap::new(),
            remote_seq: HashMap::new(),
            pending: HashMap::new(),
            crashed: false,
            cfg,
        }
    }

    /// Yellow pages of the local DC (from the embedded membership node).
    pub fn directory_client(&self) -> tamp_directory::DirectoryClient {
        self.inner.directory_client()
    }

    /// This proxy's view of remote DCs.
    pub fn remote_view(&self) -> RemoteView {
        self.remote.clone()
    }

    /// Introspection handle of the embedded membership node (leader
    /// votes for chaos target resolution).
    pub fn probe(&self) -> tamp_membership::Probe {
        self.inner.probe()
    }

    /// Is this proxy currently the DC's proxy leader (VIP owner)?
    pub fn is_leader(&self) -> bool {
        self.am_leader
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

    fn local_summary(&self) -> Vec<ServiceAvail> {
        self.inner
            .directory_client()
            .read(|d| d.service_summary())
            .into_iter()
            .filter(|s| s.name != PROXY_SERVICE)
            .collect()
    }

    /// Send the full summary to every remote DC, split into parts.
    fn send_summaries(&mut self, ctx: &mut Context) {
        let summary = self.local_summary();
        self.summary_seq += 1;
        let chunks: Vec<Vec<ServiceAvail>> = if summary.is_empty() {
            vec![Vec::new()]
        } else {
            summary
                .chunks(self.cfg.max_avail_per_packet)
                .map(|c| c.to_vec())
                .collect()
        };
        let total = chunks.len() as u16;
        for dc in self.cfg.remote_dcs.clone() {
            let Some(vip) = self.vips.get(dc) else {
                continue;
            };
            ctx.count("proxy", "summaries_sent", 1);
            ctx.emit(tamp_netsim::ProtocolEvent::ProxySummary {
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
    fn push_changes(&mut self, ctx: &mut Context) {
        let current = self.local_summary();
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
            ctx.count("proxy", "updates_sent", 1);
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
                ctx.send_multicast(
                    self.cfg.proxy_channel,
                    self.cfg.proxy_ttl,
                    Message::ProxySummary(s.clone()),
                );
            }
        } else if self.am_leader && meta.channel.is_none() {
            ctx.send_multicast(
                self.cfg.proxy_channel,
                self.cfg.proxy_ttl,
                Message::ProxySummary(s.clone()),
            );
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
            ctx.send_multicast(
                self.cfg.proxy_channel,
                self.cfg.proxy_ttl,
                Message::ProxyUpdate(u.clone()),
            );
        }
    }

    /// The Fig. 6 request flow. `hops_left` encodes the position:
    /// 2 = fresh from a local consumer, 1 = arrived from a remote proxy.
    fn handle_request(&mut self, ctx: &mut Context, req: &ServiceRequest) {
        let now = ctx.now();
        if req.hops_left >= 2 {
            // Step (2): find a data center that has the service and
            // forward to its proxy VIP.
            let candidates = self.remote.find(&req.service, req.partition);
            let target = candidates.into_iter().find_map(|dc| self.vips.get(dc));
            match target {
                Some(vip) => {
                    ctx.count("proxy", "requests_forwarded", 1);
                    self.pending.insert(
                        req.id,
                        Pending {
                            reply_to: req.from,
                            origin: (req.id >> 32) as u32,
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
                    ctx.count("proxy", "requests_rejected", 1);
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
            let backends = self
                .inner
                .resolve_service(&req.service, Some(req.partition));
            let target = if backends.is_empty() {
                None
            } else {
                let i = ctx.rand_below(backends.len() as u64) as usize;
                Some(backends[i])
            };
            match target {
                Some(node) => {
                    ctx.count("proxy", "requests_forwarded", 1);
                    self.pending.insert(
                        req.id,
                        Pending {
                            reply_to: req.from,
                            origin: (req.id >> 32) as u32,
                            at: now,
                        },
                    );
                    let mut fwd = req.clone();
                    fwd.from = self.me;
                    fwd.hops_left = 0;
                    ctx.send_unicast(node, Message::ServiceRequest(fwd));
                }
                None => {
                    ctx.count("proxy", "requests_rejected", 1);
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
            let hop = ctx.now().saturating_sub(p.at);
            ctx.record("proxy", "hop_latency_ns", hop);
            ctx.emit(tamp_netsim::ProtocolEvent::ProxyForwarded {
                origin: p.origin,
                hop_latency_us: (hop / 1_000).min(u64::from(u32::MAX)) as u32,
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
            self.cfg.proxy_channel,
            self.cfg.proxy_ttl,
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

impl Actor for ProxyNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            self.crashed = false;
            self.proxy_peers.clear();
            self.am_leader = false;
            self.partial.clear();
            self.pending.clear();
            self.last_pushed.clear();
        }
        self.inner.on_start(ctx);
        ctx.subscribe(self.cfg.proxy_channel);
        let phase = ctx.jitter(self.cfg.heartbeat_period / 2);
        ctx.set_timer(phase + self.cfg.heartbeat_period, T_PROXY_HB);
        ctx.set_timer(self.cfg.heartbeat_period / 2, T_PROXY_SWEEP);
        ctx.set_timer(phase + self.cfg.change_check_period, T_PROXY_CHANGE);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.inner.on_crash();
    }

    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        // Proxy-channel traffic and WAN proxy messages are ours; the
        // rest belongs to the embedded membership node.
        match msg {
            Message::Heartbeat(hb) if meta.channel == Some(self.cfg.proxy_channel) => {
                if hb.from != self.me {
                    self.proxy_peers.insert(hb.from, ctx.now());
                    self.evaluate_leadership(ctx.now());
                }
            }
            Message::ProxySummary(s) => self.handle_summary(ctx, meta, s),
            Message::ProxyUpdate(u) => self.handle_proxy_update(ctx, meta, u),
            Message::ServiceRequest(r) => self.handle_request(ctx, r),
            Message::ServiceResponse(r) => self.handle_response(ctx, r),
            _ if meta.channel == Some(self.cfg.proxy_channel) => {}
            _ => self.inner.on_packet(ctx, meta, msg),
        }
    }

    /// Zero-copy receive mirroring [`ProxyNode::on_packet`]'s dispatch
    /// order: proxy-channel heartbeats only need the sender id (peeked
    /// off the view — no record decode), WAN proxy messages materialize
    /// once, and everything else flows to the embedded membership node's
    /// own zero-copy path.
    fn on_packet_view(
        &mut self,
        ctx: &mut Context,
        meta: PacketMeta,
        view: &tamp_wire::MessageView<'_>,
    ) {
        if meta.channel == Some(self.cfg.proxy_channel) {
            if let Some(hb) = view.as_heartbeat() {
                if hb.from != self.me {
                    self.proxy_peers.insert(hb.from, ctx.now());
                    self.evaluate_leadership(ctx.now());
                }
                return;
            }
        }
        match view.kind() {
            "proxy-summary" | "proxy-update" | "svc-req" | "svc-resp" => match view.to_owned() {
                Message::ProxySummary(s) => self.handle_summary(ctx, meta, &s),
                Message::ProxyUpdate(u) => self.handle_proxy_update(ctx, meta, &u),
                Message::ServiceRequest(r) => self.handle_request(ctx, &r),
                Message::ServiceResponse(r) => self.handle_response(ctx, &r),
                _ => unreachable!("kind/tag agreement is fuzz-locked"),
            },
            _ if meta.channel == Some(self.cfg.proxy_channel) => {}
            _ => self.inner.on_packet_view(ctx, meta, view),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token & PROXY_TOKEN_MASK == 0 {
            return self.inner.on_timer(ctx, token);
        }
        match token {
            T_PROXY_HB => {
                self.proxy_heartbeat(ctx);
                if self.am_leader {
                    self.send_summaries(ctx);
                }
                ctx.set_timer(self.cfg.heartbeat_period, T_PROXY_HB);
            }
            T_PROXY_SWEEP => {
                let now = ctx.now();
                self.evaluate_leadership(now);
                let deadline = self.cfg.pending_timeout;
                self.pending
                    .retain(|_, p| now.saturating_sub(p.at) < deadline);
                ctx.set_timer(self.cfg.heartbeat_period / 2, T_PROXY_SWEEP);
            }
            T_PROXY_CHANGE => {
                if self.am_leader {
                    self.push_changes(ctx);
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
    use tamp_netsim::{collect_effects, Destination, Effect};
    use tamp_topology::HostId;

    fn mk_proxy(id: u32) -> ProxyNode {
        ProxyNode::new(
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
        let mut p = ProxyNode::new(
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
        let mut p = mk_proxy(3);
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

    fn counted(effects: &[Effect], counter: &str) -> bool {
        effects.iter().any(
            |e| matches!(e, Effect::Count { subsystem: "proxy", name, .. } if *name == counter),
        )
    }

    #[test]
    fn step3_forwards_a_literal_service_name() {
        let effects = step3("index");
        assert!(counted(&effects, "requests_forwarded"));
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
            assert!(counted(&effects, "requests_rejected"), "{service:?}");
            assert!(!counted(&effects, "requests_forwarded"), "{service:?}");
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
    fn proxy_timer_tokens_do_not_collide_with_membership() {
        // Membership tokens use the low 16 bits; proxy tokens are ≥ 2^32.
        assert_eq!(T_PROXY_HB & 0xffff_ffff, 0);
        assert_eq!(T_PROXY_SWEEP & 0xffff_ffff, 0);
        assert_eq!(T_PROXY_CHANGE & 0xffff_ffff, 0);
    }
}
