//! Consumer gateway: the Neptune consumer module.
//!
//! A gateway turns each incoming user query into a multi-step workflow
//! over internal services (paper Fig. 1: contact an index partition,
//! then the document partitions). Each step is routed with the yellow
//! pages: pick an instance per partition, balance load by random polling
//! \[20\], shield failures by retrying on another replica, and — when no
//! local instance exists — fail over to a remote data center through the
//! membership proxies (paper Fig. 6). The routing itself is the shared
//! [`Router`]; the gateway adds the workflow, the per-partition fan-out
//! and random polling on top.

use tamp_membership::{Hosted, MembershipConfig, MembershipNode, Role};
use tamp_netsim::{Context, IntMap, Nanos, PacketMeta, MILLIS};
use tamp_wire::{Message, NodeId, ServiceRequest, ServiceResponse};

use crate::provider::POLL_PAYLOAD;
use crate::router::{serves, Dispatch, LoadBalance, Route, RouteConfig, Router, T_ATTEMPT};
use crate::search::{DOC_PARTITIONS, INDEX_PARTITIONS};
use crate::timeline::TimelineHandle;

/// How a step addresses its service's partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Contact one randomly chosen partition (e.g. a cache shard).
    PickOne,
    /// Contact every partition in parallel and wait for all of them —
    /// the paper's Fig. 1 document-retrieval flow, where the gateway
    /// "contacts the document server partitions" (plural).
    AllPartitions,
}

/// One workflow step: call `service` on one or all of its
/// `partition_count` partitions.
#[derive(Debug, Clone)]
pub struct Step {
    pub service: String,
    pub partition_count: u16,
    pub mode: StepMode,
}

impl Step {
    /// A pick-one-partition step.
    pub fn new(service: impl Into<String>, partition_count: u16) -> Self {
        Step {
            service: service.into(),
            partition_count,
            mode: StepMode::PickOne,
        }
    }
}

/// An ordered list of steps executed per query.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pub steps: Vec<Step>,
}

impl Workflow {
    /// The paper's search engine (Fig. 1 steps 2–3): one index lookup,
    /// then one document retrieval — or, with `doc_fanout`, *all* the
    /// document partitions in parallel (Fig. 1 exactly).
    pub fn search_engine(doc_fanout: bool) -> Self {
        let mode = if doc_fanout {
            StepMode::AllPartitions
        } else {
            StepMode::PickOne
        };
        let doc = Step {
            mode,
            ..Step::new("doc", DOC_PARTITIONS)
        };
        Workflow {
            steps: vec![Step::new("index", INDEX_PARTITIONS), doc],
        }
    }
}

/// Gateway tunables.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    pub membership: MembershipConfig,
    pub workflow: Workflow,
    /// Open-loop query inter-arrival time (0 disables generation).
    pub arrival_period: Nanos,
    /// Attempt timeouts of each step.
    pub route: RouteConfig,
    pub lb: LoadBalance,
}

impl GatewayConfig {
    pub fn new(membership: MembershipConfig, workflow: Workflow, arrival_period: Nanos) -> Self {
        GatewayConfig {
            membership,
            workflow,
            arrival_period,
            route: RouteConfig::new(500 * MILLIS),
            lb: LoadBalance::Random,
        }
    }
}

const T_ARRIVE: u64 = 6 << 32;
/// How long to wait for poll answers before dispatching anyway.
const POLL_TIMEOUT: Nanos = 50 * MILLIS;

#[derive(Debug)]
enum Phase {
    /// Poll probes outstanding; collecting queue lengths.
    Polling {
        outstanding: u32,
        best: Option<(NodeId, u32)>,
    },
    /// Real request outstanding.
    Waiting,
    /// This sub-query already succeeded.
    Done,
}

/// One partition's progress within the current step.
#[derive(Debug)]
struct SubQuery {
    route: Route,
    phase: Phase,
}

#[derive(Debug)]
struct Query {
    started: Nanos,
    step: usize,
    subs: Vec<SubQuery>,
    /// Did any sub-query of any step go through the proxies?
    used_proxy: bool,
}

/// A protocol-gateway node: generates queries and routes workflow
/// steps over the view of the membership daemon it is hosted beside.
pub struct GatewayNode {
    cfg: GatewayConfig,
    me: NodeId,
    router: Router,
    timeline: TimelineHandle,
    queries: IntMap<u64, Query>,
    next_query: u64,
    /// Request seq → (owning query, sub-query index). An entry leaves
    /// when its response or its timeout arrives, whichever is first;
    /// one whose query ended meanwhile is ignored then.
    inflight: IntMap<u32, (u64, usize)>,
    /// One-way latch: set once the directory first listed every workflow
    /// service+partition. Later *failures* must not re-gate arrivals —
    /// that is exactly when proxy failover earns its keep.
    warmed: bool,
}

impl GatewayNode {
    /// A gateway and its membership daemon, ready to install.
    pub fn new(me: NodeId, cfg: GatewayConfig) -> Hosted<Self> {
        let daemon = MembershipNode::new(me, cfg.membership.clone());
        let role = GatewayNode {
            me,
            router: Router::new(me, cfg.route),
            timeline: TimelineHandle::default(),
            queries: IntMap::default(),
            next_query: 0,
            inflight: IntMap::default(),
            warmed: false,
            cfg,
        };
        Hosted::new(daemon, role)
    }

    /// The gateway's per-second query record (shared; clone before
    /// boxing).
    pub fn timeline(&self) -> TimelineHandle {
        TimelineHandle::clone(&self.timeline)
    }

    /// True once the directory lists at least one instance for every
    /// (service, partition) a query could touch.
    fn warmed_up(&mut self, daemon: &MembershipNode) -> bool {
        if !self.warmed {
            self.warmed = self
                .cfg
                .workflow
                .steps
                .iter()
                .all(|s| serves(daemon, &s.service, s.partition_count));
        }
        self.warmed
    }

    fn start_query(&mut self, daemon: &MembershipNode, ctx: &mut Context) {
        self.next_query += 1;
        let qid = self.next_query;
        self.timeline.lock().record_issue();
        self.queries.insert(
            qid,
            Query {
                started: ctx.now(),
                step: 0,
                subs: Vec::new(),
                used_proxy: false,
            },
        );
        self.begin_step(daemon, ctx, qid);
    }

    fn begin_step(&mut self, daemon: &MembershipNode, ctx: &mut Context, qid: u64) {
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        let step = &self.cfg.workflow.steps[q.step];
        let sub = |p| SubQuery {
            route: Route::new(p),
            phase: Phase::Waiting,
        };
        q.subs = match step.mode {
            StepMode::PickOne => vec![sub(ctx.rand_below(step.partition_count as u64) as u16)],
            StepMode::AllPartitions => (0..step.partition_count).map(sub).collect(),
        };
        for sub in 0..q.subs.len() {
            self.dispatch(daemon, ctx, qid, sub);
        }
    }

    /// Route one sub-query: local replica (or a poll of two), proxy
    /// fallback, or fail the whole query.
    fn dispatch(&mut self, daemon: &MembershipNode, ctx: &mut Context, qid: u64, sub: usize) {
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        let service = &self.cfg.workflow.steps[q.step].service;
        let route = &mut q.subs[sub].route;
        let draw = &mut |ctx: &mut Context<'_>, n| ctx.rand_below(n);
        match self
            .router
            .dispatch(ctx, daemon, route, service, self.cfg.lb, draw)
        {
            Dispatch::Sent(seq) => self.sent(qid, sub, seq),
            Dispatch::Poll(candidates) => self.send_polls(ctx, qid, sub, candidates),
            Dispatch::GaveUp => self.fail_query(ctx, qid),
        }
    }

    /// The sub-query's real request to `target`, chosen by polling.
    fn send_to(&mut self, ctx: &mut Context, qid: u64, sub: usize, target: NodeId) {
        let q = self
            .queries
            .get_mut(&qid)
            .expect("a routed sub-query's query is live");
        let service = &self.cfg.workflow.steps[q.step].service;
        let seq = self
            .router
            .send(ctx, &mut q.subs[sub].route, target, false, service);
        self.sent(qid, sub, seq);
    }

    /// Attempt `seq` of the sub-query went out.
    fn sent(&mut self, qid: u64, sub: usize, seq: u32) {
        let q = self
            .queries
            .get_mut(&qid)
            .expect("a routed sub-query's query is live");
        let s = &mut q.subs[sub];
        s.phase = Phase::Waiting;
        q.used_proxy |= s.route.used_proxy;
        self.inflight.insert(seq, (qid, sub));
    }

    fn send_polls(&mut self, ctx: &mut Context, qid: u64, sub: usize, mut pool: Vec<NodeId>) {
        // Probe two distinct random replicas.
        let mut picks = [NodeId(0); 2];
        for pick in &mut picks {
            *pick = pool.swap_remove(ctx.rand_below(pool.len() as u64) as usize);
        }
        let q = self.queries.get_mut(&qid).unwrap();
        q.subs[sub].phase = Phase::Polling {
            outstanding: picks.len() as u32,
            best: None,
        };
        for target in picks {
            let (seq, id) = self.router.next_id();
            self.inflight.insert(seq, (qid, sub));
            ctx.send_unicast(
                target,
                Message::ServiceRequest(ServiceRequest {
                    id,
                    from: self.me,
                    service: String::new(),
                    partition: 0,
                    payload: POLL_PAYLOAD.to_vec(),
                    hops_left: 0,
                }),
            );
            ctx.set_timer(POLL_TIMEOUT, T_ATTEMPT | seq as u64);
        }
    }

    fn fail_query(&mut self, ctx: &mut Context, qid: u64) {
        if self.queries.remove(&qid).is_some() {
            self.timeline.lock().record_failure(ctx.now());
        }
    }

    /// One sub-query finished; advance the step / query when all have.
    fn sub_done(&mut self, daemon: &MembershipNode, ctx: &mut Context, qid: u64, sub: usize) {
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        q.subs[sub].phase = Phase::Done;
        if !q.subs.iter().all(|s| matches!(s.phase, Phase::Done)) {
            return;
        }
        q.step += 1;
        if q.step >= self.cfg.workflow.steps.len() {
            let q = self.queries.remove(&qid).unwrap();
            let now = ctx.now();
            self.timeline
                .lock()
                .record_completion(now, now - q.started, q.used_proxy);
        } else {
            self.begin_step(daemon, ctx, qid);
        }
    }

    /// Attempt `seq` ended: `answer` is its response, `None` its timeout.
    fn attempt_ended(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        seq: u32,
        answer: Option<&ServiceResponse>,
    ) {
        let Some((qid, sub)) = self.inflight.remove(&seq) else {
            return;
        };
        let Some(q) = self.queries.get_mut(&qid) else {
            return;
        };
        match &mut q.subs[sub].phase {
            Phase::Polling { outstanding, best } => {
                if let Some(r) = answer.filter(|r| r.ok && r.payload.len() >= 4) {
                    let queue = u32::from_le_bytes(r.payload[..4].try_into().expect("four bytes"));
                    if best.is_none_or(|(_, b)| queue < b) {
                        *best = Some((r.from, queue));
                    }
                }
                *outstanding = outstanding.saturating_sub(1);
                if *outstanding == 0 {
                    match best.map(|(n, _)| n) {
                        Some(target) => self.send_to(ctx, qid, sub, target),
                        None => self.dispatch(daemon, ctx, qid, sub),
                    }
                }
            }
            Phase::Waiting if answer.is_some_and(|r| r.ok) => self.sub_done(daemon, ctx, qid, sub),
            // Rejected (e.g. no remote DC offers the service), or the
            // attempt died (crashed instance, lost packet): retry on
            // another replica or escalate.
            Phase::Waiting => self.dispatch(daemon, ctx, qid, sub),
            Phase::Done => {}
        }
    }
}

impl Role for GatewayNode {
    /// Service RPC: responses end attempts, stray requests are dropped.
    fn claims(&self, kind: &str, _meta: PacketMeta) -> bool {
        matches!(kind, "svc-req" | "svc-resp")
    }

    fn on_start(&mut self, _daemon: &MembershipNode, ctx: &mut Context) {
        if self.cfg.arrival_period > 0 {
            let phase = ctx.jitter(self.cfg.arrival_period);
            ctx.set_timer(phase + self.cfg.arrival_period, T_ARRIVE);
        }
    }

    fn reset(&mut self) {
        self.queries.clear();
        self.inflight.clear();
        self.warmed = false;
    }

    fn on_packet(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        _meta: PacketMeta,
        msg: &Message,
    ) {
        if let Message::ServiceResponse(r) = msg {
            self.attempt_ended(daemon, ctx, (r.id & 0xffff_ffff) as u32, Some(r));
        }
    }

    fn on_timer(&mut self, daemon: &MembershipNode, ctx: &mut Context, token: u64) {
        match token & !0xffff_ffff {
            T_ARRIVE => {
                if self.warmed_up(daemon) {
                    self.start_query(daemon, ctx);
                }
                ctx.set_timer(self.cfg.arrival_period, T_ARRIVE);
            }
            T_ATTEMPT => self.attempt_ended(daemon, ctx, (token & 0xffff_ffff) as u32, None),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_workflow_shape() {
        let w = Workflow::search_engine(false);
        assert_eq!(w.steps.len(), 2);
        assert_eq!(w.steps[0].service, "index");
        assert_eq!(w.steps[0].partition_count, 2);
        assert_eq!(w.steps[1].service, "doc");
        assert_eq!(w.steps[1].partition_count, 3);
        assert_eq!(w.steps[1].mode, StepMode::PickOne);
        let wf = Workflow::search_engine(true);
        assert_eq!(wf.steps[1].mode, StepMode::AllPartitions);
    }
}
