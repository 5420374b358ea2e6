//! The load-generator node: one actor standing in for a slice of the
//! synthetic user population.
//!
//! It is a [`Role`] hosted beside a [`MembershipNode`] and routes every
//! request step through
//! tamp-neptune's [`Router`] over the live view: resolve replicas, retry
//! on another replica, fall back to the membership proxies when the
//! local DC has none. It scales to millions of users by aggregating
//! arrivals into a calendar of fixed-width ticks instead of keeping one
//! timer per user, and it records per-request telemetry (latency
//! histograms, the per-second request record, error taxonomy).
//!
//! ## Request flow
//!
//! Each user request is the paper's Fig. 1 two-step workflow: one
//! `index` lookup at a uniformly random partition, then one `doc`
//! retrieval at a Zipf-distributed partition (hot documents are hot for
//! everyone). Each step is retried across replicas, then across the
//! proxies, before the request is declared failed.
//!
//! ## Error taxonomy
//!
//! * `errors.routed_to_dead` — an attempt timed out and the target had
//!   already vanished from the view (we raced a failure), or an instance
//!   rejected a request the view said it served.
//! * `errors.timeout` — an attempt timed out while the view still
//!   listed the target (overload or packet loss, not staleness).
//! * `errors.retry_exhausted` — a request ran out of replicas *and*
//!   proxy fallback; this is the only class that fails the request.

use crate::telemetry::LoadTelemetry;
use crate::workload::{ArrivalMode, WorkloadConfig, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use tamp_membership::{Hosted, MembershipConfig, MembershipNode, Role};
use tamp_neptune::router::{serves, T_ATTEMPT};
use tamp_neptune::{Dispatch, LoadBalance, Route, RouteConfig, Router};
use tamp_netsim::{Context, IntMap, Nanos, PacketMeta, MILLIS};
use tamp_wire::{Message, NodeId};

/// Generator tunables.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    pub membership: MembershipConfig,
    pub workload: WorkloadConfig,
    /// Partition counts of the two workflow services.
    pub index_partitions: u16,
    pub doc_partitions: u16,
    /// Attempt timeouts of each step.
    pub route: RouteConfig,
}

impl LoadGenConfig {
    pub fn new(membership: MembershipConfig, workload: WorkloadConfig) -> Self {
        LoadGenConfig {
            membership,
            workload,
            index_partitions: 4,
            doc_partitions: 12,
            route: RouteConfig::new(250 * MILLIS),
        }
    }
}

const T_TICK: u64 = 8 << 32;

/// One in-flight user request.
#[derive(Debug)]
struct Req {
    started: Nanos,
    /// 0 = index step, 1 = doc step.
    step: u8,
    doc_part: u16,
    /// The current step's attempts.
    route: Route,
    /// Any step of this request went through a proxy.
    via_proxy: bool,
}

impl Req {
    fn service(&self) -> &'static str {
        if self.step == 0 {
            "index"
        } else {
            "doc"
        }
    }
}

/// The load-generator actor.
pub struct LoadGenNode {
    cfg: LoadGenConfig,
    router: Router,
    telemetry: LoadTelemetry,
    zipf: ZipfSampler,
    /// Private workload stream, decoupled from the engine's entropy so
    /// routing jitter never changes which partitions users ask for.
    rng: StdRng,
    warmed: bool,
    /// Arrival process seeded (one-shot after warm-up).
    started: bool,
    /// Closed loop: tick → number of users whose think time expires then.
    calendar: BTreeMap<u32, u32>,
    /// Open loop: (first tick after warm-up, requests issued so far).
    open_base: Option<(u32, u64)>,
    reqs: IntMap<u32, Req>,
    next_serial: u32,
    /// Attempt seq → owning request. A step has one attempt in flight
    /// at a time, so an attempt that ends is its request's latest.
    inflight: IntMap<u32, u32>,
}

impl LoadGenNode {
    /// A generator and its membership daemon, ready to install.
    pub fn new(me: NodeId, cfg: LoadGenConfig, telemetry: LoadTelemetry) -> Hosted<Self> {
        let daemon = MembershipNode::new(me, cfg.membership.clone());
        let zipf = ZipfSampler::from_skew(cfg.doc_partitions, cfg.workload.skew);
        let rng = StdRng::seed_from_u64(
            cfg.workload
                .seed
                .wrapping_add((me.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let role = LoadGenNode {
            router: Router::new(me, cfg.route),
            telemetry,
            zipf,
            rng,
            warmed: false,
            started: false,
            calendar: BTreeMap::new(),
            open_base: None,
            reqs: IntMap::default(),
            next_serial: 0,
            inflight: IntMap::default(),
            cfg,
        };
        Hosted::new(daemon, role)
    }

    /// One-way latch: true once the view lists every service partition a
    /// request could touch. Later failures must not re-gate arrivals.
    fn warmed_up(&mut self, daemon: &MembershipNode) -> bool {
        if !self.warmed {
            self.warmed = serves(daemon, "index", self.cfg.index_partitions)
                && serves(daemon, "doc", self.cfg.doc_partitions);
        }
        self.warmed
    }

    /// First warm tick: seed the arrival process.
    fn begin(&mut self, tick: u32) {
        match self.cfg.workload.mode {
            ArrivalMode::Closed => {
                // Users start mid-think: each first arrival is a residual
                // think time drawn from the *equilibrium* distribution of
                // the U[m/2, 3m/2) think process — uniform below m/2, a
                // triangular tail above. Starting from the stationary
                // phase keeps the offered rate flat from the first tick
                // (a uniform spread over one window under-fills the tail
                // and ramps ~10% high before mixing). f64 sqrt is
                // IEEE-correctly-rounded, so the draws stay bit-stable.
                let m = self.cfg.workload.think_mean.max(1) as f64;
                let (a, b) = (m / 2.0, 1.5 * m);
                let tick_ns = self.cfg.workload.tick;
                for _ in 0..self.cfg.workload.users {
                    let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let r = if u < 0.5 {
                        2.0 * u * a
                    } else {
                        b - (b - a) * (2.0 - 2.0 * u).sqrt()
                    };
                    let off = (r as u64 / tick_ns) as u32;
                    *self.calendar.entry(tick + 1 + off).or_insert(0) += 1;
                }
            }
            ArrivalMode::Open => self.open_base = Some((tick, 0)),
        }
    }

    /// Arrivals due at `tick`.
    fn due_now(&mut self, tick: u32) -> u64 {
        match self.cfg.workload.mode {
            ArrivalMode::Closed => u64::from(self.calendar.remove(&tick).unwrap_or(0)),
            ArrivalMode::Open => {
                let Some((base, issued)) = self.open_base else {
                    return 0;
                };
                // Deterministic integer arrival schedule at the
                // population's steady rate, independent of completions.
                let elapsed = u128::from(tick - base);
                let target = elapsed
                    * u128::from(self.cfg.workload.users)
                    * u128::from(self.cfg.workload.tick)
                    / u128::from(self.cfg.workload.think_mean.max(1));
                let due = (target.min(u128::from(u64::MAX)) as u64).saturating_sub(issued);
                self.open_base = Some((base, issued + due));
                due
            }
        }
    }

    fn start_request(&mut self, daemon: &MembershipNode, ctx: &mut Context) {
        self.next_serial += 1;
        let serial = self.next_serial;
        let index_part = (self.rng.next_u64() % u64::from(self.cfg.index_partitions)) as u16;
        let doc_part = self.zipf.sample(&mut self.rng);
        ctx.count("load", "issued", 1);
        self.telemetry.record_issue();
        self.reqs.insert(
            serial,
            Req {
                started: ctx.now(),
                step: 0,
                doc_part,
                route: Route::new(index_part),
                via_proxy: false,
            },
        );
        self.dispatch(daemon, ctx, serial);
    }

    /// Route the current step of `serial`: next untried replica, proxy
    /// fallback, or fail the request.
    fn dispatch(&mut self, daemon: &MembershipNode, ctx: &mut Context, serial: u32) {
        let Some(req) = self.reqs.get_mut(&serial) else {
            return;
        };
        let service = req.service();
        let rng = &mut self.rng;
        let draw = &mut |_: &mut Context, n| rng.next_u64() % n;
        match self.router.dispatch(
            ctx,
            daemon,
            &mut req.route,
            service,
            LoadBalance::Random,
            draw,
        ) {
            Dispatch::Sent(seq) => {
                self.inflight.insert(seq, serial);
            }
            Dispatch::Poll(_) => unreachable!("random balancing never polls"),
            Dispatch::GaveUp => self.fail_request(ctx, serial),
        }
    }

    /// Attempt `seq` ended: `answer` says whether its response was ok,
    /// `None` that it timed out.
    fn attempt_ended(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        seq: u32,
        answer: Option<bool>,
    ) {
        let Some(serial) = self.inflight.remove(&seq) else {
            return; // Already answered, or timed out before the response.
        };
        let Some(req) = self.reqs.get_mut(&serial) else {
            return;
        };
        match answer {
            Some(true) if req.step == 0 => {
                // Index step done; start the doc step fresh.
                req.via_proxy |= req.route.used_proxy;
                req.step = 1;
                req.route.reset(req.doc_part);
            }
            Some(true) => {
                req.via_proxy |= req.route.used_proxy;
                return self.complete_request(ctx, serial);
            }
            // The view routed us somewhere that could not serve.
            Some(false) => ctx.count("load", "errors.routed_to_dead", 1),
            None => {
                // Classify: stale view (the replica tried last is already
                // dropped) vs plain timeout (target still believed alive:
                // loss or overload, or the proxy's attempt).
                let route = &req.route;
                let stale = !route.used_proxy
                    && route.tried.last().is_some_and(|target| {
                        !daemon
                            .resolve_service(req.service(), Some(route.partition))
                            .contains(target)
                    });
                let class = if stale {
                    "errors.routed_to_dead"
                } else {
                    "errors.timeout"
                };
                ctx.count("load", class, 1);
            }
        }
        self.dispatch(daemon, ctx, serial);
    }

    fn complete_request(&mut self, ctx: &mut Context, serial: u32) {
        let Some(req) = self.reqs.remove(&serial) else {
            return;
        };
        let now = ctx.now();
        let latency = now - req.started;
        ctx.count("load", "completed", 1);
        if req.via_proxy {
            ctx.count("load", "proxied", 1);
        }
        self.telemetry
            .record_completion(now, req.doc_part, latency, req.via_proxy);
        if self.cfg.workload.mode == ArrivalMode::Closed {
            self.schedule_rearrival(now);
        }
    }

    fn fail_request(&mut self, ctx: &mut Context, serial: u32) {
        if self.reqs.remove(&serial).is_none() {
            return;
        }
        let now = ctx.now();
        ctx.count("load", "failed", 1);
        ctx.count("load", "errors.retry_exhausted", 1);
        self.telemetry.record_failure(now);
        // A failed user thinks and retries too (the page got an error).
        if self.cfg.workload.mode == ArrivalMode::Closed {
            self.schedule_rearrival(now);
        }
    }

    /// Closed loop: after a response the user thinks, then comes back.
    fn schedule_rearrival(&mut self, now: Nanos) {
        let mean = self.cfg.workload.think_mean.max(1);
        // Uniform in [mean/2, 3·mean/2): same mean, cheap, deterministic.
        let think = mean / 2 + self.rng.next_u64() % mean;
        let tick = ((now + think) / self.cfg.workload.tick + 1).min(u64::from(u32::MAX)) as u32;
        *self.calendar.entry(tick).or_insert(0) += 1;
    }
}

impl Role for LoadGenNode {
    /// Service RPC: responses end attempts, stray requests are dropped.
    fn claims(&self, kind: &str, _meta: PacketMeta) -> bool {
        matches!(kind, "svc-req" | "svc-resp")
    }

    fn on_start(&mut self, _daemon: &MembershipNode, ctx: &mut Context) {
        let tick_ns = self.cfg.workload.tick;
        let next = ctx.now() / tick_ns + 1;
        ctx.set_timer(next * tick_ns - ctx.now(), T_TICK | (next & 0xffff_ffff));
    }

    /// A real crash loses the user population's state; ramp up again
    /// from scratch.
    fn reset(&mut self) {
        self.warmed = false;
        self.started = false;
        self.calendar.clear();
        self.open_base = None;
        self.reqs.clear();
        self.inflight.clear();
    }

    fn on_packet(
        &mut self,
        daemon: &MembershipNode,
        ctx: &mut Context,
        _meta: PacketMeta,
        msg: &Message,
    ) {
        if let Message::ServiceResponse(r) = msg {
            self.attempt_ended(daemon, ctx, (r.id & 0xffff_ffff) as u32, Some(r.ok));
        }
    }

    fn on_timer(&mut self, daemon: &MembershipNode, ctx: &mut Context, token: u64) {
        match token & !0xffff_ffff {
            T_TICK => {
                let tick = (token & 0xffff_ffff) as u32;
                ctx.set_timer(
                    self.cfg.workload.tick,
                    T_TICK | u64::from(tick.wrapping_add(1)),
                );
                if !self.warmed_up(daemon) {
                    return;
                }
                if !self.started {
                    self.started = true;
                    self.begin(tick);
                }
                let due = self.due_now(tick);
                for _ in 0..due {
                    self.start_request(daemon, ctx);
                }
            }
            T_ATTEMPT => self.attempt_ended(daemon, ctx, (token & 0xffff_ffff) as u32, None),
            _ => {}
        }
    }
}
