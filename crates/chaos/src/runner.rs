//! The fault driver: executes a [`Schedule`] against a simulated
//! membership cluster, records ground truth, and judges the run with the
//! oracle. Everything is deterministic in `(topology, schedule, seed)` —
//! the same inputs produce a byte-identical [`ScenarioRun::report`].

use crate::cluster::{build_cluster, Cluster, Protocol};
use crate::oracle::{self, OracleConfig, Violation};
use crate::schedule::{fmt_duration, Action, Schedule, ScheduledFault, Target};
use crate::truth::GroundTruth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_membership::{MembershipConfig, Probe};
use tamp_netsim::telemetry::{MetricsSnapshot, CLUSTER, REFUTATION_KINDS};
use tamp_netsim::{Engine, EngineConfig, TraceRecord};
use tamp_topology::{HostId, RouterId, SegmentId, Topology};

/// Everything a scenario run needs besides the schedule itself.
pub struct ScenarioConfig {
    pub topo: Topology,
    pub seed: u64,
    pub membership: MembershipConfig,
    pub engine: EngineConfig,
    /// Judge with the strict oracle: no loss or repair-window excuses,
    /// and removals must follow the suspicion state machine (see
    /// [`OracleConfig::strict`]).
    pub strict: bool,
    /// Protocol to build the cluster from. A `protocol` directive in the
    /// schedule overrides this, the same way a `topology` directive
    /// overrides `topo`.
    pub protocol: Protocol,
}

impl ScenarioConfig {
    /// A two-segment, ten-host cluster at default tunables — the
    /// standard chaos target (matches the repo's invariant tests).
    pub fn two_segments(seed: u64) -> Self {
        ScenarioConfig {
            topo: tamp_topology::generators::star_of_segments(2, 5),
            seed,
            membership: MembershipConfig::default(),
            engine: EngineConfig::default(),
            strict: false,
            protocol: Protocol::Tamp,
        }
    }

    /// A router-ring cluster — the adversarial target for router faults:
    /// every segment pair has two disjoint paths, so a single router
    /// loss re-routes (TTL re-scoping, live group re-formation) instead
    /// of partitioning.
    pub fn ring(segments: usize, hosts_per_segment: usize, seed: u64) -> Self {
        ScenarioConfig {
            topo: tamp_topology::generators::ring_of_segments(segments, hosts_per_segment),
            ..ScenarioConfig::two_segments(seed)
        }
    }
}

/// The outcome of one scenario run.
pub struct ScenarioRun {
    pub seed: u64,
    pub schedule: Schedule,
    /// Concrete action log: what each event resolved to at fire time
    /// (leader/random targets pinned to real hosts, skips noted).
    pub resolved: Vec<String>,
    pub violations: Vec<Violation>,
    /// Hosts alive at the horizon.
    pub live: Vec<u32>,
    pub horizon: tamp_topology::Nanos,
    /// Structured event-trace records (protocol packets interleaved with
    /// the injected faults), when the engine config enables tracing.
    pub trace: Vec<TraceRecord>,
    /// Telemetry snapshot at the horizon. Metrics are always collected
    /// for chaos runs (the runner forces them on) so a failing report
    /// can explain itself.
    pub metrics: MetricsSnapshot,
    /// Protocol the cluster actually ran (config or schedule override).
    pub protocol: Protocol,
    pub(crate) topo_desc: String,
}

impl ScenarioRun {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic telemetry digest appended to failing reports:
    /// where packets went missing and what the failure detector did.
    fn diagnostics(&self) -> String {
        let drop = |name: &str| self.metrics.counter(CLUSTER, "net", name);
        let ev = |kind: &str| self.metrics.counter_total("events", kind);
        let refuted: u64 = REFUTATION_KINDS.iter().map(|k| ev(k)).sum();
        let mut out = String::new();
        out.push_str("telemetry:\n");
        out.push_str(&format!(
            "  drops: loss {} / dead-host {} / partition {} / gray {} / unroutable {}\n",
            drop("drop.loss"),
            drop("drop.dead_host"),
            drop("drop.partition"),
            drop("drop.gray"),
            drop("drop.unroutable"),
        ));
        out.push_str(&format!(
            "  suspicions: raised {} refuted {} confirmed {}\n",
            ev("suspicion-armed"),
            refuted,
            ev("suspicion-confirmed"),
        ));
        if self.protocol.is_hierarchical() {
            out.push_str(&format!(
                "  deaths declared {} / elections started {} / leaderships claimed {}\n",
                ev("death-declared"),
                ev("election-round"),
                ev("leadership-claimed"),
            ));
            out.push_str(&format!(
                "  quarantines: armed {} lifted {} purged {}\n",
                ev("subtree-quarantined"),
                ev("quarantine-lifted"),
                ev("removed-quarantine"),
            ));
            if self.protocol == Protocol::TampRapid {
                out.push_str(&format!(
                    "  cut detection: reports {} batches {}\n",
                    ev("cut-report"),
                    ev("cut-batch"),
                ));
            }
        } else {
            out.push_str(&format!("  deaths declared {}\n", ev("death-declared")));
        }
        out
    }

    /// Human-readable, byte-deterministic report. Embeds the canonical
    /// schedule so a failure is copy-pasteable into a scenario file.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("== tamp-chaos scenario report ==\n");
        out.push_str(&format!("seed:     {}\n", self.seed));
        out.push_str(&format!("protocol: {}\n", self.protocol.name()));
        out.push_str(&format!("topology: {}\n", self.topo_desc));
        out.push_str(&format!("horizon:  {}\n", fmt_duration(self.horizon)));
        out.push_str("schedule:\n");
        for line in self.schedule.render().lines() {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str("resolved:\n");
        for line in &self.resolved {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!("live at horizon: {:?}\n", self.live));
        if self.violations.is_empty() {
            out.push_str("violations: none\n");
            out.push_str("verdict: PASS\n");
        } else {
            out.push_str(&format!("violations: {}\n", self.violations.len()));
            const SHOWN: usize = 20;
            for v in self.violations.iter().take(SHOWN) {
                out.push_str(&format!("  - {v}\n"));
            }
            if self.violations.len() > SHOWN {
                out.push_str(&format!("  … and {} more\n", self.violations.len() - SHOWN));
            }
            out.push_str(&self.diagnostics());
            out.push_str("verdict: FAIL\n");
        }
        out
    }
}

/// Resolve a symbolic target to a concrete host, or a skip reason.
/// `want_live` selects the eligible pool (kill wants live hosts, revive
/// wants dead ones). `probes[i]`, when present, is host `i`'s leadership
/// probe; hosts without probes still count as kill/revive targets but
/// cast no leader votes.
fn resolve_target(
    target: Target,
    probes: &[Option<Probe>],
    truth: &GroundTruth,
    rng: &mut StdRng,
    want_live: bool,
) -> Result<u32, &'static str> {
    let n = probes.len() as u32;
    let pool: Vec<u32> = (0..n).filter(|&h| truth.is_alive(h) == want_live).collect();
    match target {
        Target::Host(h) => {
            if h >= n {
                Err("no such host")
            } else if pool.contains(&h) {
                Ok(h)
            } else if want_live {
                Err("already dead")
            } else {
                Err("already alive")
            }
        }
        Target::Random => {
            if pool.is_empty() {
                Err("no eligible host")
            } else {
                Ok(pool[rng.gen_range(0..pool.len())])
            }
        }
        Target::Leader(level) => {
            // Majority vote among live nodes' believed leaders at this
            // level; ties break toward the lowest node id so resolution
            // is deterministic.
            let mut votes: std::collections::BTreeMap<u32, usize> =
                std::collections::BTreeMap::new();
            for h in (0..n).filter(|&h| truth.is_alive(h)) {
                let claim = probes[h as usize]
                    .as_ref()
                    .and_then(|p| p.lock().leaders.get(level as usize).copied().flatten());
                if let Some(l) = claim {
                    *votes.entry(l.0).or_insert(0) += 1;
                }
            }
            let winner = votes
                .iter()
                .max_by_key(|&(id, count)| (*count, std::cmp::Reverse(*id)))
                .map(|(&id, _)| id);
            match winner {
                Some(l) if pool.contains(&l) => Ok(l),
                Some(_) => Err("believed leader not eligible"),
                None => Err("no leader known at this level"),
            }
        }
    }
}

/// Step the engine through every event of `schedule`, firing faults and
/// recording them in `truth`. Returns the concrete action log. Shared by
/// the single-cluster and multi-datacenter runners, and by external
/// drivers (e.g. `tamp-load` chaos-under-load campaigns) that need to
/// replay a schedule against an engine they built themselves.
pub fn apply_schedule(
    engine: &mut Engine,
    probes: &[Option<Probe>],
    schedule: &Schedule,
    seed: u64,
    base_loss: f64,
    truth: &mut GroundTruth,
) -> Vec<String> {
    // Separate stream from the engine's so adding engine entropy never
    // changes target resolution.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut resolved = Vec::new();

    for (idx, ev) in schedule.events.iter().enumerate() {
        engine.run_until(ev.at);
        if let Action::ChurnStorm { count, duration } = ev.action {
            // Expand the storm into concrete kill/revive pairs up front,
            // from an RNG derived from (run seed, event index) only — so
            // the expansion is stable under schedule edits elsewhere and
            // under shrinking (a storm is removed or kept whole). Every
            // pair revives before the storm window closes, so the storm
            // perturbs membership without changing the final live set.
            let mut srng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21 ^ idx as u64);
            let mut subs: Vec<ScheduledFault> = Vec::new();
            for _ in 0..count {
                let span = duration.max(2);
                let down_at = ev.at + srng.gen_range(0..span / 2);
                let up_at = down_at + srng.gen_range(1..=(ev.at + span - down_at));
                subs.push(ScheduledFault {
                    at: down_at,
                    action: Action::Kill(Target::Random),
                });
                subs.push(ScheduledFault {
                    at: up_at,
                    action: Action::Revive(Target::Random),
                });
            }
            subs.sort_by_key(|e| e.at);
            resolved.push(format!(
                "at {} churn-storm {count} for {} ({} events)",
                fmt_duration(ev.at),
                fmt_duration(duration),
                subs.len()
            ));
            for sub in &subs {
                engine.run_until(sub.at);
                fire(
                    engine,
                    probes,
                    truth,
                    &mut rng,
                    &mut resolved,
                    base_loss,
                    sub,
                );
            }
            continue;
        }
        fire(
            engine,
            probes,
            truth,
            &mut rng,
            &mut resolved,
            base_loss,
            ev,
        );
    }
    resolved
}

/// Segment pairs with no routed path between them (the fabric, not host
/// death, keeps them apart).
fn unreachable_pairs(topo: &Topology) -> Vec<(u16, u16)> {
    let n = topo.num_segments() as u16;
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if topo.segment_hops(SegmentId(a), SegmentId(b)) == u8::MAX {
                out.push((a, b));
            }
        }
    }
    out
}

/// Fire one concrete fault event: mutate the engine, record ground
/// truth, and append the resolved-action log line.
fn fire(
    engine: &mut Engine,
    probes: &[Option<Probe>],
    truth: &mut GroundTruth,
    rng: &mut StdRng,
    resolved: &mut Vec<String>,
    base_loss: f64,
    ev: &ScheduledFault,
) {
    let segs = engine.topology().num_segments() as u16;
    let at = fmt_duration(ev.at);
    match ev.action {
        Action::Kill(t) => match resolve_target(t, probes, truth, rng, true) {
            Ok(h) => {
                truth.record_kill(ev.at, h);
                engine.kill_now(HostId(h));
                resolved.push(format!("at {at} kill host {h}"));
            }
            Err(why) => resolved.push(format!("at {at} kill skipped ({why})")),
        },
        Action::Revive(t) => match resolve_target(t, probes, truth, rng, false) {
            Ok(h) => {
                truth.record_revive(ev.at, h);
                engine.revive_now(HostId(h));
                resolved.push(format!("at {at} revive host {h}"));
            }
            Err(why) => resolved.push(format!("at {at} revive skipped ({why})")),
        },
        Action::Partition(a, b) => {
            if a >= segs || b >= segs {
                resolved.push(format!("at {at} partition skipped (no such segment)"));
            } else {
                truth.record_partition(ev.at, a, b);
                engine.control_now(tamp_netsim::Control::BlockSegments(
                    SegmentId(a),
                    SegmentId(b),
                ));
                resolved.push(format!("at {at} partition {a} {b}"));
            }
        }
        Action::Heal(a, b) => {
            truth.record_heal(ev.at, a, b);
            engine.control_now(tamp_netsim::Control::UnblockSegments(
                SegmentId(a),
                SegmentId(b),
            ));
            resolved.push(format!("at {at} heal {a} {b}"));
        }
        Action::HealAll => {
            truth.record_heal_all(ev.at);
            for a in 0..segs {
                for b in (a + 1)..segs {
                    engine.control_now(tamp_netsim::Control::UnblockSegments(
                        SegmentId(a),
                        SegmentId(b),
                    ));
                    engine.control_now(tamp_netsim::Control::UnblockDirection(
                        SegmentId(a),
                        SegmentId(b),
                    ));
                    engine.control_now(tamp_netsim::Control::UnblockDirection(
                        SegmentId(b),
                        SegmentId(a),
                    ));
                }
            }
            resolved.push(format!("at {at} heal all"));
        }
        Action::Loss { rate, duration } => {
            truth.record_loss(ev.at, rate, duration);
            engine.control_now(tamp_netsim::Control::SetLoss(rate));
            engine.schedule(ev.at + duration, tamp_netsim::Control::SetLoss(base_loss));
            resolved.push(format!(
                "at {at} loss {rate} for {}",
                fmt_duration(duration)
            ));
        }
        Action::GrayPartition(a, b) => {
            if a >= segs || b >= segs {
                resolved.push(format!("at {at} gray-partition skipped (no such segment)"));
            } else {
                truth.record_gray(ev.at, a, b);
                engine.control_now(tamp_netsim::Control::BlockDirection(
                    SegmentId(a),
                    SegmentId(b),
                ));
                resolved.push(format!("at {at} gray-partition {a} {b}"));
            }
        }
        Action::GrayHeal(a, b) => {
            truth.record_gray_heal(ev.at, a, b);
            engine.control_now(tamp_netsim::Control::UnblockDirection(
                SegmentId(a),
                SegmentId(b),
            ));
            resolved.push(format!("at {at} gray-heal {a} {b}"));
        }
        Action::RackFail(s) => {
            if s >= segs {
                resolved.push(format!("at {at} rack-fail skipped (no such segment)"));
            } else {
                // Atomic: the whole subtree dies in one instant, the
                // correlated-failure shape a PDU or ToR loss produces.
                let hosts: Vec<u32> = engine
                    .topology()
                    .hosts_on(SegmentId(s))
                    .iter()
                    .map(|h| h.0)
                    .filter(|&h| truth.is_alive(h))
                    .collect();
                for &h in &hosts {
                    truth.record_kill(ev.at, h);
                    engine.kill_now(HostId(h));
                }
                resolved.push(format!("at {at} rack-fail {s} ({} hosts)", hosts.len()));
            }
        }
        Action::RackRecover(s) => {
            if s >= segs {
                resolved.push(format!("at {at} rack-recover skipped (no such segment)"));
            } else {
                let hosts: Vec<u32> = engine
                    .topology()
                    .hosts_on(SegmentId(s))
                    .iter()
                    .map(|h| h.0)
                    .filter(|&h| !truth.is_alive(h))
                    .collect();
                for &h in &hosts {
                    truth.record_revive(ev.at, h);
                    engine.revive_now(HostId(h));
                }
                resolved.push(format!("at {at} rack-recover {s} ({} hosts)", hosts.len()));
            }
        }
        Action::Skew { host, ppm } => {
            if host as usize >= engine.topology().num_hosts() {
                resolved.push(format!("at {at} skew skipped (no such host)"));
            } else {
                engine.control_now(tamp_netsim::Control::SetSkew(HostId(host), ppm));
                resolved.push(format!("at {at} skew {host} {ppm}"));
            }
        }
        Action::RouterDown(r) => {
            if r as usize >= engine.topology().num_routers() {
                resolved.push(format!("at {at} router-down skipped (no such router)"));
            } else if !engine.topology().router_is_up(RouterId(r)) {
                resolved.push(format!("at {at} router-down skipped (already down)"));
            } else {
                let before = unreachable_pairs(engine.topology());
                engine.control_now(tamp_netsim::Control::RouterDown(r));
                truth.record_router_change(ev.at);
                // Pairs the fabric can no longer route count as
                // partitions: the oracle excuses their removals and
                // holds quiescence checks while they stand.
                for &(a, b) in &unreachable_pairs(engine.topology()) {
                    if !before.contains(&(a, b)) {
                        truth.record_partition(ev.at, a, b);
                    }
                }
                resolved.push(format!("at {at} router-down {r}"));
            }
        }
        Action::RouterUp(r) => {
            if r as usize >= engine.topology().num_routers() {
                resolved.push(format!("at {at} router-up skipped (no such router)"));
            } else if engine.topology().router_is_up(RouterId(r)) {
                resolved.push(format!("at {at} router-up skipped (already up)"));
            } else {
                let before = unreachable_pairs(engine.topology());
                engine.control_now(tamp_netsim::Control::RouterUp(r));
                truth.record_router_change(ev.at);
                let after = unreachable_pairs(engine.topology());
                for &(a, b) in &before {
                    if !after.contains(&(a, b)) {
                        truth.record_heal(ev.at, a, b);
                    }
                }
                resolved.push(format!("at {at} router-up {r}"));
            }
        }
        // Expanded by `apply_schedule` before dispatch.
        Action::ChurnStorm { .. } => unreachable!("churn storms are pre-expanded"),
    }
}

/// Execute `schedule` against a fresh cluster built from `cfg`. A
/// topology carried by the schedule (`topology` DSL directive) replaces
/// `cfg.topo`, so scenario files that need a specific fabric shape
/// (router faults want a ring) are self-contained.
pub fn run_scenario(cfg: &ScenarioConfig, schedule: &Schedule) -> ScenarioRun {
    let mut schedule = schedule.clone();
    schedule.normalize();
    let topo = schedule
        .topo
        .map_or_else(|| cfg.topo.clone(), |spec| spec.build());
    let topo_desc = format!(
        "{} segments, {} hosts",
        topo.num_segments(),
        topo.num_hosts()
    );
    // A `protocol` directive in the scenario wins, like `topology`.
    let protocol = schedule.protocol.unwrap_or(cfg.protocol);
    // Chaos runs always meter the network and the protocol: a failing
    // report must be able to explain itself without a re-run.
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.metrics = true;
    let cluster = build_cluster(
        topo,
        engine_cfg,
        cfg.seed,
        protocol,
        &cfg.membership,
        |_| cfg.membership.services.clone(),
    );
    let domain = vec![cluster.engine.hosts()];
    play_and_judge(cfg, schedule, protocol, cluster, &domain, topo_desc, |_| {
        Vec::new()
    })
}

/// The one judge both runners share: play `schedule` on `cluster` to its
/// horizon, then hold the run to the oracle sized for `protocol` —
/// removals against ground truth, convergence within each of `domains`
/// (host sets that keep separate views), leader agreement when every
/// host has a probe, and last the runner's own `extra` check.
pub(crate) fn play_and_judge(
    cfg: &ScenarioConfig,
    schedule: Schedule,
    protocol: Protocol,
    mut cluster: Cluster,
    domains: &[Vec<HostId>],
    topo_desc: String,
    extra: impl FnOnce(&GroundTruth) -> Vec<Violation>,
) -> ScenarioRun {
    let engine = &mut cluster.engine;
    let mut truth = GroundTruth::new();
    let resolved = apply_schedule(
        engine,
        &cluster.probes,
        &schedule,
        cfg.seed,
        cfg.engine.loss.rate,
        &mut truth,
    );
    let horizon = schedule.horizon();
    engine.run_until(horizon);

    let topo = engine.topology();
    let max_level = (usize::BITS - topo.num_segments().leading_zeros()) as u8;
    let ocfg = OracleConfig::of(
        protocol,
        &cfg.membership,
        topo.num_hosts(),
        max_level,
        cfg.strict,
    );
    let mut violations = oracle::check_removals(engine.stats().observations(), &truth, topo, &ocfg);
    for domain in domains {
        violations.extend(oracle::check_convergence(domain, &cluster.clients, &truth));
    }
    // Leader agreement only means something for the hierarchical node.
    let leader_probes: Vec<Probe> = cluster.probes.iter().flatten().cloned().collect();
    if leader_probes.len() == cluster.probes.len() {
        violations.extend(oracle::check_leaders(&leader_probes, &truth, topo));
    }
    violations.extend(extra(&truth));

    let live: Vec<u32> = (0..cluster.clients.len() as u32)
        .filter(|&h| truth.is_alive(h))
        .collect();
    ScenarioRun {
        seed: cfg.seed,
        schedule,
        resolved,
        violations,
        live,
        horizon,
        trace: engine.trace_log().records().cloned().collect(),
        metrics: engine.registry().snapshot(),
        protocol,
        topo_desc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduledFault;
    use tamp_topology::SECS;

    #[test]
    fn empty_schedule_passes_on_healthy_cluster() {
        let cfg = ScenarioConfig::two_segments(7);
        let run = run_scenario(&cfg, &Schedule::default());
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn kill_and_partition_cycle_passes() {
        let cfg = ScenarioConfig::two_segments(7);
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::Kill(Target::Host(3)),
            },
            ScheduledFault {
                at: 25 * SECS,
                action: Action::Partition(0, 1),
            },
            ScheduledFault {
                at: 55 * SECS,
                action: Action::HealAll,
            },
            ScheduledFault {
                at: 60 * SECS,
                action: Action::Revive(Target::Host(3)),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 10);
    }

    #[test]
    fn leader_kill_resolves_to_a_real_host() {
        let cfg = ScenarioConfig::two_segments(3);
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 25 * SECS,
            action: Action::Kill(Target::Leader(0)),
        }]);
        let run = run_scenario(&cfg, &schedule);
        assert!(
            run.resolved[0].contains("kill host"),
            "leader did not resolve: {:?}",
            run.resolved
        );
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 9);
    }

    #[test]
    fn gray_partition_cycle_passes_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            ..ScenarioConfig::two_segments(7)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::GrayPartition(0, 1),
            },
            ScheduledFault {
                at: 50 * SECS,
                action: Action::GrayHeal(0, 1),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 10);
    }

    #[test]
    fn rack_fail_and_recover_pass_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            ..ScenarioConfig::two_segments(7)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::RackFail(1),
            },
            ScheduledFault {
                at: 60 * SECS,
                action: Action::RackRecover(1),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
        assert!(
            run.resolved
                .iter()
                .any(|l| l.contains("rack-fail 1 (5 hosts)")),
            "{:?}",
            run.resolved
        );
        assert_eq!(run.live.len(), 10);
    }

    #[test]
    fn churn_storm_expansion_is_deterministic_and_self_healing() {
        let cfg = ScenarioConfig::two_segments(9);
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 20 * SECS,
            action: Action::ChurnStorm {
                count: 4,
                duration: 20 * SECS,
            },
        }]);
        let a = run_scenario(&cfg, &schedule);
        let b = run_scenario(&cfg, &schedule);
        assert_eq!(a.report(), b.report());
        // 1 storm line + 8 sub-events (some may be skips).
        assert_eq!(a.resolved.len(), 9, "{:?}", a.resolved);
        assert!(a.resolved[0].contains("churn-storm 4 for 20s"));
        assert!(a.passed(), "{}", a.report());
        assert_eq!(a.live.len(), 10, "storm must self-heal: {:?}", a.resolved);
    }

    #[test]
    fn schedule_topology_overrides_config() {
        let schedule = Schedule {
            topo: Some(crate::schedule::TopoSpec::Ring {
                segments: 3,
                hosts_per_segment: 2,
            }),
            ..Schedule::default()
        };
        // Config says 2×5 star; the schedule's ring 3×2 must win.
        let run = run_scenario(&ScenarioConfig::two_segments(7), &schedule);
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 6);
        assert!(run.report().contains("3 segments, 6 hosts"));
    }

    #[test]
    fn router_down_on_ring_reforms_and_passes_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            ..ScenarioConfig::ring(4, 2, 7)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 25 * SECS,
                action: Action::RouterDown(0),
            },
            ScheduledFault {
                at: 70 * SECS,
                action: Action::RouterUp(0),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        // The ring keeps every pair routable, so no partition is
        // recorded and convergence/leader checks run for real.
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 8);
    }

    #[test]
    fn router_down_on_star_counts_as_partition() {
        let cfg = ScenarioConfig::two_segments(7);
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 25 * SECS,
            action: Action::RouterDown(0),
        }]);
        let mut truth = GroundTruth::new();
        let mut cluster = build_cluster(
            cfg.topo,
            cfg.engine,
            cfg.seed,
            Protocol::Tamp,
            &cfg.membership,
            |_| Vec::new(),
        );
        apply_schedule(
            &mut cluster.engine,
            &cluster.probes,
            &schedule,
            7,
            0.0,
            &mut truth,
        );
        // The star's only router is gone: segments 0/1 are unroutable,
        // recorded as a partition so quiescence checks hold off.
        assert!(truth.any_partition_active());
        assert!(truth.partitioned_in(0, 1, 25 * SECS, 26 * SECS));
    }

    #[test]
    fn skew_event_applies_and_passes_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            ..ScenarioConfig::two_segments(7)
        };
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 15 * SECS,
            action: Action::Skew { host: 3, ppm: 200 },
        }]);
        let run = run_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
        assert!(run.resolved[0].contains("skew 3 200"), "{:?}", run.resolved);
    }

    #[test]
    fn swim_kill_and_restart_passes_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            protocol: Protocol::Swim,
            ..ScenarioConfig::two_segments(7)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::Kill(Target::Host(3)),
            },
            ScheduledFault {
                at: 60 * SECS,
                action: Action::Revive(Target::Host(3)),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        assert_eq!(run.protocol, Protocol::Swim);
        assert!(run.passed(), "{}", run.report());
        assert_eq!(run.live.len(), 10);
        // The death went through SWIM's suspicion machinery, not a
        // silent drop.
        assert!(run.metrics.counter_total("events", "suspicion-armed") > 0);
        assert!(run.metrics.counter_total("events", "death-declared") > 0);
    }

    #[test]
    fn rapid_kill_confirms_via_cut_detection_strict() {
        let cfg = ScenarioConfig {
            strict: true,
            protocol: Protocol::TampRapid,
            ..ScenarioConfig::two_segments(9)
        };
        let schedule = Schedule::new(vec![ScheduledFault {
            at: 20 * SECS,
            action: Action::Kill(Target::Host(3)),
        }]);
        let run = run_scenario(&cfg, &schedule);
        assert_eq!(run.protocol, Protocol::TampRapid);
        assert!(run.passed(), "{}", run.report());
        // The removal was an aggregated cut, not a lone-observer timeout.
        assert!(run.metrics.counter_total("events", "cut-report") >= 2);
        assert!(run.metrics.counter_total("events", "cut-batch") > 0);
    }

    #[test]
    fn rapid_gray_cut_causes_zero_removals() {
        // The acceptance bar for cut detection: a one-way (gray) cut
        // leaves a single cross-segment observer starved of heartbeats.
        // In timeout mode that observer eventually declares the remote
        // side dead; in cut-detection mode its lone vote stays below the
        // effective watermark forever, so NOBODY is removed — not even
        // with the cross-segment gray excuse available.
        let cfg = ScenarioConfig {
            strict: true,
            protocol: Protocol::TampRapid,
            ..ScenarioConfig::two_segments(7)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::GrayPartition(0, 1),
            },
            ScheduledFault {
                at: 42 * SECS,
                action: Action::GrayHeal(0, 1),
            },
        ]);
        let run = run_scenario(&cfg, &schedule);
        assert!(run.passed(), "{}", run.report());
        assert_eq!(
            run.metrics.counter_total("events", "death-declared"),
            0,
            "a one-way cut must not kill anyone under cut detection"
        );
        assert_eq!(run.live.len(), 10);
    }

    #[test]
    fn schedule_protocol_directive_overrides_config() {
        let schedule = Schedule {
            protocol: Some(Protocol::AllToAll),
            ..Schedule::default()
        };
        let run = run_scenario(&ScenarioConfig::two_segments(7), &schedule);
        assert_eq!(run.protocol, Protocol::AllToAll);
        assert!(run.passed(), "{}", run.report());
        assert!(run.report().contains("protocol: alltoall"));
    }

    #[test]
    fn same_seed_same_bytes() {
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::Kill(Target::Random),
            },
            ScheduledFault {
                at: 40 * SECS,
                action: Action::Revive(Target::Random),
            },
        ]);
        let a = run_scenario(&ScenarioConfig::two_segments(11), &schedule);
        let b = run_scenario(&ScenarioConfig::two_segments(11), &schedule);
        assert_eq!(a.report(), b.report());
        let c = run_scenario(&ScenarioConfig::two_segments(12), &schedule);
        // Different seed resolves the random kill differently (not
        // guaranteed in general, but true for this seed pair).
        assert_ne!(a.report(), c.report());
    }
}
