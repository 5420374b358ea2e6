//! Randomized scenario generation and seeded sweeps.
//!
//! [`random_schedule`] derives a fault program entirely from a seed, so
//! a sweep is reproducible from its seed list alone. Generated schedules
//! respect the constraints the oracle's quiescence checks assume: every
//! partition is healed before the settle window, and loss bursts stay at
//! or above the oracle's excuse threshold (below it, an unlucky run of
//! heartbeat losses could produce a justified-looking removal the oracle
//! would have to call a bug).

use crate::runner::ScenarioRun;
use crate::schedule::{Action, Schedule, ScheduledFault, Target, TopoSpec};
use crate::shrink::shrink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_netsim::telemetry::MetricsSnapshot;
use tamp_par::Pool;
use tamp_topology::SECS;

/// Shape constraints for generated schedules.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub num_hosts: u32,
    pub num_segments: u16,
    /// Fault events per schedule (inclusive bounds).
    pub min_events: usize,
    pub max_events: usize,
    /// Events fire inside `[10s, active_window]`.
    pub active_window_secs: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_hosts: 10,
            num_segments: 2,
            min_events: 1,
            max_events: 5,
            active_window_secs: 80,
        }
    }
}

/// Generate a schedule from `seed` under `g`'s constraints.
pub fn random_schedule(seed: u64, g: &GeneratorConfig) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let n = rng.gen_range(g.min_events..=g.max_events);
    let mut partitioned = false;
    for _ in 0..n {
        let at = rng.gen_range(10..=g.active_window_secs) * SECS;
        let action = match rng.gen_range(0u32..10) {
            // Kills dominate: they are the protocol's main diet.
            0..=2 => Action::Kill(random_target(&mut rng, g)),
            3..=4 => Action::Revive(if rng.gen_bool(0.5) {
                Target::Host(rng.gen_range(0..g.num_hosts))
            } else {
                Target::Random
            }),
            5..=6 if g.num_segments >= 2 => {
                partitioned = true;
                let a = rng.gen_range(0..g.num_segments);
                let b = (a + rng.gen_range(1..g.num_segments)) % g.num_segments;
                Action::Partition(a, b)
            }
            7..=8 => Action::Loss {
                // Quantized so rendered schedules stay tidy; floor 0.30
                // keeps bursts above the oracle's excuse threshold.
                rate: rng.gen_range(30u32..=85) as f64 / 100.0,
                duration: rng.gen_range(2u64..=12) * SECS,
            },
            _ => Action::Kill(Target::Random),
        };
        events.push(ScheduledFault { at, action });
    }
    if partitioned {
        // Oracle quiescence checks need an undivided cluster: heal
        // everything after the last event, inside the settle runway.
        let last = events.iter().map(|e| e.at).max().unwrap_or(0);
        events.push(ScheduledFault {
            at: last + 5 * SECS,
            action: Action::HealAll,
        });
    }
    Schedule::new(events)
}

fn random_target(rng: &mut StdRng, g: &GeneratorConfig) -> Target {
    match rng.gen_range(0u32..4) {
        0 => Target::Host(rng.gen_range(0..g.num_hosts)),
        1 => Target::Leader(if rng.gen_bool(0.5) { 0 } else { 1 }),
        _ => Target::Random,
    }
}

/// Shape constraints for the adversarial (A10) generator: the five
/// production fault classes — gray partitions, correlated rack failure,
/// churn storms, clock skew, router loss — on a router-ring fabric.
///
/// A separate profile (rather than new arms inside [`random_schedule`])
/// keeps the classic generator's seed → schedule mapping stable: sweeps
/// and shrunk repros recorded against old seeds stay replayable.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    pub num_segments: u16,
    pub hosts_per_segment: u16,
    /// Fault events per schedule (inclusive bounds); paired recoveries
    /// (gray-heal, rack-recover, router-up) ride along for free.
    pub min_events: usize,
    pub max_events: usize,
    /// Events fire inside `[10s, active_window]`.
    pub active_window_secs: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            num_segments: 4,
            hosts_per_segment: 2,
            min_events: 1,
            max_events: 4,
            active_window_secs: 80,
        }
    }
}

impl AdversarialConfig {
    fn num_hosts(&self) -> u32 {
        self.num_segments as u32 * self.hosts_per_segment as u32
    }
}

/// Generate an adversarial schedule from `seed`: every event is one of
/// the five production fault classes, on a ring topology the schedule
/// carries itself. Disruptions that must end for quiescence checks to
/// bite (gray partitions, rack failures) always get a recovery before
/// the settle window; routers come back up only half the time — on the
/// ring, a run must converge around a still-missing router too.
pub fn adversarial_schedule(seed: u64, g: &AdversarialConfig) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xadbe_ef01);
    let mut events = Vec::new();
    let n = rng.gen_range(g.min_events..=g.max_events);
    for _ in 0..n {
        let at = rng.gen_range(10..=g.active_window_secs) * SECS;
        let recover_at = at + rng.gen_range(15u64..=25) * SECS;
        match rng.gen_range(0u32..10) {
            0..=1 => {
                let a = rng.gen_range(0..g.num_segments);
                let b = (a + rng.gen_range(1..g.num_segments)) % g.num_segments;
                events.push(ScheduledFault {
                    at,
                    action: Action::GrayPartition(a, b),
                });
                events.push(ScheduledFault {
                    at: recover_at,
                    action: Action::GrayHeal(a, b),
                });
            }
            2..=3 => {
                let s = rng.gen_range(0..g.num_segments);
                events.push(ScheduledFault {
                    at,
                    action: Action::RackFail(s),
                });
                events.push(ScheduledFault {
                    at: recover_at,
                    action: Action::RackRecover(s),
                });
            }
            4..=5 => events.push(ScheduledFault {
                at,
                action: Action::ChurnStorm {
                    count: rng.gen_range(2u32..=5),
                    duration: rng.gen_range(5u64..=15) * SECS,
                },
            }),
            6 => {
                let sign: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
                events.push(ScheduledFault {
                    at,
                    action: Action::Skew {
                        host: rng.gen_range(0..g.num_hosts()),
                        ppm: sign * rng.gen_range(50i64..=300),
                    },
                });
            }
            7..=8 => {
                let r = rng.gen_range(0..g.num_segments); // ring: one router per segment
                events.push(ScheduledFault {
                    at,
                    action: Action::RouterDown(r),
                });
                if rng.gen_bool(0.5) {
                    events.push(ScheduledFault {
                        at: recover_at,
                        action: Action::RouterUp(r),
                    });
                }
            }
            _ => events.push(ScheduledFault {
                at,
                action: Action::Kill(Target::Random),
            }),
        }
    }
    let mut s = Schedule::new(events);
    s.topo = Some(TopoSpec::Ring {
        segments: g.num_segments,
        hosts_per_segment: g.hosts_per_segment,
    });
    s
}

/// One failing sweep entry, shrunk to a minimal repro.
pub struct SweepFailure {
    pub seed: u64,
    pub original: Schedule,
    pub shrunk: Schedule,
    /// The failing run of the *shrunk* schedule.
    pub run: ScenarioRun,
}

/// Result of a seeded sweep.
pub struct SweepReport {
    /// `(seed, passed)` per attempted seed, in order.
    pub runs: Vec<(u64, bool)>,
    /// First failure, shrunk (the sweep stops there).
    pub failure: Option<SweepFailure>,
    /// Per-run telemetry snapshots folded across every attempted seed
    /// (associative merge, so parallel sweeps equal sequential ones).
    pub metrics: MetricsSnapshot,
}

impl SweepReport {
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Deterministic summary; on failure, embeds the shrunk schedule's
    /// full report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let ok = self.runs.iter().filter(|(_, p)| *p).count();
        out.push_str(&format!(
            "== tamp-chaos sweep: {}/{} seeds passed ==\n",
            ok,
            self.runs.len()
        ));
        for (seed, passed) in &self.runs {
            out.push_str(&format!(
                "  seed {seed}: {}\n",
                if *passed { "pass" } else { "FAIL" }
            ));
        }
        if let Some(f) = &self.failure {
            out.push_str(&format!(
                "first failure at seed {} ({} events, shrunk to {}):\n",
                f.seed,
                f.original.events.len(),
                f.shrunk.events.len()
            ));
            for line in f.run.report().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

/// The seeds a sweep of `count` seeds starting at `first_seed` visits.
/// Saturating: a sweep starting near `u64::MAX` is truncated at the
/// type's ceiling instead of overflowing (which used to panic in debug
/// builds as `first_seed..first_seed + count`).
pub fn seed_range(first_seed: u64, count: u64) -> std::ops::Range<u64> {
    first_seed..first_seed.saturating_add(count)
}

/// Run every seed of `seeds`: draw its schedule from `schedule_of`,
/// execute it with `run`, and on the first oracle failure [`shrink`] it
/// to a minimal repro (probing with `run` at the failing seed) and stop.
/// `run` is [`crate::run_scenario`] or [`crate::run_proxy_scenario`]
/// under a per-seed config, so one sweep serves both deployments.
///
/// Runs execute speculatively over `pool` in work-stealing order, but
/// verdicts are consumed in seed order and the sweep stops at the first
/// failing *seed* (results for later seeds are discarded unseen), so the
/// report — pass/fail lines, the failing seed, the shrunk repro — is
/// byte-identical at any pool width. The shrinker reuses the same pool
/// for its candidate evaluation.
pub fn sweep(
    pool: &Pool,
    seeds: std::ops::Range<u64>,
    schedule_of: impl Fn(u64) -> Schedule + Sync,
    run: impl Fn(u64, &Schedule) -> ScenarioRun + Sync,
) -> SweepReport {
    let seeds: Vec<u64> = seeds.collect();
    let mut runs = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    let mut first_fail: Option<(u64, Schedule)> = None;
    pool.ordered_scan(
        seeds.len(),
        |i| {
            let schedule = schedule_of(seeds[i]);
            let outcome = run(seeds[i], &schedule);
            (schedule, outcome)
        },
        |i, (schedule, outcome)| {
            let seed = seeds[i];
            let passed = outcome.passed();
            runs.push((seed, passed));
            metrics.merge(&outcome.metrics);
            if passed {
                std::ops::ControlFlow::Continue(())
            } else {
                first_fail = Some((seed, schedule));
                std::ops::ControlFlow::Break(())
            }
        },
    );
    let failure = first_fail.map(|(seed, original)| {
        let (shrunk, run) = shrink(pool, &original, |s| run(seed, s));
        SweepFailure {
            seed,
            original,
            shrunk,
            run,
        }
    });
    SweepReport {
        runs,
        failure,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Protocol;
    use crate::oracle::Violation;

    /// The event a synthetic run fails on: a skew of host 99, which no
    /// generator draws.
    const MARK: ScheduledFault = ScheduledFault {
        at: 12 * SECS,
        action: Action::Skew { host: 99, ppm: 1 },
    };
    /// The first seed whose schedule carries [`MARK`].
    const FIRST_RED: u64 = 13;

    /// Four decoy kills, plus [`MARK`] from [`FIRST_RED`] on.
    fn marked_schedule(seed: u64) -> Schedule {
        let mut events: Vec<ScheduledFault> = (0..4u32)
            .map(|h| ScheduledFault {
                at: (10 + u64::from(h)) * SECS,
                action: Action::Kill(Target::Host(h)),
            })
            .collect();
        if seed >= FIRST_RED {
            events.push(MARK);
        }
        Schedule::new(events)
    }

    /// A synthetic scenario run that fails iff `schedule` still holds
    /// [`MARK`]: the sweep and the shrinker see nothing but this verdict.
    fn marked_run(seed: u64, schedule: &Schedule) -> ScenarioRun {
        let violations = if schedule.events.contains(&MARK) {
            vec![Violation::ProxyInconsistency {
                dc: 0,
                detail: "marked event".to_string(),
            }]
        } else {
            Vec::new()
        };
        ScenarioRun {
            seed,
            schedule: schedule.clone(),
            resolved: Vec::new(),
            violations,
            live: Vec::new(),
            horizon: schedule.horizon(),
            trace: Vec::new(),
            metrics: MetricsSnapshot::default(),
            protocol: Protocol::Tamp,
            topo_desc: "synthetic".to_string(),
        }
    }

    #[test]
    fn sweep_stops_at_first_failing_seed_and_shrinks_to_the_marked_event() {
        let at_width = |jobs| {
            sweep(
                &Pool::new(jobs),
                seed_range(10, 10),
                marked_schedule,
                marked_run,
            )
        };
        let report = at_width(1);
        assert_eq!(
            report.runs,
            vec![(10, true), (11, true), (12, true), (FIRST_RED, false)],
            "later seeds must not be reported"
        );
        let failure = report.failure.as_ref().expect("seed 13 fails");
        assert_eq!(failure.seed, FIRST_RED);
        assert_eq!(failure.original.events.len(), 5);
        assert_eq!(failure.shrunk.events, vec![MARK]);
        assert!(!failure.run.passed());

        let (shrunk, run) = shrink(&Pool::new(4), &marked_schedule(FIRST_RED), |s| {
            marked_run(FIRST_RED, s)
        });
        assert_eq!(shrunk.events, vec![MARK]);
        assert!(!run.passed());

        assert_eq!(report.report(), at_width(4).report());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let g = GeneratorConfig::default();
        assert_eq!(random_schedule(5, &g), random_schedule(5, &g));
        // Nearby seeds diverge (not guaranteed in general; true here).
        assert_ne!(
            random_schedule(5, &g).render(),
            random_schedule(6, &g).render()
        );
    }

    #[test]
    fn seed_range_saturates_near_u64_max() {
        // The pre-fix arithmetic (`first + count`) overflowed here.
        let r = seed_range(u64::MAX - 2, 10);
        assert_eq!(r.clone().count(), 2);
        assert_eq!(r.collect::<Vec<_>>(), vec![u64::MAX - 2, u64::MAX - 1]);
        // Ordinary ranges are untouched.
        assert_eq!(seed_range(5, 3).collect::<Vec<_>>(), vec![5, 6, 7]);
        assert_eq!(seed_range(0, 0).count(), 0);
    }

    #[test]
    fn partitions_always_healed_before_settle() {
        let g = GeneratorConfig::default();
        for seed in 0..50 {
            let s = random_schedule(seed, &g);
            let mut open = 0i32;
            for e in &s.events {
                match e.action {
                    Action::Partition(..) => open += 1,
                    Action::HealAll => open = 0,
                    _ => {}
                }
            }
            assert_eq!(open, 0, "seed {seed} leaves a partition open");
        }
    }

    #[test]
    fn adversarial_generation_is_seed_deterministic_and_round_trips() {
        let g = AdversarialConfig::default();
        for seed in 0..40 {
            let s = adversarial_schedule(seed, &g);
            assert_eq!(s, adversarial_schedule(seed, &g));
            assert_eq!(
                s.topo,
                Some(TopoSpec::Ring {
                    segments: 4,
                    hosts_per_segment: 2
                })
            );
            // The text form is the canonical exchange format: what the
            // generator emits must parse back to the same schedule.
            let reparsed = crate::dsl::parse(&s.render()).expect("generated DSL parses");
            assert_eq!(s, reparsed, "seed {seed} round-trip mismatch");
        }
    }

    #[test]
    fn adversarial_disruptions_are_always_recovered() {
        // Gray partitions and rack failures must end before quiescence;
        // the oracle's convergence checks assume an eventually-connected
        // fabric of live hosts.
        let g = AdversarialConfig::default();
        for seed in 0..60 {
            let s = adversarial_schedule(seed, &g);
            let mut gray = std::collections::BTreeSet::new();
            let mut racks = std::collections::BTreeSet::new();
            for e in &s.events {
                match e.action {
                    Action::GrayPartition(a, b) => {
                        gray.insert((a, b));
                    }
                    Action::GrayHeal(a, b) => {
                        gray.remove(&(a, b));
                    }
                    Action::RackFail(r) => {
                        racks.insert(r);
                    }
                    Action::RackRecover(r) => {
                        racks.remove(&r);
                    }
                    _ => {}
                }
            }
            assert!(gray.is_empty(), "seed {seed} leaves gray links open");
            assert!(racks.is_empty(), "seed {seed} leaves a rack down");
        }
    }

    #[test]
    fn adversarial_schedules_use_only_the_five_fault_classes_plus_kills() {
        let g = AdversarialConfig::default();
        for seed in 0..40 {
            for e in &adversarial_schedule(seed, &g).events {
                assert!(
                    matches!(
                        e.action,
                        Action::GrayPartition(..)
                            | Action::GrayHeal(..)
                            | Action::RackFail(_)
                            | Action::RackRecover(_)
                            | Action::ChurnStorm { .. }
                            | Action::Skew { .. }
                            | Action::RouterDown(_)
                            | Action::RouterUp(_)
                            | Action::Kill(_)
                    ),
                    "seed {seed}: unexpected action {:?}",
                    e.action
                );
            }
        }
    }

    #[test]
    fn loss_episodes_stay_above_excuse_floor() {
        let g = GeneratorConfig::default();
        for seed in 0..50 {
            for e in &random_schedule(seed, &g).events {
                if let Action::Loss { rate, .. } = e.action {
                    assert!(rate >= 0.30, "seed {seed} burst {rate}");
                }
            }
        }
    }
}
