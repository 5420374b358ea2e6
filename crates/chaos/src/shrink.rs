//! Automatic shrinking: reduce a failing schedule to a minimal repro.
//!
//! Greedy delta-debugging over the event list: repeatedly try dropping
//! each event, keeping any deletion that preserves the failure, until a
//! full pass removes nothing. Quadratic in the (small) event count, and
//! every probe is a fresh deterministic run, so the minimized schedule
//! genuinely fails on replay.

use crate::runner::ScenarioRun;
use crate::schedule::Schedule;
use tamp_par::Pool;

/// Shrink `schedule` (which must fail under `run`) to a locally minimal
/// failing schedule. Returns the shrunk schedule and its failing run.
///
/// `run` executes one candidate: [`crate::run_scenario`] or
/// [`crate::run_proxy_scenario`] under a fixed config, so both
/// deployments shrink the same way. "Locally minimal": removing any
/// single remaining event makes the failure disappear. The schedule's
/// settle window is left untouched — it defines *when* the oracle
/// judges, not *what* faults happen.
///
/// Each greedy step scans candidates `i, i+1, …` (each "drop one event
/// from the *current* best") in ordered parallel over `pool` and adopts
/// the first — lowest-index — candidate that still fails, then
/// continues at that index; a pass that adopts nothing terminates the
/// scan, and passes repeat until nothing shrinks. That is exactly the
/// decision sequence of the sequential greedy loop, so the shrunk
/// schedule and its failing run are identical for any pool width —
/// speculative probes past the adopted candidate are discarded unseen.
pub fn shrink(
    pool: &Pool,
    schedule: &Schedule,
    run: impl Fn(&Schedule) -> ScenarioRun + Sync,
) -> (Schedule, ScenarioRun) {
    let mut best = schedule.clone();
    let mut best_run = run(&best);
    assert!(!best_run.passed(), "shrink() called on a passing schedule");

    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < best.events.len() {
            let base = &best;
            let mut adopted: Option<(usize, Schedule, ScenarioRun)> = None;
            pool.ordered_scan(
                best.events.len() - i,
                |k| {
                    let mut candidate = base.clone();
                    candidate.events.remove(i + k);
                    let outcome = run(&candidate);
                    (candidate, outcome)
                },
                |k, (candidate, outcome)| {
                    if outcome.passed() {
                        // Event i+k is load-bearing; keep scanning.
                        std::ops::ControlFlow::Continue(())
                    } else {
                        adopted = Some((i + k, candidate, outcome));
                        std::ops::ControlFlow::Break(())
                    }
                },
            );
            match adopted {
                Some((at, candidate, outcome)) => {
                    best = candidate;
                    best_run = outcome;
                    reduced = true;
                    i = at; // same index now holds the next event
                }
                None => break, // nothing in i.. shrinks this pass
            }
        }
        if !reduced {
            return (best, best_run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, ScenarioConfig};
    use crate::schedule::{Action, ScheduledFault, Target};
    use tamp_membership::MembershipConfig;
    use tamp_topology::SECS;

    /// With `max_loss: 0` the detection timeout is zero — shorter than
    /// the heartbeat period — so nodes purge each other the moment any
    /// fault perturbs timing. Any schedule fails; shrinking should strip
    /// the decoys and keep (at most) one event.
    #[test]
    fn shrinks_broken_config_failure_to_minimal_schedule() {
        let cfg = ScenarioConfig {
            membership: MembershipConfig {
                max_loss: 0,
                ..Default::default()
            },
            ..ScenarioConfig::two_segments(1)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 15 * SECS,
                action: Action::Kill(Target::Host(2)),
            },
            ScheduledFault {
                at: 20 * SECS,
                action: Action::Loss {
                    rate: 0.4,
                    duration: 5 * SECS,
                },
            },
            ScheduledFault {
                at: 40 * SECS,
                action: Action::Revive(Target::Host(2)),
            },
        ]);
        let (shrunk, run) = shrink(&Pool::sequential(), &schedule, |s| run_scenario(&cfg, s));
        assert!(!run.passed());
        assert!(
            shrunk.events.len() <= 1,
            "expected ≤1 event, got:\n{}",
            shrunk.render()
        );
    }

    /// The adversarial fault classes shrink too: a failing schedule mixing
    /// a gray partition, a churn storm, and decoy skew/heal events reduces
    /// to a minimal repro. Churn storms are atomic to the shrinker (one
    /// event, expanded only at execution), so deletion candidates stay
    /// well-defined.
    #[test]
    fn shrinks_adversarial_schedule_to_minimal_repro() {
        let cfg = ScenarioConfig {
            membership: MembershipConfig {
                max_loss: 0,
                ..Default::default()
            },
            ..ScenarioConfig::two_segments(3)
        };
        let schedule = Schedule::new(vec![
            ScheduledFault {
                at: 12 * SECS,
                action: Action::GrayPartition(0, 1),
            },
            ScheduledFault {
                at: 18 * SECS,
                action: Action::ChurnStorm {
                    count: 3,
                    duration: 8 * SECS,
                },
            },
            ScheduledFault {
                at: 22 * SECS,
                action: Action::Skew { host: 1, ppm: 200 },
            },
            ScheduledFault {
                at: 35 * SECS,
                action: Action::GrayHeal(0, 1),
            },
        ]);
        let (shrunk, run) = shrink(&Pool::sequential(), &schedule, |s| run_scenario(&cfg, s));
        assert!(!run.passed());
        assert!(
            shrunk.events.len() <= 1,
            "expected ≤1 event, got:\n{}",
            shrunk.render()
        );
        // The minimal repro must replay to the same failure standalone.
        let replay = run_scenario(&cfg, &shrunk);
        assert!(!replay.passed());
    }
}
