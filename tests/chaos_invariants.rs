//! Property-based chaos invariants: arbitrary small fault schedules —
//! kills (by host, by leader, random), revives, a cross-segment
//! partition, and heavy loss bursts — must never make the oracle report
//! a false removal, divergent views, or a leader conflict once the
//! cluster settles.
//!
//! This drives the same machinery as `tamp-exp chaos`, but generates the
//! schedules with a proptest [`Strategy`] instead of the crate's own
//! seeded generator, so the two generators cross-check each other.

use proptest::prelude::*;
use tamp::chaos::{dsl, run_scenario, Action, ScenarioConfig, Schedule, ScheduledFault, Target};
use tamp::prelude::*;

/// An arbitrary fault action on a two-segment, `n_hosts`-node cluster.
///
/// Loss rates stay ≥ 0.30 (a burst mild enough to be sub-excusable is a
/// different test's job — see the oracle's `LOSS_EXCUSE_RATE`), and the
/// only partition pair is (0, 1) because the topology has two segments.
fn arb_action(n_hosts: u32) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..n_hosts).prop_map(|h| Action::Kill(Target::Host(h))),
        (0u8..2).prop_map(|l| Action::Kill(Target::Leader(l))),
        Just(Action::Kill(Target::Random)),
        (0..n_hosts).prop_map(|h| Action::Revive(Target::Host(h))),
        Just(Action::Revive(Target::Random)),
        (30u32..=85u32, 2u64..=10u64).prop_map(|(pct, secs)| Action::Loss {
            rate: pct as f64 / 100.0,
            duration: secs * SECS,
        }),
        Just(Action::Partition(0, 1)),
    ]
}

/// Up to five timed actions in the first 70 simulated seconds. If any
/// partition was generated, a trailing `heal all` is appended so the
/// quiescence checks (which are skipped while segments are severed)
/// actually run.
fn arb_schedule(n_hosts: u32) -> impl Strategy<Value = Schedule> {
    proptest::collection::vec((5u64..70, arb_action(n_hosts)), 0..5).prop_map(|evs| {
        let mut events: Vec<ScheduledFault> = evs
            .iter()
            .map(|&(secs, action)| ScheduledFault {
                at: secs * SECS,
                action,
            })
            .collect();
        if events
            .iter()
            .any(|e| matches!(e.action, Action::Partition(..)))
        {
            let last = events.iter().map(|e| e.at).max().unwrap_or(0);
            events.push(ScheduledFault {
                at: last + 5 * SECS,
                action: Action::HealAll,
            });
        }
        Schedule::new(events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case simulates ~2 minutes of cluster time
        .. ProptestConfig::default()
    })]

    /// No false removals, convergent views, one live local leader per
    /// group: the full oracle must pass for every generated schedule.
    #[test]
    fn chaos_schedules_uphold_oracle_invariants(
        seed in any::<u64>(),
        schedule in arb_schedule(10),
    ) {
        let run = run_scenario(&ScenarioConfig::two_segments(seed), &schedule);
        prop_assert!(
            run.passed(),
            "oracle violations under generated schedule:\n{}",
            run.report()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Every generated schedule renders to DSL text that parses back to
    /// the identical schedule — so any failure report's embedded repro
    /// really does replay the same program.
    #[test]
    fn generated_schedules_round_trip_through_the_dsl(
        schedule in arb_schedule(10),
    ) {
        let reparsed = dsl::parse(&schedule.render())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reparsed, schedule);
    }
}
