//! Every fault the simulator can inject is one a scenario can ask for.
//! [`directive`] names, for each [`Control`] variant, the `.chaos`
//! directive that issues it; its `match` has no wildcard, so a variant
//! added without a driver fails to compile here. The test then runs one
//! schedule that uses every directive and finds each variant's record in
//! the engine's trace — the record names are the directive names.

use tamp::chaos::{dsl, run_scenario, ScenarioConfig};
use tamp::netsim::{Control, TraceConfig, TraceEvent};
use tamp::topology::{HostId, SegmentId};

/// The `.chaos` directive that issues `c`.
fn directive(c: &Control) -> &'static str {
    match c {
        Control::Kill(_) => "kill",
        Control::Revive(_) => "revive",
        Control::BlockSegments(..) => "partition",
        Control::UnblockSegments(..) => "heal",
        Control::SetLoss(_) => "loss",
        Control::BlockDirection(..) => "gray-partition",
        Control::UnblockDirection(..) => "gray-heal",
        Control::SetSkew(..) => "skew",
        Control::RouterDown(_) => "router-down",
        Control::RouterUp(_) => "router-up",
    }
}

const SCHEDULE: &str = "\
topology ring 4 2
settle 5s
at 10s kill host 3
at 12s revive host 3
at 14s partition 0 1
at 16s heal 0 1
at 18s loss 0.2 for 2s
at 22s gray-partition 1 2
at 24s gray-heal 1 2
at 26s skew 5 100
at 28s router-down 2
at 30s router-up 2
";

#[test]
fn every_control_variant_is_issued_by_a_chaos_directive() {
    let (s0, s1) = (SegmentId(0), SegmentId(1));
    let every = [
        Control::Kill(HostId(0)),
        Control::Revive(HostId(0)),
        Control::BlockSegments(s0, s1),
        Control::UnblockSegments(s0, s1),
        Control::SetLoss(0.0),
        Control::BlockDirection(s0, s1),
        Control::UnblockDirection(s0, s1),
        Control::SetSkew(HostId(0), 0),
        Control::RouterDown(0),
        Control::RouterUp(0),
    ];
    let schedule = dsl::parse(SCHEDULE).expect("the schedule parses");
    let mut cfg = ScenarioConfig::two_segments(2005);
    cfg.engine.trace = TraceConfig::all();
    let run = run_scenario(&cfg, &schedule);
    for c in &every {
        let name = directive(c);
        assert!(
            SCHEDULE
                .lines()
                .any(|l| l.split_whitespace().nth(2) == Some(name)),
            "the schedule does not use `{name}`"
        );
        let recorded = run.trace.iter().any(|r| match &r.event {
            TraceEvent::Fault(what, _) | TraceEvent::Net(what, _) => *what == name,
            _ => false,
        });
        assert!(
            recorded,
            "`{name}` issued no {c:?} record:\n{}",
            run.report()
        );
    }
}
