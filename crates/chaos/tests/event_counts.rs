//! Every fact a protocol used to count under its own namespace is now
//! one `events/<kind>` counter. Each row below names a legacy counter
//! (`<namespace>/<name>`, deleted), the event kind that replaced it, and
//! the total it read at seed 7 under the strict oracle, recorded from
//! the code that still kept both counters. Counters a protocol wrote
//! that read 0 there are listed without a total; their kinds must
//! read 0 too.

use tamp_chaos::{dsl, run_scenario, Protocol, ScenarioConfig};

/// Legacy counter → the event kind that replaced it, per protocol.
fn legacy(protocol: Protocol) -> &'static [(&'static str, &'static str)] {
    match protocol {
        Protocol::Tamp | Protocol::TampRapid => &[
            ("membership/heartbeats_sent", "heartbeat-sent"),
            ("membership/updates_sent", "update-relayed"),
            ("membership/digests_sent", "digest-sent"),
            ("membership/sync_polls_sent", "sync-poll"),
            ("membership/backfills_served", "backfill-served"),
            ("membership/full_syncs_served", "full-sync-served"),
            ("membership/elections_started", "election-round"),
            ("membership/leaderships_claimed", "leadership-claimed"),
            ("membership/suspicions_raised", "suspicion-armed"),
            ("membership/suspicions_refuted", "suspicion-refuted"),
            ("membership/suspicions_confirmed", "suspicion-confirmed"),
            ("membership/deaths_declared", "death-declared"),
            ("membership/cut_reports", "cut-report"),
            ("membership/cut_batches", "cut-batch"),
            ("membership/subtrees_quarantined", "subtree-quarantined"),
            ("membership/quarantines_lifted", "quarantine-lifted"),
            ("membership/quarantine_purged", "removed-quarantine"),
        ],
        Protocol::AllToAll => &[
            ("alltoall/heartbeats_sent", "heartbeat-sent"),
            ("alltoall/deaths_declared", "death-declared"),
        ],
        Protocol::Gossip => &[
            ("gossip/rounds_sent", "gossip-round"),
            ("gossip/suspicions_refuted", "blacklist-overridden"),
            ("gossip/deaths_declared", "death-declared"),
        ],
        Protocol::Swim => &[
            ("swim/probes_sent", "probe-sent"),
            ("swim/indirect_probes_sent", "indirect-probe-sent"),
            ("swim/reconnect_probes_sent", "reconnect-probe-sent"),
            ("swim/acks_sent", "ack-sent"),
            ("swim/acks_forwarded", "ack-forwarded"),
            ("swim/ping_reqs_sent", "ping-req-sent"),
            ("swim/suspicions_raised", "suspicion-armed"),
            ("swim/suspicions_refuted", "suspicion-refuted"),
            ("swim/suspicions_confirmed", "suspicion-confirmed"),
            ("swim/deaths_declared", "death-declared"),
            ("swim/self_refutes", "self-refuted"),
        ],
    }
}

/// The nonzero legacy totals of one scenario file, per protocol.
type Recorded = [(Protocol, &'static [(&'static str, u64)]); 5];

const LEADER_DEATH: Recorded = [
    (
        Protocol::Tamp,
        &[
            ("membership/backfills_served", 13),
            ("membership/deaths_declared", 8),
            ("membership/digests_sent", 49),
            ("membership/elections_started", 9),
            ("membership/full_syncs_served", 3),
            ("membership/heartbeats_sent", 1451),
            ("membership/leaderships_claimed", 11),
            ("membership/suspicions_confirmed", 8),
            ("membership/suspicions_raised", 8),
            ("membership/sync_polls_sent", 16),
            ("membership/updates_sent", 17),
        ],
    ),
    (
        Protocol::TampRapid,
        &[
            ("membership/backfills_served", 18),
            ("membership/cut_batches", 17),
            ("membership/cut_reports", 68),
            ("membership/deaths_declared", 17),
            ("membership/digests_sent", 49),
            ("membership/elections_started", 9),
            ("membership/full_syncs_served", 6),
            ("membership/heartbeats_sent", 1451),
            ("membership/leaderships_claimed", 11),
            ("membership/subtrees_quarantined", 1),
            ("membership/suspicions_confirmed", 17),
            ("membership/suspicions_raised", 29),
            ("membership/suspicions_refuted", 21),
            ("membership/sync_polls_sent", 24),
            ("membership/updates_sent", 42),
        ],
    ),
    // The baselines have no leader: both kills resolve to nothing.
    (Protocol::AllToAll, &[("alltoall/heartbeats_sent", 1140)]),
    (Protocol::Gossip, &[("gossip/rounds_sent", 1140)]),
    (
        Protocol::Swim,
        &[("swim/acks_sent", 1140), ("swim/probes_sent", 1140)],
    ),
];

const LOSS_BURST: Recorded = [
    (
        Protocol::Tamp,
        &[
            ("membership/backfills_served", 10),
            ("membership/deaths_declared", 4),
            ("membership/digests_sent", 55),
            ("membership/elections_started", 9),
            ("membership/heartbeats_sent", 1536),
            ("membership/leaderships_claimed", 5),
            ("membership/suspicions_confirmed", 4),
            ("membership/suspicions_raised", 9),
            ("membership/sync_polls_sent", 10),
            ("membership/updates_sent", 15),
        ],
    ),
    (
        Protocol::TampRapid,
        &[
            ("membership/backfills_served", 10),
            ("membership/cut_batches", 9),
            ("membership/cut_reports", 36),
            ("membership/deaths_declared", 9),
            ("membership/digests_sent", 55),
            ("membership/elections_started", 9),
            ("membership/heartbeats_sent", 1536),
            ("membership/leaderships_claimed", 5),
            ("membership/suspicions_confirmed", 9),
            ("membership/suspicions_raised", 9),
            ("membership/sync_polls_sent", 10),
            ("membership/updates_sent", 28),
        ],
    ),
    (
        Protocol::AllToAll,
        &[
            ("alltoall/deaths_declared", 18),
            ("alltoall/heartbeats_sent", 1095),
        ],
    ),
    (
        Protocol::Gossip,
        &[
            ("gossip/deaths_declared", 10),
            ("gossip/rounds_sent", 1095),
            ("gossip/suspicions_refuted", 7),
        ],
    ),
    (
        Protocol::Swim,
        &[
            ("swim/acks_forwarded", 32),
            ("swim/acks_sent", 1095),
            ("swim/deaths_declared", 9),
            ("swim/indirect_probes_sent", 132),
            ("swim/ping_reqs_sent", 246),
            ("swim/probes_sent", 1095),
            ("swim/reconnect_probes_sent", 72),
            ("swim/self_refutes", 28),
            ("swim/suspicions_confirmed", 9),
            ("swim/suspicions_raised", 219),
            ("swim/suspicions_refuted", 210),
        ],
    ),
];

fn check(file: &str, recorded: &Recorded) {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let schedule = dsl::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    for &(protocol, totals) in recorded {
        let cfg = ScenarioConfig {
            strict: true,
            protocol,
            ..ScenarioConfig::two_segments(7)
        };
        let run = run_scenario(&cfg, &schedule);
        for &(name, _) in totals {
            assert!(
                legacy(protocol).iter().any(|&(n, _)| n == name),
                "{file}: {name} is no {} counter",
                protocol.name()
            );
        }
        for &(name, kind) in legacy(protocol) {
            let want = totals
                .iter()
                .find(|&&(n, _)| n == name)
                .map_or(0, |&(_, total)| total);
            assert_eq!(
                run.metrics.counter_total("events", kind),
                want,
                "{file} under {}: events/{kind} against {name}",
                protocol.name()
            );
        }
        // No protocol counts under a namespace of its own any more.
        for key in run.metrics.entries.keys() {
            assert!(
                ["net", "events"].contains(&key.subsystem),
                "{file} under {}: {}/{} outside `events`",
                protocol.name(),
                key.subsystem,
                key.name
            );
        }
    }
}

#[test]
fn leader_death_counts_every_legacy_fact_as_its_event() {
    check("leader-death.chaos", &LEADER_DEATH);
}

#[test]
fn loss_burst_counts_every_legacy_fact_as_its_event() {
    check("loss-burst.chaos", &LOSS_BURST);
}
