//! The membership-invariant oracle.
//!
//! Given the protocol's observable behaviour (removal observations,
//! directory views, leadership probes) and the [`GroundTruth`] fault
//! record, the oracle produces a list of [`Violation`]s. An empty list
//! means the run upheld every invariant:
//!
//! 1. **No false removal** — every removal of a node from somebody's
//!    view is justified by a real fault near that time: the node was
//!    down, the observer and the node were partitioned, or loss was
//!    heavy enough to starve heartbeats.
//! 2. **Convergence** — at quiescence, every live node's directory view
//!    is exactly the live set.
//! 3. **Leader agreement** — at quiescence, the live members of each
//!    network segment agree on a single live, local level-0 leader.
//! 4. **Proxy consistency** — in multi-datacenter runs, every proxy's
//!    remote view matches the services actually alive in other DCs.

use crate::cluster::Protocol;
use crate::truth::GroundTruth;
use tamp_baselines::{alltoall, swim, AllToAllConfig, GossipConfig};
use tamp_directory::DirectoryClient;
use tamp_membership::config::{CUT_BATCH_DELAY, CUT_REPORT_TTL, DEGRADE_MAX_STRETCH};
use tamp_membership::{MembershipConfig, Probe};
use tamp_netsim::{Observation, ObservationKind};
use tamp_topology::{HostId, Nanos, Topology};
use tamp_wire::NodeId;

/// Uniform loss at or above this rate excuses lax-mode removals during
/// (and shortly after) the burst: at ≥ 0.25, `max_loss` consecutive
/// heartbeat misses become likely enough over a whole cluster that
/// removals cannot be called protocol bugs.
pub const LOSS_EXCUSE_RATE: f64 = 0.25;

/// Tunables for the oracle's judgement, sized by [`OracleConfig::of`].
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// A removal at time `t` is justified by faults inside `[t - window,
    /// t)`: the protocol's own worst-case detection bound.
    pub removal_window: Nanos,
    /// Extra window for *representative disruption*: a dead host may have
    /// been the leader representing its whole segment at upper hierarchy
    /// levels. The protocol purges a dead member's subtree at the parent
    /// level and re-registers it once the segment re-elects (with
    /// anti-entropy as the backstop), so a death in segment S excuses
    /// removals of S's members for `removal_window + repair_window`.
    pub repair_window: Nanos,
    /// Strict mode: the excuse model is off. A removal is justified only
    /// by the node (or observer) being down, or a partition involving
    /// either endpoint's segment, within the *standard* removal window —
    /// no loss excuse, no repair-window extension. The suspicion /
    /// refutation / quarantine extensions are what make the protocol
    /// hold this bar.
    pub strict: bool,
    /// Strict mode ordering check: every removal must be preceded (in
    /// observation order, by *some* observer) by a suspicion of the same
    /// node. Read only under `strict`.
    pub require_suspicion: bool,
}

impl OracleConfig {
    /// The oracle for `protocol` on a `hosts`-host cluster whose deepest
    /// hierarchy level is `max_level`, strict or lax. Each protocol's
    /// windows come from its own detection bound; the hierarchical node
    /// reads `m`, the baselines run their defaults.
    pub fn of(
        protocol: Protocol,
        m: &MembershipConfig,
        hosts: usize,
        max_level: u8,
        strict: bool,
    ) -> Self {
        let (removal_window, repair_window, require_suspicion) = match protocol {
            Protocol::Tamp | Protocol::TampRapid => {
                // Any *correct* removal fires within the deepest level's
                // timeout of the underlying fault.
                let worst = m.timeout(max_level);
                // The robustness extensions delay a correct removal
                // further: the suspicion window, both timeout and
                // suspicion stretched under measured distress, and a
                // quarantine hold for relayed subtrees.
                let stretch = DEGRADE_MAX_STRETCH;
                let suspicion_worst = (m.suspicion(max_level) as f64 * stretch) as u64;
                let detect_worst = (worst as f64 * stretch) as u64 + suspicion_worst;
                // Slack for propagation of the removal itself (relay up
                // the tree + fan-out down), and for sweep granularity.
                let mut window =
                    detect_worst + m.quarantine_window + 3 * m.heartbeat_period + m.sweep_period;
                // Cut detection confirms only once the vote pattern is
                // stable: reports live for `CUT_REPORT_TTL` and the batch
                // fires after `CUT_BATCH_DELAY` of quiescence. Every cut
                // is preceded by an advisory suspicion at the reporters.
                let rapid = protocol == Protocol::TampRapid;
                if rapid {
                    window += CUT_REPORT_TTL + CUT_BATCH_DELAY;
                }
                // Subtree repair: re-election, level re-join, plus one
                // full anti-entropy round to re-seed remote directories.
                let repair = m.anti_entropy_period + worst;
                (window, repair, strict && (rapid || m.suspicion_window > 0))
            }
            // Within `max_loss` missed heartbeats of the fault, plus sweep
            // granularity and a little heartbeat phase slack.
            Protocol::AllToAll => {
                let period = AllToAllConfig::default().heartbeat_period;
                let window = period * (alltoall::MAX_LOSS as u64 + 3) + alltoall::SWEEP_PERIOD;
                (window, 2 * period, false)
            }
            // Staleness is judged against `T_fail`, the blacklist holds
            // entries until `T_cleanup = 2×T_fail`, and the removal itself
            // still has to gossip out.
            Protocol::Gossip => {
                let g = GossipConfig {
                    expected_cluster_size: hosts,
                    ..Default::default()
                };
                let window = g.t_cleanup() + 4 * g.period + g.sweep_period;
                (window, g.t_fail(), false)
            }
            // Up to one full probe lap before the dead member's turn, the
            // direct + indirect probe phases, the refutable suspicion
            // window, and piggybacked dissemination of the confirmation
            // (`O(log n)` probe periods; budgeted generously). SWIM
            // suspects before it confirms.
            Protocol::Swim => {
                let window = swim::PROBE_PERIOD * hosts as u64
                    + 15 * swim::PROBE_PERIOD
                    + swim::DIRECT_TIMEOUT
                    + swim::INDIRECT_TIMEOUT
                    + swim::SUSPECT_TIMEOUT
                    + swim::SWEEP_PERIOD;
                (window, swim::SUSPECT_TIMEOUT, true)
            }
        };
        OracleConfig {
            removal_window,
            repair_window,
            strict,
            require_suspicion,
        }
    }
}

/// One invariant breach, with enough detail to debug from the report.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `observer` dropped `node` from its view at `at`, but ground truth
    /// shows no fault that could justify it.
    FalseRemoval {
        observer: HostId,
        node: NodeId,
        at: Nanos,
    },
    /// At quiescence, `host`'s directory does not equal the live set.
    ViewDivergence {
        host: HostId,
        missing: Vec<u32>,
        extra: Vec<u32>,
    },
    /// Live members of `segment` disagree about (or lack) a level-0
    /// leader: `claims` lists each member's believed leader.
    LeaderConflict {
        segment: u16,
        claims: Vec<(u32, Option<u32>)>,
    },
    /// A segment's agreed leader is not itself alive or not local.
    DeadLeader { segment: u16, leader: u32 },
    /// A proxy's remote view disagrees with the actual remote cluster.
    ProxyInconsistency { dc: u16, detail: String },
    /// Strict mode: `observer` removed `node` although no observer
    /// anywhere had ever suspected it — the suspicion state machine was
    /// bypassed.
    RemovalWithoutSuspicion {
        observer: HostId,
        node: NodeId,
        at: Nanos,
    },
    /// Strict mode: `observer` removed a live `node` after its own last
    /// suspicion of it had been *refuted* — a stale suspicion beat a
    /// refutation, violating "refutation always wins".
    RefutedRemoval {
        observer: HostId,
        node: NodeId,
        at: Nanos,
    },
    /// Strict mode: `observer` (re-)added `node` to its view although the
    /// node had been continuously down for at least the removal window —
    /// churn re-introduced refuted state instead of learning a real
    /// revival.
    Resurrection {
        observer: HostId,
        node: NodeId,
        at: Nanos,
    },
}

/// A violation's instant for a human: seconds to the millisecond
/// (`83.400s`), whatever the nanoseconds. Display only — observation
/// times are ragged, and the exact DSL formatter
/// ([`crate::schedule::fmt_duration`]) would print one of them as
/// `83400ms` and the next as `83400254914ns`.
fn fmt_secs(at: Nanos) -> String {
    format!("{}.{:03}s", at / 1_000_000_000, at / 1_000_000 % 1_000)
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::FalseRemoval { observer, node, at } => write!(
                f,
                "false removal: host {} dropped live node {} at {}",
                observer.0,
                node.0,
                fmt_secs(*at)
            ),
            Violation::ViewDivergence {
                host,
                missing,
                extra,
            } => write!(
                f,
                "view divergence: host {} missing {:?}, extra {:?}",
                host.0, missing, extra
            ),
            Violation::LeaderConflict { segment, claims } => {
                write!(f, "leader conflict in segment {segment}: {claims:?}")
            }
            Violation::DeadLeader { segment, leader } => {
                write!(
                    f,
                    "segment {segment} agreed on dead/foreign leader {leader}"
                )
            }
            Violation::ProxyInconsistency { dc, detail } => {
                write!(f, "proxy inconsistency in dc {dc}: {detail}")
            }
            Violation::RemovalWithoutSuspicion { observer, node, at } => write!(
                f,
                "removal without suspicion: host {} dropped node {} at {} (never suspected)",
                observer.0,
                node.0,
                fmt_secs(*at)
            ),
            Violation::RefutedRemoval { observer, node, at } => write!(
                f,
                "refuted removal: host {} dropped live node {} at {} after refuting its suspicion",
                observer.0,
                node.0,
                fmt_secs(*at)
            ),
            Violation::Resurrection { observer, node, at } => write!(
                f,
                "resurrection: host {} re-added long-dead node {} at {}",
                observer.0,
                node.0,
                fmt_secs(*at)
            ),
        }
    }
}

/// Invariant 1: every removal observation is justified by ground truth.
///
/// A removal of `n` seen by `o` at `t` is justified when, within
/// `[t - window, t)`:
/// * `n` was down for some part of the window, or
/// * `o` was down (a restarted observer rebuilds its view and may
///   briefly remove everyone it has not re-learned), or
/// * the segments of `n` and `o` were partitioned, or
/// * elevated loss at ≥ [`LOSS_EXCUSE_RATE`] was in effect within the
///   extended `removal_window + repair_window` — heavy loss can cost a
///   group its leader, and the resulting purge/re-register churn
///   surfaces removals well after the burst itself ends, or
/// * some host in `n`'s segment died within the extended
///   `removal_window + repair_window` — it may have been the leader
///   representing `n` up the hierarchy, whose death purges the subtree
///   at the parent level until the segment re-registers, or
/// * a partition involving `n`'s or `o`'s segment was active within the
///   extended window — severing a segment from the hierarchy forces
///   both sides to re-elect, and the merge on heal churns views exactly
///   like a representative death does.
pub fn check_removals(
    observations: &[Observation],
    truth: &GroundTruth,
    topo: &Topology,
    cfg: &OracleConfig,
) -> Vec<Violation> {
    use std::collections::{HashMap, HashSet};
    let mut out = Vec::new();
    // Sequence state for the strict ordering checks. Observations are in
    // timestamp order, so a single forward pass sees every removal with
    // exactly the history that preceded it.
    let mut ever_suspected: HashSet<NodeId> = HashSet::new();
    // Per (observer, node): was the *latest* suspicion-related event a
    // refutation (true) or a fresh suspicion (false)?
    let mut last_refuted: HashMap<(HostId, NodeId), bool> = HashMap::new();
    for obs in observations {
        let node = match obs.kind {
            ObservationKind::Suspected(n) => {
                ever_suspected.insert(n);
                last_refuted.insert((obs.observer, n), false);
                continue;
            }
            ObservationKind::Refuted(n) => {
                last_refuted.insert((obs.observer, n), true);
                continue;
            }
            ObservationKind::Removed(n) => n,
            ObservationKind::Added(n) => {
                // Strict mode: re-adding a node that has been down for the
                // whole removal window is a resurrection — by then every
                // correct observer must have confirmed the death, so the
                // Add can only be refuted state leaking back in (e.g. a
                // churn survivor gossiping a stale roster).
                if cfg.strict && obs.time >= cfg.removal_window {
                    let from = obs.time - cfg.removal_window;
                    if truth.down_throughout(n.0, from, obs.time) {
                        out.push(Violation::Resurrection {
                            observer: obs.observer,
                            node: n,
                            at: obs.time,
                        });
                    }
                }
                continue;
            }
        };
        let from = obs.time.saturating_sub(cfg.removal_window);
        let to = obs.time;
        let node_seg = topo.segment_of(HostId(node.0));
        let obs_seg = topo.segment_of(obs.observer).0;
        let cross_segment = node_seg.0 != obs_seg;
        // Faults that justify a removal in either mode, within the
        // standard window. A gray (directional) drop or a router-driven
        // re-formation justifies only *cross-segment* removals: both
        // faults live in the routed fabric, so same-segment heartbeats
        // keep flowing and a same-segment removal during a gray-only or
        // reform-only window is a false removal attributable to
        // asymmetry alone — exactly what refutation must prevent.
        let core_justified = truth.was_down_in(node.0, from, to)
            || truth.was_down_in(obs.observer.0, from, to)
            || truth.partition_involving_in(node_seg.0, from, to)
            || truth.partition_involving_in(obs_seg, from, to)
            || (cross_segment
                && (truth.gray_involving_in(node_seg.0, from, to)
                    || truth.gray_involving_in(obs_seg, from, to)
                    || truth.router_changed_in(from, to)));
        if cfg.strict {
            if cfg.require_suspicion && obs.observer.0 != node.0 && !ever_suspected.contains(&node)
            {
                out.push(Violation::RemovalWithoutSuspicion {
                    observer: obs.observer,
                    node,
                    at: obs.time,
                });
            }
            if !core_justified {
                // Unjustified removal of a live node: distinguish the
                // stale-suspicion-beat-a-refutation bug from a plain
                // false positive.
                if last_refuted.get(&(obs.observer, node)) == Some(&true) {
                    out.push(Violation::RefutedRemoval {
                        observer: obs.observer,
                        node,
                        at: obs.time,
                    });
                } else {
                    out.push(Violation::FalseRemoval {
                        observer: obs.observer,
                        node,
                        at: obs.time,
                    });
                }
            }
            continue;
        }
        // Lax mode: the excuse model of the pre-suspicion protocol —
        // loss bursts and representative disruption excuse removals
        // over an extended repair window.
        let repair_from = obs
            .time
            .saturating_sub(cfg.removal_window + cfg.repair_window);
        let justified = core_justified
            || truth.max_loss_in(repair_from, to) >= LOSS_EXCUSE_RATE
            || topo
                .hosts_on(node_seg)
                .iter()
                .any(|h| truth.was_down_in(h.0, repair_from, to))
            || truth.partition_involving_in(node_seg.0, repair_from, to)
            || truth.partition_involving_in(obs_seg, repair_from, to)
            || (cross_segment
                && (truth.gray_involving_in(node_seg.0, repair_from, to)
                    || truth.gray_involving_in(obs_seg, repair_from, to)
                    || truth.router_changed_in(repair_from, to)));
        if !justified {
            out.push(Violation::FalseRemoval {
                observer: obs.observer,
                node,
                at: obs.time,
            });
        }
    }
    out
}

/// Invariant 2: at quiescence every live host of `domain` (the hosts of
/// one membership domain, in id order) sees exactly the domain's live
/// set. `clients[h]` must read host `h`'s directory. Skipped (returns
/// empty) while a partition — symmetric or gray — is still active:
/// divided halves cannot converge, and a one-way link starves one side's
/// updates. A *healed* router fault does not skip: re-formation must
/// converge to a single consistent view within the settle window.
pub fn check_convergence(
    domain: &[HostId],
    clients: &[DirectoryClient],
    truth: &GroundTruth,
) -> Vec<Violation> {
    if truth.any_partition_active() || truth.any_gray_active() {
        return Vec::new();
    }
    let live: Vec<u32> = domain
        .iter()
        .map(|h| h.0)
        .filter(|&h| truth.is_alive(h))
        .collect();
    let mut out = Vec::new();
    for &i in &live {
        let mut seen: Vec<u32> = clients[i as usize].read(|d| d.nodes().map(|n| n.0).collect());
        seen.sort_unstable();
        if seen != live {
            let missing: Vec<u32> = live.iter().copied().filter(|x| !seen.contains(x)).collect();
            let extra: Vec<u32> = seen.iter().copied().filter(|x| !live.contains(x)).collect();
            out.push(Violation::ViewDivergence {
                host: HostId(i),
                missing,
                extra,
            });
        }
    }
    out
}

/// Invariant 3: per-segment level-0 leader agreement among live members.
/// `probes[i]` must belong to host `i`. Skipped while partitioned
/// (symmetrically or gray) — level-0 elections are local, but a severed
/// fabric can strand a segment mid-re-election at the horizon.
pub fn check_leaders(probes: &[Probe], truth: &GroundTruth, topo: &Topology) -> Vec<Violation> {
    if truth.any_partition_active() || truth.any_gray_active() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for seg in 0..topo.num_segments() as u16 {
        let live_members: Vec<u32> = topo
            .hosts_on(tamp_topology::SegmentId(seg))
            .iter()
            .map(|h| h.0)
            .filter(|&h| truth.is_alive(h))
            .collect();
        if live_members.is_empty() {
            continue;
        }
        let claims: Vec<(u32, Option<u32>)> = live_members
            .iter()
            .map(|&h| {
                let leader = probes[h as usize]
                    .lock()
                    .leaders
                    .first()
                    .copied()
                    .flatten()
                    .map(|n| n.0);
                (h, leader)
            })
            .collect();
        let first = claims[0].1;
        if first.is_none() || claims.iter().any(|&(_, l)| l != first) {
            out.push(Violation::LeaderConflict {
                segment: seg,
                claims,
            });
        } else if let Some(leader) = first {
            if !truth.is_alive(leader) || !live_members.contains(&leader) {
                out.push(Violation::DeadLeader {
                    segment: seg,
                    leader,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    fn cfg() -> OracleConfig {
        OracleConfig {
            removal_window: 10 * SECS,
            repair_window: 15 * SECS,
            strict: false,
            require_suspicion: false,
        }
    }

    fn strict_cfg() -> OracleConfig {
        OracleConfig {
            strict: true,
            require_suspicion: true,
            ..cfg()
        }
    }

    #[test]
    fn violation_times_print_as_seconds_round_or_ragged() {
        let at = |at| {
            Violation::FalseRemoval {
                observer: HostId(3),
                node: NodeId(10),
                at,
            }
            .to_string()
        };
        assert_eq!(
            at(83_400_000_000),
            "false removal: host 3 dropped live node 10 at 83.400s"
        );
        assert_eq!(
            at(83_400_254_914),
            "false removal: host 3 dropped live node 10 at 83.400s"
        );
        assert_eq!(fmt_secs(7), "0.000s");
        assert_eq!(fmt_secs(85_209_999_999), "85.209s");
    }

    #[test]
    fn one_constructor_sizes_every_protocol_lax_and_strict() {
        // Ten hosts on two segments (`ScenarioConfig::two_segments`), so
        // the deepest level is 2. Per protocol: removal and repair
        // windows, then whether lax / strict runs require a suspicion.
        let table = [
            (
                Protocol::Tamp,
                55_100_000_000,
                20_000_000_000,
                [false, true],
            ),
            (
                Protocol::TampRapid,
                64_100_000_000,
                20_000_000_000,
                [false, true],
            ),
            (
                Protocol::AllToAll,
                8_100_000_000,
                2_000_000_000,
                [false, false],
            ),
            (
                Protocol::Gossip,
                20_709_640_474,
                8_304_820_237,
                [false, false],
            ),
            (Protocol::Swim, 30_800_000_000, 5_000_000_000, [true, true]),
        ];
        let m = MembershipConfig::default();
        for (protocol, removal, repair, require) in table {
            for strict in [false, true] {
                let o = OracleConfig::of(protocol, &m, 10, 2, strict);
                assert_eq!(
                    (
                        o.removal_window,
                        o.repair_window,
                        o.strict,
                        o.require_suspicion
                    ),
                    (removal, repair, strict, require[strict as usize]),
                    "{} strict={strict}",
                    protocol.name()
                );
            }
        }
    }

    fn tamp_window(m: &MembershipConfig, max_level: u8) -> Nanos {
        OracleConfig::of(Protocol::Tamp, m, 10, max_level, false).removal_window
    }

    #[test]
    fn removal_window_scales_with_hierarchy_depth() {
        let m = MembershipConfig::default();
        let shallow = tamp_window(&m, 0);
        let deep = tamp_window(&m, 3);
        assert!(deep > shallow);
        // Level-0 detection is max_loss × heartbeat; the window must
        // exceed it to tolerate correct detections at the bound.
        assert!(shallow > m.heartbeat_period * m.max_loss as u64);
    }

    #[test]
    fn removal_window_covers_suspicion_and_quarantine() {
        let m = MembershipConfig::default();
        let with = tamp_window(&m, 2);
        let without = tamp_window(
            &MembershipConfig {
                suspicion_window: 0,
                quarantine_window: 0,
                ..MembershipConfig::default()
            },
            2,
        );
        assert!(
            with >= without + m.quarantine_window,
            "window {with} must absorb suspicion + quarantine over {without}"
        );
    }

    fn removed(time: Nanos, observer: u32, node: u32) -> Observation {
        Observation {
            time,
            observer: HostId(observer),
            kind: ObservationKind::Removed(NodeId(node)),
        }
    }

    #[test]
    fn removal_of_killed_node_is_justified() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_kill(20 * SECS, 1);
        let obs = [removed(25 * SECS, 0, 1)];
        assert!(check_removals(&obs, &truth, &topo, &cfg()).is_empty());
    }

    #[test]
    fn removal_of_live_node_is_a_violation() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let truth = GroundTruth::new();
        let obs = [removed(25 * SECS, 0, 1)];
        let v = check_removals(&obs, &truth, &topo, &cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::FalseRemoval {
                node: NodeId(1),
                ..
            }
        ));
    }

    fn suspected(time: Nanos, observer: u32, node: u32) -> Observation {
        Observation {
            time,
            observer: HostId(observer),
            kind: ObservationKind::Suspected(NodeId(node)),
        }
    }

    fn refuted(time: Nanos, observer: u32, node: u32) -> Observation {
        Observation {
            time,
            observer: HostId(observer),
            kind: ObservationKind::Refuted(NodeId(node)),
        }
    }

    #[test]
    fn strict_mode_drops_the_loss_excuse() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_loss(20 * SECS, 0.8, 10 * SECS);
        let obs = [suspected(24 * SECS, 0, 1), removed(25 * SECS, 0, 1)];
        // Lax: the burst excuses the removal. Strict: it does not.
        assert!(check_removals(&obs, &truth, &topo, &cfg()).is_empty());
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::FalseRemoval { .. }), "{v:?}");
    }

    #[test]
    fn strict_mode_drops_the_segment_death_excuse() {
        // Host 0 dies; a removal of its live segment-mate 1 was excused
        // by the repair window — quarantine + re-vouch must now prevent
        // it, so strict flags it.
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_kill(20 * SECS, 0);
        let obs = [suspected(24 * SECS, 2, 1), removed(25 * SECS, 2, 1)];
        assert!(check_removals(&obs, &truth, &topo, &cfg()).is_empty());
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::FalseRemoval {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn strict_mode_keeps_partition_and_down_justifications() {
        let topo = tamp_topology::generators::star_of_segments(3, 2);
        let mut truth = GroundTruth::new();
        truth.record_kill(20 * SECS, 1);
        truth.record_partition(20 * SECS, 1, 2);
        let obs = [
            suspected(22 * SECS, 0, 1),
            removed(25 * SECS, 0, 1), // node down: justified
            suspected(22 * SECS, 0, 2),
            removed(25 * SECS, 0, 2), // node's segment severed: justified
        ];
        assert!(check_removals(&obs, &truth, &topo, &strict_cfg()).is_empty());
    }

    #[test]
    fn strict_mode_requires_a_prior_suspicion() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_kill(20 * SECS, 1);
        // Justified by the kill, but nobody ever suspected node 1.
        let obs = [removed(25 * SECS, 0, 1)];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::RemovalWithoutSuspicion {
                node: NodeId(1),
                ..
            }
        ));
        // Any observer's suspicion satisfies the ordering (relayed
        // Suspect events may be lost to some observers).
        let obs = [suspected(22 * SECS, 3, 1), removed(25 * SECS, 0, 1)];
        assert!(check_removals(&obs, &truth, &topo, &strict_cfg()).is_empty());
    }

    #[test]
    fn strict_mode_flags_a_removal_after_refutation() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let truth = GroundTruth::new();
        // Observer 0 suspected node 1, cleared it on proof of life, then
        // removed it anyway while it was alive: the stale suspicion won.
        let obs = [
            suspected(20 * SECS, 0, 1),
            refuted(22 * SECS, 0, 1),
            removed(25 * SECS, 0, 1),
        ];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::RefutedRemoval {
                node: NodeId(1),
                ..
            }
        ));
        // A *fresh* suspicion after the refutation downgrades it to a
        // plain false removal (the state machine was followed; the
        // detector was just wrong).
        let obs = [
            suspected(20 * SECS, 0, 1),
            refuted(22 * SECS, 0, 1),
            suspected(23 * SECS, 0, 1),
            removed(25 * SECS, 0, 1),
        ];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::FalseRemoval { .. }));
    }

    fn added(time: Nanos, observer: u32, node: u32) -> Observation {
        Observation {
            time,
            observer: HostId(observer),
            kind: ObservationKind::Added(NodeId(node)),
        }
    }

    #[test]
    fn gray_excuses_only_cross_segment_removals() {
        // Hosts 0,1 on segment 0; 2,3 on segment 1. Gray 0→1: cross-
        // segment removals in either direction are excused (asymmetry
        // starves heartbeats through the fabric), but a same-segment
        // removal during a gray-only fault is attributable to asymmetry
        // alone — refutation over the intact local link must prevent it.
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_gray(20 * SECS, 0, 1);
        let obs = [
            suspected(22 * SECS, 0, 2),
            removed(25 * SECS, 0, 2), // cross-segment: excused
            suspected(22 * SECS, 0, 1),
            removed(25 * SECS, 0, 1), // same-segment: violation
        ];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            Violation::FalseRemoval {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn router_reform_excuses_only_cross_segment_removals() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_router_change(20 * SECS);
        let obs = [
            suspected(22 * SECS, 0, 2),
            removed(25 * SECS, 0, 2), // cross-segment during re-formation
            suspected(22 * SECS, 1, 0),
            removed(25 * SECS, 1, 0), // same-segment: violation
        ];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            Violation::FalseRemoval {
                node: NodeId(0),
                ..
            }
        ));
    }

    #[test]
    fn strict_mode_flags_resurrection_of_long_dead_node() {
        let topo = tamp_topology::generators::star_of_segments(2, 2);
        let mut truth = GroundTruth::new();
        truth.record_kill(10 * SECS, 1);
        // Node 1 has been down for >> removal_window (10s) at 40s.
        let obs = [added(40 * SECS, 0, 1)];
        let v = check_removals(&obs, &truth, &topo, &strict_cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            Violation::Resurrection {
                node: NodeId(1),
                ..
            }
        ));
        // Lax mode keeps the old behaviour (Adds are free).
        assert!(check_removals(&obs, &truth, &topo, &cfg()).is_empty());
        // A revive inside the window makes the Add legitimate.
        truth.record_revive(35 * SECS, 1);
        assert!(check_removals(&obs, &truth, &topo, &strict_cfg()).is_empty());
    }

    #[test]
    fn partition_excuses_only_the_involved_segments() {
        // Hosts 0,1 on segment 0; 2,3 on segment 1; 4,5 on segment 2.
        let topo = tamp_topology::generators::star_of_segments(3, 2);
        let mut truth = GroundTruth::new();
        truth.record_partition(20 * SECS, 1, 2);
        let obs = [
            removed(25 * SECS, 0, 2), // node's segment is severed: excused
            removed(25 * SECS, 0, 1), // neither endpoint involved: violation
        ];
        let v = check_removals(&obs, &truth, &topo, &cfg());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::FalseRemoval {
                node: NodeId(1),
                ..
            }
        ));
    }
}
