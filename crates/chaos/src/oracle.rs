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

use crate::truth::GroundTruth;
use tamp_baselines::{alltoall, swim};
use tamp_directory::DirectoryClient;
use tamp_membership::config::{
    CUT_BATCH_DELAY, CUT_REPORT_TTL, DEGRADE_MAX_STRETCH, FLAP_SCORE_CAP, LEVEL_TIMEOUT_FACTOR,
};
use tamp_membership::{MembershipConfig, Probe};
use tamp_netsim::{Observation, ObservationKind};
use tamp_topology::{HostId, Nanos, Topology};
use tamp_wire::NodeId;

/// Tunables for the oracle's judgement.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// A removal at time `t` is justified by faults inside `[t - window,
    /// t)`. Derive it from the protocol's own detection bound with
    /// [`OracleConfig::for_membership`].
    pub removal_window: Nanos,
    /// Elevated loss at or above this rate excuses removals during (and
    /// shortly after) the burst: heartbeats genuinely cannot get through.
    pub loss_excuse_rate: f64,
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
    /// node. Off when the protocol runs with `suspicion_window = 0`.
    pub require_suspicion: bool,
}

impl OracleConfig {
    /// Window sized to the protocol's worst-case detection timeout: the
    /// level-ℓ timeout is `max_loss × heartbeat × (1 + ℓ × factor)`, so
    /// any *correct* removal fires within that of the underlying fault.
    /// `max_level` is the deepest hierarchy level the topology can form.
    pub fn for_membership(cfg: &MembershipConfig, max_level: u8) -> Self {
        let base = cfg.heartbeat_period * cfg.max_loss as u64;
        let worst = base + (base as f64 * max_level as f64 * LEVEL_TIMEOUT_FACTOR) as u64;
        // The robustness extensions delay a *correct* removal further:
        // the suspicion window (scaled by the flap-damping cap), both
        // timeout and suspicion stretched under measured distress, and a
        // quarantine hold for relayed subtrees. The window must cover
        // the slowest legitimate confirmation or the oracle would flag
        // correct-but-deliberate removals.
        let stretch = DEGRADE_MAX_STRETCH;
        let flap_cap = 1.0 + FLAP_SCORE_CAP;
        let suspicion_worst = (cfg.suspicion(max_level) as f64 * flap_cap * stretch) as u64;
        let detect_worst = (worst as f64 * stretch) as u64 + suspicion_worst;
        OracleConfig {
            // Slack for propagation of the removal itself (relay up the
            // tree + fan-out down), and for sweep granularity.
            removal_window: detect_worst
                + cfg.quarantine_window
                + 3 * cfg.heartbeat_period
                + cfg.sweep_period,
            // At ≥ 0.25 uniform loss, `max_loss` consecutive heartbeat
            // misses become likely enough over a whole cluster that
            // removals during a burst cannot be called protocol bugs.
            loss_excuse_rate: 0.25,
            // Subtree repair: re-election, level re-join, plus one full
            // anti-entropy round to re-seed remote directories.
            repair_window: cfg.anti_entropy_period + worst,
            strict: false,
            require_suspicion: false,
        }
    }

    /// Strict variant: same window sizing, but the excuse model is off
    /// (see [`OracleConfig::strict`]) and, when the protocol runs with a
    /// suspicion window, every removal must have been preceded by a
    /// suspicion somewhere in the cluster.
    pub fn strict_for_membership(cfg: &MembershipConfig, max_level: u8) -> Self {
        OracleConfig {
            strict: true,
            require_suspicion: cfg.suspicion_window > 0,
            ..OracleConfig::for_membership(cfg, max_level)
        }
    }

    /// Window for the Rapid-style cut-detection discipline: detection
    /// still starts from the timeout machinery, but confirmation waits
    /// for the vote pattern to stabilize — reports live for
    /// `CUT_REPORT_TTL` and the batch fires only after `CUT_BATCH_DELAY`
    /// of quiescence, so a correct removal can trail the fault by that
    /// much more than in timeout mode.
    pub fn for_cut_detection(cfg: &MembershipConfig, max_level: u8) -> Self {
        let base = OracleConfig::for_membership(cfg, max_level);
        OracleConfig {
            removal_window: base.removal_window + CUT_REPORT_TTL + CUT_BATCH_DELAY,
            ..base
        }
    }

    /// Strict cut-detection variant. Every confirmed cut is preceded by
    /// an advisory suspicion at the reporting observers, so the
    /// suspect-before-remove ordering check stays on.
    pub fn strict_for_cut_detection(cfg: &MembershipConfig, max_level: u8) -> Self {
        OracleConfig {
            strict: true,
            require_suspicion: true,
            ..OracleConfig::for_cut_detection(cfg, max_level)
        }
    }

    /// Window for the all-to-all baseline: a correct removal fires
    /// within `max_loss` missed heartbeats of the fault, plus sweep
    /// granularity and a little heartbeat phase slack. No suspicion
    /// machinery exists, so strict runs don't require the ordering.
    pub fn for_alltoall(cfg: &tamp_baselines::AllToAllConfig) -> Self {
        OracleConfig {
            removal_window: cfg.heartbeat_period * (alltoall::MAX_LOSS as u64 + 3)
                + alltoall::SWEEP_PERIOD,
            loss_excuse_rate: 0.25,
            repair_window: 2 * cfg.heartbeat_period,
            strict: false,
            require_suspicion: false,
        }
    }

    /// Window for the gossip baseline: staleness is judged against
    /// `T_fail`, the blacklist holds entries until `T_cleanup = 2×T_fail`,
    /// and the removal itself still has to gossip out.
    pub fn for_gossip(cfg: &tamp_baselines::GossipConfig) -> Self {
        OracleConfig {
            removal_window: cfg.t_cleanup() + 4 * cfg.period + cfg.sweep_period,
            loss_excuse_rate: 0.25,
            repair_window: cfg.t_fail(),
            strict: false,
            require_suspicion: false,
        }
    }

    /// Window for the SWIM baseline on an `n`-host cluster: up to one
    /// full probe lap before the dead member's turn comes up, the
    /// direct + indirect probe phases, the refutable suspicion window,
    /// and piggybacked dissemination of the confirmation (`O(log n)`
    /// probe periods; budgeted generously). SWIM suspects before it
    /// confirms, so strict runs keep the ordering check.
    pub fn for_swim(n_hosts: usize) -> Self {
        let lap = swim::PROBE_PERIOD * n_hosts as u64;
        OracleConfig {
            removal_window: lap
                + 15 * swim::PROBE_PERIOD
                + swim::DIRECT_TIMEOUT
                + swim::INDIRECT_TIMEOUT
                + swim::SUSPECT_TIMEOUT
                + swim::SWEEP_PERIOD,
            loss_excuse_rate: 0.25,
            repair_window: swim::SUSPECT_TIMEOUT,
            strict: false,
            require_suspicion: true,
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
/// * elevated loss at ≥ `loss_excuse_rate` was in effect within the
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
            || truth.max_loss_in(repair_from, to) >= cfg.loss_excuse_rate
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

/// Invariant 2: at quiescence every live host's view equals the live
/// set. `clients[i]` must belong to host `i`. Skipped (returns empty)
/// while a partition — symmetric or gray — is still active: divided
/// halves cannot converge, and a one-way link starves one side's
/// updates. A *healed* router fault does not skip: re-formation must
/// converge to a single consistent view within the settle window.
pub fn check_convergence(clients: &[DirectoryClient], truth: &GroundTruth) -> Vec<Violation> {
    if truth.any_partition_active() || truth.any_gray_active() {
        return Vec::new();
    }
    let live: Vec<u32> = (0..clients.len() as u32)
        .filter(|&i| truth.is_alive(i))
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
            loss_excuse_rate: 0.5,
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
    fn removal_window_scales_with_hierarchy_depth() {
        let m = MembershipConfig::default();
        let shallow = OracleConfig::for_membership(&m, 0).removal_window;
        let deep = OracleConfig::for_membership(&m, 3).removal_window;
        assert!(deep > shallow);
        // Level-0 detection is max_loss × heartbeat; the window must
        // exceed it to tolerate correct detections at the bound.
        assert!(shallow > m.heartbeat_period * m.max_loss as u64);
    }

    #[test]
    fn removal_window_covers_suspicion_and_quarantine() {
        let m = MembershipConfig::default();
        let with = OracleConfig::for_membership(&m, 2).removal_window;
        let without = OracleConfig::for_membership(
            &MembershipConfig {
                suspicion_window: 0,
                quarantine_window: 0,
                ..MembershipConfig::default()
            },
            2,
        )
        .removal_window;
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
