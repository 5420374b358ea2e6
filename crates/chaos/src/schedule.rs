//! Fault schedules: a timed program of fault-injection actions.
//!
//! A [`Schedule`] is the unit everything else in this crate operates on:
//! the DSL parses into one, the generator synthesizes one, the runner
//! executes one, and the shrinker minimizes one. Schedules render back
//! to canonical DSL text ([`Schedule::render`]), so a failing schedule
//! can always be saved to a file and re-run verbatim.

use crate::cluster::Protocol;
use tamp_topology::Nanos;

/// Who a kill/revive applies to. Symbolic targets are resolved by the
/// runner at fire time, against the protocol's state at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A specific host index.
    Host(u32),
    /// The current leader of the given group level, as believed by the
    /// live majority (resolved from the nodes' probes at fire time).
    Leader(u8),
    /// A random eligible host (live for kill, dead for revive), drawn
    /// from the runner's seeded RNG.
    Random,
}

/// One fault-injection action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    Kill(Target),
    Revive(Target),
    /// Sever all traffic between two segments.
    Partition(u16, u16),
    /// Restore traffic between two segments.
    Heal(u16, u16),
    /// Restore every active partition (symmetric and gray).
    HealAll,
    /// Raise the uniform loss rate to `rate` for `duration`, then return
    /// to the scenario's base rate.
    Loss {
        rate: f64,
        duration: Nanos,
    },
    /// Gray partition: sever traffic from the first segment *towards*
    /// the second only — the reverse direction keeps flowing. The
    /// asymmetric failure mode real switch faults produce.
    GrayPartition(u16, u16),
    /// Restore the directed link severed by [`Action::GrayPartition`].
    GrayHeal(u16, u16),
    /// Correlated rack failure: kill every live host on the segment
    /// atomically (a PDU/ToR loss takes the whole subtree at once).
    RackFail(u16),
    /// Revive every dead host on the segment.
    RackRecover(u16),
    /// Churn storm: `count` random kill/revive pairs packed into
    /// `duration`, expanded deterministically from the run seed at
    /// execution time. Every churned host is revived before the storm
    /// window closes.
    ChurnStorm {
        count: u32,
        duration: Nanos,
    },
    /// Skew `host`'s local clock by `ppm` parts-per-million: positive
    /// runs the clock fast (timers fire early), negative slow.
    Skew {
        host: u32,
        ppm: i64,
    },
    /// Take a fabric router out of service: the topology re-scopes
    /// around it (TTL distances grow or pairs go unroutable).
    RouterDown(u16),
    /// Return the router to service, restoring build-time distances.
    RouterUp(u16),
}

/// An [`Action`] with its fire time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    pub at: Nanos,
    pub action: Action,
}

/// Cluster shape a scenario wants to run against. Scenario files carry
/// this so topology-sensitive schedules (router faults need redundant
/// paths) are self-contained; `None` leaves the choice to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// All segments on one core router ([`star_of_segments`]).
    ///
    /// [`star_of_segments`]: tamp_topology::generators::star_of_segments
    Star {
        segments: u16,
        hosts_per_segment: u16,
    },
    /// Segments in a router ring ([`ring_of_segments`]): every pair has
    /// two disjoint paths, so any single router loss re-routes instead
    /// of partitioning.
    ///
    /// [`ring_of_segments`]: tamp_topology::generators::ring_of_segments
    Ring {
        segments: u16,
        hosts_per_segment: u16,
    },
}

impl TopoSpec {
    /// Materialize the described topology.
    pub fn build(&self) -> tamp_topology::Topology {
        match *self {
            TopoSpec::Star {
                segments,
                hosts_per_segment,
            } => tamp_topology::generators::star_of_segments(
                segments as usize,
                hosts_per_segment as usize,
            ),
            TopoSpec::Ring {
                segments,
                hosts_per_segment,
            } => tamp_topology::generators::ring_of_segments(
                segments as usize,
                hosts_per_segment as usize,
            ),
        }
    }
}

/// A timed fault program plus the observation window around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Fault events; [`Schedule::normalize`] keeps them time-sorted.
    pub events: Vec<ScheduledFault>,
    /// Quiet tail after the last event before the oracle checks
    /// quiescence invariants.
    pub settle: Nanos,
    /// Topology the scenario asks for (`topology` DSL directive); the
    /// driver's default applies when absent.
    pub topo: Option<TopoSpec>,
    /// Protocol the scenario is written for (`protocol` DSL directive).
    /// The runner builds that protocol's actors and picks a matching
    /// oracle removal window; absent means the driver's default (`tamp`).
    pub protocol: Option<Protocol>,
}

/// Default [`Schedule::settle`]: long enough for detection, re-election,
/// and anti-entropy repair to complete at the default protocol tunables.
pub const DEFAULT_SETTLE: Nanos = 45 * tamp_topology::SECS;

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            events: Vec::new(),
            settle: DEFAULT_SETTLE,
            topo: None,
            protocol: None,
        }
    }
}

impl Schedule {
    pub fn new(events: Vec<ScheduledFault>) -> Self {
        let mut s = Schedule {
            events,
            ..Schedule::default()
        };
        s.normalize();
        s
    }

    /// Sort events by time (stable, so same-instant events keep their
    /// program order).
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Fire time of the last event (0 for an empty schedule).
    pub fn last_event_at(&self) -> Nanos {
        self.events
            .iter()
            .map(|e| {
                // Windowed faults occupy their whole window.
                match e.action {
                    Action::Loss { duration, .. } | Action::ChurnStorm { duration, .. } => {
                        e.at + duration
                    }
                    _ => e.at,
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// When the oracle takes its quiescence snapshot.
    pub fn horizon(&self) -> Nanos {
        self.last_event_at() + self.settle
    }

    /// Canonical DSL text; [`crate::dsl::parse`] of the output yields an
    /// equal schedule. This is what failure reports embed, so a repro is
    /// always copy-pasteable into a scenario file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(topo) = self.topo {
            let (kind, s, h) = match topo {
                TopoSpec::Star {
                    segments,
                    hosts_per_segment,
                } => ("star", segments, hosts_per_segment),
                TopoSpec::Ring {
                    segments,
                    hosts_per_segment,
                } => ("ring", segments, hosts_per_segment),
            };
            out.push_str(&format!("topology {kind} {s} {h}\n"));
        }
        if let Some(p) = self.protocol {
            out.push_str(&format!("protocol {}\n", p.name()));
        }
        out.push_str(&format!("settle {}\n", fmt_duration(self.settle)));
        for e in &self.events {
            out.push_str(&render_event(e));
            out.push('\n');
        }
        out
    }
}

fn render_target(t: Target) -> String {
    match t {
        Target::Host(h) => format!("host {h}"),
        Target::Leader(l) => format!("leader {l}"),
        Target::Random => "random".to_string(),
    }
}

fn render_event(e: &ScheduledFault) -> String {
    let at = fmt_duration(e.at);
    match e.action {
        Action::Kill(t) => format!("at {at} kill {}", render_target(t)),
        Action::Revive(t) => format!("at {at} revive {}", render_target(t)),
        Action::Partition(a, b) => format!("at {at} partition {a} {b}"),
        Action::Heal(a, b) => format!("at {at} heal {a} {b}"),
        Action::HealAll => format!("at {at} heal all"),
        Action::Loss { rate, duration } => {
            format!("at {at} loss {rate} for {}", fmt_duration(duration))
        }
        Action::GrayPartition(a, b) => format!("at {at} gray-partition {a} {b}"),
        Action::GrayHeal(a, b) => format!("at {at} gray-heal {a} {b}"),
        Action::RackFail(s) => format!("at {at} rack-fail {s}"),
        Action::RackRecover(s) => format!("at {at} rack-recover {s}"),
        Action::ChurnStorm { count, duration } => {
            format!("at {at} churn-storm {count} for {}", fmt_duration(duration))
        }
        Action::Skew { host, ppm } => format!("at {at} skew {host} {ppm}"),
        Action::RouterDown(r) => format!("at {at} router-down {r}"),
        Action::RouterUp(r) => format!("at {at} router-up {r}"),
    }
}

/// Render nanoseconds with the coarsest exact unit (`90s`, `1500ms`,
/// `250us`, `17ns`) so rendered schedules stay readable and re-parse to
/// the identical value.
pub fn fmt_duration(ns: Nanos) -> String {
    if ns == 0 {
        return "0s".to_string();
    }
    for (unit, div) in [("s", 1_000_000_000u64), ("ms", 1_000_000), ("us", 1_000)] {
        if ns.is_multiple_of(div) {
            return format!("{}{unit}", ns / div);
        }
    }
    format!("{ns}ns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    #[test]
    fn normalize_sorts_by_time() {
        let mut s = Schedule::new(vec![
            ScheduledFault {
                at: 20 * SECS,
                action: Action::HealAll,
            },
            ScheduledFault {
                at: 10 * SECS,
                action: Action::Kill(Target::Host(1)),
            },
        ]);
        s.normalize();
        assert_eq!(s.events[0].at, 10 * SECS);
    }

    #[test]
    fn horizon_covers_loss_window() {
        let s = Schedule::new(vec![ScheduledFault {
            at: 10 * SECS,
            action: Action::Loss {
                rate: 0.5,
                duration: 30 * SECS,
            },
        }]);
        assert_eq!(s.last_event_at(), 40 * SECS);
        assert_eq!(s.horizon(), 40 * SECS + DEFAULT_SETTLE);
    }

    #[test]
    fn horizon_covers_churn_storm_window() {
        let s = Schedule::new(vec![ScheduledFault {
            at: 10 * SECS,
            action: Action::ChurnStorm {
                count: 6,
                duration: 25 * SECS,
            },
        }]);
        assert_eq!(s.last_event_at(), 35 * SECS);
    }

    #[test]
    fn topology_renders_first() {
        let s = Schedule {
            topo: Some(TopoSpec::Ring {
                segments: 4,
                hosts_per_segment: 2,
            }),
            ..Schedule::default()
        };
        assert!(s.render().starts_with("topology ring 4 2\n"));
        assert_eq!(s.topo.unwrap().build().num_hosts(), 8);
    }

    #[test]
    fn duration_formatting_is_exact() {
        assert_eq!(fmt_duration(0), "0s");
        assert_eq!(fmt_duration(90 * SECS), "90s");
        assert_eq!(fmt_duration(1_500_000_000), "1500ms");
        assert_eq!(fmt_duration(250_000), "250us");
        assert_eq!(fmt_duration(17), "17ns");
    }
}
