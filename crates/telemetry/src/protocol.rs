//! The protocol-event schema: one typed record per membership fact.
//!
//! Actors record every fact they want seen — a heartbeat sent, a
//! suspicion armed, a member removed and why — as one [`ProtocolEvent`].
//! Everything else is derived from it by the driver: the per-kind
//! counter `events/<kind>`, the trace record, the simulator's
//! observation, and (for [`ProtocolEvent::ProxyForwarded`] only) a
//! histogram sample. Each kind lists its fields once
//! ([`ProtocolEvent::fields`]); the JSONL exporter and the timeline
//! renderer both read that list.

/// What a death declaration rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Declared {
    /// This node's own failure detector: a timeout, or a suspicion it
    /// armed that nobody refuted in time.
    Detector,
    /// A stable cut-detection batch of `Alert` votes.
    Cut,
}

/// Why a member left a directory other than by this node's own death
/// declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A `Leave` relayed by `source`.
    Leave,
    /// The member's relayer (`source`) was declared dead, and no
    /// quarantine held its subtree.
    Relayer,
    /// The quarantine of the member's dead relayer (`source`) expired
    /// with the member still attributed to it.
    Quarantine,
    /// The catch-all expiry: nobody re-vouched for the entry in time.
    Expiry,
    /// The digest of the leader the entry was held on (`source`) no
    /// longer lists it.
    Orphan,
}

impl Cause {
    /// The event kind of a removal for this cause.
    pub fn kind(self) -> &'static str {
        match self {
            Cause::Leave => "removed-leave",
            Cause::Relayer => "removed-relayer",
            Cause::Quarantine => "removed-quarantine",
            Cause::Expiry => "removed-expiry",
            Cause::Orphan => "removed-orphan",
        }
    }

    fn word(self) -> &'static str {
        match self {
            Cause::Leave => "leave",
            Cause::Relayer => "relayer",
            Cause::Quarantine => "quarantine",
            Cause::Expiry => "expiry",
            Cause::Orphan => "orphan",
        }
    }
}

/// Why a SWIM ping went out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ping {
    /// This node's own probe of the period.
    Probe,
    /// A probe on a ping-req's requester's behalf.
    Indirect,
    /// A fire-and-forget ping at a node held dead.
    Reconnect,
}

/// Every kind that records a death declaration or a removal — the
/// removal chain's last links.
pub const REMOVAL_KINDS: [&str; 6] = [
    "death-declared",
    "removed-leave",
    "removed-relayer",
    "removed-quarantine",
    "removed-expiry",
    "removed-orphan",
];

/// Every kind that records a refutation: a suspicion cleared by proof
/// of life, or (gossip, which never suspects) a presumed death undone by
/// a restart.
pub const REFUTATION_KINDS: [&str; 2] = ["suspicion-refuted", "blacklist-overridden"];

/// A typed protocol-level event. Emitted by actors via
/// `Context::emit`; node ids are raw `u32`s (`NodeId.0`) so this crate
/// stays independent of the wire crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A periodic heartbeat went out on hierarchy level `level`.
    HeartbeatSent { level: u8 },
    /// Piggybacked membership updates were relayed up/down a level.
    UpdateRelayed { level: u8, events: u32 },
    /// A suspicion timer was armed against `subject`.
    SuspicionArmed { subject: u32 },
    /// A suspicion of `subject` was refuted by proof of life.
    SuspicionRefuted { subject: u32 },
    /// A suspicion of `subject` matured into a death declaration.
    SuspicionConfirmed { subject: u32 },
    /// An election round started on hierarchy level `level`.
    ElectionRound { level: u8 },
    /// This node claimed leadership of hierarchy level `level`.
    LeadershipClaimed { level: u8 },
    /// A proxy pushed a service summary (`services` entries) to remote
    /// data centre `dc`.
    ProxySummary { services: u32, dc: u16 },
    /// A proxy unwound a forwarded request's response, `hop_ns` after it
    /// forwarded the request. `origin` is the node that issued the
    /// original request (the high half of the request id, which rides
    /// the whole forwarding chain unchanged), so proxy-path latency can
    /// be attributed back to its source.
    ProxyForwarded { origin: u32, hop_ns: u64 },
    /// An anti-entropy sync poll was sent to `peer`.
    SyncPoll { peer: u32 },
    /// A leader multicast its directory digest into level `level`.
    DigestSent { level: u8 },
    /// A sync request from `peer` was answered from the update log.
    BackfillServed { peer: u32 },
    /// A sync request from `peer` was answered with a full directory.
    FullSyncServed { peer: u32 },
    /// A new cut-detection vote: `reporter` accuses `subject` at
    /// `incarnation`.
    CutReport {
        subject: u32,
        incarnation: u64,
        reporter: u32,
    },
    /// A stable cut of `subjects` members was applied as one batch.
    CutBatch { subjects: u32 },
    /// This node declared `subject` dead on its own evidence. `removed`
    /// is whether the declaration took the subject out of this node's
    /// view (a baseline column's view is its own book, which always
    /// loses it); `incarnation` is 0 when the view no longer held it.
    DeathDeclared {
        subject: u32,
        incarnation: u64,
        evidence: Declared,
        removed: bool,
    },
    /// `subject` at `incarnation` left this node's directory for
    /// `cause`; `source` is the peer the evidence came from, where the
    /// removal knows one.
    Removed {
        subject: u32,
        incarnation: u64,
        cause: Cause,
        source: Option<u32>,
    },
    /// The subtree the dead `relayer` vouched for (`members` entries)
    /// went into quarantine.
    SubtreeQuarantined { relayer: u32, members: u32 },
    /// `subject` at `incarnation`, vouched for by the dead `relayer`, is
    /// in doubt until the quarantine settles.
    QuarantineSuspected {
        subject: u32,
        incarnation: u64,
        relayer: u32,
    },
    /// The dead `relayer` came back: its quarantine of `members` entries
    /// lifted untouched.
    QuarantineLifted { relayer: u32, members: u32 },
    /// A quarantine of `relayer`'s subtree settled with `subject` still
    /// held (never orphaned, or re-vouched by a successor).
    QuarantineCleared { subject: u32, relayer: u32 },
    /// `subject` joined this node's directory at `incarnation`.
    MemberAdded { subject: u32, incarnation: u64 },
    /// This node re-incarnated at `incarnation` to refute an accusation.
    SelfRefuted { incarnation: u64 },
    /// A record of `subject` at a higher `incarnation` overrode an
    /// active blacklist entry: a presumed death undone by a restart.
    BlacklistOverridden { subject: u32, incarnation: u64 },
    /// A gossip round went to `peer`.
    GossipRound { peer: u32 },
    /// A SWIM ping went to `target`, for `purpose`.
    PingSent { target: u32, purpose: Ping },
    /// A SWIM ack answered `peer`'s ping.
    AckSent { peer: u32 },
    /// A SWIM ack from an indirect probe went back to the requester
    /// `peer`.
    AckForwarded { peer: u32 },
    /// A SWIM ping-req asked `helper` to probe `target`.
    PingReqSent { helper: u32, target: u32 },
    /// A proxy pushed `events` incremental summary changes to remote
    /// data centre `dc`.
    ProxyUpdate { events: u32, dc: u16 },
    /// A proxy forwarded a request issued by `origin` one hop on.
    RequestForwarded { origin: u32 },
    /// A proxy rejected a request issued by `origin`: no data centre or
    /// backend offers the service.
    RequestRejected { origin: u32 },
}

/// One field value of a [`ProtocolEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    Int(u64),
    /// A node id.
    Node(u32),
    /// A node id the recording site may not know.
    Peer(Option<u32>),
    Word(&'static str),
    Flag(bool),
}

impl ProtocolEvent {
    /// Stable kind string: the `events/<kind>` counter name, the JSONL
    /// `type`, and what [`crate::EventFilter::kinds`] matches.
    pub fn name(&self) -> &'static str {
        use ProtocolEvent::*;
        match self {
            HeartbeatSent { .. } => "heartbeat-sent",
            UpdateRelayed { .. } => "update-relayed",
            SuspicionArmed { .. } => "suspicion-armed",
            SuspicionRefuted { .. } => "suspicion-refuted",
            SuspicionConfirmed { .. } => "suspicion-confirmed",
            ElectionRound { .. } => "election-round",
            LeadershipClaimed { .. } => "leadership-claimed",
            ProxySummary { .. } => "proxy-summary",
            ProxyForwarded { .. } => "proxy-forwarded",
            SyncPoll { .. } => "sync-poll",
            DigestSent { .. } => "digest-sent",
            BackfillServed { .. } => "backfill-served",
            FullSyncServed { .. } => "full-sync-served",
            CutReport { .. } => "cut-report",
            CutBatch { .. } => "cut-batch",
            DeathDeclared { .. } => "death-declared",
            Removed { cause, .. } => cause.kind(),
            SubtreeQuarantined { .. } => "subtree-quarantined",
            QuarantineSuspected { .. } => "quarantine-suspected",
            QuarantineLifted { .. } => "quarantine-lifted",
            QuarantineCleared { .. } => "quarantine-cleared",
            MemberAdded { .. } => "member-added",
            SelfRefuted { .. } => "self-refuted",
            BlacklistOverridden { .. } => "blacklist-overridden",
            GossipRound { .. } => "gossip-round",
            PingSent { purpose, .. } => match purpose {
                Ping::Probe => "probe-sent",
                Ping::Indirect => "indirect-probe-sent",
                Ping::Reconnect => "reconnect-probe-sent",
            },
            AckSent { .. } => "ack-sent",
            AckForwarded { .. } => "ack-forwarded",
            PingReqSent { .. } => "ping-req-sent",
            ProxyUpdate { .. } => "proxy-update",
            RequestForwarded { .. } => "request-forwarded",
            RequestRejected { .. } => "request-rejected",
        }
    }

    /// The event's fields in the order every exporter writes them.
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        use ProtocolEvent::*;
        use Value::{Flag, Int, Node, Peer, Word};
        let int = |v: u32| Int(u64::from(v));
        match *self {
            HeartbeatSent { level }
            | ElectionRound { level }
            | LeadershipClaimed { level }
            | DigestSent { level } => vec![("level", Int(level.into()))],
            UpdateRelayed { level, events } => {
                vec![("level", Int(level.into())), ("events", int(events))]
            }
            SuspicionArmed { subject }
            | SuspicionRefuted { subject }
            | SuspicionConfirmed { subject } => vec![("subject", Node(subject))],
            ProxySummary { services, dc } => {
                vec![("services", int(services)), ("dc", Int(dc.into()))]
            }
            ProxyForwarded { origin, hop_ns } => vec![
                ("origin", Node(origin)),
                (
                    "hop_latency_us",
                    Int((hop_ns / 1_000).min(u64::from(u32::MAX))),
                ),
            ],
            SyncPoll { peer }
            | BackfillServed { peer }
            | FullSyncServed { peer }
            | GossipRound { peer }
            | AckSent { peer }
            | AckForwarded { peer } => vec![("peer", Node(peer))],
            CutReport {
                subject,
                incarnation,
                reporter,
            } => vec![
                ("subject", Node(subject)),
                ("incarnation", Int(incarnation)),
                ("reporter", Node(reporter)),
            ],
            CutBatch { subjects } => vec![("subjects", int(subjects))],
            DeathDeclared {
                subject,
                incarnation,
                evidence,
                removed,
            } => vec![
                ("subject", Node(subject)),
                ("incarnation", Int(incarnation)),
                (
                    "evidence",
                    Word(match evidence {
                        Declared::Detector => "detector",
                        Declared::Cut => "cut",
                    }),
                ),
                ("removed", Flag(removed)),
            ],
            Removed {
                subject,
                incarnation,
                cause,
                source,
            } => vec![
                ("subject", Node(subject)),
                ("incarnation", Int(incarnation)),
                ("evidence", Word(cause.word())),
                ("source", Peer(source)),
            ],
            SubtreeQuarantined { relayer, members } | QuarantineLifted { relayer, members } => {
                vec![("relayer", Node(relayer)), ("members", int(members))]
            }
            QuarantineSuspected {
                subject,
                incarnation,
                relayer,
            } => vec![
                ("subject", Node(subject)),
                ("incarnation", Int(incarnation)),
                ("relayer", Node(relayer)),
            ],
            QuarantineCleared { subject, relayer } => {
                vec![("subject", Node(subject)), ("relayer", Node(relayer))]
            }
            MemberAdded {
                subject,
                incarnation,
            }
            | BlacklistOverridden {
                subject,
                incarnation,
            } => vec![
                ("subject", Node(subject)),
                ("incarnation", Int(incarnation)),
            ],
            SelfRefuted { incarnation } => vec![("incarnation", Int(incarnation))],
            PingSent { target, .. } => vec![("target", Node(target))],
            PingReqSent { helper, target } => {
                vec![("helper", Node(helper)), ("target", Node(target))]
            }
            ProxyUpdate { events, dc } => vec![("events", int(events)), ("dc", Int(dc.into()))],
            RequestForwarded { origin } | RequestRejected { origin } => {
                vec![("origin", Node(origin))]
            }
        }
    }

    /// The histogram sample `(subsystem, name, value)` this event
    /// carries, recorded per node beside its counter.
    pub fn histogram(&self) -> Option<(&'static str, &'static str, u64)> {
        match *self {
            ProtocolEvent::ProxyForwarded { hop_ns, .. } => {
                Some(("proxy", "hop_latency_ns", hop_ns))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_kinds_name_every_removal() {
        let death = ProtocolEvent::DeathDeclared {
            subject: 1,
            incarnation: 1,
            evidence: Declared::Detector,
            removed: true,
        };
        let mut kinds = vec![death.name()];
        for cause in [
            Cause::Leave,
            Cause::Relayer,
            Cause::Quarantine,
            Cause::Expiry,
            Cause::Orphan,
        ] {
            let ev = ProtocolEvent::Removed {
                subject: 1,
                incarnation: 1,
                cause,
                source: None,
            };
            kinds.push(ev.name());
        }
        assert_eq!(kinds, REMOVAL_KINDS);
    }

    #[test]
    fn the_hop_is_written_in_microseconds_and_sampled_in_nanoseconds() {
        let ev = ProtocolEvent::ProxyForwarded {
            origin: 7,
            hop_ns: 2_345_678,
        };
        assert_eq!(
            ev.fields(),
            vec![
                ("origin", Value::Node(7)),
                ("hop_latency_us", Value::Int(2_345))
            ]
        );
        assert_eq!(ev.histogram(), Some(("proxy", "hop_latency_ns", 2_345_678)));
        let slow = ProtocolEvent::ProxyForwarded {
            origin: 7,
            hop_ns: u64::MAX,
        };
        assert_eq!(slow.fields()[1].1, Value::Int(u64::from(u32::MAX)));
    }
}
