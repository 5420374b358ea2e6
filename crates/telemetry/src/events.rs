//! The structured event-trace layer: one typed schema for network
//! events (send/deliver/drop/fault) *and* protocol events
//! ([`ProtocolEvent`], defined in [`crate::protocol`]), held in a
//! bounded ring buffer.
//!
//! This is the single event schema for the whole stack: the simulator
//! (`tamp-netsim`) records network events here, actors emit
//! [`ProtocolEvent`]s through their effect queue, and the chaos runner
//! and `tamp-exp trace` both consume [`EventRecord`]s instead of
//! pre-rendered strings. Timestamps are supplied by the driver
//! (virtual ns in the simulator, wall-clock ns in the UDP runtime) —
//! this crate never reads a clock.

pub use crate::protocol::ProtocolEvent;
use crate::protocol::Value;
use tamp_topology::HostId;

/// Event timestamp in nanoseconds (virtual or wall-clock, driver's
/// choice). Numerically identical to `tamp_netsim::SimTime`.
pub type EventTime = u64;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A packet left a host.
    Send {
        src: HostId,
        /// `None` for unicast, `Some((channel, ttl))` for multicast.
        multicast: Option<(u16, u8)>,
        kind: &'static str,
        bytes: u32,
        receivers: u32,
    },
    /// A packet arrived at a host.
    Deliver {
        src: HostId,
        dst: HostId,
        /// Multicast channel the packet travelled on (`None` = unicast).
        channel: Option<u16>,
        kind: &'static str,
        bytes: u32,
    },
    /// A delivery was dropped (loss, dead host, partition).
    Drop {
        src: HostId,
        dst: HostId,
        /// Multicast channel the packet travelled on (`None` = unicast).
        channel: Option<u16>,
        kind: &'static str,
        reason: DropReason,
    },
    /// A timer fired on a host.
    Timer { host: HostId, token: u64 },
    /// Fault injection.
    Fault(&'static str, HostId),
    /// Network-wide fault transition (partition, heal, loss change):
    /// a short verb plus a preformatted detail string.
    Net(&'static str, String),
    /// A protocol-level event emitted by the actor running on `node`.
    Protocol { node: HostId, event: ProtocolEvent },
}

/// Why a delivery was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random packet loss.
    Loss,
    /// The destination was dead (or restarted since the send).
    DeadHost,
    /// A network partition blocked the segment pair.
    Partition,
    /// A gray (asymmetric) partition blocked this direction only; the
    /// reverse direction still delivers. Kept distinct from
    /// [`DropReason::Partition`] so metrics reconciliation can attribute
    /// directional loss exactly.
    Gray,
    /// The destination became unreachable because a router on every
    /// path between the segments is down (dynamic topology).
    Unroutable,
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    pub time: EventTime,
    pub event: Event,
}

/// Event-log configuration and filtering.
#[derive(Debug, Clone)]
pub struct EventFilter {
    /// Master switch.
    pub enabled: bool,
    /// Keep only the most recent `capacity` records (ring buffer).
    pub capacity: usize,
    /// Record timer firings too (noisy; off by default).
    pub include_timers: bool,
    /// Only record events touching these hosts (empty = all hosts).
    pub hosts: Vec<HostId>,
    /// Only record these message / protocol-event kinds (empty = all).
    pub kinds: Vec<&'static str>,
}

impl Default for EventFilter {
    fn default() -> Self {
        EventFilter {
            enabled: false,
            capacity: 100_000,
            include_timers: false,
            hosts: Vec::new(),
            kinds: Vec::new(),
        }
    }
}

impl EventFilter {
    /// Convenience: tracing on, everything recorded.
    pub fn all() -> Self {
        EventFilter {
            enabled: true,
            ..Default::default()
        }
    }

    #[inline]
    fn wants_host(&self, h: HostId) -> bool {
        self.hosts.is_empty() || self.hosts.contains(&h)
    }

    #[inline]
    fn wants_kind(&self, k: &str) -> bool {
        self.kinds.is_empty() || self.kinds.contains(&k)
    }

    /// Would this filter record `ev`?
    #[inline]
    pub fn wants(&self, ev: &Event) -> bool {
        if !self.enabled {
            return false;
        }
        match ev {
            Event::Send { src, kind, .. } => self.wants_host(*src) && self.wants_kind(kind),
            Event::Deliver { src, dst, kind, .. } => {
                (self.wants_host(*src) || self.wants_host(*dst)) && self.wants_kind(kind)
            }
            Event::Drop { src, dst, kind, .. } => {
                (self.wants_host(*src) || self.wants_host(*dst)) && self.wants_kind(kind)
            }
            Event::Timer { host, .. } => self.include_timers && self.wants_host(*host),
            Event::Fault(_, host) => self.wants_host(*host),
            // Network-wide transitions touch every host; never filtered.
            Event::Net(..) => true,
            Event::Protocol { node, event } => {
                self.wants_host(*node) && self.wants_kind(event.name())
            }
        }
    }
}

/// The bounded event log: a ring buffer that evicts the oldest record
/// when full, so the newest events always survive.
#[derive(Debug, Default)]
pub struct EventLog {
    records: std::collections::VecDeque<EventRecord>,
    capacity: usize,
    /// Total records ever pushed (including evicted ones).
    pushed: u64,
}

impl EventLog {
    pub fn new(capacity: usize) -> Self {
        EventLog {
            records: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            pushed: 0,
        }
    }

    pub fn push(&mut self, time: EventTime, event: Event) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(EventRecord { time, event });
        self.pushed += 1;
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &EventRecord> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records observed, including any evicted by the ring buffer.
    pub fn total_recorded(&self) -> u64 {
        self.pushed
    }

    /// Render one record as a human-readable timeline line.
    pub fn render(r: &EventRecord) -> String {
        let t = r.time as f64 / 1e9;
        match &r.event {
            Event::Send {
                src,
                multicast,
                kind,
                bytes,
                receivers,
            } => match multicast {
                Some((ch, ttl)) => format!(
                    "{t:11.6}  {src:>5} ──▶ ch{ch}/ttl{ttl}  {kind} ({bytes} B, {receivers} rcvrs)"
                ),
                None => format!("{t:11.6}  {src:>5} ──▶ unicast  {kind} ({bytes} B)"),
            },
            Event::Deliver {
                src,
                dst,
                channel,
                kind,
                bytes,
            } => match channel {
                Some(ch) => {
                    format!("{t:11.6}  {src:>5} ─▷ {dst:<5} ch{ch} {kind} ({bytes} B)")
                }
                None => format!("{t:11.6}  {src:>5} ─▷ {dst:<5} {kind} ({bytes} B)"),
            },
            Event::Drop {
                src,
                dst,
                channel,
                kind,
                reason,
            } => match channel {
                Some(ch) => {
                    format!("{t:11.6}  {src:>5} ─✕ {dst:<5} ch{ch} {kind} ({reason:?})")
                }
                None => format!("{t:11.6}  {src:>5} ─✕ {dst:<5} {kind} ({reason:?})"),
            },
            Event::Timer { host, token } => {
                format!("{t:11.6}  {host:>5} ⏰ timer {token:#x}")
            }
            Event::Fault(what, host) => format!("{t:11.6}  ==== {what} {host} ===="),
            Event::Net(what, detail) => format!("{t:11.6}  ==== net {what} {detail} ===="),
            Event::Protocol { node, event } => {
                let mut line = format!("{t:11.6}  {node:>5} ⋄ {}", event.name());
                for (name, value) in event.fields() {
                    let value = match value {
                        Value::Int(v) => v.to_string(),
                        Value::Node(n) | Value::Peer(Some(n)) => format!("n{n}"),
                        Value::Peer(None) => "-".to_string(),
                        Value::Word(w) => w.to_string(),
                        Value::Flag(f) => f.to_string(),
                    };
                    line.push_str(&format!(" {name}={value}"));
                }
                line
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest_keeps_newest() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(
                i,
                Event::Timer {
                    host: HostId(0),
                    token: i,
                },
            );
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        let times: Vec<EventTime> = log.records().map(|r| r.time).collect();
        assert_eq!(times, vec![2, 3, 4], "newest events survive eviction");
    }

    #[test]
    fn filters_apply() {
        let cfg = EventFilter {
            enabled: true,
            hosts: vec![HostId(1)],
            kinds: vec!["heartbeat"],
            ..Default::default()
        };
        let ok = Event::Deliver {
            src: HostId(1),
            dst: HostId(2),
            channel: None,
            kind: "heartbeat",
            bytes: 10,
        };
        let wrong_kind = Event::Deliver {
            src: HostId(1),
            dst: HostId(2),
            channel: None,
            kind: "update",
            bytes: 10,
        };
        let wrong_host = Event::Deliver {
            src: HostId(3),
            dst: HostId(4),
            channel: None,
            kind: "heartbeat",
            bytes: 10,
        };
        assert!(cfg.wants(&ok));
        assert!(!cfg.wants(&wrong_kind));
        assert!(!cfg.wants(&wrong_host));
    }

    #[test]
    fn protocol_events_filter_by_name_and_node() {
        let cfg = EventFilter {
            enabled: true,
            hosts: vec![HostId(7)],
            kinds: vec!["suspicion-armed"],
            ..Default::default()
        };
        let ok = Event::Protocol {
            node: HostId(7),
            event: ProtocolEvent::SuspicionArmed { subject: 3 },
        };
        let wrong_kind = Event::Protocol {
            node: HostId(7),
            event: ProtocolEvent::SyncPoll { peer: 3 },
        };
        let wrong_node = Event::Protocol {
            node: HostId(8),
            event: ProtocolEvent::SuspicionArmed { subject: 3 },
        };
        assert!(cfg.wants(&ok));
        assert!(!cfg.wants(&wrong_kind));
        assert!(!cfg.wants(&wrong_node));
    }

    #[test]
    fn disabled_wants_nothing() {
        let cfg = EventFilter::default();
        assert!(!cfg.wants(&Event::Fault("kill", HostId(0))));
    }

    #[test]
    fn timers_gated_separately() {
        let mut cfg = EventFilter::all();
        let t = Event::Timer {
            host: HostId(0),
            token: 1,
        };
        assert!(!cfg.wants(&t), "timers are opt-in");
        cfg.include_timers = true;
        assert!(cfg.wants(&t));
    }

    #[test]
    fn render_includes_channel_ids() {
        let deliver = EventRecord {
            time: 1_500_000_000,
            event: Event::Deliver {
                src: HostId(1),
                dst: HostId(2),
                channel: Some(3),
                kind: "update",
                bytes: 64,
            },
        };
        let line = EventLog::render(&deliver);
        assert!(line.contains("1.500000"));
        assert!(
            line.contains("ch3"),
            "multicast channel id is rendered: {line}"
        );
        let drop = EventRecord {
            time: 2_000_000_000,
            event: Event::Drop {
                src: HostId(1),
                dst: HostId(2),
                channel: Some(9),
                kind: "update",
                reason: DropReason::Loss,
            },
        };
        let line = EventLog::render(&drop);
        assert!(line.contains("ch9") && line.contains("Loss"));
    }
}
