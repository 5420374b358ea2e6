//! All message and record types that appear on the wire.

use std::fmt;

/// Protocol identity of a node. Numerically equal to the host's
/// `tamp_topology::HostId`; the paper uses the IP address. The bully
/// election elects the *lowest* id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identity of a data center in the proxy protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DcId(pub u16);

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// A set of data-partition ids hosted by a service instance.
///
/// Stored as a sorted vector of u16 — partition counts in the paper's
/// workloads are small (a handful per node), so a sorted vec beats a
/// bitset for both size on the wire and iteration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PartitionSet(Vec<u16>);

impl PartitionSet {
    pub fn empty() -> Self {
        PartitionSet(Vec::new())
    }

    /// Build from any iterator of partition ids; dedups and sorts.
    /// (Deliberately an inherent method, not the `FromIterator` trait:
    /// callers construct partition sets explicitly.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut v: Vec<u16> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        PartitionSet(v)
    }

    /// Parse the paper's partition-list syntax: comma-separated ids and
    /// inclusive ranges, e.g. `"1-3,7"` → {1,2,3,7}. Returns `None` on any
    /// syntax error.
    pub fn parse(s: &str) -> Option<Self> {
        let mut out = Vec::new();
        let s = s.trim();
        if s.is_empty() {
            return Some(PartitionSet::empty());
        }
        for part in s.split(',') {
            let part = part.trim();
            if let Some((lo, hi)) = part.split_once('-') {
                let lo: u16 = lo.trim().parse().ok()?;
                let hi: u16 = hi.trim().parse().ok()?;
                if lo > hi {
                    return None;
                }
                out.extend(lo..=hi);
            } else {
                out.push(part.parse().ok()?);
            }
        }
        Some(Self::from_iter(out))
    }

    pub fn insert(&mut self, p: u16) {
        if let Err(pos) = self.0.binary_search(&p) {
            self.0.insert(pos, p);
        }
    }

    pub fn contains(&self, p: u16) -> bool {
        self.0.binary_search(&p).is_ok()
    }

    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.0.iter().copied()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if any partition is in both sets.
    pub fn intersects(&self, other: &PartitionSet) -> bool {
        // Both sorted: linear merge.
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    pub(crate) fn as_slice(&self) -> &[u16] {
        &self.0
    }
}

impl fmt::Display for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A service a node exports: name, hosted partitions, and service-specific
/// key-value attributes (the `Port = 8080` lines of the paper's Fig. 7
/// configuration).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceDecl {
    pub name: String,
    pub partitions: PartitionSet,
    pub attrs: Vec<(String, String)>,
}

impl ServiceDecl {
    pub fn new(name: impl Into<String>, partitions: PartitionSet) -> Self {
        ServiceDecl {
            name: name.into(),
            partitions,
            attrs: Vec::new(),
        }
    }
}

/// The bulky, rarely-changing part of a [`NodeRecord`]: service
/// declarations and machine-configuration attributes. Kept behind a
/// refcounted pointer so that copying a record between directories (which
/// a 10k-node simulation does millions of times) is a pointer bump, not a
/// deep clone of every string.
#[derive(Clone, Default)]
pub struct RecordPayload {
    pub services: Vec<ServiceDecl>,
    /// Machine configuration key-value pairs (the `/proc`-derived data in
    /// the paper's implementation).
    pub attrs: Vec<(String, String)>,
    /// This payload's section of a frame (services count .. end of
    /// attrs) exactly as the encoder writes it, built on first use. The
    /// section is a function of the two fields above and nothing else,
    /// so it is the payload's identity on the wire: a frame's section
    /// equals it iff decoding the section yields this payload, the
    /// codec's length is its length, and the decoder shares payloads by
    /// it. Any mutable access through [`NodeRecord`]'s `DerefMut` drops
    /// it; a clone has the same content and keeps it. Identity-
    /// irrelevant, so every trait below ignores it.
    wire: std::sync::OnceLock<std::sync::Arc<[u8]>>,
}

impl RecordPayload {
    /// The canonical encoded payload section.
    pub(crate) fn wire(&self) -> &std::sync::Arc<[u8]> {
        self.wire
            .get_or_init(|| crate::codec::encode_payload(self).into())
    }

    fn same_content(&self, other: &Self) -> bool {
        self.services == other.services && self.attrs == other.attrs
    }
}

impl PartialEq for RecordPayload {
    // Same allocation first: a holder that stores the payload apart
    // from its record (the directory's columns) compares plain
    // references, and the shared case is the common one — worth
    // answering without a call.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || self.same_content(other)
    }
}

impl Eq for RecordPayload {}

impl std::fmt::Debug for RecordPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordPayload")
            .field("services", &self.services)
            .field("attrs", &self.attrs)
            .finish()
    }
}

/// Everything the membership directory stores about one node: the "yellow
/// page" entry. Contains the *relatively stable* information the paper
/// scopes the protocol to (service names, partition ids, machine
/// configuration) — load data is explicitly out of scope.
///
/// The payload (`services` + `attrs`, reachable through `Deref`) is
/// copy-on-write: `clone()` shares it, and the first mutation through
/// `DerefMut` splits off a private copy. Records flowing between
/// simulated nodes therefore share one allocation cluster-wide until a
/// node actually edits its entry.
#[derive(Debug, Clone, Default)]
pub struct NodeRecord {
    pub node: NodeId,
    /// Monotonic restart counter. A record with a higher incarnation
    /// always supersedes one with a lower incarnation for the same node,
    /// which keeps rejoin-after-crash unambiguous.
    pub incarnation: u64,
    payload: std::sync::Arc<RecordPayload>,
}

impl std::ops::Deref for NodeRecord {
    type Target = RecordPayload;
    fn deref(&self) -> &RecordPayload {
        &self.payload
    }
}

impl std::ops::DerefMut for NodeRecord {
    fn deref_mut(&mut self) -> &mut RecordPayload {
        let p = std::sync::Arc::make_mut(&mut self.payload);
        // `payload` is private, so every mutation flows through here:
        // conservatively drop the encoded section before handing out
        // the mutable reference. (A shared payload was cloned by
        // `make_mut` first, and one the decoder's table alone still
        // pointed at was moved — either way the original, if anyone
        // holds it, keeps its valid section and this one is private.)
        p.wire.take();
        p
    }
}

impl PartialEq for NodeRecord {
    fn eq(&self, other: &Self) -> bool {
        // `RecordPayload::eq` answers "same allocation" first.
        self.node == other.node
            && self.incarnation == other.incarnation
            && *self.payload == *other.payload
    }
}

impl Eq for NodeRecord {}

impl NodeRecord {
    pub fn new(node: NodeId, incarnation: u64) -> Self {
        NodeRecord {
            node,
            incarnation,
            payload: std::sync::Arc::default(),
        }
    }

    /// Build a record from its four logical fields (what the pre-CoW
    /// struct literal spelled out). Used by the codec and test fixtures.
    pub fn from_parts(
        node: NodeId,
        incarnation: u64,
        services: Vec<ServiceDecl>,
        attrs: Vec<(String, String)>,
    ) -> Self {
        NodeRecord {
            node,
            incarnation,
            payload: std::sync::Arc::new(RecordPayload {
                services,
                attrs,
                ..Default::default()
            }),
        }
    }

    /// Split into identity and the shared payload, for a holder that
    /// keeps the two in separate columns. The payload's encoded section
    /// is only dropped by mutation through a `NodeRecord`: do not edit
    /// one through the `Arc`.
    pub fn into_parts(self) -> (NodeId, u64, std::sync::Arc<RecordPayload>) {
        (self.node, self.incarnation, self.payload)
    }

    /// The inverse of [`NodeRecord::into_parts`].
    pub fn from_shared(
        node: NodeId,
        incarnation: u64,
        payload: std::sync::Arc<RecordPayload>,
    ) -> Self {
        NodeRecord {
            node,
            incarnation,
            payload,
        }
    }

    /// True when `self` and `other` share one payload allocation (CoW has
    /// not split them). Test-facing; protocol code never needs this.
    pub fn shares_payload_with(&self, other: &NodeRecord) -> bool {
        std::sync::Arc::ptr_eq(&self.payload, &other.payload)
    }

    pub fn with_service(mut self, s: ServiceDecl) -> Self {
        self.services.push(s);
        self
    }

    pub fn with_attr(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.attrs.push((k.into(), v.into()));
        self
    }

    /// Pad `attrs` with filler so the encoded heartbeat for this record
    /// reaches `target` bytes. Used by the harness to match the paper's
    /// measured 228-byte heartbeat packets.
    pub fn pad_to_encoded_size(&mut self, target: usize) {
        let probe = Message::Heartbeat(Heartbeat {
            from: self.node,
            level: 0,
            seq: 0,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: self.clone(),
        });
        let cur = crate::codec::encoded_len(&probe);
        if cur + 5 <= target {
            // key "pad" + value of the needed length; 4+3 + 4+len bytes of
            // framing per the codec's string layout.
            let need = target - cur - (4 + 3 + 4);
            self.attrs.push(("pad".to_string(), "x".repeat(need)));
        }
    }
}

/// A membership change event, as disseminated by group leaders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// A node joined (or rejoined with a new incarnation); carries its
    /// full yellow-page record.
    Join(NodeRecord),
    /// A node was declared dead. The incarnation is the one being
    /// declared dead, so a concurrent rejoin (higher incarnation) is not
    /// cancelled by a stale leave.
    Leave(NodeId, u64),
    /// A node timed out but has not yet been declared dead: the
    /// suspicion/refutation extension (docs/ROBUSTNESS.md). The
    /// incarnation is the one under suspicion; a refutation must carry a
    /// strictly higher one to win.
    Suspect(NodeId, u64),
    /// Proof of life for a suspected node: its record at an incarnation
    /// at least as high as the suspected one. Distinct from `Join` so
    /// that receivers clear local suspicion state and keep relaying the
    /// refutation even when the record itself is already known.
    Refute(NodeRecord),
    /// One observer's failure report in Rapid-style cut-detection mode
    /// (docs/BASELINES.md): `reporter` timed out `subject` at
    /// `incarnation`. Unlike `Suspect`, an alert never removes anything
    /// on its own — nodes count *distinct reporters* per subject, and
    /// only a stable report count crossing the high watermark turns into
    /// a batched view change.
    Alert {
        subject: NodeId,
        incarnation: u64,
        reporter: NodeId,
    },
}

impl MemberEvent {
    pub fn subject(&self) -> NodeId {
        match self {
            MemberEvent::Join(r) => r.node,
            MemberEvent::Leave(n, _) => *n,
            MemberEvent::Suspect(n, _) => *n,
            MemberEvent::Refute(r) => r.node,
            MemberEvent::Alert { subject, .. } => *subject,
        }
    }
}

/// An event tagged with the origin's update sequence number. Update
/// messages carry the current event plus up to the last three prior events
/// (paper §3.1.2 "Message Loss Detection") so receivers tolerate up to
/// three consecutive lost packets without a resynchronization poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqEvent {
    pub seq: u64,
    pub event: MemberEvent,
}

/// Periodic liveness announcement multicast within one membership group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    pub from: NodeId,
    /// Group level this heartbeat was sent in (level k uses TTL k+1).
    pub level: u8,
    /// Per-(sender, level) heartbeat sequence number.
    pub seq: u64,
    /// The paper's "special flag in its heartbeat packets": set when the
    /// sender is the leader of the group this heartbeat is sent to, so
    /// bootstrapping nodes can find the leader by listening.
    pub is_leader: bool,
    /// The backup leader designated by the current leader, if any.
    pub backup: Option<NodeId>,
    /// Sequence number of the sender's most recent originated update.
    /// Receivers compare it against the highest update they applied from
    /// this sender; a shortfall means an update multicast was lost and
    /// triggers a resynchronization poll (§3.1.2 "the receiver will poll
    /// the sender to synchronize its membership directory").
    pub latest_update_seq: u64,
    /// The sender's own yellow-page record (service + machine info).
    pub record: NodeRecord,
}

/// A membership-change broadcast along the leader tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateMsg {
    /// Node whose update counter sequences `events` (the relay sender).
    pub origin: NodeId,
    /// Newest event last; up to the three preceding events are prepended
    /// as the piggyback window.
    pub events: Vec<SeqEvent>,
}

/// A record plus which group leader relayed it here (None = heard
/// directly). Relayed entries share the relayer's lifetime in the timeout
/// protocol: if the relaying leader dies at level k, everything it relayed
/// is purged with it, which is how switch/partition failures are detected
/// quickly (paper §3.1.2 "Timeout Protocol").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayedRecord {
    pub record: NodeRecord,
    pub relayed_by: Option<NodeId>,
}

/// Bidirectional directory transfer used by the bootstrap protocol: a new
/// node pulls the leader's directory and simultaneously offers its own
/// (it may itself be a lower-level group leader with knowledge to merge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryExchange {
    pub from: NodeId,
    /// True when the receiver should respond with its own directory.
    pub reply_wanted: bool,
    /// The sender's current update sequence number; the receiver adopts
    /// it as the baseline so pre-bootstrap updates do not register as
    /// gaps.
    pub latest_seq: u64,
    pub records: Vec<RelayedRecord>,
}

/// Poll for a full resynchronization after an unrecoverable update-loss
/// gap (more than the piggyback window of packets lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRequest {
    pub from: NodeId,
    /// Highest update seq of the target that the requester has applied.
    pub since_seq: u64,
}

/// Full-state answer to a [`SyncRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncResponse {
    pub from: NodeId,
    /// The responder's current update sequence number.
    pub latest_seq: u64,
    pub records: Vec<RelayedRecord>,
}

/// Bully leader-election messages, scoped to one (channel, TTL) group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionMsg {
    /// "I want to elect; anyone with a lower id, object."
    Election { from: NodeId, level: u8 },
    /// Objection from a lower-id node: "I am alive, stand down."
    Alive { from: NodeId, level: u8 },
    /// "I am the leader of this group"; also designates the backup.
    Coordinator {
        from: NodeId,
        level: u8,
        backup: Option<NodeId>,
    },
}

/// One gossip digest entry: the full record (gossip messages carry the
/// sender's whole local view, which is what makes them Θ(n·s) bytes — the
/// paper's stated reason the scheme does not scale on a SAN) plus the
/// heartbeat counter used by the van Renesse failure detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipEntry {
    pub record: NodeRecord,
    pub heartbeat_counter: u64,
}

/// A gossip message: the sender's entire membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gossip {
    pub from: NodeId,
    pub entries: Vec<GossipEntry>,
}

/// Availability of one service in a data center, as carried in proxy
/// summaries. Deliberately omits per-machine detail: "the summary does not
/// include the detailed machine information. It only has the availability
/// of service information, which is much smaller" (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceAvail {
    pub name: String,
    pub partitions: PartitionSet,
    /// How many instances currently serve (service, any partition) — lets
    /// remote DCs prefer better-provisioned peers.
    pub instances: u16,
}

/// Periodic proxy-leader heartbeat across data centers. Large summaries
/// are split into multiple packets (`part`/`total_parts`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxySummary {
    pub dc: DcId,
    pub seq: u64,
    pub part: u16,
    pub total_parts: u16,
    pub services: Vec<ServiceAvail>,
}

/// Incremental change to a data center's service summary, pushed eagerly
/// by the proxy leader when local membership changes affect the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyUpdate {
    pub dc: DcId,
    pub seq: u64,
    pub events: Vec<SummaryEvent>,
}

/// One summary change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryEvent {
    /// Service availability added or changed.
    Avail(ServiceAvail),
    /// Service has no remaining instances in the DC.
    Gone { name: String },
}

/// A Neptune service invocation (consumer → provider, possibly relayed
/// through proxies across data centers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    pub id: u64,
    pub from: NodeId,
    pub service: String,
    pub partition: u16,
    /// Opaque application payload (e.g. the search query).
    pub payload: Vec<u8>,
    /// Hop budget so a request forwarded between data centers cannot loop.
    pub hops_left: u8,
}

/// Reply to a [`ServiceRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceResponse {
    pub id: u64,
    pub from: NodeId,
    /// True when a provider actually served the request.
    pub ok: bool,
    pub payload: Vec<u8>,
}

/// Member state carried by a SWIM piggyback update: the three-valued
/// lattice of the SWIM dissemination component. For one incarnation,
/// `Suspect` overrides `Alive`; `Confirm` (dead) overrides both; a higher
/// incarnation overrides everything at a lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimState {
    Alive,
    Suspect,
    Confirm,
}

/// One piggybacked SWIM membership update. `Alive` carries the subject's
/// full yellow-page record (it doubles as the join/refute path);
/// `Suspect`/`Confirm` carry a minimal record (identity + incarnation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwimUpdate {
    pub state: SwimState,
    pub record: NodeRecord,
}

/// SWIM direct probe. The probed member answers with a [`SwimAck`]
/// echoing `seq`. Updates ride along (SWIM disseminates membership
/// changes exclusively by piggybacking on probe traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwimPing {
    pub from: NodeId,
    pub seq: u64,
    pub updates: Vec<SwimUpdate>,
}

/// SWIM acknowledgement. `subject` is the member whose liveness this ack
/// proves: for a direct ack it equals `from`; for an ack forwarded by a
/// ping-req intermediary, `from` is the intermediary and `subject` the
/// probed target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwimAck {
    pub from: NodeId,
    pub subject: NodeId,
    pub seq: u64,
    pub updates: Vec<SwimUpdate>,
    /// State transfer, not gossip: the full member view handed to a
    /// joining pinger (plus dead-list echoes). Applied without a
    /// dissemination budget — re-gossiping every already-known member on
    /// each pairwise first contact would flood the piggyback queues with
    /// O(n·log n) stale retransmissions per node at boot.
    pub sync: Vec<SwimUpdate>,
}

/// SWIM indirect-probe request: "ping `target` on my behalf". The
/// intermediary probes `target` and forwards a successful ack back to
/// `from` with the original `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwimPingReq {
    pub from: NodeId,
    pub target: NodeId,
    pub seq: u64,
    pub updates: Vec<SwimUpdate>,
}

/// One entry of a membership digest: just identity + incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    pub node: NodeId,
    pub incarnation: u64,
}

/// Compact anti-entropy summary a group leader multicasts into the
/// groups it leads (robustness extension, see DESIGN.md): members compare
/// it against their directory, pull what they miss with a sync poll, and
/// drop entries this leader relayed but no longer vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestMsg {
    pub from: NodeId,
    /// Group level the digest covers.
    pub level: u8,
    pub entries: Vec<DigestEntry>,
}

/// Top-level wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    Heartbeat(Heartbeat),
    Update(UpdateMsg),
    DirectoryExchange(DirectoryExchange),
    SyncRequest(SyncRequest),
    SyncResponse(SyncResponse),
    Election(ElectionMsg),
    Digest(DigestMsg),
    Gossip(Gossip),
    ProxySummary(ProxySummary),
    ProxyUpdate(ProxyUpdate),
    ServiceRequest(ServiceRequest),
    ServiceResponse(ServiceResponse),
    SwimPing(SwimPing),
    SwimAck(SwimAck),
    SwimPingReq(SwimPingReq),
}

/// Every [`Message::kind`] label, in name order. A kind's position here
/// is its [`Message::kind_index`], so a table indexed by it walks the
/// kinds in the order a map keyed by their names would.
pub const KINDS: [&str; 15] = [
    "digest",
    "dir-exchange",
    "election",
    "gossip",
    "heartbeat",
    "proxy-summary",
    "proxy-update",
    "svc-req",
    "svc-resp",
    "swim-ack",
    "swim-ping",
    "swim-ping-req",
    "sync-req",
    "sync-resp",
    "update",
];

/// `a < b` as `str`'s `Ord` has it: byte-wise, a prefix first.
const fn precedes(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// `name`'s position in [`KINDS`]; evaluated at compile time, so a name
/// missing from the table fails the build.
const fn kind_position(name: &str) -> usize {
    let mut i = 0;
    while i < KINDS.len() {
        if !precedes(KINDS[i], name) && !precedes(name, KINDS[i]) {
            return i;
        }
        i += 1;
    }
    panic!("a message kind missing from KINDS")
}

const _: () = {
    let mut i = 1;
    while i < KINDS.len() {
        assert!(
            precedes(KINDS[i - 1], KINDS[i]),
            "KINDS is not in name order"
        );
        i += 1;
    }
};

impl Message {
    /// Short tag for traces.
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// [`Message::kind`] as its position in [`KINDS`]: what per-kind
    /// counters index by.
    pub fn kind_index(&self) -> usize {
        match self {
            Message::Heartbeat(_) => const { kind_position("heartbeat") },
            Message::Update(_) => const { kind_position("update") },
            Message::DirectoryExchange(_) => const { kind_position("dir-exchange") },
            Message::SyncRequest(_) => const { kind_position("sync-req") },
            Message::SyncResponse(_) => const { kind_position("sync-resp") },
            Message::Election(_) => const { kind_position("election") },
            Message::Digest(_) => const { kind_position("digest") },
            Message::Gossip(_) => const { kind_position("gossip") },
            Message::ProxySummary(_) => const { kind_position("proxy-summary") },
            Message::ProxyUpdate(_) => const { kind_position("proxy-update") },
            Message::ServiceRequest(_) => const { kind_position("svc-req") },
            Message::ServiceResponse(_) => const { kind_position("svc-resp") },
            Message::SwimPing(_) => const { kind_position("swim-ping") },
            Message::SwimAck(_) => const { kind_position("swim-ack") },
            Message::SwimPingReq(_) => const { kind_position("swim-ping-req") },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_set_parse_ranges() {
        let p = PartitionSet::parse("1-3,7").unwrap();
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 2, 3, 7]);
        assert!(p.contains(2));
        assert!(!p.contains(4));
    }

    #[test]
    fn partition_set_parse_single() {
        let p = PartitionSet::parse("5").unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.contains(5));
    }

    #[test]
    fn partition_set_parse_empty() {
        assert_eq!(PartitionSet::parse("").unwrap(), PartitionSet::empty());
        assert!(PartitionSet::parse("").unwrap().is_empty());
    }

    #[test]
    fn partition_set_parse_rejects_garbage() {
        assert!(PartitionSet::parse("a").is_none());
        assert!(PartitionSet::parse("3-1").is_none());
        assert!(PartitionSet::parse("1,,2").is_none());
    }

    #[test]
    fn partition_set_dedup_and_sort() {
        let p = PartitionSet::from_iter([5, 1, 5, 3]);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn partition_set_intersects() {
        let a = PartitionSet::from_iter([1, 3, 5]);
        let b = PartitionSet::from_iter([2, 4, 5]);
        let c = PartitionSet::from_iter([7]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!PartitionSet::empty().intersects(&a));
    }

    #[test]
    fn partition_set_display_roundtrips() {
        let p = PartitionSet::from_iter([1, 2, 3, 7]);
        let s = p.to_string();
        assert_eq!(PartitionSet::parse(&s).unwrap(), p);
    }

    #[test]
    fn member_event_subject() {
        let r = NodeRecord::new(NodeId(4), 1);
        assert_eq!(MemberEvent::Join(r).subject(), NodeId(4));
        assert_eq!(MemberEvent::Leave(NodeId(9), 2).subject(), NodeId(9));
    }

    #[test]
    fn record_builder_chains() {
        let r = NodeRecord::new(NodeId(1), 3)
            .with_service(ServiceDecl::new("http", PartitionSet::parse("0").unwrap()))
            .with_attr("cpu", "8");
        assert_eq!(r.services.len(), 1);
        assert_eq!(r.attrs.len(), 1);
        assert_eq!(r.incarnation, 3);
    }

    #[test]
    fn record_clone_shares_payload_until_mutation() {
        let a = NodeRecord::new(NodeId(1), 3)
            .with_service(ServiceDecl::new("http", PartitionSet::parse("0").unwrap()))
            .with_attr("cpu", "8");
        let mut b = a.clone();
        assert!(a.shares_payload_with(&b));
        assert_eq!(a, b);

        // Mutating incarnation alone must NOT split the payload.
        b.incarnation = 4;
        assert!(a.shares_payload_with(&b));
        assert_ne!(a, b);

        // First payload mutation splits; the original is untouched.
        b.attrs.push(("mem".into(), "4G".into()));
        assert!(!a.shares_payload_with(&b));
        assert_eq!(a.attrs.len(), 1);
        assert_eq!(b.attrs.len(), 2);

        // Equality still compares by value once split.
        let c = NodeRecord::from_parts(a.node, a.incarnation, a.services.clone(), a.attrs.clone());
        assert!(!a.shares_payload_with(&c));
        assert_eq!(a, c);
    }

    #[test]
    fn pad_to_encoded_size_hits_target() {
        let mut r = NodeRecord::new(NodeId(1), 1).with_service(ServiceDecl::new(
            "http",
            PartitionSet::parse("0-2").unwrap(),
        ));
        r.pad_to_encoded_size(228);
        let msg = Message::Heartbeat(Heartbeat {
            from: r.node,
            level: 0,
            seq: 0,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: r,
        });
        assert_eq!(crate::codec::encoded_len(&msg), 228);
    }
}
