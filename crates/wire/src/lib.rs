//! # tamp-wire — wire protocol for the TAMP membership service
//!
//! Every packet that crosses the (simulated or real) network in this
//! workspace is a [`Message`] encoded with the compact binary codec in
//! [`codec`]. Keeping the format in one crate means the discrete-event
//! simulator, the real-UDP runtime, the hierarchical protocol, both
//! baseline protocols, the cross-datacenter proxies, and the Neptune
//! service RPC all agree on byte-exact sizes — which matters because the
//! paper's headline evaluation (Fig. 11) is about bytes on the wire.
//!
//! The codec is hand-rolled rather than serde-based: the format is part of
//! the system being reproduced (the paper reports 228-byte heartbeats and
//! relies on updates piggybacking the last three events in a fixed layout),
//! and a self-contained codec keeps the crate free of dependencies.
//!
//! ```
//! use tamp_wire::{Message, Heartbeat, NodeId, NodeRecord, codec};
//!
//! let hb = Message::Heartbeat(Heartbeat {
//!     from: NodeId(7),
//!     level: 0,
//!     seq: 42,
//!     is_leader: true,
//!     backup: Some(NodeId(9)),
//!     latest_update_seq: 0,
//!     record: NodeRecord::new(NodeId(7), 1),
//! });
//! let bytes = codec::encode(&hb);
//! let back = codec::decode(&bytes).unwrap();
//! assert_eq!(hb, back);
//! ```

pub mod codec;
mod intern;
mod messages;
pub mod piggyback;
pub mod seqnum;
pub mod view;

pub use view::{
    CodecKind, DigestView, DirectoryExchangeView, HeartbeatView, MessageView, RecordSource,
    RecordView, RelayedRecordView, RelayedRecords, SyncResponseView,
};

pub use messages::{
    DcId, DigestEntry, DigestMsg, DirectoryExchange, ElectionMsg, Gossip, GossipEntry, Heartbeat,
    MemberEvent, Message, NodeId, NodeRecord, PartitionSet, ProxySummary, ProxyUpdate,
    RecordPayload, RelayedRecord, SeqEvent, ServiceAvail, ServiceDecl, ServiceRequest,
    ServiceResponse, SummaryEvent, SwimAck, SwimPing, SwimPingReq, SwimState, SwimUpdate,
    SyncRequest, SyncResponse, UpdateMsg,
};

// Property and fuzz/differential tests for the codec and the borrowed
// views live in `tests/fuzz_codec.rs` (all message kinds, adversarial
// byte mutations, owned-vs-borrowed rejection equivalence).
