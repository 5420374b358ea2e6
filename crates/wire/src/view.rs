//! Zero-copy borrowed views over encoded [`Message`] bytes.
//!
//! [`MessageView::parse`] validates an entire packet — every bounds
//! check, tag, and UTF-8 string the owned [`codec::decode`] would check
//! — without allocating a single byte. Receivers that only need a few
//! header fields (the heartbeat flood, anti-entropy digests), or that
//! mostly hold what a packet carries already (full-view syncs), read
//! straight out of the packet buffer through the typed views below;
//! receivers that need the full owned structure call
//! [`MessageView::to_owned`], which delegates to the owned codec so the
//! materialized value is identical to `decode` by construction.
//!
//! The validating scan is an *independent implementation* of the wire
//! grammar: `parse` and `decode` must accept and reject exactly the
//! same inputs with exactly the same [`DecodeError`]. That equivalence
//! is the contract the fuzz/differential suite in
//! `crates/wire/tests/fuzz_codec.rs` locks — any drift between the two
//! walks is a bug there, not a tolerated difference.
//!
//! Every receive path that holds encoded frames (the simulator's
//! wire-codec mode, the real-UDP runtime) parses a view; `decode` stays
//! as the reference the fuzz suite holds `parse` to and as what
//! [`MessageView::to_owned`] runs.

use crate::codec::{self, DecodeError};
use crate::messages::{DigestEntry, Message, NodeId, NodeRecord, RecordPayload};

/// The one wire receive path there is: zero-copy validating views
/// ([`MessageView`]). Nothing dispatches on it. It exists only because
/// `benchmark/` names it — as `Some(CodecKind::Borrowed)` for the
/// simulator's wire-codec mode and as the last argument of
/// `on_wire_packet` — and the next change to `benchmark/` removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecKind {
    /// Zero-copy validating views ([`MessageView`]).
    #[default]
    Borrowed,
}

/// A fully-validated borrowed view of one encoded message.
///
/// Construction proves the bytes are a well-formed packet; every
/// accessor afterwards is infallible and allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    data: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Validate `data` as one complete message. Accepts exactly the
    /// inputs [`codec::decode`] accepts and returns exactly the error it
    /// would return otherwise (including [`DecodeError::TrailingBytes`]
    /// for valid messages followed by garbage).
    pub fn parse(data: &'a [u8]) -> Result<Self, DecodeError> {
        let mut s = Scan { data, pos: 0 };
        check_message(&mut s)?;
        if s.pos != data.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(MessageView { data })
    }

    /// The validated packet bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// The one-byte message tag.
    pub fn tag(&self) -> u8 {
        self.data[0]
    }

    /// Same short trace label as [`Message::kind`].
    pub fn kind(&self) -> &'static str {
        match self.tag() {
            0x01 => "heartbeat",
            0x02 => "update",
            0x03 => "dir-exchange",
            0x04 => "sync-req",
            0x05 => "sync-resp",
            0x06 => "election",
            0x07 => "gossip",
            0x08 => "proxy-summary",
            0x09 => "proxy-update",
            0x0a => "svc-req",
            0x0b => "svc-resp",
            0x0c => "digest",
            0x0d => "swim-ping",
            0x0e => "swim-ack",
            0x0f => "swim-ping-req",
            _ => unreachable!("tag validated by parse"),
        }
    }

    /// Materialize the owned [`Message`]. Delegates to the reference
    /// decoder, so the result is identical to `codec::decode(bytes)` by
    /// construction (parse already proved it cannot fail).
    pub fn to_owned(&self) -> Message {
        codec::decode(self.data).expect("bytes validated by MessageView::parse")
    }

    /// Borrowed heartbeat fields, if this is a heartbeat.
    pub fn as_heartbeat(&self) -> Option<HeartbeatView<'a>> {
        if self.tag() != 0x01 {
            return None;
        }
        let mut s = Scan {
            data: self.data,
            pos: 1,
        };
        // Infallible re-reads: parse already validated the layout.
        let from = NodeId(s.u32().unwrap());
        let level = s.u8().unwrap();
        let seq = s.u64().unwrap();
        let is_leader = s.u8().unwrap() != 0;
        let backup = s.opt_node();
        let latest_update_seq = s.u64().unwrap();
        let record = RecordView::scan(&mut s);
        Some(HeartbeatView {
            from,
            level,
            seq,
            is_leader,
            backup,
            latest_update_seq,
            record,
        })
    }

    /// Borrowed digest fields, if this is an anti-entropy digest.
    pub fn as_digest(&self) -> Option<DigestView<'a>> {
        if self.tag() != 0x0c {
            return None;
        }
        let mut s = Scan {
            data: self.data,
            pos: 1,
        };
        let from = NodeId(s.u32().unwrap());
        let level = s.u8().unwrap();
        let count = s.u32().unwrap();
        let entries = s.take(count as usize * 12).unwrap();
        Some(DigestView {
            from,
            level,
            count,
            entries,
        })
    }

    /// Borrowed full-view sync answer, if this is a sync response.
    pub fn as_sync_response(&self) -> Option<SyncResponseView<'a>> {
        if self.tag() != 0x05 {
            return None;
        }
        let mut s = Scan {
            data: self.data,
            pos: 1,
        };
        Some(SyncResponseView {
            from: NodeId(s.u32().unwrap()),
            latest_seq: s.u64().unwrap(),
            records: RelayedRecords::scan(s),
        })
    }

    /// Borrowed bootstrap directory transfer, if this is an exchange.
    pub fn as_directory_exchange(&self) -> Option<DirectoryExchangeView<'a>> {
        if self.tag() != 0x03 {
            return None;
        }
        let mut s = Scan {
            data: self.data,
            pos: 1,
        };
        Some(DirectoryExchangeView {
            from: NodeId(s.u32().unwrap()),
            reply_wanted: s.u8().unwrap() != 0,
            latest_seq: s.u64().unwrap(),
            records: RelayedRecords::scan(s),
        })
    }
}

/// Borrowed view of a heartbeat: scalar header fields plus a borrowed
/// record. The hot receive path reads these without materializing the
/// record's strings and vectors.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatView<'a> {
    pub from: NodeId,
    pub level: u8,
    pub seq: u64,
    pub is_leader: bool,
    pub backup: Option<NodeId>,
    pub latest_update_seq: u64,
    pub record: RecordView<'a>,
}

/// Borrowed view of an encoded [`NodeRecord`]: identity fields parsed,
/// the payload (services + attrs) left as validated bytes.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    pub node: NodeId,
    pub incarnation: u64,
    /// The encoded payload section: services count .. end of attrs.
    body: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Advance `s` over one record (validated bytes) and capture it.
    fn scan(s: &mut Scan<'a>) -> RecordView<'a> {
        let node = NodeId(s.u32().unwrap());
        let incarnation = s.u64().unwrap();
        let start = s.pos;
        skip_payload(s);
        RecordView {
            node,
            incarnation,
            body: &s.data[start..s.pos],
        }
    }

    /// Materialize the owned record — identical to what `decode` would
    /// have produced for the enclosing message (the same function turns
    /// the section into a payload for both).
    pub fn to_record(&self) -> NodeRecord {
        NodeRecord::from_shared(self.node, self.incarnation, codec::payload_of(self.body))
    }

    /// True only if materializing this view would yield a record equal
    /// to `rec` (`to_record() == *rec`). Sound, not complete: hostile
    /// encodings that normalize to `rec` (e.g. unsorted partition lists)
    /// may return `false` and fall back to the materializing path. Our
    /// own encoder always writes the normalized form, so for
    /// self-generated traffic this is exact — and it lets the heartbeat
    /// flood skip record materialization entirely when nothing changed.
    pub fn matches(&self, rec: &NodeRecord) -> bool {
        self.node == rec.node && self.incarnation == rec.incarnation && self.same_payload(rec)
    }

    /// The content half of [`RecordView::matches`]: services and
    /// attributes against `rec`, identity left to the caller. One slice
    /// compare: `rec`'s encoded section is canonical, so the wire section
    /// equals it exactly when it is the normalized encoding of the same
    /// fields.
    pub fn same_payload(&self, rec: &RecordPayload) -> bool {
        *self.body == **rec.wire()
    }
}

/// A node record on offer to a directory, owned or still in wire form:
/// identity up front, content compared or materialized only on demand.
/// What [`RecordView`] and `&NodeRecord` have in common, so one receive
/// path serves both codecs.
pub trait RecordSource {
    fn node(&self) -> NodeId;
    fn incarnation(&self) -> u64;
    /// The owned record (an `Arc` bump when owned, a decode when not).
    fn to_record(&self) -> NodeRecord;
    /// True only if `to_record()` would carry services and attributes
    /// equal to `held`. Identity is the caller's to compare: a
    /// directory holds `(node, incarnation)` apart from the payload.
    fn same_payload(&self, held: &RecordPayload) -> bool;
}

impl RecordSource for &NodeRecord {
    fn node(&self) -> NodeId {
        self.node
    }
    fn incarnation(&self) -> u64 {
        self.incarnation
    }
    fn to_record(&self) -> NodeRecord {
        (*self).clone()
    }
    fn same_payload(&self, held: &RecordPayload) -> bool {
        let mine: &RecordPayload = self;
        mine == held
    }
}

impl RecordSource for RecordView<'_> {
    fn node(&self) -> NodeId {
        self.node
    }
    fn incarnation(&self) -> u64 {
        self.incarnation
    }
    fn to_record(&self) -> NodeRecord {
        RecordView::to_record(self)
    }
    fn same_payload(&self, held: &RecordPayload) -> bool {
        RecordView::same_payload(self, held)
    }
}

/// Borrowed view of a [`crate::SyncResponse`]: the records stay wire
/// bytes until a receiver asks for one.
#[derive(Debug, Clone)]
pub struct SyncResponseView<'a> {
    pub from: NodeId,
    pub latest_seq: u64,
    pub records: RelayedRecords<'a>,
}

/// Borrowed view of a [`crate::DirectoryExchange`].
#[derive(Debug, Clone)]
pub struct DirectoryExchangeView<'a> {
    pub from: NodeId,
    pub reply_wanted: bool,
    pub latest_seq: u64,
    pub records: RelayedRecords<'a>,
}

/// Borrowed view of one [`crate::RelayedRecord`].
#[derive(Debug, Clone, Copy)]
pub struct RelayedRecordView<'a> {
    pub record: RecordView<'a>,
    pub relayed_by: Option<NodeId>,
}

/// The record list of a sync response or directory exchange, iterated
/// straight out of the packet bytes.
#[derive(Debug, Clone)]
pub struct RelayedRecords<'a> {
    rest: Scan<'a>,
    left: usize,
}

impl<'a> RelayedRecords<'a> {
    /// `s` stands at the list's count (validated bytes).
    fn scan(mut s: Scan<'a>) -> Self {
        let left = s.u32().unwrap() as usize;
        RelayedRecords { rest: s, left }
    }
}

impl<'a> Iterator for RelayedRecords<'a> {
    type Item = RelayedRecordView<'a>;
    fn next(&mut self) -> Option<RelayedRecordView<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(RelayedRecordView {
            record: RecordView::scan(&mut self.rest),
            relayed_by: self.rest.opt_node(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RelayedRecords<'_> {}

/// Borrowed view of an anti-entropy digest; entries iterate straight
/// out of the packet bytes as [`DigestEntry`] values (which are `Copy`
/// — no allocation happens).
#[derive(Debug, Clone, Copy)]
pub struct DigestView<'a> {
    pub from: NodeId,
    pub level: u8,
    count: u32,
    entries: &'a [u8],
}

impl<'a> DigestView<'a> {
    pub fn entries(&self) -> DigestIter<'a> {
        DigestIter {
            bytes: self.entries,
            left: self.count as usize,
        }
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Iterator over the entries of a [`DigestView`].
#[derive(Debug, Clone)]
pub struct DigestIter<'a> {
    bytes: &'a [u8],
    left: usize,
}

impl Iterator for DigestIter<'_> {
    type Item = DigestEntry;
    fn next(&mut self) -> Option<DigestEntry> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (e, rest) = self.bytes.split_at(12);
        self.bytes = rest;
        Some(DigestEntry {
            node: NodeId(u32::from_le_bytes(e[0..4].try_into().unwrap())),
            incarnation: u64::from_le_bytes(e[4..12].try_into().unwrap()),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DigestIter<'_> {}

// ------------------------------------------------------------ validation

/// Forward-only cursor for the validating walk. Mirrors the owned
/// codec's `Reader` error behavior exactly: fixed-width reads fail with
/// `Truncated`, length-prefixed spans with `BadLength`.
#[derive(Debug, Clone)]
struct Scan<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        if self.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let v = self.data[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        if self.remaining() < 2 {
            return Err(DecodeError::Truncated);
        }
        let v = u16::from_le_bytes(self.data[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        if self.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let v = u32::from_le_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        if self.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        let v = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::BadLength);
        }
        let v = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(v)
    }

    /// An optional node id in already-validated bytes.
    fn opt_node(&mut self) -> Option<NodeId> {
        match self.u8().unwrap() {
            0 => None,
            _ => Some(NodeId(self.u32().unwrap())),
        }
    }

    /// `u32` element count validated against a per-element minimum, same
    /// as the owned reader's hostile-count guard.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    }
}

fn check_string(s: &mut Scan) -> Result<(), DecodeError> {
    let len = s.u32()? as usize;
    let bytes = s.take(len)?;
    std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
    Ok(())
}

fn check_bytes_field(s: &mut Scan) -> Result<(), DecodeError> {
    let len = s.u32()? as usize;
    s.take(len)?;
    Ok(())
}

fn check_opt_node(s: &mut Scan) -> Result<(), DecodeError> {
    match s.u8()? {
        0 => Ok(()),
        1 => s.u32().map(|_| ()),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn check_kv(s: &mut Scan) -> Result<(), DecodeError> {
    let n = s.count(8)?;
    for _ in 0..n {
        check_string(s)?;
        check_string(s)?;
    }
    Ok(())
}

fn check_partitions(s: &mut Scan) -> Result<(), DecodeError> {
    let n = s.count(2)?;
    // Fixed-width elements: the count guard proved 2·n bytes remain.
    s.take(n * 2).map(|_| ())
}

fn check_service_decl(s: &mut Scan) -> Result<(), DecodeError> {
    check_string(s)?;
    check_partitions(s)?;
    check_kv(s)
}

fn check_record(s: &mut Scan) -> Result<(), DecodeError> {
    s.u32()?; // node
    s.u64()?; // incarnation
    let n = s.count(12)?;
    for _ in 0..n {
        check_service_decl(s)?;
    }
    check_kv(s)
}

/// Advance over an already-validated payload section (services + attrs)
/// without re-checking anything. Used by the accessor re-walks.
fn skip_payload(s: &mut Scan) {
    let nsvc = s.u32().unwrap();
    for _ in 0..nsvc {
        // name
        let len = s.u32().unwrap() as usize;
        s.take(len).unwrap();
        // partitions
        let nparts = s.u32().unwrap() as usize;
        s.take(nparts * 2).unwrap();
        skip_kv(s);
    }
    skip_kv(s);
}

fn skip_kv(s: &mut Scan) {
    let n = s.u32().unwrap();
    for _ in 0..2 * n {
        let len = s.u32().unwrap() as usize;
        s.take(len).unwrap();
    }
}

fn check_event(s: &mut Scan) -> Result<(), DecodeError> {
    match s.u8()? {
        0 => check_record(s),
        1 | 2 => {
            s.u32()?;
            s.u64()?;
            Ok(())
        }
        3 => check_record(s),
        4 => {
            s.u32()?;
            s.u64()?;
            s.u32()?;
            Ok(())
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

fn check_swim_updates(s: &mut Scan) -> Result<(), DecodeError> {
    let n = s.count(21)?;
    for _ in 0..n {
        match s.u8()? {
            0..=2 => {}
            t => return Err(DecodeError::BadTag(t)),
        }
        check_record(s)?;
    }
    Ok(())
}

fn check_relayed(s: &mut Scan) -> Result<(), DecodeError> {
    check_record(s)?;
    check_opt_node(s)
}

fn check_avail(s: &mut Scan) -> Result<(), DecodeError> {
    check_string(s)?;
    check_partitions(s)?;
    s.u16().map(|_| ())
}

fn check_message(s: &mut Scan) -> Result<(), DecodeError> {
    match s.u8()? {
        0x01 => {
            s.u32()?; // from
            s.u8()?; // level
            s.u64()?; // seq
            s.u8()?; // is_leader
            check_opt_node(s)?;
            s.u64()?; // latest_update_seq
            check_record(s)
        }
        0x02 => {
            s.u32()?; // origin
            let n = s.count(9)?;
            for _ in 0..n {
                s.u64()?; // seq
                check_event(s)?;
            }
            Ok(())
        }
        0x03 => {
            s.u32()?; // from
            s.u8()?; // reply_wanted
            s.u64()?; // latest_seq
            let n = s.count(17)?;
            for _ in 0..n {
                check_relayed(s)?;
            }
            Ok(())
        }
        0x04 => {
            s.u32()?;
            s.u64()?;
            Ok(())
        }
        0x05 => {
            s.u32()?; // from
            s.u64()?; // latest_seq
            let n = s.count(17)?;
            for _ in 0..n {
                check_relayed(s)?;
            }
            Ok(())
        }
        0x06 => {
            let kind = s.u8()?;
            s.u32()?; // from
            s.u8()?; // level
            match kind {
                0 | 1 => Ok(()),
                2 => check_opt_node(s),
                t => Err(DecodeError::BadTag(t)),
            }
        }
        0x07 => {
            s.u32()?; // from
            let n = s.count(24)?;
            for _ in 0..n {
                check_record(s)?;
                s.u64()?; // heartbeat_counter
            }
            Ok(())
        }
        0x08 => {
            s.u16()?; // dc
            s.u64()?; // seq
            s.u16()?; // part
            s.u16()?; // total_parts
            let n = s.count(10)?;
            for _ in 0..n {
                check_avail(s)?;
            }
            Ok(())
        }
        0x09 => {
            s.u16()?; // dc
            s.u64()?; // seq
            let n = s.count(5)?;
            for _ in 0..n {
                match s.u8()? {
                    0 => check_avail(s)?,
                    1 => check_string(s)?,
                    t => return Err(DecodeError::BadTag(t)),
                }
            }
            Ok(())
        }
        0x0a => {
            s.u64()?; // id
            s.u32()?; // from
            check_string(s)?; // service
            s.u16()?; // partition
            check_bytes_field(s)?; // payload
            s.u8().map(|_| ()) // hops_left
        }
        0x0b => {
            s.u64()?; // id
            s.u32()?; // from
            s.u8()?; // ok
            check_bytes_field(s)
        }
        0x0c => {
            s.u32()?; // from
            s.u8()?; // level
            let n = s.count(12)?;
            s.take(n * 12).map(|_| ())
        }
        0x0d => {
            s.u32()?; // from
            s.u64()?; // seq
            check_swim_updates(s)
        }
        0x0e => {
            s.u32()?; // from
            s.u32()?; // subject
            s.u64()?; // seq
            check_swim_updates(s)?;
            check_swim_updates(s)
        }
        0x0f => {
            s.u32()?; // from
            s.u32()?; // target
            s.u64()?; // seq
            check_swim_updates(s)
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::*;

    fn sample_heartbeat() -> Message {
        let record = NodeRecord::new(NodeId(12), 4)
            .with_service(ServiceDecl::new(
                "index",
                PartitionSet::from_iter([0, 1, 2]),
            ))
            .with_attr("cpu", "2x1.4GHz");
        Message::Heartbeat(Heartbeat {
            from: NodeId(12),
            level: 1,
            seq: 99,
            is_leader: true,
            backup: Some(NodeId(13)),
            latest_update_seq: 17,
            record,
        })
    }

    #[test]
    fn heartbeat_view_exposes_header_and_record() {
        let msg = sample_heartbeat();
        let bytes = codec::encode(&msg);
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.kind(), "heartbeat");
        let hb = view.as_heartbeat().unwrap();
        assert_eq!(hb.from, NodeId(12));
        assert_eq!(hb.level, 1);
        assert_eq!(hb.seq, 99);
        assert!(hb.is_leader);
        assert_eq!(hb.backup, Some(NodeId(13)));
        assert_eq!(hb.latest_update_seq, 17);
        assert_eq!(hb.record.node, NodeId(12));
        assert_eq!(hb.record.incarnation, 4);
        let Message::Heartbeat(owned) = view.to_owned() else {
            panic!("kind changed");
        };
        assert_eq!(hb.record.to_record(), owned.record);
        assert!(hb.record.matches(&owned.record));
    }

    #[test]
    fn record_matches_is_exact_on_normalized_encodings() {
        let msg = sample_heartbeat();
        let bytes = codec::encode(&msg);
        let hb = MessageView::parse(&bytes).unwrap().as_heartbeat().unwrap();
        let Message::Heartbeat(owned) = codec::decode(&bytes).unwrap() else {
            unreachable!()
        };
        assert!(hb.record.matches(&owned.record));
        // Any difference — identity, structure, or content — is seen.
        let mut other = owned.record.clone();
        other.incarnation += 1;
        assert!(!hb.record.matches(&other));
        let mut other = owned.record.clone();
        other.attrs[0].1 = "different".into();
        assert!(!hb.record.matches(&other));
        let mut other = owned.record.clone();
        other.services[0].partitions = PartitionSet::from_iter([0, 1]);
        assert!(!hb.record.matches(&other));
        let mut other = owned.record.clone();
        other.services.clear();
        assert!(!hb.record.matches(&other));
    }

    #[test]
    fn digest_view_iterates_entries() {
        let msg = Message::Digest(DigestMsg {
            from: NodeId(3),
            level: 2,
            entries: vec![
                DigestEntry {
                    node: NodeId(1),
                    incarnation: 10,
                },
                DigestEntry {
                    node: NodeId(2),
                    incarnation: 20,
                },
            ],
        });
        let bytes = codec::encode(&msg);
        let view = MessageView::parse(&bytes).unwrap();
        let d = view.as_digest().unwrap();
        assert_eq!(d.from, NodeId(3));
        assert_eq!(d.level, 2);
        assert_eq!(d.len(), 2);
        let got: Vec<DigestEntry> = d.entries().collect();
        let Message::Digest(owned) = view.to_owned() else {
            panic!("kind changed");
        };
        assert_eq!(got, owned.entries);
    }

    #[test]
    fn parse_rejects_trailing_bytes_like_decode() {
        let mut bytes = codec::encode(&sample_heartbeat());
        bytes.push(0);
        assert_eq!(
            MessageView::parse(&bytes).unwrap_err(),
            DecodeError::TrailingBytes
        );
        assert_eq!(
            codec::decode(&bytes).unwrap_err(),
            DecodeError::TrailingBytes
        );
    }

    #[test]
    fn parse_rejects_every_truncation_like_decode() {
        let bytes = codec::encode(&sample_heartbeat());
        for len in 0..bytes.len() {
            let owned = codec::decode(&bytes[..len]).unwrap_err();
            let view = MessageView::parse(&bytes[..len]).unwrap_err();
            assert_eq!(owned, view, "prefix {len}: errors diverge");
        }
    }
}
