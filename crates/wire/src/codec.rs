//! Compact binary encoding of [`Message`].
//!
//! Layout conventions:
//! * integers are little-endian, fixed width;
//! * `Option<T>` is a presence byte followed by `T`;
//! * strings are a `u32` byte length followed by UTF-8 bytes;
//! * sequences are a `u32` element count followed by the elements;
//! * every message starts with a one-byte tag.
//!
//! Decoding is total: any byte slice either decodes to a message or
//! returns a [`DecodeError`] — it never panics and never allocates more
//! than the input could justify (sequence counts are validated against the
//! remaining input before reserving). This is fuzzed in the crate's
//! property tests.

use crate::messages::*;
use std::sync::Arc;

/// Why a packet failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Unknown message or enum tag.
    BadTag(u8),
    /// A length prefix exceeds the remaining input.
    BadLength,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated packet"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            DecodeError::BadLength => write!(f, "length prefix exceeds packet"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sink abstraction so the same encoding routine serves both real
/// encoding (into a byte vector) and size accounting (into a counter).
trait Sink {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_slice(&mut self, v: &[u8]);
}

impl Sink for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v)
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes())
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes())
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes())
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v)
    }
}

/// Counts bytes without writing them.
#[derive(Default)]
struct Counter(usize);

impl Sink for Counter {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn put_u16(&mut self, _: u16) {
        self.0 += 2;
    }
    fn put_u32(&mut self, _: u32) {
        self.0 += 4;
    }
    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.0 += v.len();
    }
}

/// Encode a message to bytes.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(msg));
    write_message(&mut buf, msg);
    buf
}

/// [`encode`] into a buffer the caller reuses: `buf` is cleared, then
/// holds exactly the frame.
pub fn encode_into(msg: &Message, buf: &mut Vec<u8>) {
    buf.clear();
    write_message(buf, msg);
}

/// Exact number of bytes [`encode`] will produce, without allocating.
/// A record costs its fixed fields plus the length of its payload's
/// encoded section, which the payload keeps — O(1) per record.
pub fn encoded_len(msg: &Message) -> usize {
    let mut c = Counter::default();
    write_message(&mut c, msg);
    c.0
}

/// Decode a message from bytes; the whole slice must be consumed.
pub fn decode(data: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader { data, pos: 0 };
    let msg = read_message(&mut r)?;
    if r.pos != r.data.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(msg)
}

// ---------------------------------------------------------------- encode

fn write_string<S: Sink>(s: &mut S, v: &str) {
    s.put_u32(v.len() as u32);
    s.put_slice(v.as_bytes());
}

fn write_bytes_field<S: Sink>(s: &mut S, v: &[u8]) {
    s.put_u32(v.len() as u32);
    s.put_slice(v);
}

fn write_opt_node<S: Sink>(s: &mut S, v: Option<NodeId>) {
    match v {
        Some(n) => {
            s.put_u8(1);
            s.put_u32(n.0);
        }
        None => s.put_u8(0),
    }
}

fn write_kv<S: Sink>(s: &mut S, kv: &[(String, String)]) {
    s.put_u32(kv.len() as u32);
    for (k, v) in kv {
        write_string(s, k);
        write_string(s, v);
    }
}

fn write_partitions<S: Sink>(s: &mut S, p: &PartitionSet) {
    let parts = p.as_slice();
    s.put_u32(parts.len() as u32);
    for &x in parts {
        s.put_u16(x);
    }
}

fn write_service_decl<S: Sink>(s: &mut S, d: &ServiceDecl) {
    write_string(s, &d.name);
    write_partitions(s, &d.partitions);
    write_kv(s, &d.attrs);
}

fn write_payload<S: Sink>(s: &mut S, p: &RecordPayload) {
    s.put_u32(p.services.len() as u32);
    for d in &p.services {
        write_service_decl(s, d);
    }
    write_kv(s, &p.attrs);
}

/// The payload section of a record (services + attrs). The only caller
/// is [`RecordPayload`], which keeps the result: every frame and every
/// length is then built from that copy, never from a second field walk.
pub(crate) fn encode_payload(p: &RecordPayload) -> Vec<u8> {
    let mut len = Counter::default();
    write_payload(&mut len, p);
    let mut buf = Vec::with_capacity(len.0);
    write_payload(&mut buf, p);
    buf
}

fn write_record<S: Sink>(s: &mut S, r: &NodeRecord) {
    s.put_u32(r.node.0);
    s.put_u64(r.incarnation);
    s.put_slice(r.wire());
}

fn write_event<S: Sink>(s: &mut S, e: &MemberEvent) {
    match e {
        MemberEvent::Join(r) => {
            s.put_u8(0);
            write_record(s, r);
        }
        MemberEvent::Leave(n, inc) => {
            s.put_u8(1);
            s.put_u32(n.0);
            s.put_u64(*inc);
        }
        MemberEvent::Suspect(n, inc) => {
            s.put_u8(2);
            s.put_u32(n.0);
            s.put_u64(*inc);
        }
        MemberEvent::Refute(r) => {
            s.put_u8(3);
            write_record(s, r);
        }
        MemberEvent::Alert {
            subject,
            incarnation,
            reporter,
        } => {
            s.put_u8(4);
            s.put_u32(subject.0);
            s.put_u64(*incarnation);
            s.put_u32(reporter.0);
        }
    }
}

fn write_swim_updates<S: Sink>(s: &mut S, updates: &[SwimUpdate]) {
    s.put_u32(updates.len() as u32);
    for u in updates {
        s.put_u8(match u.state {
            SwimState::Alive => 0,
            SwimState::Suspect => 1,
            SwimState::Confirm => 2,
        });
        write_record(s, &u.record);
    }
}

fn write_relayed<S: Sink>(s: &mut S, r: &RelayedRecord) {
    write_record(s, &r.record);
    write_opt_node(s, r.relayed_by);
}

fn write_avail<S: Sink>(s: &mut S, a: &ServiceAvail) {
    write_string(s, &a.name);
    write_partitions(s, &a.partitions);
    s.put_u16(a.instances);
}

fn write_message<S: Sink>(s: &mut S, msg: &Message) {
    match msg {
        Message::Heartbeat(h) => {
            s.put_u8(0x01);
            s.put_u32(h.from.0);
            s.put_u8(h.level);
            s.put_u64(h.seq);
            s.put_u8(u8::from(h.is_leader));
            write_opt_node(s, h.backup);
            s.put_u64(h.latest_update_seq);
            write_record(s, &h.record);
        }
        Message::Update(u) => {
            s.put_u8(0x02);
            s.put_u32(u.origin.0);
            s.put_u32(u.events.len() as u32);
            for ev in &u.events {
                s.put_u64(ev.seq);
                write_event(s, &ev.event);
            }
        }
        Message::DirectoryExchange(d) => {
            s.put_u8(0x03);
            s.put_u32(d.from.0);
            s.put_u8(u8::from(d.reply_wanted));
            s.put_u64(d.latest_seq);
            s.put_u32(d.records.len() as u32);
            for r in &d.records {
                write_relayed(s, r);
            }
        }
        Message::SyncRequest(q) => {
            s.put_u8(0x04);
            s.put_u32(q.from.0);
            s.put_u64(q.since_seq);
        }
        Message::SyncResponse(r) => {
            s.put_u8(0x05);
            s.put_u32(r.from.0);
            s.put_u64(r.latest_seq);
            s.put_u32(r.records.len() as u32);
            for rec in &r.records {
                write_relayed(s, rec);
            }
        }
        Message::Election(e) => {
            s.put_u8(0x06);
            match e {
                ElectionMsg::Election { from, level } => {
                    s.put_u8(0);
                    s.put_u32(from.0);
                    s.put_u8(*level);
                }
                ElectionMsg::Alive { from, level } => {
                    s.put_u8(1);
                    s.put_u32(from.0);
                    s.put_u8(*level);
                }
                ElectionMsg::Coordinator {
                    from,
                    level,
                    backup,
                } => {
                    s.put_u8(2);
                    s.put_u32(from.0);
                    s.put_u8(*level);
                    write_opt_node(s, *backup);
                }
            }
        }
        Message::Digest(d) => {
            s.put_u8(0x0c);
            s.put_u32(d.from.0);
            s.put_u8(d.level);
            s.put_u32(d.entries.len() as u32);
            for e in &d.entries {
                s.put_u32(e.node.0);
                s.put_u64(e.incarnation);
            }
        }
        Message::Gossip(g) => {
            s.put_u8(0x07);
            s.put_u32(g.from.0);
            s.put_u32(g.entries.len() as u32);
            for e in &g.entries {
                write_record(s, &e.record);
                s.put_u64(e.heartbeat_counter);
            }
        }
        Message::ProxySummary(p) => {
            s.put_u8(0x08);
            s.put_u16(p.dc.0);
            s.put_u64(p.seq);
            s.put_u16(p.part);
            s.put_u16(p.total_parts);
            s.put_u32(p.services.len() as u32);
            for a in &p.services {
                write_avail(s, a);
            }
        }
        Message::ProxyUpdate(p) => {
            s.put_u8(0x09);
            s.put_u16(p.dc.0);
            s.put_u64(p.seq);
            s.put_u32(p.events.len() as u32);
            for e in &p.events {
                match e {
                    SummaryEvent::Avail(a) => {
                        s.put_u8(0);
                        write_avail(s, a);
                    }
                    SummaryEvent::Gone { name } => {
                        s.put_u8(1);
                        write_string(s, name);
                    }
                }
            }
        }
        Message::ServiceRequest(r) => {
            s.put_u8(0x0a);
            s.put_u64(r.id);
            s.put_u32(r.from.0);
            write_string(s, &r.service);
            s.put_u16(r.partition);
            write_bytes_field(s, &r.payload);
            s.put_u8(r.hops_left);
        }
        Message::ServiceResponse(r) => {
            s.put_u8(0x0b);
            s.put_u64(r.id);
            s.put_u32(r.from.0);
            s.put_u8(u8::from(r.ok));
            write_bytes_field(s, &r.payload);
        }
        Message::SwimPing(p) => {
            s.put_u8(0x0d);
            s.put_u32(p.from.0);
            s.put_u64(p.seq);
            write_swim_updates(s, &p.updates);
        }
        Message::SwimAck(a) => {
            s.put_u8(0x0e);
            s.put_u32(a.from.0);
            s.put_u32(a.subject.0);
            s.put_u64(a.seq);
            write_swim_updates(s, &a.updates);
            write_swim_updates(s, &a.sync);
        }
        Message::SwimPingReq(q) => {
            s.put_u8(0x0f);
            s.put_u32(q.from.0);
            s.put_u32(q.target.0);
            s.put_u64(q.seq);
            write_swim_updates(s, &q.updates);
        }
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
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

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::BadLength);
        }
        let v = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(v)
    }

    /// Read a `u32` element count and check it against a per-element
    /// minimum size so hostile counts cannot trigger huge reservations.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    }
}

fn read_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, DecodeError> {
    let len = r.u32()? as usize;
    std::str::from_utf8(r.bytes(len)?).map_err(|_| DecodeError::BadUtf8)
}

fn read_string(r: &mut Reader) -> Result<String, DecodeError> {
    read_str(r).map(str::to_owned)
}

fn read_bytes_field(r: &mut Reader) -> Result<Vec<u8>, DecodeError> {
    let len = r.u32()? as usize;
    Ok(r.bytes(len)?.to_vec())
}

fn read_node(r: &mut Reader) -> Result<NodeId, DecodeError> {
    Ok(NodeId(r.u32()?))
}

fn read_opt_node(r: &mut Reader) -> Result<Option<NodeId>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_node(r)?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn read_kv(r: &mut Reader) -> Result<Vec<(String, String)>, DecodeError> {
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = read_string(r)?;
        let v = read_string(r)?;
        out.push((k, v));
    }
    Ok(out)
}

fn read_partitions(r: &mut Reader) -> Result<PartitionSet, DecodeError> {
    let n = r.count(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u16()?);
    }
    Ok(PartitionSet::from_iter(out))
}

fn read_service_decl(r: &mut Reader) -> Result<ServiceDecl, DecodeError> {
    Ok(ServiceDecl {
        name: read_string(r)?,
        partitions: read_partitions(r)?,
        attrs: read_kv(r)?,
    })
}

/// Check a `u32`-counted list of key/value strings without building it.
fn skim_kv(r: &mut Reader) -> Result<(), DecodeError> {
    for _ in 0..r.count(8)? {
        read_str(r)?;
        read_str(r)?;
    }
    Ok(())
}

/// Check one payload section (services + attrs) and return its bytes.
/// Reads what the materialising routines above read, in their order and
/// through their primitives, so it fails exactly where they would —
/// without allocating, which is what lets a section the decoder has
/// seen before cost a scan and a lookup.
fn skim_payload<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let start = r.pos;
    for _ in 0..r.count(12)? {
        read_str(r)?;
        let parts = r.count(2)?;
        r.bytes(parts * 2)?;
        skim_kv(r)?;
    }
    skim_kv(r)?;
    Ok(&r.data[start..r.pos])
}

fn read_record(r: &mut Reader) -> Result<NodeRecord, DecodeError> {
    let node = read_node(r)?;
    let incarnation = r.u64()?;
    let payload = payload_of(skim_payload(r)?);
    Ok(NodeRecord::from_shared(node, incarnation, payload))
}

/// The payload a checked section decodes to — the one place wire bytes
/// become a [`RecordPayload`], behind both the owned decoder and the
/// borrowed views, so the two materialise identical values by
/// construction. `section` must have passed [`skim_payload`] or the
/// views' equivalent scan. Equal sections share one allocation while
/// any holder keeps it alive (see [`crate::intern`]).
pub(crate) fn payload_of(section: &[u8]) -> Arc<RecordPayload> {
    crate::intern::share(section, || {
        const CHECKED: &str = "payload section checked before it is built";
        let mut r = Reader {
            data: section,
            pos: 0,
        };
        let mut p = RecordPayload::default();
        for _ in 0..r.count(12).expect(CHECKED) {
            p.services.push(read_service_decl(&mut r).expect(CHECKED));
        }
        p.attrs = read_kv(&mut r).expect(CHECKED);
        debug_assert_eq!(r.pos, section.len());
        p
    })
}

fn read_event(r: &mut Reader) -> Result<MemberEvent, DecodeError> {
    match r.u8()? {
        0 => Ok(MemberEvent::Join(read_record(r)?)),
        1 => {
            let n = read_node(r)?;
            let inc = r.u64()?;
            Ok(MemberEvent::Leave(n, inc))
        }
        2 => {
            let n = read_node(r)?;
            let inc = r.u64()?;
            Ok(MemberEvent::Suspect(n, inc))
        }
        3 => Ok(MemberEvent::Refute(read_record(r)?)),
        4 => {
            let subject = read_node(r)?;
            let incarnation = r.u64()?;
            let reporter = read_node(r)?;
            Ok(MemberEvent::Alert {
                subject,
                incarnation,
                reporter,
            })
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

fn read_swim_updates(r: &mut Reader) -> Result<Vec<SwimUpdate>, DecodeError> {
    // Minimal element: state(1) + record node(4)+inc(8)+services(4)+attrs(4).
    let n = r.count(21)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let state = match r.u8()? {
            0 => SwimState::Alive,
            1 => SwimState::Suspect,
            2 => SwimState::Confirm,
            t => return Err(DecodeError::BadTag(t)),
        };
        let record = read_record(r)?;
        out.push(SwimUpdate { state, record });
    }
    Ok(out)
}

fn read_relayed(r: &mut Reader) -> Result<RelayedRecord, DecodeError> {
    Ok(RelayedRecord {
        record: read_record(r)?,
        relayed_by: read_opt_node(r)?,
    })
}

fn read_avail(r: &mut Reader) -> Result<ServiceAvail, DecodeError> {
    Ok(ServiceAvail {
        name: read_string(r)?,
        partitions: read_partitions(r)?,
        instances: r.u16()?,
    })
}

fn read_message(r: &mut Reader) -> Result<Message, DecodeError> {
    match r.u8()? {
        0x01 => {
            let from = read_node(r)?;
            let level = r.u8()?;
            let seq = r.u64()?;
            let is_leader = r.u8()? != 0;
            let backup = read_opt_node(r)?;
            let latest_update_seq = r.u64()?;
            let record = read_record(r)?;
            Ok(Message::Heartbeat(Heartbeat {
                from,
                level,
                seq,
                is_leader,
                backup,
                latest_update_seq,
                record,
            }))
        }
        0x02 => {
            let origin = read_node(r)?;
            let n = r.count(9)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let seq = r.u64()?;
                let event = read_event(r)?;
                events.push(SeqEvent { seq, event });
            }
            Ok(Message::Update(UpdateMsg { origin, events }))
        }
        0x03 => {
            let from = read_node(r)?;
            let reply_wanted = r.u8()? != 0;
            let latest_seq = r.u64()?;
            let n = r.count(17)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(read_relayed(r)?);
            }
            Ok(Message::DirectoryExchange(DirectoryExchange {
                from,
                reply_wanted,
                latest_seq,
                records,
            }))
        }
        0x04 => Ok(Message::SyncRequest(SyncRequest {
            from: read_node(r)?,
            since_seq: r.u64()?,
        })),
        0x05 => {
            let from = read_node(r)?;
            let latest_seq = r.u64()?;
            let n = r.count(17)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(read_relayed(r)?);
            }
            Ok(Message::SyncResponse(SyncResponse {
                from,
                latest_seq,
                records,
            }))
        }
        0x06 => {
            let kind = r.u8()?;
            let from = read_node(r)?;
            let level = r.u8()?;
            match kind {
                0 => Ok(Message::Election(ElectionMsg::Election { from, level })),
                1 => Ok(Message::Election(ElectionMsg::Alive { from, level })),
                2 => {
                    let backup = read_opt_node(r)?;
                    Ok(Message::Election(ElectionMsg::Coordinator {
                        from,
                        level,
                        backup,
                    }))
                }
                t => Err(DecodeError::BadTag(t)),
            }
        }
        0x07 => {
            let from = read_node(r)?;
            let n = r.count(24)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let record = read_record(r)?;
                let heartbeat_counter = r.u64()?;
                entries.push(GossipEntry {
                    record,
                    heartbeat_counter,
                });
            }
            Ok(Message::Gossip(Gossip { from, entries }))
        }
        0x08 => {
            let dc = DcId(r.u16()?);
            let seq = r.u64()?;
            let part = r.u16()?;
            let total_parts = r.u16()?;
            let n = r.count(10)?;
            let mut services = Vec::with_capacity(n);
            for _ in 0..n {
                services.push(read_avail(r)?);
            }
            Ok(Message::ProxySummary(ProxySummary {
                dc,
                seq,
                part,
                total_parts,
                services,
            }))
        }
        0x09 => {
            let dc = DcId(r.u16()?);
            let seq = r.u64()?;
            let n = r.count(5)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                match r.u8()? {
                    0 => events.push(SummaryEvent::Avail(read_avail(r)?)),
                    1 => events.push(SummaryEvent::Gone {
                        name: read_string(r)?,
                    }),
                    t => return Err(DecodeError::BadTag(t)),
                }
            }
            Ok(Message::ProxyUpdate(ProxyUpdate { dc, seq, events }))
        }
        0x0a => Ok(Message::ServiceRequest(ServiceRequest {
            id: r.u64()?,
            from: read_node(r)?,
            service: read_string(r)?,
            partition: r.u16()?,
            payload: read_bytes_field(r)?,
            hops_left: r.u8()?,
        })),
        0x0c => {
            let from = read_node(r)?;
            let level = r.u8()?;
            let n = r.count(12)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let node = read_node(r)?;
                let incarnation = r.u64()?;
                entries.push(DigestEntry { node, incarnation });
            }
            Ok(Message::Digest(DigestMsg {
                from,
                level,
                entries,
            }))
        }
        0x0b => Ok(Message::ServiceResponse(ServiceResponse {
            id: r.u64()?,
            from: read_node(r)?,
            ok: r.u8()? != 0,
            payload: read_bytes_field(r)?,
        })),
        0x0d => Ok(Message::SwimPing(SwimPing {
            from: read_node(r)?,
            seq: r.u64()?,
            updates: read_swim_updates(r)?,
        })),
        0x0e => Ok(Message::SwimAck(SwimAck {
            from: read_node(r)?,
            subject: read_node(r)?,
            seq: r.u64()?,
            updates: read_swim_updates(r)?,
            sync: read_swim_updates(r)?,
        })),
        0x0f => Ok(Message::SwimPingReq(SwimPingReq {
            from: read_node(r)?,
            target: read_node(r)?,
            seq: r.u64()?,
            updates: read_swim_updates(r)?,
        })),
        t => Err(DecodeError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> NodeRecord {
        NodeRecord::new(NodeId(12), 4)
            .with_service(ServiceDecl::new(
                "index",
                PartitionSet::parse("0-2").unwrap(),
            ))
            .with_attr("cpu", "2x1.4GHz")
    }

    #[test]
    fn heartbeat_roundtrip() {
        let msg = Message::Heartbeat(Heartbeat {
            from: NodeId(12),
            level: 1,
            seq: 99,
            is_leader: true,
            backup: Some(NodeId(13)),
            latest_update_seq: 17,
            record: sample_record(),
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn update_roundtrip_with_piggyback() {
        let msg = Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![
                SeqEvent {
                    seq: 5,
                    event: MemberEvent::Leave(NodeId(3), 1),
                },
                SeqEvent {
                    seq: 6,
                    event: MemberEvent::Join(sample_record()),
                },
            ],
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn suspect_and_refute_roundtrip() {
        let msg = Message::Update(UpdateMsg {
            origin: NodeId(2),
            events: vec![
                SeqEvent {
                    seq: 7,
                    event: MemberEvent::Suspect(NodeId(3), 4),
                },
                SeqEvent {
                    seq: 8,
                    event: MemberEvent::Refute(sample_record()),
                },
            ],
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn suspect_event_tag_is_stable() {
        // Suspect and Leave share a layout but not a tag; a decoder that
        // confused them would turn every suspicion into a removal.
        let suspect = Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![SeqEvent {
                seq: 1,
                event: MemberEvent::Suspect(NodeId(5), 2),
            }],
        });
        let leave = Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![SeqEvent {
                seq: 1,
                event: MemberEvent::Leave(NodeId(5), 2),
            }],
        });
        assert_ne!(encode(&suspect), encode(&leave));
        assert_eq!(decode(&encode(&suspect)).unwrap(), suspect);
    }

    #[test]
    fn truncated_suspect_rejected() {
        let bytes = encode(&Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![SeqEvent {
                seq: 1,
                event: MemberEvent::Suspect(NodeId(5), 2),
            }],
        }));
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} decoded");
        }
    }

    #[test]
    fn sync_messages_roundtrip() {
        let req = Message::SyncRequest(SyncRequest {
            from: NodeId(8),
            since_seq: 100,
        });
        assert_eq!(decode(&encode(&req)).unwrap(), req);
        let resp = Message::SyncResponse(SyncResponse {
            from: NodeId(9),
            latest_seq: 104,
            records: vec![RelayedRecord {
                record: sample_record(),
                relayed_by: Some(NodeId(2)),
            }],
        });
        assert_eq!(decode(&encode(&resp)).unwrap(), resp);
    }

    #[test]
    fn election_variants_roundtrip() {
        for msg in [
            Message::Election(ElectionMsg::Election {
                from: NodeId(1),
                level: 0,
            }),
            Message::Election(ElectionMsg::Alive {
                from: NodeId(2),
                level: 3,
            }),
            Message::Election(ElectionMsg::Coordinator {
                from: NodeId(3),
                level: 2,
                backup: Some(NodeId(4)),
            }),
        ] {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn gossip_roundtrip() {
        let msg = Message::Gossip(Gossip {
            from: NodeId(5),
            entries: vec![GossipEntry {
                record: sample_record(),
                heartbeat_counter: 77,
            }],
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn proxy_messages_roundtrip() {
        let avail = ServiceAvail {
            name: "retriever".into(),
            partitions: PartitionSet::parse("0-2").unwrap(),
            instances: 9,
        };
        let sum = Message::ProxySummary(ProxySummary {
            dc: DcId(1),
            seq: 3,
            part: 0,
            total_parts: 2,
            services: vec![avail.clone()],
        });
        assert_eq!(decode(&encode(&sum)).unwrap(), sum);
        let upd = Message::ProxyUpdate(ProxyUpdate {
            dc: DcId(1),
            seq: 4,
            events: vec![
                SummaryEvent::Avail(avail),
                SummaryEvent::Gone {
                    name: "cache".into(),
                },
            ],
        });
        assert_eq!(decode(&encode(&upd)).unwrap(), upd);
    }

    #[test]
    fn service_rpc_roundtrip() {
        let req = Message::ServiceRequest(ServiceRequest {
            id: 42,
            from: NodeId(1),
            service: "index".into(),
            partition: 1,
            payload: b"query terms".to_vec(),
            hops_left: 2,
        });
        assert_eq!(decode(&encode(&req)).unwrap(), req);
        let resp = Message::ServiceResponse(ServiceResponse {
            id: 42,
            from: NodeId(7),
            ok: true,
            payload: b"doc ids".to_vec(),
        });
        assert_eq!(decode(&encode(&resp)).unwrap(), resp);
    }

    #[test]
    fn digest_roundtrip() {
        let msg = Message::Digest(DigestMsg {
            from: NodeId(3),
            level: 1,
            entries: vec![
                DigestEntry {
                    node: NodeId(1),
                    incarnation: 2,
                },
                DigestEntry {
                    node: NodeId(9),
                    incarnation: 1,
                },
            ],
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn swim_messages_roundtrip() {
        let updates = vec![
            SwimUpdate {
                state: SwimState::Alive,
                record: sample_record(),
            },
            SwimUpdate {
                state: SwimState::Suspect,
                record: NodeRecord::new(NodeId(3), 2),
            },
            SwimUpdate {
                state: SwimState::Confirm,
                record: NodeRecord::new(NodeId(9), 1),
            },
        ];
        for msg in [
            Message::SwimPing(SwimPing {
                from: NodeId(1),
                seq: 42,
                updates: updates.clone(),
            }),
            Message::SwimAck(SwimAck {
                from: NodeId(2),
                subject: NodeId(5),
                seq: 42,
                updates: updates.clone(),
                sync: vec![SwimUpdate {
                    state: SwimState::Alive,
                    record: NodeRecord::new(NodeId(7), 3),
                }],
            }),
            Message::SwimPingReq(SwimPingReq {
                from: NodeId(1),
                target: NodeId(5),
                seq: 43,
                updates,
            }),
        ] {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn alert_event_roundtrip_and_tag_distinct() {
        let alert = Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![SeqEvent {
                seq: 9,
                event: MemberEvent::Alert {
                    subject: NodeId(5),
                    incarnation: 2,
                    reporter: NodeId(1),
                },
            }],
        });
        assert_eq!(decode(&encode(&alert)).unwrap(), alert);
        // An alert must never decode as a suspect (it carries no removal
        // authority of its own).
        let suspect = Message::Update(UpdateMsg {
            origin: NodeId(1),
            events: vec![SeqEvent {
                seq: 9,
                event: MemberEvent::Suspect(NodeId(5), 2),
            }],
        });
        assert_ne!(encode(&alert), encode(&suspect));
    }

    #[test]
    fn truncated_swim_rejected() {
        let bytes = encode(&Message::SwimPing(SwimPing {
            from: NodeId(1),
            seq: 7,
            updates: vec![SwimUpdate {
                state: SwimState::Alive,
                record: sample_record(),
            }],
        }));
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} decoded");
        }
    }

    #[test]
    fn empty_input_is_truncated() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0xff]), Err(DecodeError::BadTag(0xff)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Message::SyncRequest(SyncRequest {
            from: NodeId(1),
            since_seq: 0,
        }));
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn hostile_count_rejected() {
        // SyncResponse with a count claiming 2^32-1 records but no bytes.
        let mut bytes = vec![0x05];
        bytes.extend(1u32.to_le_bytes()); // from
        bytes.extend(0u64.to_le_bytes()); // latest_seq
        bytes.extend(u32::MAX.to_le_bytes()); // record count
        assert_eq!(decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn truncated_string_rejected() {
        // ServiceRequest whose service-name length runs past the buffer.
        let mut bytes = vec![0x0a];
        bytes.extend(1u64.to_le_bytes());
        bytes.extend(2u32.to_le_bytes());
        bytes.extend(1000u32.to_le_bytes()); // name length 1000, no bytes
        assert_eq!(decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn heartbeat_size_is_stable() {
        // Regression guard: the minimal heartbeat layout. If this changes,
        // the bandwidth numbers of every experiment shift.
        let msg = Message::Heartbeat(Heartbeat {
            from: NodeId(0),
            level: 0,
            seq: 0,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: NodeRecord::new(NodeId(0), 0),
        });
        // tag(1)+from(4)+level(1)+seq(8)+flag(1)+backup(1)+latest(8)
        //  +record: node(4)+inc(8)+services(4)+attrs(4)
        assert_eq!(encoded_len(&msg), 44);
    }
}
