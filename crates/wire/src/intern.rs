//! One payload per content: the decoder's table of live payloads.
//!
//! Every node holds every other node's record, so a cluster that learns
//! its records over the wire decodes each of them once per holder. The
//! payloads are immutable behind their `Arc` (a holder that edits one
//! splits it off first, see `NodeRecord`'s `DerefMut`), so holders on
//! one thread can share the first decode: the table maps an encoded
//! payload section to a `Weak` of the payload it decoded to, and a later
//! decode of the same bytes gets that allocation back instead of
//! building its own. Sharing is invisible to protocol code — equal
//! content either way — and costs a holder nothing it could observe: a
//! `Weak` keeps no payload alive and `Arc::make_mut` detaches one.
//!
//! The table is thread-local: engine shards and sweep workers each keep
//! their own and never take a lock. There is no handle to it and no way
//! around it; [`crate::codec::payload_of`] is its one caller.

use crate::messages::RecordPayload;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Entries below which dead ones are not worth looking for.
const MIN_PRUNE_AT: usize = 64;

struct Table {
    /// Keyed by the payload's own canonical section (shared with it, not
    /// copied), so a hit proves the bytes on offer are that section.
    live: HashMap<Arc<[u8]>, Weak<RecordPayload>>,
    /// Length at which the next insert first drops dead entries: twice
    /// what survived the last prune, so pruning is amortised O(1) and
    /// the table stays within 2× the live payloads (plus the floor).
    prune_at: usize,
}

thread_local! {
    static TABLE: RefCell<Table> = RefCell::new(Table {
        live: HashMap::new(),
        prune_at: MIN_PRUNE_AT,
    });
}

/// The live payload that `section` decodes to, or `build()` — which
/// must be that decode — remembered for the next caller.
pub(crate) fn share(section: &[u8], build: impl FnOnce() -> RecordPayload) -> Arc<RecordPayload> {
    let hit = TABLE.with(|t| t.borrow().live.get(section).and_then(Weak::upgrade));
    if let Some(p) = hit {
        return p;
    }
    let p = Arc::new(build());
    // A section that is not the canonical encoding of what it decodes
    // to (our encoder writes none; a foreign one might list partitions
    // unsorted) is not this payload's key: leave it unshared.
    if **p.wire() == *section {
        TABLE.with(|t| {
            let t = &mut *t.borrow_mut();
            if t.live.len() >= t.prune_at {
                t.live.retain(|_, p| p.strong_count() > 0);
                t.prune_at = (2 * t.live.len()).max(MIN_PRUNE_AT);
            }
            t.live.insert(p.wire().clone(), Arc::downgrade(&p));
        });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec, Heartbeat, Message, NodeId, NodeRecord};

    fn table_len() -> usize {
        TABLE.with(|t| t.borrow().live.len())
    }

    #[test]
    fn dropped_payloads_do_not_accumulate() {
        for i in 0..10_000u32 {
            let record = NodeRecord::new(NodeId(i), 1).with_attr("host", format!("h{i}"));
            let frame = codec::encode(&Message::Heartbeat(Heartbeat {
                from: record.node,
                level: 0,
                seq: 0,
                is_leader: false,
                backup: None,
                latest_update_seq: 0,
                record,
            }));
            drop(codec::decode(&frame).unwrap());
            assert!(table_len() <= 2 * MIN_PRUNE_AT, "{} entries", table_len());
        }
        // Live payloads are kept, however many: the bound is on the dead.
        let held: Vec<_> = (0..1_000u32)
            .map(|i| {
                codec::payload_of(
                    NodeRecord::new(NodeId(i), 1)
                        .with_attr("k", i.to_string())
                        .wire(),
                )
            })
            .collect();
        assert!(table_len() >= held.len());
        assert!(table_len() <= 2 * held.len() + 2 * MIN_PRUNE_AT);
    }
}
