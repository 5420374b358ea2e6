//! Shared-memory-style concurrent access to the directory.
//!
//! In the paper's implementation the membership daemon publishes the
//! yellow pages into a shared-memory block so that "service clients that
//! may reside in different processes" can read it without IPC round trips
//! (§6.1, Fig. 10). The Rust analogue is an `Arc<RwLock<Directory>>`: the
//! protocol driver holds a [`SharedDirectory`] (writer), applications hold
//! cheap [`DirectoryClient`] handles (readers) — many concurrent readers,
//! short writer critical sections, same access pattern as the shm block.

use crate::{Directory, LookupQuery, Machine};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tamp_wire::NodeId;

/// Writer handle owned by the membership service.
#[derive(Debug, Clone, Default)]
pub struct SharedDirectory {
    inner: Arc<RwLock<Directory>>,
    /// Bumped on every change so clients can cheaply detect staleness.
    /// `SeqCst`, so a reader that sees a bump also sees the write behind
    /// it.
    version: Arc<AtomicU64>,
}

impl SharedDirectory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with mutable access; bumps the version if `f` returns true
    /// (i.e. it changed something).
    pub fn update<R>(&self, f: impl FnOnce(&mut Directory) -> (bool, R)) -> R {
        let mut guard = self.inner.write();
        let (changed, r) = f(&mut guard);
        drop(guard);
        if changed {
            self.version.fetch_add(1, Ordering::SeqCst);
        }
        r
    }

    /// Run `f` with read access.
    pub fn read<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        f(&self.inner.read())
    }

    /// Create a read-only client handle (the paper's `MClient`).
    pub fn client(&self) -> DirectoryClient {
        DirectoryClient {
            inner: Arc::clone(&self.inner),
            version: Arc::clone(&self.version),
        }
    }

    /// Current change-version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

/// Read-only handle used by service/consumer code; clone freely across
/// threads.
#[derive(Debug, Clone)]
pub struct DirectoryClient {
    inner: Arc<RwLock<Directory>>,
    version: Arc<AtomicU64>,
}

impl DirectoryClient {
    /// The paper's `lookup_service`: regex service name + partition list.
    pub fn lookup_service(
        &self,
        service: &str,
        partition: &str,
    ) -> Result<Vec<Machine>, crate::lookup::QueryError> {
        let q = LookupQuery::new(service, partition)?;
        Ok(self.inner.read().lookup(&q))
    }

    /// Lookup with a pre-compiled query (hot-path form).
    pub fn lookup(&self, query: &LookupQuery) -> Vec<Machine> {
        self.inner.read().lookup(query)
    }

    /// Resolve `(service, partition)` through the current view: the node
    /// ids currently believed to host that partition of the service
    /// named exactly `service`, in directory order
    /// ([`Directory::providers`]). The router-facing query: `service` is
    /// a literal, not a pattern (`"ind.x"` does not find `index`), and
    /// an unknown service resolves to an empty candidate set. Patterns
    /// go through [`lookup_service`](Self::lookup_service). The answer
    /// is shared with every other resolve of the same view, until the
    /// view changes.
    pub fn resolve(&self, service: &str, partition: u16) -> Arc<[NodeId]> {
        self.inner.read().providers(service, Some(partition))
    }

    /// Is this node currently believed alive?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.inner.read().contains(node)
    }

    /// Number of live members.
    pub fn member_count(&self) -> usize {
        self.inner.read().len()
    }

    /// Change-version; increments whenever membership changes.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Arbitrary read access.
    pub fn read<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        f(&self.inner.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Provenance;
    use tamp_wire::{NodeRecord, PartitionSet, ServiceDecl};

    fn record(id: u32) -> NodeRecord {
        NodeRecord::new(NodeId(id), 1)
            .with_service(ServiceDecl::new("http", PartitionSet::from_iter([0])))
    }

    #[test]
    fn client_sees_writer_updates() {
        let shared = SharedDirectory::new();
        let client = shared.client();
        assert_eq!(client.member_count(), 0);
        shared.update(|d| (d.apply_join(record(1), Provenance::Direct, 0).changed(), ()));
        assert_eq!(client.member_count(), 1);
        assert!(client.is_alive(NodeId(1)));
    }

    #[test]
    fn version_bumps_only_on_change() {
        let shared = SharedDirectory::new();
        let v0 = shared.version();
        shared.update(|d| (d.apply_join(record(1), Provenance::Direct, 0).changed(), ()));
        let v1 = shared.version();
        assert!(v1 > v0);
        // Idempotent re-apply: no version bump.
        shared.update(|d| (d.apply_join(record(1), Provenance::Direct, 1).changed(), ()));
        assert_eq!(shared.version(), v1);
    }

    #[test]
    fn client_lookup_from_other_thread() {
        let shared = SharedDirectory::new();
        shared.update(|d| (d.apply_join(record(3), Provenance::Direct, 0).changed(), ()));
        let client = shared.client();
        let handle = std::thread::spawn(move || client.lookup_service("http", "0").unwrap().len());
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let shared = SharedDirectory::new();
        let mut readers = Vec::new();
        for _ in 0..4 {
            let c = shared.client();
            readers.push(std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let n = c.member_count();
                    // Membership only grows in this test.
                    assert!(n >= last);
                    last = n;
                }
            }));
        }
        for i in 0..100 {
            shared.update(|d| (d.apply_join(record(i), Provenance::Direct, 0).changed(), ()));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.client().member_count(), 100);
    }
}
