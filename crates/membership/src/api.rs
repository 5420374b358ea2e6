//! The paper's §5 public API, adapted to Rust: [`MService`] mirrors the
//! C++ `MService` class (Fig. 8) and [`MClient`] the client library
//! (Fig. 9).
//!
//! ```text
//! class MService {                      // paper Fig. 8
//!     MService(const char *configuration);
//!     int run(void);
//!     int register_service(const char *name, const char *partition);
//!     int update_value(const char *key, const void *value, int size);
//!     int delete_value(const char *key);
//! };
//! ```
//!
//! The Rust shape differs in one way: `run()` does not spawn threads —
//! it hands back a sans-io [`MembershipNode`] that the caller installs
//! into a driver (the simulator or `tamp-runtime`, which owns the
//! threads). Everything else maps one-to-one.

use crate::config::{ConfigError, MembershipConfig};
use crate::node::MembershipNode;
use tamp_directory::DirectoryClient;
use tamp_wire::{NodeId, PartitionSet, ServiceDecl};

/// Builder/handle for one node's membership service.
pub struct MService {
    node: MembershipNode,
}

/// The client library: a read handle onto the local yellow pages. This is
/// a thin re-export of [`DirectoryClient`], named to match the paper.
pub type MClient = DirectoryClient;

/// Error publishing a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError(pub String);

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service registration error: {}", self.0)
    }
}

impl std::error::Error for ServiceError {}

impl MService {
    /// Construct from a configuration-file string (the paper's Fig. 7
    /// format). "If the configuration file is not available, default
    /// values will be used": pass `None`.
    pub fn new(me: NodeId, configuration: Option<&str>) -> Result<Self, ConfigError> {
        let cfg = match configuration {
            Some(text) => MembershipConfig::parse(text)?,
            None => MembershipConfig::default(),
        };
        Ok(MService {
            node: MembershipNode::new(me, cfg),
        })
    }

    /// Publish a service with a partition list, e.g.
    /// `register_service("Retriever", "1-3")`.
    pub fn register_service(&mut self, name: &str, partition: &str) -> Result<(), ServiceError> {
        let partitions = PartitionSet::parse(partition)
            .ok_or_else(|| ServiceError(format!("bad partition list {partition:?}")))?;
        self.node
            .register_service(ServiceDecl::new(name, partitions));
        Ok(())
    }

    /// Publish/update a service-status value that rides along with the
    /// membership multicasts.
    pub fn update_value(&mut self, key: &str, value: &str) {
        self.node.update_value(key, value);
    }

    /// Remove a published value.
    pub fn delete_value(&mut self, key: &str) {
        self.node.delete_value(key);
    }

    /// Attach a client to this node's yellow pages (the shared-memory
    /// key handshake of the paper collapses to a handle clone here).
    pub fn client(&self) -> MClient {
        self.node.directory_client()
    }

    /// Introspection probe (leaders per level, active levels,
    /// incarnation).
    pub fn probe(&self) -> crate::node::Probe {
        self.node.probe()
    }

    /// Runtime control queue: keep a clone before `run()` to call
    /// `register_service` / `update_value` / `delete_value` while the
    /// daemon runs (the paper's dynamic service-status updates).
    pub fn control_handle(&self) -> crate::node::ControlHandle {
        self.node.control_handle()
    }

    /// Finalize: hand the protocol state machine to a driver. This is the
    /// paper's `run()`, minus the thread spawning (the driver owns
    /// scheduling).
    pub fn run(self) -> MembershipNode {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_config_text() {
        let svc = MService::new(
            NodeId(3),
            Some("*SYSTEM\nMAX_LOSS = 7\n*SERVICE\n[http]\nPARTITION = 0\n"),
        )
        .unwrap();
        let node = svc.run();
        assert_eq!(node.id(), NodeId(3));
    }

    #[test]
    fn builds_with_defaults() {
        let svc = MService::new(NodeId(1), None).unwrap();
        let _ = svc.client();
    }

    #[test]
    fn bad_config_is_error() {
        assert!(MService::new(NodeId(1), Some("garbage")).is_err());
    }

    #[test]
    fn register_service_like_the_paper() {
        // The paper's example: a node in a search engine cluster calling
        // register_service("Retriever", "1-3") announces it hosts the
        // document retriever for partitions 1, 2 and 3.
        let mut svc = MService::new(NodeId(1), None).unwrap();
        svc.register_service("Retriever", "1-3").unwrap();
        assert!(svc.register_service("X", "3-1").is_err());
        svc.update_value("version", "2");
        svc.delete_value("version");
        let _node = svc.run();
    }
}
