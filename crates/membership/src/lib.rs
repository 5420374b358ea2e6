//! # tamp-membership — the topology-adaptive hierarchical membership protocol
//!
//! This crate is the paper's primary contribution: a membership service
//! for large service clusters that automatically divides nodes into
//! multicast groups following the physical network topology, organizes
//! group leaders into a tree, and keeps a complete, accurate yellow-page
//! directory on every node with near-constant per-node network cost.
//!
//! ## How the pieces map to the paper
//!
//! | Paper §       | Here |
//! |---------------|------|
//! | §3.1.1 group formation, heartbeats, failure detection | [`MembershipNode`] (`node.rs`: construction, API, dispatch, the sweep's order), [`group::GroupState`] (peers heard per channel, sweep floors) |
//! | §3.1.1 leader election | `election.rs` — writes the groups' `leader` / `backup` / `election` |
//! | §3.1.2 bootstrap, loss repair, anti-entropy | `sync.rs` — digests, sync polls, directory exchanges |
//! | §3.1.2 update propagation | `update.rs` — the update handler, one arm per event kind |
//! | §3.1.2 timeout protocol + the robustness extensions | `removal.rs` (timeout → suspect / vote → confirm → remove, quarantine, catch-all expiry) over three books that each own their state: `evidence.rs` (suspicions, refutation memory, flap scores, distress latch), `cuts.rs` (cut-detection votes), `quarantine.rs` (escrowed subtrees) |
//! | §5 configuration file + `MService`/`MClient` API | [`MembershipConfig::parse`], [`MService`], [`MClient`] |
//! | §5 a service process beside its daemon, §3.2 proxies as members | [`Hosted`] runs a [`Role`] (proxy, provider, gateway, load generator) next to a [`MembershipNode`]: restart, timer tokens and packet ownership, once (`hosted.rs`) |
//!
//! docs/PROTOCOL.md §1a lists who may write what and every call that
//! crosses between books.
//!
//! ## Quick start (simulated cluster)
//!
//! ```
//! use tamp_membership::{MembershipConfig, MembershipNode};
//! use tamp_netsim::{Engine, EngineConfig, SECS};
//! use tamp_topology::generators;
//! use tamp_wire::NodeId;
//!
//! // Two layer-2 networks of 5 nodes behind one router.
//! let topo = generators::star_of_segments(2, 5);
//! let mut engine = Engine::new(topo, EngineConfig::default(), 7);
//! let mut clients = Vec::new();
//! for h in engine.hosts() {
//!     let node = MembershipNode::new(NodeId(h.0), MembershipConfig::default());
//!     clients.push(node.directory_client());
//!     engine.add_actor(h, Box::new(node));
//! }
//! engine.start();
//! engine.run_until(20 * SECS);
//! // Every node has discovered all 10 members.
//! assert!(clients.iter().all(|c| c.member_count() == 10));
//! ```

pub mod config;
pub mod group;
pub mod hosted;
pub mod node;

mod api;
mod cuts;
mod election;
mod evidence;
mod quarantine;
mod removal;
mod sync;
mod update;

pub use api::{MClient, MService, ServiceError};
pub use config::{ConfigError, MembershipConfig, RemovalDiscipline};
pub use hosted::{Hosted, Role, ROLE_TOKENS};
pub use node::{ControlHandle, MembershipNode, Probe, ProbeState, ServiceCommand};
