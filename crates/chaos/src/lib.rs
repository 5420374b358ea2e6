//! `tamp-chaos`: deterministic fault-injection scenarios with a
//! membership-invariant oracle.
//!
//! The paper validates its protocol with hand-run testbed faults; this
//! crate turns that into an automated adversary. A **schedule**
//! ([`Schedule`], written in a small text DSL or generated from a seed)
//! describes a timed fault program — kill/revive waves, rolling
//! restarts, leader-targeted kills, partition/heal cycles, loss bursts.
//! The **runner** applies it deterministically to a simulated cluster,
//! while a **ground-truth** record tracks what actually happened. At
//! quiescence the **oracle** checks the membership invariants the
//! protocol promises: no false removal of a live node, eventual view
//! convergence, per-group leader agreement. A seeded **generator**
//! sweeps random schedules and **shrinks** any failure to a minimal
//! repro.
//!
//! ```
//! use tamp_chaos::{dsl, run_scenario, ScenarioConfig};
//!
//! let schedule = dsl::parse("
//!     settle 45s
//!     at 20s kill leader 0
//!     at 30s loss 0.4 for 5s
//!     at 50s revive random
//! ").unwrap();
//! let run = run_scenario(&ScenarioConfig::two_segments(42), &schedule);
//! assert!(run.passed(), "{}", run.report());
//! ```
//!
//! See `docs/CHAOS.md` for the DSL grammar and the invariant catalogue,
//! and `tamp-exp chaos` for the command-line harness.

pub mod cluster;
pub mod dsl;
pub mod generator;
pub mod oracle;
pub mod proxy;
pub mod runner;
pub mod schedule;
pub mod shrink;
pub mod truth;

pub use cluster::{build_cluster, Cluster, Detection, Protocol};
pub use dsl::ParseError;
pub use generator::{
    adversarial_schedule, random_schedule, seed_range, sweep, AdversarialConfig, GeneratorConfig,
    SweepReport, MIN_EVENTS,
};
pub use oracle::{OracleConfig, Violation};
pub use proxy::run_proxy_scenario;
pub use runner::{apply_schedule, run_scenario, ScenarioConfig, ScenarioRun};
pub use schedule::{Action, Schedule, ScheduledFault, Target, TopoSpec};
pub use shrink::shrink;
pub use truth::GroundTruth;

/// The protocol names the `protocol` DSL directive (and the harness's
/// `--protocol` flag) accepts, in canonical order.
pub const PROTOCOLS: [&str; 5] = ["tamp", "tamp-rapid", "alltoall", "gossip", "swim"];
