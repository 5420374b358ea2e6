//! # tamp-load — production-scale workload generation and SLO measurement
//!
//! The ROADMAP north-star is a membership service that "serves heavy
//! traffic from millions of users"; this crate is the subsystem that
//! generates that traffic and measures what the cluster delivers.
//!
//! * [`workload`] — the synthetic population: open/closed-loop arrival
//!   processes, think times, and a seed-stable inverse-CDF Zipfian
//!   partition sampler.
//! * [`generator`] — the [`LoadGenNode`] actor: millions of users per
//!   node via calendar-tick aggregation, routing every request through
//!   tamp-neptune's router over the live membership view (replica retry
//!   → proxy failover) with a routed-to-dead / timeout /
//!   retry-exhausted error taxonomy.
//! * [`telemetry`] — per-request latency into power-of-two histograms
//!   (cluster-wide and per doc partition) plus the per-second request
//!   record, all exported byte-deterministically.
//! * [`scenario`] — tamp-neptune's search deployment with the generators
//!   as its consumers, sized for production-scale populations.
//! * [`campaign`] — chaos-under-load: replay `.chaos` fault schedules
//!   while the generators run; report throughput dips, p99 during
//!   failover, and goodput lost per fault, parallelized on the tamp-par
//!   pool with byte-identical results at any `--jobs` width.
//!
//! ## Determinism contract
//!
//! Same seed ⇒ byte-identical draws, routes, histograms, and reports —
//! across runs and across pool widths. The workload stream is seeded
//! separately from the engine so routing entropy never changes which
//! partitions users ask for.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tamp_load::ZipfSampler;
//!
//! let zipf = ZipfSampler::new(12, 1.1);
//! let draws = |seed| {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     (0..100).map(|_| zipf.sample(&mut rng)).collect::<Vec<u16>>()
//! };
//! assert_eq!(draws(7), draws(7));
//! // Rank 0 is the hottest partition under Zipf skew.
//! assert!(zipf.probabilities()[0] > zipf.probabilities()[11]);
//! ```

pub mod campaign;
pub mod generator;
pub mod scenario;
pub mod telemetry;
pub mod workload;

pub use campaign::{run_campaign, run_one, Campaign, CampaignFault, FaultOutcome, RunSummary};
pub use generator::{LoadGenConfig, LoadGenNode};
pub use scenario::{build, LoadScenario, LoadScenarioConfig};
pub use tamp_neptune::{Cell, Timeline};
pub use telemetry::{LoadTelemetry, SUBSYSTEM};
pub use workload::{ArrivalMode, Skew, WorkloadConfig, ZipfSampler};
