//! Scenario construction: tamp-neptune's search deployment with
//! [`LoadGenNode`]s as its consumers, sized for production-scale
//! populations — more partitions, calibrated service times (hundreds of
//! microseconds, not the paper's demo milliseconds) so a million-user
//! population runs at sane utilization.

use crate::generator::{LoadGenConfig, LoadGenNode};
use crate::telemetry::LoadTelemetry;
use crate::workload::WorkloadConfig;
use tamp_membership::Probe;
use tamp_neptune::search::{deploy, SearchOptions};
use tamp_neptune::TimelineHandle;
use tamp_netsim::{Engine, EngineConfig, Nanos, ShardingKind, MICROS};

/// Knobs for the load scenario. Per DC it runs one generator, two
/// proxies and [`REPLICAS`] instances of every partition, with a 45 ms
/// one-way WAN between DCs (the search deployment's defaults).
#[derive(Debug, Clone)]
pub struct LoadScenarioConfig {
    /// Total synthetic users, split evenly across all generators.
    pub users: u64,
    pub workload: WorkloadConfig,
    pub datacenters: usize,
    pub index_partitions: u16,
    pub doc_partitions: u16,
    /// Engine seed (the workload stream is seeded separately from
    /// `workload.seed`).
    pub seed: u64,
    /// Engine partitioning ([`ShardingKind`]): `Sharded(n)` runs the one
    /// simulation across n per-datacenter shards, byte-identically.
    pub sharding: ShardingKind,
}

impl Default for LoadScenarioConfig {
    fn default() -> Self {
        LoadScenarioConfig {
            users: 1_000_000,
            workload: WorkloadConfig::default(),
            datacenters: 3,
            index_partitions: 4,
            doc_partitions: 12,
            seed: 2005,
            sharding: ShardingKind::Sequential,
        }
    }
}

/// Replicas per partition per DC.
pub const REPLICAS: usize = 2;
/// Service times, calibrated for the default million-user rate.
const INDEX_TIME: Nanos = 200 * MICROS;
const DOC_TIME: Nanos = 500 * MICROS;

/// A wired-up load scenario.
pub struct LoadScenario {
    pub engine: Engine,
    pub telemetry: LoadTelemetry,
    /// Leader-vote probes per host (`None` only for host slots without
    /// a role), in host order — the shape `tamp_chaos::apply_schedule`
    /// expects.
    pub probes: Vec<Option<Probe>>,
    pub cfg: LoadScenarioConfig,
}

/// Build the scenario. Call `engine.start()` yourself, then run.
pub fn build(cfg: &LoadScenarioConfig) -> LoadScenario {
    let opts = SearchOptions {
        datacenters: cfg.datacenters,
        replicas: REPLICAS,
        seed: cfg.seed,
        ..SearchOptions::default()
    };
    let tiers = [
        (cfg.index_partitions, INDEX_TIME),
        (cfg.doc_partitions, DOC_TIME),
    ];
    let engine = EngineConfig {
        metrics: true,
        sharding: cfg.sharding,
        ..Default::default()
    };
    let total_gens = (cfg.datacenters * opts.gateways_per_dc) as u64;
    let mut gen_idx = 0u64;
    // Every generator records through one set of handles, made against
    // the engine's registry when the first generator is.
    let mut telemetry: Option<LoadTelemetry> = None;
    let s = deploy(&opts, tiers, engine, |registry, me, membership| {
        let telemetry = telemetry
            .get_or_insert_with(|| LoadTelemetry::new(registry, cfg.doc_partitions))
            .clone();
        let timeline = TimelineHandle::clone(&telemetry.timeline);
        // Each generator runs an even slice of the population.
        let users = cfg.users / total_gens + u64::from(gen_idx < cfg.users % total_gens);
        gen_idx += 1;
        let workload = WorkloadConfig {
            users,
            ..cfg.workload.clone()
        };
        let gc = LoadGenConfig {
            index_partitions: cfg.index_partitions,
            doc_partitions: cfg.doc_partitions,
            ..LoadGenConfig::new(membership.clone(), workload)
        };
        let node = LoadGenNode::new(me, gc, telemetry);
        let probe = node.probe();
        (Box::new(node), probe, timeline)
    });
    LoadScenario {
        telemetry: telemetry
            .unwrap_or_else(|| LoadTelemetry::new(s.engine.registry(), cfg.doc_partitions)),
        engine: s.engine,
        probes: s.probes,
        cfg: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_netsim::SECS;

    #[test]
    fn scenario_wires_every_role() {
        let cfg = LoadScenarioConfig {
            users: 1000,
            datacenters: 3,
            ..Default::default()
        };
        let s = build(&cfg);
        // A probe per wired host: one generator, two proxies and the
        // replicas of 4 index and 12 doc partitions in each DC.
        let wired = 1 + 2 + (4 + 12) * REPLICAS;
        assert_eq!(s.probes.iter().flatten().count(), wired * cfg.datacenters);
    }

    #[test]
    fn closed_loop_completes_requests() {
        let cfg = LoadScenarioConfig {
            users: 500,
            datacenters: 2,
            workload: WorkloadConfig {
                think_mean: 10 * SECS,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = build(&cfg);
        s.engine.start();
        s.engine.run_until(40 * SECS);
        let snap = s.engine.registry().snapshot();
        let completed = snap.counter_total("load", "completed");
        let issued = snap.counter_total("load", "issued");
        assert!(issued > 0, "no requests issued");
        assert!(
            completed * 10 >= issued * 9,
            "too many losses: {completed}/{issued}"
        );
        assert!(s.telemetry.latency.snapshot().count > 0);
    }
}
