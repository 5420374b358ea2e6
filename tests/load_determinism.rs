//! Determinism contract for the tamp-load subsystem: same seed ⇒
//! byte-identical SLO summaries and exports, run-to-run and at any
//! `--jobs` width. These are the guarantees `tamp-exp load` prints and
//! CI diffs against.

use tamp_harness::load::collect;
use tamp_harness::registry::Args;
use tamp_load::{run_campaign, Campaign, CampaignFault, LoadScenarioConfig, WorkloadConfig};
use tamp_netsim::SECS;
use tamp_par::Pool;

fn quick_opts() -> Args {
    Args {
        users: 2_000,
        datacenters: 2,
        quick: true,
        jobs: 1,
        ..Default::default()
    }
}

#[test]
fn same_seed_exports_are_byte_identical_across_runs() {
    let opts = quick_opts();
    let a = collect(&opts).unwrap();
    let b = collect(&opts).unwrap();
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.slo_csv, b.slo_csv);
    assert_eq!(a.timeline_csv, b.timeline_csv);
}

#[test]
fn different_seeds_diverge() {
    let a = collect(&quick_opts()).unwrap();
    let b = collect(&Args {
        seed: 7,
        ..quick_opts()
    })
    .unwrap();
    assert_ne!(
        a.timeline_csv, b.timeline_csv,
        "seed must reach the workload stream"
    );
}

#[test]
fn campaign_exports_match_at_any_jobs_width() {
    let mut opts = quick_opts();
    opts.users = 800;
    opts.campaign = true;
    opts.jobs = 1;
    let sequential = collect(&opts).unwrap();
    opts.jobs = 4;
    let parallel = collect(&opts).unwrap();
    assert_eq!(sequential.summary, parallel.summary);
    assert_eq!(sequential.slo_csv, parallel.slo_csv);
    assert_eq!(sequential.timeline_csv, parallel.timeline_csv);
    assert_eq!(sequential.campaign_csv, parallel.campaign_csv);
    assert_eq!(sequential.campaign_report, parallel.campaign_report);
    let report = sequential.campaign_report.unwrap();
    for fault in [
        "baseline",
        "leader-death",
        "proxy-failover",
        "wan-partition",
    ] {
        assert!(report.contains(fault), "campaign report missing {fault}");
    }
}

/// The library-level campaign API honors the same contract without the
/// harness formatting layer: raw histograms and timelines match between
/// a sequential pool and a wide one.
#[test]
fn raw_campaign_histograms_match_across_pool_widths() {
    let cfg = LoadScenarioConfig {
        users: 400,
        datacenters: 2,
        workload: WorkloadConfig {
            think_mean: 10 * SECS,
            ..Default::default()
        },
        ..Default::default()
    };
    let campaign = Campaign {
        warmup: 30 * SECS,
        duration: 20 * SECS,
        faults: vec![CampaignFault {
            name: "leader-death".to_string(),
            schedule: tamp_chaos::dsl::parse("settle 10s\nat 35s kill leader 0\n").unwrap(),
        }],
    };
    let a = run_campaign(&cfg, &campaign, &Pool::sequential());
    let b = run_campaign(&cfg, &campaign, &Pool::new(8));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.resolved, y.resolved);
        assert_eq!(x.summary.issued, y.summary.issued);
        assert_eq!(x.summary.errors, y.summary.errors);
        assert_eq!(x.summary.overall.buckets, y.summary.overall.buckets);
        for (hx, hy) in x.summary.per_partition.iter().zip(&y.summary.per_partition) {
            assert_eq!(hx.buckets, hy.buckets);
        }
        let cx: Vec<(u64, u64)> = x
            .summary
            .cells
            .iter()
            .map(|c| (c.completed, c.failed))
            .collect();
        let cy: Vec<(u64, u64)> = y
            .summary
            .cells
            .iter()
            .map(|c| (c.completed, c.failed))
            .collect();
        assert_eq!(cx, cy);
    }
}
