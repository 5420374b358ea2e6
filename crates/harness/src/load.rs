//! `tamp-exp load` — production-scale workload generation against the
//! neptune services, with chaos-under-load campaigns.
//!
//! A plain run warms a multi-datacenter cluster, drives it with the
//! configured user population, and prints per-partition SLO summaries
//! plus the throughput timeline. `--campaign` replays the leader-death,
//! proxy-failover, and WAN-partition scenarios from `scenarios/load/`
//! while the generators run, reporting the throughput dip, fault-window
//! p99, and goodput lost per fault. Everything is byte-deterministic:
//! same seed ⇒ identical output at any `--jobs` width. Canonical
//! exports land under `results/load/`.

use crate::common::{read_scenario, sharding_from};
use crate::registry::Args;
use tamp_chaos::dsl;
use tamp_load::{
    run_campaign, run_one, ArrivalMode, Campaign, CampaignFault, FaultOutcome, LoadScenarioConfig,
    RunSummary, Skew, WorkloadConfig,
};
use tamp_netsim::SECS;
use tamp_par::Pool;

/// The three stock chaos-under-load scenarios, embedded so the binary
/// works from any working directory.
const STOCK_SCENARIOS: [(&str, &str); 3] = [
    (
        "leader-death",
        include_str!("../../../scenarios/load/leader-death.chaos"),
    ),
    (
        "proxy-failover",
        include_str!("../../../scenarios/load/proxy-failover.chaos"),
    ),
    (
        "wan-partition",
        include_str!("../../../scenarios/load/wan-partition.chaos"),
    ),
];

/// Everything one invocation produced, as strings (nothing on disk —
/// `run_and_print` does that), so tests can diff runs byte-for-byte.
pub struct LoadRun {
    pub summary: String,
    pub slo_csv: String,
    pub timeline_csv: String,
    /// Campaign outputs (`--campaign` only).
    pub campaign_report: Option<String>,
    pub campaign_csv: Option<String>,
}

fn scenario_config(args: &Args, skew: Skew) -> LoadScenarioConfig {
    let mode = if args.open {
        ArrivalMode::Open
    } else {
        ArrivalMode::Closed
    };
    let mut cfg = LoadScenarioConfig {
        users: args.users,
        datacenters: args.datacenters,
        seed: args.seed,
        sharding: sharding_from(args.shards),
        workload: WorkloadConfig {
            users: args.users,
            skew,
            mode,
            seed: args.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    if args.quick {
        // CI-sized: fewer partitions, a population that a debug build
        // drives comfortably, faster user turnaround.
        cfg.index_partitions = 2;
        cfg.doc_partitions = 6;
        cfg.users = args.users.min(20_000);
        cfg.workload.users = cfg.users;
        cfg.workload.think_mean = 20 * SECS;
    }
    cfg
}

fn campaign_for(args: &Args) -> Campaign {
    let mut campaign = Campaign {
        // The stock scenarios fire at 55 s (see scenarios/load/): warm
        // up until 45 s, measure through the settle tail.
        warmup: 45 * SECS,
        duration: 45 * SECS,
        faults: Vec::new(),
    };
    if args.quick && !args.campaign {
        campaign.warmup = 30 * SECS;
        campaign.duration = 20 * SECS;
    }
    if args.campaign {
        match &args.scenario {
            Some(path) => {
                let schedule = read_scenario(path);
                let name = std::path::Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("custom")
                    .to_string();
                campaign.faults.push(CampaignFault { name, schedule });
            }
            None => {
                for (name, text) in STOCK_SCENARIOS {
                    let schedule = dsl::parse(text)
                        .unwrap_or_else(|e| panic!("embedded scenario {name}: {e}"));
                    campaign.faults.push(CampaignFault {
                        name: name.to_string(),
                        schedule,
                    });
                }
            }
        }
    }
    campaign
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn slo_rows(summary: &RunSummary) -> Vec<(String, &tamp_netsim::telemetry::HistogramSnapshot)> {
    let mut rows = vec![("all".to_string(), &summary.overall)];
    for (p, h) in summary.per_partition.iter().enumerate() {
        rows.push((format!("doc{p:02}"), h));
    }
    // Path attribution: requests that crossed a proxy hop vs those
    // answered directly. Extra rows only — the CSV header and the
    // per-partition rows above are schema-checked by CI.
    rows.push(("proxied".to_string(), &summary.proxied_latency));
    rows.push(("direct".to_string(), &summary.direct_latency));
    rows
}

fn render_slo_table(summary: &RunSummary) -> String {
    let mut t = crate::report::Table::new(
        "request SLO by doc partition (whole run, ms)",
        &["partition", "count", "p50", "p95", "p99", "p999"],
    );
    for (name, h) in slo_rows(summary) {
        t.row(vec![
            name,
            h.count.to_string(),
            ms(h.quantile(0.5)),
            ms(h.quantile(0.95)),
            ms(h.quantile(0.99)),
            ms(h.quantile(0.999)),
        ]);
    }
    t.render()
}

fn slo_csv(summary: &RunSummary) -> String {
    let mut out = String::from("partition,count,p50_ns,p95_ns,p99_ns,p999_ns\n");
    for (name, h) in slo_rows(summary) {
        out.push_str(&format!(
            "{name},{},{},{},{},{}\n",
            h.count,
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99),
            h.quantile(0.999),
        ));
    }
    out
}

fn timeline_csv(summary: &RunSummary) -> String {
    let mut out = String::from("second,completed,failed,p99_ns\n");
    for (s, cell) in summary.cells.iter().enumerate() {
        out.push_str(&format!(
            "{s},{},{},{}\n",
            cell.completed,
            cell.failed,
            cell.lat.quantile(0.99)
        ));
    }
    out
}

fn render_counters(summary: &RunSummary) -> String {
    format!(
        "issued {} | completed {} | failed {} | via-proxy {}\n\
         errors: routed-to-dead {} / timeout {} / retry-exhausted {}\n",
        summary.issued,
        summary.completed,
        summary.failed,
        summary.proxied,
        summary.errors["routed_to_dead"],
        summary.errors["timeout"],
        summary.errors["retry_exhausted"],
    )
}

fn render_outcome_line(o: &FaultOutcome) -> String {
    let s = &o.summary;
    format!(
        "  baseline {:.0} req/s | fault-window min {} req/s | dip {:.1}% | \
         p99 {} ms -> {} ms | goodput lost {} | errors rtd {} / timeout {} / exhausted {}\n",
        s.baseline_rate(),
        s.fault_min_rate(),
        s.throughput_dip_pct(),
        ms(s.baseline_p99()),
        ms(s.fault_p99()),
        s.goodput_lost(),
        s.errors["routed_to_dead"],
        s.errors["timeout"],
        s.errors["retry_exhausted"],
    )
}

fn render_campaign_report(outcomes: &[FaultOutcome]) -> String {
    let mut out = String::from("== chaos-under-load campaign ==\n");
    for o in outcomes {
        out.push_str(&format!("-- {} --\n", o.name));
        if o.resolved.is_empty() {
            out.push_str("  (no faults)\n");
        }
        for line in &o.resolved {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&render_outcome_line(o));
    }
    out
}

fn campaign_csv(outcomes: &[FaultOutcome]) -> String {
    let mut out = String::from(
        "fault,baseline_rps,fault_min_rps,dip_pct,baseline_p99_ns,fault_p99_ns,\
         goodput_lost,routed_to_dead,timeout,retry_exhausted\n",
    );
    for o in outcomes {
        let s = &o.summary;
        out.push_str(&format!(
            "{},{:.1},{},{:.1},{},{},{},{},{},{}\n",
            o.name,
            s.baseline_rate(),
            s.fault_min_rate(),
            s.throughput_dip_pct(),
            s.baseline_p99(),
            s.fault_p99(),
            s.goodput_lost(),
            s.errors["routed_to_dead"],
            s.errors["timeout"],
            s.errors["retry_exhausted"],
        ));
    }
    out
}

/// Run the workload (and campaign, if requested) and collect every
/// export as a string.
pub fn collect(args: &Args) -> Result<LoadRun, String> {
    let skew = Skew::parse(&args.skew)?;
    let cfg = scenario_config(args, skew);
    let campaign = campaign_for(args);

    let mode = if args.open { "open" } else { "closed" };
    let mut summary = format!(
        "== tamp-exp load — {} users, {} loop, skew {}, {} DCs, seed {} ==\n",
        cfg.users, mode, args.skew, args.datacenters, args.seed
    );

    let (baseline, outcomes) = if args.campaign {
        let outcomes = run_campaign(&cfg, &campaign, &Pool::new(args.jobs));
        (outcomes[0].clone(), Some(outcomes))
    } else {
        let schedule = tamp_chaos::Schedule::new(Vec::new());
        (run_one(&cfg, &schedule, &campaign), None)
    };

    summary.push_str(&render_counters(&baseline.summary));
    let nominal = cfg.workload.steady_rate();
    summary.push_str(&format!(
        "steady rate {nominal:.0} req/s nominal, {:.0} req/s measured\n",
        baseline.summary.baseline_rate()
    ));
    summary.push_str(&render_slo_table(&baseline.summary));

    let (campaign_report, campaign_csv) = match &outcomes {
        Some(outcomes) => (
            Some(render_campaign_report(outcomes)),
            Some(campaign_csv(outcomes)),
        ),
        None => (None, None),
    };

    Ok(LoadRun {
        summary,
        slo_csv: slo_csv(&baseline.summary),
        timeline_csv: timeline_csv(&baseline.summary),
        campaign_report,
        campaign_csv,
    })
}

/// Entry point for `tamp-exp load`: print the report and write the
/// canonical exports under `results/load/`. Returns the exit code: 0,
/// or 2 on bad options or when an export cannot be written.
pub fn run_and_print(args: &Args) -> i32 {
    let run = match collect(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("tamp-exp: {e}");
            return 2;
        }
    };
    print!("{}", run.summary);
    if let Some(report) = &run.campaign_report {
        println!();
        print!("{report}");
    }

    let dir = std::path::Path::new("results").join("load");
    let mut files: Vec<(&str, &String)> = vec![
        ("slo.csv", &run.slo_csv),
        ("timeline.csv", &run.timeline_csv),
    ];
    if let (Some(csv), Some(report)) = (&run.campaign_csv, &run.campaign_report) {
        files.push(("campaign.csv", csv));
        files.push(("campaign-report.txt", report));
    }
    for (name, body) in files {
        let path = dir.join(name);
        if let Err(code) = crate::report::write_export(&path, body) {
            return code;
        }
        println!("wrote {}", path.display());
    }
    0
}

/// The `tamp-exp metrics` request-SLO section: reads the exports a
/// prior `tamp-exp load` run left under `results/load/` and renders
/// per-partition p99 plus the per-fault throughput dips. Returns `None`
/// when no exports exist (metrics stays usable standalone).
pub fn slo_section() -> Option<String> {
    let dir = std::path::Path::new("results").join("load");
    let slo = std::fs::read_to_string(dir.join("slo.csv")).ok()?;
    let mut out = String::new();
    let mut t = crate::report::Table::new(
        "request SLO (from results/load/slo.csv)",
        &["partition", "count", "p99 ms", "p999 ms"],
    );
    for line in slo.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 6 {
            continue;
        }
        let p99 = f[4].parse::<u64>().unwrap_or(0);
        let p999 = f[5].parse::<u64>().unwrap_or(0);
        t.row(vec![f[0].to_string(), f[1].to_string(), ms(p99), ms(p999)]);
    }
    out.push_str(&t.render());

    if let Ok(campaign) = std::fs::read_to_string(dir.join("campaign.csv")) {
        let mut t = crate::report::Table::new(
            "throughput impact per injected fault (from results/load/campaign.csv)",
            &[
                "fault",
                "baseline req/s",
                "min req/s",
                "dip %",
                "fault p99 ms",
            ],
        );
        for line in campaign.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 10 {
                continue;
            }
            t.row(vec![
                f[0].to_string(),
                f[1].to_string(),
                f[2].to_string(),
                f[3].to_string(),
                ms(f[5].parse::<u64>().unwrap_or(0)),
            ]);
        }
        out.push_str(&t.render());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args() -> Args {
        Args {
            users: 2_000,
            datacenters: 2,
            quick: true,
            jobs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn quick_run_produces_slo_exports() {
        let run = collect(&quick_args()).unwrap();
        assert!(run.summary.contains("request SLO"));
        assert!(run.slo_csv.lines().count() > 2, "{}", run.slo_csv);
        assert!(run.timeline_csv.starts_with("second,"));
        assert!(run.campaign_report.is_none());
        // Path-attribution rows ride along without changing the schema.
        assert!(run.slo_csv.lines().any(|l| l.starts_with("proxied,")));
        assert!(run.slo_csv.lines().any(|l| l.starts_with("direct,")));
    }

    #[test]
    fn open_run_is_one_run_with_the_closed_run_exports() {
        let args = Args {
            open: true,
            ..quick_args()
        };
        let run = collect(&args).unwrap();
        assert!(run.summary.contains(", open loop,"), "{}", run.summary);
        assert!(!run.summary.contains("saturation"), "{}", run.summary);
        assert!(run.slo_csv.lines().count() > 2, "{}", run.slo_csv);
        assert!(run.timeline_csv.starts_with("second,"));
        assert!(run.campaign_report.is_none() && run.campaign_csv.is_none());
    }

    #[test]
    fn bad_skew_is_a_clean_error() {
        let args = Args {
            skew: "pareto".to_string(),
            ..quick_args()
        };
        assert!(collect(&args).is_err());
    }

    #[test]
    fn embedded_scenarios_parse() {
        for (name, text) in STOCK_SCENARIOS {
            let schedule = dsl::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!schedule.events.is_empty(), "{name} has no events");
        }
    }
}
