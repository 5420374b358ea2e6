//! `tamp-exp slo-gate` — the SLO-regression gate for CI.
//!
//! Replays the chaos-under-load campaign in the exact configuration the
//! `load-smoke` CI job uses (quick, 8 000 users, 2 datacenters, seed
//! 2005) and compares the per-fault outcome columns against the golden
//! numbers checked in at `ci/slo-goldens.csv`. The simulation is
//! deterministic, so the numbers only move when the code's behavior
//! moves; the tolerances below separate benign drift (a retuned timer,
//! an extra control message) from a real SLO regression (throughput
//! dip deepens, fault-window p99 jumps a latency bucket, error counts
//! blow up).
//!
//! `--update` rewrites the golden from the current run — do that
//! deliberately, in the same change that explains *why* the numbers
//! moved.

use crate::load::collect;
use crate::registry::Args;

/// Golden file path, relative to the repo root (CI's working dir).
pub const GOLDEN_PATH: &str = "ci/slo-goldens.csv";

/// Relative tolerance on the baseline completion rate.
const RATE_REL_TOL: f64 = 0.10;
/// Relative tolerance on the worst fault-window second; the absolute
/// slack keeps small numbers (a near-total dip) from tripping on ±1.
const MIN_RATE_REL_TOL: f64 = 0.25;
const MIN_RATE_ABS_TOL: f64 = 10.0;
/// Absolute tolerance, in percentage points, on the throughput dip.
const DIP_ABS_TOL: f64 = 10.0;
/// Latency histograms bucket by powers of two, so quantiles move in 2×
/// steps: allow less than one full bucket of drift.
const P99_FACTOR: f64 = 2.0;

/// One parsed campaign.csv row (the columns the gate checks).
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    pub fault: String,
    pub baseline_rps: f64,
    pub fault_min_rps: f64,
    pub dip_pct: f64,
    pub fault_p99_ns: f64,
    pub timeouts: f64,
    pub retry_exhausted: f64,
}

/// Parse `campaign.csv` text (header + 10-field rows) into gate rows.
pub fn parse_campaign_csv(text: &str) -> Result<Vec<GateRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 10 {
            return Err(format!("malformed campaign row: {line}"));
        }
        let num = |i: usize| -> Result<f64, String> {
            f[i].trim()
                .parse::<f64>()
                .map_err(|e| format!("column {i} of {line}: {e}"))
        };
        rows.push(GateRow {
            fault: f[0].to_string(),
            baseline_rps: num(1)?,
            fault_min_rps: num(2)?,
            dip_pct: num(3)?,
            fault_p99_ns: num(5)?,
            timeouts: num(8)?,
            retry_exhausted: num(9)?,
        });
    }
    if rows.is_empty() {
        return Err("campaign csv has no data rows".to_string());
    }
    Ok(rows)
}

fn rel_within(actual: f64, golden: f64, tol: f64) -> bool {
    if golden == 0.0 {
        return actual == 0.0;
    }
    ((actual - golden) / golden).abs() <= tol
}

fn within_factor(actual: f64, golden: f64, factor: f64) -> bool {
    if actual == 0.0 && golden == 0.0 {
        return true;
    }
    if actual <= 0.0 || golden <= 0.0 {
        return false;
    }
    let ratio = actual / golden;
    (1.0 / factor..=factor).contains(&ratio)
}

/// Compare a fresh campaign against the golden. Returns one human
/// readable breach description per violated tolerance.
pub fn compare(actual: &[GateRow], golden: &[GateRow]) -> Vec<String> {
    let mut breaches = Vec::new();
    for g in golden {
        let Some(a) = actual.iter().find(|a| a.fault == g.fault) else {
            breaches.push(format!("{}: fault missing from this run", g.fault));
            continue;
        };
        if !rel_within(a.baseline_rps, g.baseline_rps, RATE_REL_TOL) {
            breaches.push(format!(
                "{}: baseline rate {:.1} req/s vs golden {:.1} (±{:.0}%)",
                g.fault,
                a.baseline_rps,
                g.baseline_rps,
                RATE_REL_TOL * 100.0
            ));
        }
        if !rel_within(a.fault_min_rps, g.fault_min_rps, MIN_RATE_REL_TOL)
            && (a.fault_min_rps - g.fault_min_rps).abs() > MIN_RATE_ABS_TOL
        {
            breaches.push(format!(
                "{}: fault-window min {:.0} req/s vs golden {:.0}",
                g.fault, a.fault_min_rps, g.fault_min_rps
            ));
        }
        if (a.dip_pct - g.dip_pct).abs() > DIP_ABS_TOL {
            breaches.push(format!(
                "{}: throughput dip {:.1}% vs golden {:.1}% (±{:.0} pts)",
                g.fault, a.dip_pct, g.dip_pct, DIP_ABS_TOL
            ));
        }
        if !within_factor(a.fault_p99_ns, g.fault_p99_ns, P99_FACTOR) {
            breaches.push(format!(
                "{}: fault-window p99 {:.3} ms vs golden {:.3} ms (>{P99_FACTOR}x)",
                g.fault,
                a.fault_p99_ns / 1e6,
                g.fault_p99_ns / 1e6
            ));
        }
        // Error budgets only gate on growth — fewer errors is progress.
        for (name, actual_n, golden_n) in [
            ("timeouts", a.timeouts, g.timeouts),
            ("retry-exhausted", a.retry_exhausted, g.retry_exhausted),
        ] {
            if actual_n > 2.0 * golden_n + 50.0 {
                breaches.push(format!(
                    "{}: {name} grew to {actual_n:.0} vs golden {golden_n:.0}",
                    g.fault
                ));
            }
        }
    }
    for a in actual {
        if !golden.iter().any(|g| g.fault == a.fault) {
            breaches.push(format!(
                "{}: fault not in golden — regenerate with --update",
                a.fault
            ));
        }
    }
    breaches
}

/// The CI campaign configuration this gate pins (must stay in lockstep
/// with the `load-smoke` job so the golden numbers mean one thing). Of
/// the command line only `--jobs` carries over.
fn gate_args(jobs: usize) -> Args {
    Args {
        seed: 2005,
        users: 8_000,
        datacenters: 2,
        campaign: true,
        quick: true,
        jobs,
        ..Args::default()
    }
}

/// Entry point for `tamp-exp slo-gate` (`--update` rewrites the golden).
/// Returns the process exit code.
pub fn run_and_print(args: &Args) -> i32 {
    println!("== tamp-exp slo-gate — chaos-under-load campaign vs {GOLDEN_PATH} ==");
    let run = match collect(&gate_args(args.jobs)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("tamp-exp: {e}");
            return 2;
        }
    };
    let csv = run.campaign_csv.expect("campaign option set");

    if args.update {
        if let Err(code) = crate::report::write_export(std::path::Path::new(GOLDEN_PATH), &csv) {
            return code;
        }
        println!("wrote {GOLDEN_PATH}");
        return 0;
    }

    let golden_text = match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "tamp-exp: cannot read {GOLDEN_PATH}: {e} (run `tamp-exp slo-gate --update`)"
            );
            return 2;
        }
    };
    let (actual, golden) = match (parse_campaign_csv(&csv), parse_campaign_csv(&golden_text)) {
        (Ok(a), Ok(g)) => (a, g),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("tamp-exp: {e}");
            return 2;
        }
    };

    let mut t = crate::report::Table::new(
        "per-fault SLO vs golden",
        &[
            "fault",
            "base req/s",
            "dip %",
            "fault p99 ms",
            "golden p99 ms",
        ],
    );
    for a in &actual {
        let gp99 = golden
            .iter()
            .find(|g| g.fault == a.fault)
            .map(|g| format!("{:.3}", g.fault_p99_ns / 1e6))
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            a.fault.clone(),
            format!("{:.1}", a.baseline_rps),
            format!("{:.1}", a.dip_pct),
            format!("{:.3}", a.fault_p99_ns / 1e6),
            gp99,
        ]);
    }
    print!("{}", t.render());

    let breaches = compare(&actual, &golden);
    if breaches.is_empty() {
        println!("slo-gate: PASS ({} faults within tolerance)", golden.len());
        0
    } else {
        for b in &breaches {
            println!("slo-gate: BREACH {b}");
        }
        println!(
            "slo-gate: FAIL ({} breaches) — if intentional, regenerate with `tamp-exp slo-gate --update`",
            breaches.len()
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "fault,baseline_rps,fault_min_rps,dip_pct,baseline_p99_ns,fault_p99_ns,\
         goodput_lost,routed_to_dead,timeout,retry_exhausted\n\
         baseline,400.0,380,2.0,2000000,2100000,0,0,0,0\n\
         leader-death,400.0,200,50.0,2000000,8000000,900,12,30,4\n";

    #[test]
    fn identical_runs_pass() {
        let g = parse_campaign_csv(GOLDEN).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[1].fault, "leader-death");
        assert!(compare(&g, &g).is_empty());
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let g = parse_campaign_csv(GOLDEN).unwrap();
        let mut a = g.clone();
        a[1].baseline_rps *= 1.05; // +5% rate
        a[1].dip_pct += 8.0; // +8 points
        a[1].fault_p99_ns *= 1.8; // inside one bucket
        a[1].timeouts = 60.0; // under 2x + 50
        assert_eq!(compare(&a, &g), Vec::<String>::new());
    }

    #[test]
    fn regressions_breach() {
        let g = parse_campaign_csv(GOLDEN).unwrap();

        let mut a = g.clone();
        a[1].dip_pct += 15.0;
        assert_eq!(compare(&a, &g).len(), 1, "deeper dip must breach");

        let mut a = g.clone();
        a[1].fault_p99_ns *= 4.0;
        assert_eq!(compare(&a, &g).len(), 1, "p99 bucket jump must breach");

        let mut a = g.clone();
        a[1].timeouts = 200.0;
        assert_eq!(compare(&a, &g).len(), 1, "timeout growth must breach");

        let a = vec![g[0].clone()];
        assert_eq!(compare(&a, &g).len(), 1, "missing fault must breach");
    }

    #[test]
    fn malformed_csv_is_an_error() {
        assert!(parse_campaign_csv("header\nonly,three,fields\n").is_err());
        assert!(parse_campaign_csv("header\n").is_err());
    }
}
