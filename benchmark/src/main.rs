//! Command line of the benchmark. `benchmark/run.sh` builds this binary
//! and passes its arguments through.
//!
//! ```text
//! run.sh [--seed 2005] [--reps 3] [--traced] [--smoke] [--out FILE]
//!     the ledger: every workload at full (or smoke) size, every metric
//!     printed as "name unit value", one JSON file written
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!     one workload at bench size for about S measured seconds; the
//!     last line of stdout is the result object BENCHMARK.json describes
//! run.sh compare PARENT.json CHANGE.json
//! run.sh manifest
//!     what BENCHMARK.json must contain, from the catalogue
//! ```

use std::process::ExitCode;
use std::time::Instant;
use tamp_benchmark::catalog::{self, Size, HOST_METRICS};
use tamp_benchmark::json::{self, Value};
use tamp_benchmark::ledger::{self, Budget, Ledger, Plan};
use tamp_benchmark::workloads::{self, Ctx};
use tamp_benchmark::{compare, host, micro};

const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..], origin),
        Some("micro") => micro_child(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Flags::parse(&args).and_then(|flags| {
            if flags.get("workload").is_some() {
                one_workload(&flags)
            } else {
                full_ledger(&flags)
            }
        }),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tamp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--switch`es.
struct Flags(Vec<(String, Option<String>)>);

const SWITCHES: [&str; 3] = ["traced", "smoke", "setup-only"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if SWITCHES.contains(&name) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not a valid number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }

    fn size(&self) -> Result<Size, String> {
        Size::parse(self.get("size").unwrap_or(""))
            .ok_or_else(|| "--size: smoke, bench or full".to_string())
    }

    fn workload(&self) -> Result<&'static str, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        catalog::workload_names()
            .into_iter()
            .find(|w| *w == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

// ------------------------------------------------------ child processes

fn child(args: &[String], origin: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.only(&[
        "workload",
        "size",
        "seed",
        "trace",
        "setup-only",
        "shard-jobs",
    ])?;
    let mut ctx = Ctx::new(
        flags.number("seed", 2005u64)?,
        flags.size()?,
        flags.number("trace", 0u8)? == 1,
        origin,
    );
    if flags.has("shard-jobs") {
        ctx.shard_jobs = Some(flags.number("shard-jobs", 0usize)?);
    }
    let out = workloads::run(flags.workload()?, ctx, flags.has("setup-only"));
    println!("{}", out.to_json().render());
    // Leave without running destructors: tearing down a ten-thousand-node
    // engine is not part of any metric, and the parent is waiting.
    std::process::exit(0);
}

fn micro_child(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["size"])?;
    let pairs = micro::run(flags.size()?)
        .into_iter()
        .map(|(k, v)| (k, Value::Num(v)));
    println!("{}", Value::Obj(pairs.collect()).render());
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------- compare

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: compare <parent.json> <change.json>".to_string());
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(parent)?, &read(change)?)?;
    let mut failed = 0;
    for r in &rows {
        println!(
            "{:<14} {:<22} {:<11} {}",
            r.workload,
            r.metric,
            r.verdict.name(),
            r.text
        );
        failed += usize::from(r.verdict.fails());
    }
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {failed} failing, {unresolved} unresolved",
        rows.len()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// -------------------------------------------------------- measurements

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn write_trace(ledger: &Ledger) -> Result<(), String> {
    if ledger.plan.traced {
        let path = format!("{OUT_DIR}/trace.json");
        write_file(&path, &ledger.trace_json().render())?;
        ledger::say(&format!("wrote {path}"));
    }
    Ok(())
}

/// First line of a command's output, or "unknown" (a checkout that is
/// not a git repository has no commit to name).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn full_ledger(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "reps", "traced", "smoke", "out"])?;
    // Two repetitions keep the whole smoke run under half a minute.
    let (size, default_reps) = if flags.has("smoke") {
        (Size::Smoke, 2usize)
    } else {
        (Size::Full, 3usize)
    };
    let reps = flags.number("reps", default_reps)?.max(1);
    let plan = Plan {
        size,
        seed: flags.number("seed", 2005u64)?,
        budget: Budget::Reps(reps),
        traced: flags.has("traced"),
        vary_seed: false,
    };
    let default_out = format!("{OUT_DIR}/ledger.json");
    let out = flags.get("out").unwrap_or(&default_out);

    let ledger = ledger::run(&catalog::workload_names(), plan);
    ledger.print();
    let host = Value::obj([
        ("cores", Value::from(host::cores() as u64)),
        ("rustc", Value::str(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("reps", Value::from(reps as u64)),
    ]);
    write_file(out, &ledger.to_json(host).render_pretty())?;
    ledger::say(&format!("wrote {out}"));
    write_trace(&ledger)?;
    Ok(if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The form `BENCHMARK.json`'s command is run in.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let workload = flags.workload()?;
    let seconds: f64 = flags.number("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds: {seconds} is outside 1..=60"));
    }
    let traced = match flags.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let plan = Plan {
        size: Size::Bench,
        seed: flags.number("seed", 2005u64)?,
        // A traced run spends half its budget on the untraced base its
        // overhead is measured against.
        budget: Budget::Seconds(if traced { seconds / 2.0 } else { seconds }),
        traced,
        // The end-to-end numbers should not hang on one seed's luck; the
        // traced run compares repetitions, so there they share the seed.
        vary_seed: !traced,
    };
    let ledger = ledger::run(&[workload], plan);
    for f in &ledger.failures {
        ledger::say(&format!("FAILED {f}"));
    }
    write_trace(&ledger)?;
    let report = &ledger.reports[0];

    let metrics: Vec<(String, Value)> = if traced {
        ledger
            .per_layer()
            .into_iter()
            .map(|(m, v)| (m.name, metric_json(v.unwrap_or(0.0), m.unit)))
            .collect()
    } else {
        let mut out = Vec::new();
        for m in &HOST_METRICS {
            let s = report
                .summary(m.name)
                .ok_or_else(|| format!("{workload}: no measurement of {}", m.name))?;
            out.push((m.name.to_string(), metric_json(s.median, m.unit)));
        }
        out
    };
    if report.runs.is_empty() {
        return Err(format!("{workload}: no repetition completed"));
    }
    let (attempted, failed) = report.attempted_failed();
    let result = Value::obj([
        ("correct", Value::from(ledger.correct())),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}
