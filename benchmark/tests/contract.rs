//! The benchmark's contract with the outside: `BENCHMARK.json` says what
//! the catalogue says, and the binary emits exactly the names it lists —
//! in the ledger form (`--smoke`) and in the one-workload form the
//! `BENCHMARK.json` command is run in.
//!
//! The tests that run the binary need an optimised build (a debug smoke
//! run takes minutes): `cargo test --release`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use tamp_benchmark::catalog;
use tamp_benchmark::json::{self, Value};
use tamp_benchmark::trace;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn manifest_file() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Value, list: &str) -> BTreeSet<String> {
    manifest
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Run the built binary from the repo root; returns stdout.
fn run_benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tamp-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "tamp-benchmark {args:?} ended with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn benchmark_json_is_what_the_catalogue_says() {
    let file = manifest_file();
    assert_eq!(
        file,
        catalog::manifest(),
        "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest`"
    );
    let keys: Vec<&str> = file
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!((2..=8).contains(&names(&file, "workloads").len()));
    assert!((1..=16).contains(&names(&file, "end_to_end").len()));
    assert!((1..=128).contains(&names(&file, "per_layer").len()));
    // The driver makes 4 + 22 × workloads runs inside 3420 s, builds
    // included. A run is the measured seconds plus set-ups, the last
    // repetition's overshoot and (a9_shards) the sequential reference,
    // 3–5 s more on the sizing host; the traced a9_shards run adds one
    // two-worker repetition, 8 s more in all. Allow 10.
    let runs = 4 + 22 * names(&file, "workloads").len() as u64;
    assert!(runs * (catalog::RUN_SECONDS + 10) + 300 <= 3420);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: runs every workload at smoke size"
)]
fn smoke_ledger_emits_every_listed_name_and_no_other() {
    let stdout = run_benchmark(&[
        "--smoke",
        "--traced",
        "--reps",
        "1",
        "--out",
        "benchmark/out/test-smoke.json",
    ]);
    assert!(
        !stdout.contains("FAILED"),
        "smoke run failed checks:\n{stdout}"
    );

    // Lines are "<workload> <metric> <unit> <value…>" and
    // "layer <metric> <unit> <value>".
    let workloads = names(&manifest_file(), "workloads");
    let (mut end_to_end, mut layers) = (BTreeSet::new(), BTreeSet::new());
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match (words.next(), words.next()) {
            (Some("layer"), Some(metric)) => {
                layers.insert(metric.to_string());
            }
            (Some(w), Some(metric)) if workloads.contains(w) => {
                end_to_end.insert(metric.to_string());
            }
            _ => panic!("unexpected output line {line:?}"),
        }
    }
    // The exact simulated metrics print per workload in the ledger and
    // sit in `per_layer` in BENCHMARK.json (see README); together the two
    // forms name the same set.
    let file = manifest_file();
    let listed: BTreeSet<String> = names(&file, "end_to_end")
        .union(&names(&file, "per_layer"))
        .cloned()
        .collect();
    let emitted: BTreeSet<String> = end_to_end.union(&layers).cloned().collect();
    assert_eq!(emitted, listed);

    // The ledger and the trace it wrote are well formed.
    let read =
        |p: &str| json::parse(&std::fs::read_to_string(repo_root().join(p)).expect(p)).expect(p);
    let ledger = read("benchmark/out/test-smoke.json");
    assert_eq!(ledger.get("correct"), Some(&Value::Bool(true)));
    let spans = read("benchmark/out/trace.json");
    let spans = spans.as_arr().expect("an array of spans");
    assert!(spans.len() > 20);
    for s in spans {
        assert!(workloads.contains(s.get("workload").and_then(Value::as_str).unwrap()));
    }
    let plain = trace::spans_from_json(&Value::Arr(spans.to_vec())).expect("span fields");
    trace::check_nesting(&plain).expect("child spans lie inside their parents");
    for (span, own) in plain.iter().zip(trace::self_times_ns(&plain)) {
        assert!(own <= span.duration_ns());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: runs a workload at bench size"
)]
fn one_workload_form_prints_the_result_object() {
    let file = manifest_file();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run_benchmark(&[
            "--workload",
            "chaos_mix",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let result = json::parse(stdout.lines().last().expect("a last line"))
            .expect("the last line is JSON");
        let keys: Vec<&str> = result
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
        let got: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names(&file, list), "--trace {trace}");
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
            if list == "end_to_end" {
                assert!(
                    m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                    "{name}"
                );
            }
        }
    }
}
