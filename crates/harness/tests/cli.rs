//! `--protocol` is parsed once, into a typed `Protocol`, before any
//! subcommand runs: every subcommand accepts exactly the five names
//! `--help` lists and turns anything else away the same way. (The
//! figure sweeps used to accept display aliases that `chaos` then
//! rejected from a second parser.)

use std::process::Command;

fn run(cmd: &str, protocol: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
        .args([cmd, "--quick", "--protocol", protocol])
        .output()
        .expect("tamp-exp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_protocol_values_are_rejected_identically_by_fig11_and_chaos() {
    for value in ["hierarchical", "all-to-all", "rapid", "raft"] {
        let fig11 = run("fig11", value);
        assert_eq!(fig11.0, Some(2), "fig11 --protocol {value}: {}", fig11.1);
        assert!(fig11.1.contains("unknown protocol"), "{}", fig11.1);
        for name in tamp_chaos::PROTOCOLS {
            assert!(fig11.1.contains(name), "{name} not offered: {}", fig11.1);
        }
        assert_eq!(fig11, run("chaos", value), "chaos --protocol {value}");
    }
}

/// The command list `--help` prints is the registry: every registered
/// name is offered, and an unregistered one is turned away with exit 2.
#[test]
fn help_lists_every_registered_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
        .arg("--help")
        .output()
        .expect("tamp-exp runs");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("commands:"))
        .take_while(|l| !l.contains('('))
        .flat_map(|l| l.trim_start_matches("commands:").split_whitespace())
        .collect();
    let registered: Vec<&str> = tamp_harness::registry::names().collect();
    assert_eq!(listed, registered);
    let unknown = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
        .arg("fig99")
        .output()
        .expect("tamp-exp runs");
    assert_eq!(unknown.status.code(), Some(2));
}

/// An export that cannot be written is a failed run: `metrics` and
/// `load` exit 2 and name the file, the way every grid does when its
/// CSV cannot be written. Here `results/telemetry` and `results/load`
/// are regular files, so no file under them can be created.
#[test]
fn unwritable_exports_exit_2() {
    let dir = std::env::temp_dir().join(format!("tamp-cli-exports-{}", std::process::id()));
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    std::fs::write(results.join("telemetry"), "not a directory").unwrap();
    std::fs::write(results.join("load"), "not a directory").unwrap();
    for args in [
        &["metrics", "--quick"][..],
        &["load", "--quick", "--users", "2000", "--datacenters", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("tamp-exp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("tamp-exp: cannot write results/"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exit code and stdout of one `tamp-exp` invocation.
fn tamp_exp(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
        .args(args)
        .output()
        .expect("tamp-exp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

/// The lines under the report heading that starts with `heading`
/// (indented deeper than it), trimmed.
fn section(report: &str, heading: &str) -> Vec<String> {
    let mut lines = report.lines();
    let Some(head) = lines.find(|l| l.trim_start().starts_with(heading)) else {
        return Vec::new();
    };
    let indent = |l: &str| l.len() - l.trim_start().len();
    let depth = indent(head);
    lines
        .take_while(|l| indent(l) > depth)
        .map(|l| l.trim().to_string())
        .collect()
}

/// `chaos --proxy --seed S` runs the schedule seed S runs in
/// `--proxy --sweep`, and the proxy sweep shrinks like every other.
/// Strict proxy seed 2008 is a red seed on record (docs/ROBUSTNESS.md):
/// the sweep over 2005..2024 fails there with five survivors dropping
/// live node 10 inside a loss burst, and the single run must report the
/// same resolved actions and violations.
#[test]
fn proxy_single_run_replays_its_sweep_seed() {
    let (code, single) = tamp_exp(&["chaos", "--strict", "--proxy", "--seed", "2008"]);
    assert_eq!(code, Some(1), "{single}");
    assert_eq!(
        section(&single, "resolved:"),
        [
            "at 11s kill host 9",
            "at 66s kill host 4",
            "at 66s revive skipped (already alive)",
            "at 77s loss 0.64 for 8s",
        ],
        "{single}"
    );
    let violations = section(&single, "violations:");
    assert_eq!(violations.len(), 5, "{single}");
    assert!(
        violations
            .iter()
            .all(|v| v.starts_with("- false removal:") && v.contains("dropped live node 10")),
        "{single}"
    );

    let (code, sweep) = tamp_exp(&[
        "chaos", "--strict", "--proxy", "--seed", "2008", "--sweep", "1",
    ]);
    assert_eq!(code, Some(1), "{sweep}");
    assert!(
        sweep.starts_with("== tamp-chaos sweep: 0/1 seeds passed ==\n  seed 2008: FAIL\n"),
        "{sweep}"
    );
    assert!(sweep.contains("first failure at seed 2008 (4 events, shrunk to 3)"));
    // The shrunk repro keeps three of the single run's four events and
    // fails the same way.
    let full = section(&single, "schedule:");
    let shrunk = section(&sweep, "schedule:");
    assert_eq!(shrunk.len(), 4, "settle + three events: {sweep}");
    assert!(shrunk.iter().all(|l| full.contains(l)), "{sweep}");
    assert_eq!(section(&sweep, "violations:"), violations);
}

/// The two-DC fabric has no router ring, so the adversarial generator
/// has nothing to run on: `--proxy --adversarial` is turned away like
/// `--proxy --protocol swim`, single run and sweep alike.
#[test]
fn proxy_rejects_adversarial() {
    for extra in [&[][..], &["--sweep", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tamp-exp"))
            .args(["chaos", "--proxy", "--adversarial"])
            .args(extra)
            .output()
            .expect("tamp-exp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.starts_with("tamp-exp: --proxy"), "{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: nothing runs");
    }
}
