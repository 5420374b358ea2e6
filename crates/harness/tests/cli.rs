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
