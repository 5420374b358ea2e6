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
