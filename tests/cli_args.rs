//! The `tamp-exp` command line is one table, `registry::FLAGS`:
//! `Args::parse` and `--help` both read it. Every row must reach its
//! `Args` field, a count must be at least 1, and the diagnostics for a
//! bad command line keep their wording.

use tamp_harness::registry::{self, Args, FLAGS, HELP};

fn parse(argv: &[&str]) -> Result<(String, Args), String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    Args::parse(&argv)
}

fn args(argv: &[&str]) -> Args {
    parse(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}")).1
}

fn error(argv: &[&str]) -> String {
    match parse(argv) {
        Ok(_) => panic!("{argv:?} was accepted"),
        Err(e) => e,
    }
}

/// One check per flag: a command line that sets it, and the field it
/// must reach. The list names every `FLAGS` row, so a new flag needs a
/// line here.
type Reach = (&'static str, Option<&'static str>, fn(&Args) -> bool);

const REACHES: &[Reach] = &[
    ("--seed", Some("7"), |a| a.seed == 7),
    ("--quick", None, |a| a.quick),
    ("--protocol", Some("swim"), |a| {
        a.protocol == tamp_chaos::Protocol::parse("swim")
    }),
    ("--nodes", Some("1200"), |a| a.nodes == Some(1200)),
    ("--trials", Some("3"), |a| a.trials == 3),
    ("--jobs", Some("97"), |a| a.jobs == 97),
    ("--shards", Some("4"), |a| a.shards == Some(4)),
    ("--scenario", Some("f.chaos"), |a| {
        a.scenario.as_deref() == Some("f.chaos")
    }),
    ("--sweep", Some("20"), |a| a.sweep == Some(20)),
    ("--proxy", None, |a| a.proxy),
    ("--strict", None, |a| a.strict),
    ("--adversarial", None, |a| a.adversarial),
    ("--broken", None, |a| a.broken),
    ("--trace", None, |a| a.trace),
    ("--users", Some("8000"), |a| a.users == 8000),
    ("--skew", Some("uniform"), |a| a.skew == "uniform"),
    ("--datacenters", Some("2"), |a| a.datacenters == 2),
    ("--open", None, |a| a.open),
    ("--campaign", None, |a| a.campaign),
    ("--update", None, |a| a.update),
];

#[test]
fn every_flag_reaches_its_field() {
    let listed: Vec<&str> = REACHES.iter().map(|r| r.0).collect();
    let table: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
    assert_eq!(listed, table, "one check per FLAGS row, in table order");
    for (name, value, reached) in REACHES {
        let mut argv = vec!["chaos", name];
        argv.extend(value);
        let parsed = args(&argv);
        assert!(reached(&parsed), "{argv:?} did not reach its field");
        assert!(
            !reached(&Args::default()),
            "{name}: the default already reads so"
        );
    }
}

#[test]
fn sweep_needs_at_least_one_seed() {
    assert_eq!(
        error(&["chaos", "--strict", "--sweep", "0"]),
        "--sweep needs a seed count >= 1"
    );
    assert_eq!(
        error(&["chaos", "--broken", "--sweep", "0"]),
        "--sweep needs a seed count >= 1"
    );
    assert_eq!(args(&["chaos", "--sweep", "1"]).sweep, Some(1));
}

#[test]
fn bad_command_lines_keep_their_diagnostics() {
    assert_eq!(error(&["--bogus"]), "unknown option --bogus");
    assert_eq!(error(&["fig11", "-x"]), "unknown option -x");
    assert_eq!(error(&["--seed"]), "--seed needs a number");
    assert_eq!(error(&["--seed", "banana"]), "--seed needs a number");
    assert_eq!(
        error(&["load", "--skew"]),
        "--skew needs uniform or zipf:<s>"
    );
    assert_eq!(error(&["--scenario"]), "--scenario needs a file path");
    assert_eq!(
        error(&["--datacenters", "0"]),
        "--datacenters needs a count >= 1"
    );
    assert_eq!(error(&["--jobs", "0"]), "--jobs needs a worker count >= 1");
    assert_eq!(
        error(&["load", "--quick", "--users", "0", "--datacenters", "2"]),
        "--users needs a count >= 1"
    );
    assert_eq!(
        error(&["fig12", "--quick", "--trials", "0"]),
        "--trials needs a count >= 1"
    );
    assert_eq!(
        error(&["scale", "--nodes", "0"]),
        "--nodes needs a count >= 1"
    );
    assert_eq!(
        error(&["--shards", "x"]),
        "--shards needs a shard count (1 = sequential)"
    );
    assert_eq!(
        error(&["--protocol"]),
        "--protocol needs a name (tamp, tamp-rapid, alltoall, gossip, swim)"
    );
    assert_eq!(
        error(&["--protocol", "raft"]),
        format!(
            "unknown protocol \"raft\" (want one of {:?})",
            tamp_chaos::PROTOCOLS
        )
    );
}

#[test]
fn commands_and_the_topo_file() {
    let (cmd, a) = parse(&[]).unwrap();
    assert_eq!(cmd, "all");
    assert!(a.topo_file.is_none());
    let (cmd, a) = parse(&["topo", "fabric.topo", "--seed", "3"]).unwrap();
    assert_eq!(cmd, "topo");
    assert_eq!(a.topo_file.as_deref(), Some("fabric.topo"));
    assert_eq!(a.seed, 3);
    // Outside `topo` a second word is the command.
    let (cmd, a) = parse(&["fig11", "fig12"]).unwrap();
    assert_eq!(cmd, "fig12");
    assert!(a.topo_file.is_none());
    // `--help` ends the parse, wherever it stands.
    for argv in [&["--help"][..], &["-h"], &["fig99", "--help", "--bogus"]] {
        assert_eq!(parse(argv).unwrap().0, HELP, "{argv:?}");
    }
    assert_eq!(error(&["--bogus", "--help"]), "unknown option --bogus");
}

#[test]
fn help_names_every_flag_and_command() {
    let help = registry::help();
    for f in FLAGS {
        let usage = format!("{} {}", f.name, f.metavar);
        assert!(
            help.contains(usage.trim_end()),
            "{} missing:\n{help}",
            f.name
        );
        for line in f.help {
            assert!(help.contains(line), "{}: {line:?} missing:\n{help}", f.name);
        }
    }
    for name in registry::names() {
        assert!(
            help.split_whitespace().any(|w| w == name),
            "{name} missing:\n{help}"
        );
    }
}
