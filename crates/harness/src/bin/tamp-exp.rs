//! `tamp-exp` — regenerate the paper's tables and figures.
//!
//! `tamp-exp --help` lists the subcommands (generated from
//! [`tamp_harness::registry::EXPERIMENTS`]; the table in the crate docs
//! says which figure each one is) and every option.

use std::str::FromStr;
use tamp_chaos::Protocol;
use tamp_harness::registry::{self, die, Args};

/// The value after a flag, parsed; `what` completes "`<flag>` needs …".
fn value<T: FromStr>(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// [`value`] for a count that must be at least 1.
fn positive(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> usize {
    match value(it, flag, what) {
        0 => die(&format!("{flag} needs {what}")),
        n => n,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = String::from("all");
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => args.scenario = Some(value(&mut it, a, "a file path")),
            "--sweep" => args.sweep = Some(value(&mut it, a, "a seed count")),
            "--broken" => args.broken = true,
            "--proxy" => args.proxy = true,
            "--adversarial" => args.adversarial = true,
            "--trace" => args.trace = true,
            "--strict" => args.strict = true,
            "--users" => args.users = value(&mut it, a, "a number"),
            "--skew" => args.skew = value(&mut it, a, "uniform or zipf:<s>"),
            "--datacenters" => args.datacenters = positive(&mut it, a, "a count >= 1"),
            "--protocol" => {
                let p: String = value(
                    &mut it,
                    a,
                    "a name (tamp, tamp-rapid, alltoall, gossip, swim)",
                );
                args.protocol = Some(Protocol::parse(&p).unwrap_or_else(|| {
                    die(&format!(
                        "unknown protocol {p:?} (want one of {:?})",
                        tamp_chaos::PROTOCOLS
                    ))
                }));
            }
            "--campaign" => args.campaign = true,
            "--open" => args.open = true,
            "--update" => args.update = true,
            "--seed" => args.seed = value(&mut it, a, "a number"),
            "--quick" => args.quick = true,
            "--jobs" => args.jobs = positive(&mut it, a, "a worker count >= 1"),
            "--shards" => {
                args.shards = Some(value(&mut it, a, "a shard count (1 = sequential)"));
            }
            "--nodes" => args.nodes = Some(value(&mut it, a, "a number")),
            "--trials" => args.trials = value(&mut it, a, "a number"),
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if !other.starts_with('-') => {
                if cmd == "topo" && args.topo_file.is_none() {
                    args.topo_file = Some(other.to_string());
                } else {
                    cmd = other.to_string();
                }
            }
            other => die(&format!("unknown option {other}")),
        }
    }
    match registry::dispatch(&cmd, &args) {
        Some(code) => std::process::exit(code),
        None => die(&format!("unknown command {cmd}; try --help")),
    }
}

fn print_help() {
    // The command list, wrapped under its label.
    let mut commands = String::new();
    let mut width = 0;
    for name in registry::names() {
        if width + name.len() > 64 {
            commands.push_str("\n         ");
            width = 0;
        }
        commands.push(' ');
        commands.push_str(name);
        width += name.len() + 1;
    }
    println!(
        "tamp-exp — regenerate the paper's evaluation\n\n\
         commands:{commands}\n\
         \u{20}         (topo takes a file: topo <file.topo>; no command means all)\n\
         options:  --seed <u64>    deterministic seed (default 2005)\n\
         \u{20}         --quick         smaller sweeps for smoke runs\n\
         \u{20}         --protocol <p>  tamp | tamp-rapid | alltoall | gossip | swim\n\
         \u{20}                         (figures/baselines: one column; chaos: the cluster)\n\
         \u{20}         --nodes <n>     scale: one run at ~n nodes (default sweep 1000/4000/10000)\n\
         \u{20}         --trials <n>    fig12/fig13: statistics over n seeds\n\
         \u{20}         --jobs <n>      worker threads for sweeps/grids (default: cores;\n\
         \u{20}                         output is byte-identical at any width)\n\
         \u{20}         --shards <n>    scale/chaos/load: split the *simulation itself* into\n\
         \u{20}                         n topology shards run concurrently (default 1 =\n\
         \u{20}                         sequential; output is byte-identical)\n\
         chaos:    --scenario <f>  run a fault-scenario DSL file\n\
         \u{20}         --sweep <n>     sweep n seeds, shrink first failure (--proxy too)\n\
         \u{20}         --proxy         two-DC proxy deployment; its generator draws\n\
         \u{20}                         kills/revives/loss over 16 hosts, no partitions\n\
         \u{20}                         (not with --adversarial or another --protocol)\n\
         \u{20}         --strict        strict oracle: no excuses, suspicion ordering\n\
         \u{20}         --adversarial   gray/rack/churn/skew/router generator on the ring\n\
         \u{20}         --broken        MAX_LOSS=0 demo (oracle must fail)\n\
         \u{20}         --trace         interleave faults with packet trace\n\
         load:     --users <n>     synthetic user population (default 1000000)\n\
         \u{20}         --skew <s>      uniform | zipf:<exponent> (default zipf:1.1)\n\
         \u{20}         --datacenters <n>  cluster spread (default 3)\n\
         \u{20}         --open          open-loop arrivals (default closed-loop)\n\
         \u{20}         --campaign      chaos-under-load: leader-death, proxy-failover,\n\
         \u{20}                         wan-partition (or --scenario <f>) while loaded\n\
         slo-gate: --update        rewrite ci/slo-goldens.csv from this run"
    );
}
