//! `tamp-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! tamp-exp fig2                # Fig. 2: all-to-all CPU / pps emulation
//! tamp-exp fig11               # Fig. 11: bandwidth vs cluster size
//! tamp-exp fig12               # Fig. 12: failure detection time
//! tamp-exp fig13               # Fig. 13: view convergence time
//! tamp-exp fig14               # Fig. 14: proxy failover timeline
//! tamp-exp analysis            # §4 closed-form model + BDT/BCT
//! tamp-exp ablation-group-size # A1
//! tamp-exp ablation-loss       # A2
//! tamp-exp ablation-scale      # A3
//! tamp-exp ablation-leader     # A4
//! tamp-exp ablation-suspicion  # A8
//! tamp-exp all                 # everything above
//! ```
//!
//! ```text
//! tamp-exp metrics                      # telemetry dashboard + JSONL/CSV exports
//! tamp-exp chaos                        # generated fault scenario + oracle
//! tamp-exp chaos --scenario f.chaos     # run a scenario file
//! tamp-exp chaos --sweep 20             # seeded sweep with shrinking
//! tamp-exp chaos --proxy                # multi-datacenter proxy mode
//! tamp-exp chaos --strict               # strict oracle (no excuse model)
//! tamp-exp chaos --adversarial          # gray/rack/churn/skew/router faults on a ring
//! tamp-exp chaos --broken               # demo: oracle catches MAX_LOSS=0
//! tamp-exp adversarial                  # A10: adversarial fault grid, strict oracle
//! tamp-exp baselines                    # A11: five-protocol comparison grid
//! tamp-exp chaos --protocol swim        # any subcommand: pick the protocol column
//! tamp-exp load                         # million-user workload + SLO exports
//! tamp-exp load --campaign              # chaos-under-load fault campaign
//! tamp-exp slo-gate                     # CI gate: campaign vs ci/slo-goldens.csv
//! tamp-exp slo-gate --update            # re-pin the golden numbers
//! ```
//!
//! Options: `--seed <u64>` (default 2005), `--quick` (smaller sweeps).

use tamp_chaos::Protocol;
use tamp_harness::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = String::from("all");
    let mut seed = 2005u64;
    let mut quick = false;
    let mut trials = 1usize;
    let mut topo_file: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut sweep: Option<u64> = None;
    let mut nodes: Option<usize> = None;
    let mut broken = false;
    let mut proxy = false;
    let mut adversarial = false;
    let mut chaos_trace = false;
    let mut strict = false;
    let mut users = 1_000_000u64;
    let mut skew = String::from("zipf:1.1");
    let mut datacenters = 3usize;
    let mut campaign = false;
    let mut open = false;
    let mut update = false;
    let mut protocol: Option<Protocol> = None;
    let mut jobs = tamp_par::default_jobs();
    let mut shards: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => {
                scenario = Some(
                    it.next()
                        .unwrap_or_else(|| die("--scenario needs a file path"))
                        .to_string(),
                );
            }
            "--sweep" => {
                sweep = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--sweep needs a seed count")),
                );
            }
            "--broken" => broken = true,
            "--proxy" => proxy = true,
            "--adversarial" => adversarial = true,
            "--trace" => chaos_trace = true,
            "--strict" => strict = true,
            "--users" => {
                users = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--users needs a number"));
            }
            "--skew" => {
                skew = it
                    .next()
                    .unwrap_or_else(|| die("--skew needs uniform or zipf:<s>"))
                    .to_string();
            }
            "--datacenters" => {
                datacenters = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--datacenters needs a count >= 1"));
            }
            "--protocol" => {
                let p = it.next().unwrap_or_else(|| {
                    die("--protocol needs a name (tamp, tamp-rapid, alltoall, gossip, swim)")
                });
                protocol = Some(Protocol::parse(p).unwrap_or_else(|| {
                    die(&format!(
                        "unknown protocol {p:?} (want one of {:?})",
                        tamp_chaos::PROTOCOLS
                    ))
                }));
            }
            "--campaign" => campaign = true,
            "--open" => open = true,
            "--update" => update = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--quick" => quick = true,
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a worker count >= 1"));
            }
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--shards needs a shard count (1 = sequential)")),
                );
            }
            "--nodes" => {
                nodes = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--nodes needs a number")),
                );
            }
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--trials needs a number"));
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if !other.starts_with('-') => {
                if cmd == "topo" && topo_file.is_none() {
                    topo_file = Some(other.to_string());
                } else {
                    cmd = other.to_string();
                }
            }
            other => die(&format!("unknown option {other}")),
        }
    }

    let fig2_sizes: Vec<usize> = if quick {
        vec![250, 1000, 4000]
    } else {
        fig2::PAPER_SIZES.to_vec()
    };
    let fig11_sizes: Vec<usize> = if quick {
        vec![20, 60, 100]
    } else {
        bandwidth::PAPER_SIZES.to_vec()
    };
    let analysis_sizes: Vec<usize> = vec![20, 100, 500, 1000, 4000];
    // `--protocol` narrows figure sweeps to one column; default is all
    // five (the paper's three plus swim and tamp-rapid).
    let protocols: Vec<Protocol> = match protocol {
        Some(p) => vec![p],
        None => common::FIGURE_ORDER.to_vec(),
    };

    let run = |name: &str| {
        println!("\n================================================================");
        println!("  {name}");
        println!("================================================================");
    };

    match cmd.as_str() {
        "fig2" => fig2::run_and_print(&fig2_sizes, seed),
        "fig11" => bandwidth::run_and_print(&fig11_sizes, seed, &protocols),
        "fig12" if trials > 1 => {
            detection::run_and_print_trials(&fig11_sizes, seed, trials, "fig12", &protocols)
        }
        "fig12" => detection::run_and_print(&fig11_sizes, seed, "fig12", &protocols),
        "fig13" if trials > 1 => {
            detection::run_and_print_trials(&fig11_sizes, seed, trials, "fig13", &protocols)
        }
        "fig13" => detection::run_and_print(&fig11_sizes, seed, "fig13", &protocols),
        "fig14" => fig14::run_and_print(seed),
        "analysis" => analysis_tables::run_and_print(&analysis_sizes),
        "ablation-group-size" => ablations::run_group_size(seed),
        "ablation-loss" => ablations::run_loss(seed),
        "ablation-scale" => ablations::run_scale(seed),
        "ablation-leader" => ablations::run_leader(seed),
        "ablation-piggyback" => ablations::run_piggyback(seed),
        "ablation-topology" => ablations::run_topology(seed),
        "ablation-detector" => ablations::run_detector(seed),
        "ablation-suspicion" => ablations::run_suspicion(seed, jobs),
        "trace" => trace_tool::run(seed),
        "metrics" => metrics_tool::run_and_print(if quick { 20 } else { 60 }, seed),
        "scale" => {
            let sizes: Vec<usize> = match nodes {
                Some(n) => vec![n],
                None if quick => vec![1000],
                None => scale::SWEEP_SIZES.to_vec(),
            };
            scale::run_and_print(&sizes, seed, jobs, common::sharding_from(shards));
        }
        "load" => {
            let code = load::run_and_print(&load::LoadOptions {
                seed,
                users,
                skew,
                datacenters,
                campaign,
                open,
                scenario,
                quick,
                jobs,
                sharding: common::sharding_from(shards),
            });
            std::process::exit(code);
        }
        "chaos" => {
            let code = chaos::run(&chaos::ChaosOptions {
                seed,
                scenario,
                sweep,
                broken,
                proxy,
                trace: chaos_trace,
                strict,
                adversarial,
                jobs,
                protocol,
                sharding: common::sharding_from(shards),
            });
            std::process::exit(code);
        }
        "adversarial" => {
            let code = adversarial::run_and_print(seed, quick, jobs);
            std::process::exit(code);
        }
        "baselines" => {
            let code = baselines_grid::run_and_print(seed, quick, jobs, &protocols);
            std::process::exit(code);
        }
        "slo-gate" => {
            let code = slo_gate::run_and_print(update, jobs);
            std::process::exit(code);
        }
        "topo" => {
            let path = topo_file.unwrap_or_else(|| die("usage: tamp-exp topo <file.topo>"));
            if let Err(e) = topo_tool::run(&path, seed) {
                die(&e);
            }
        }
        "all" => {
            run("Fig. 2");
            fig2::run_and_print(&fig2_sizes, seed);
            run("§4 analysis");
            analysis_tables::run_and_print(&analysis_sizes);
            run("Fig. 11");
            bandwidth::run_and_print(&fig11_sizes, seed, &protocols);
            run("Figs. 12 & 13");
            detection::run_and_print(&fig11_sizes, seed, "fig12", &protocols);
            detection::run_and_print(&fig11_sizes, seed, "fig13", &protocols);
            run("Fig. 14");
            fig14::run_and_print(seed);
            run("Ablations");
            ablations::run_group_size(seed);
            ablations::run_loss(seed);
            ablations::run_scale(seed);
            ablations::run_leader(seed);
            ablations::run_piggyback(seed);
            ablations::run_topology(seed);
            ablations::run_detector(seed);
            ablations::run_suspicion(seed, jobs);
            run("A11 baselines grid");
            let _ = baselines_grid::run_and_print(seed, quick, jobs, &protocols);
        }
        other => die(&format!("unknown command {other}; try --help")),
    }
}

fn print_help() {
    println!(
        "tamp-exp — regenerate the paper's evaluation\n\n\
         commands: fig2 fig11 fig12 fig13 fig14 analysis\n\
         \u{20}         ablation-group-size ablation-loss ablation-scale ablation-leader\n\u{20}         ablation-piggyback ablation-topology ablation-detector ablation-suspicion\n\u{20}         topo <file.topo>  trace  metrics  chaos  adversarial  baselines  scale  load\n\u{20}         slo-gate  all\n\
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
         \u{20}         --sweep <n>     sweep n seeds, shrink first failure\n\
         \u{20}         --proxy         multi-datacenter proxy deployment\n\
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

fn die(msg: &str) -> ! {
    eprintln!("tamp-exp: {msg}");
    std::process::exit(2);
}
