//! `tamp-exp chaos` — drive the fault-injection subsystem from the
//! command line: run one scenario (from a DSL file or generated from the
//! seed), sweep many seeds, exercise the multi-datacenter proxy mode, or
//! demonstrate the oracle catching a broken configuration.

use crate::common::{chaos_trace_config, scenario_schedule};
use tamp_chaos::{
    adversarial_schedule, adversarial_sweep_on, random_schedule, run_proxy_scenario, run_scenario,
    seed_range, sweep_on, AdversarialConfig, GeneratorConfig, Protocol, ProxyScenarioConfig,
    ScenarioConfig, Schedule,
};
use tamp_membership::MembershipConfig;
use tamp_netsim::ShardingKind;
use tamp_par::Pool;

/// Options for the `chaos` subcommand.
pub struct ChaosOptions {
    pub seed: u64,
    /// Path to a scenario DSL file; `None` generates one from the seed.
    pub scenario: Option<String>,
    /// Sweep this many consecutive seeds instead of one scenario.
    pub sweep: Option<u64>,
    /// Use the intentionally broken configuration (`MAX_LOSS = 0`, a
    /// detection timeout shorter than the heartbeat period) to show the
    /// oracle failing and shrinking.
    pub broken: bool,
    /// Run the multi-datacenter proxy deployment instead.
    pub proxy: bool,
    /// Print the packet/fault trace timeline around each injected fault.
    pub trace: bool,
    /// Judge with the strict oracle: no loss or repair-window excuses;
    /// removals must follow the suspicion state machine.
    pub strict: bool,
    /// Generate from the adversarial profile instead of the classic one:
    /// the five production fault classes (gray partitions, rack failure,
    /// churn storms, clock skew, router loss) on the router-ring fabric.
    pub adversarial: bool,
    /// Worker threads for sweeps (`--jobs`; 1 = sequential). Output is
    /// byte-identical at any width.
    pub jobs: usize,
    /// Which protocol the cluster runs (`--protocol`); `None` keeps the
    /// default (tamp). A schedule's own `protocol` directive still wins.
    pub protocol: Option<Protocol>,
    /// Engine sharding (`--shards`): run the simulation itself split
    /// across topology shards. Byte-identical output at any setting.
    pub sharding: ShardingKind,
}

fn membership(broken: bool) -> MembershipConfig {
    if broken {
        MembershipConfig {
            max_loss: 0,
            ..Default::default()
        }
    } else {
        MembershipConfig::default()
    }
}

fn scenario_config(seed: u64, opts: &ChaosOptions) -> ScenarioConfig {
    // Adversarial runs live on the router ring (a schedule-carried
    // topology overrides this anyway; the base keeps single runs of
    // hand-written schedules on the right fabric too).
    let mut cfg = if opts.adversarial {
        ScenarioConfig::ring(4, 2, seed)
    } else {
        ScenarioConfig::two_segments(seed)
    };
    cfg.membership = membership(opts.broken);
    cfg.strict = opts.strict;
    cfg.engine.sharding = opts.sharding;
    if let Some(p) = opts.protocol {
        cfg.protocol = p;
    }
    if opts.trace {
        cfg.engine.trace = chaos_trace_config();
    }
    cfg
}

/// Entry point for `tamp-exp chaos`. Returns process exit code: 0 when
/// every oracle invariant held, 1 otherwise.
pub fn run(opts: &ChaosOptions) -> i32 {
    if opts.broken {
        println!("(broken config: MAX_LOSS = 0 — detection timeout < heartbeat period)\n");
    }
    if opts.proxy && opts.protocol.is_some_and(|p| p != Protocol::Tamp) {
        eprintln!("tamp-exp: --proxy deployments are hierarchical-only (--protocol tamp)");
        return 2;
    }
    if let Some(count) = opts.sweep {
        if opts.proxy {
            return proxy_sweep(opts, count);
        }
        let pool = Pool::new(opts.jobs);
        let report = if opts.adversarial {
            adversarial_sweep_on(
                &pool,
                opts.seed,
                count,
                &AdversarialConfig::default(),
                |seed| scenario_config(seed, opts),
            )
        } else {
            sweep_on(
                &pool,
                opts.seed,
                count,
                &GeneratorConfig::default(),
                |seed| scenario_config(seed, opts),
            )
        };
        print!("{}", report.report());
        return if report.passed() { 0 } else { 1 };
    }
    if opts.proxy {
        let mut cfg = ProxyScenarioConfig {
            membership: membership(opts.broken),
            strict: opts.strict,
            ..ProxyScenarioConfig::two_dcs(opts.seed)
        };
        cfg.engine.sharding = opts.sharding;
        if opts.trace {
            cfg.engine.trace = chaos_trace_config();
        }
        let schedule = load_schedule(opts);
        let run = run_proxy_scenario(&cfg, &schedule);
        print!("{}", run.report());
        if opts.trace {
            println!("\ntrace timeline (faults interleaved with control traffic):");
            crate::trace_tool::print_chaos_trace(&run.trace);
        }
        return if run.passed() { 0 } else { 1 };
    }

    let cfg = scenario_config(opts.seed, opts);
    let schedule = load_schedule(opts);
    let run = run_scenario(&cfg, &schedule);
    print!("{}", run.report());
    if opts.trace {
        println!("\ntrace timeline (faults interleaved with control traffic):");
        crate::trace_tool::print_chaos_trace(&run.trace);
    }
    if run.passed() {
        0
    } else {
        1
    }
}

/// Seeded sweep over the multi-datacenter deployment. Schedules stick
/// to kill/revive/loss faults: WAN partitions park the proxy-consistency
/// checks by design (they are skipped while severed), so partition
/// events would only dilute the sweep. Stops at the first failure (no
/// shrinking — the shrinker is single-cluster only).
///
/// Runs execute across the pool but all printing happens here, in seed
/// order, as verdicts are consumed — so the output is byte-identical to
/// `--jobs 1`, including which seed is reported as the first failure.
fn proxy_sweep(opts: &ChaosOptions, count: u64) -> i32 {
    let gen_cfg = GeneratorConfig {
        num_hosts: 16,
        num_segments: 1, // suppress partition generation
        ..GeneratorConfig::default()
    };
    let seeds: Vec<u64> = seed_range(opts.seed, count).collect();
    let mut passed = 0u64;
    let mut failed = false;
    Pool::new(opts.jobs).ordered_scan(
        seeds.len(),
        |i| {
            let seed = seeds[i];
            let mut cfg = ProxyScenarioConfig {
                membership: membership(opts.broken),
                strict: opts.strict,
                ..ProxyScenarioConfig::two_dcs(seed)
            };
            cfg.engine.sharding = opts.sharding;
            let schedule = random_schedule(seed, &gen_cfg);
            run_proxy_scenario(&cfg, &schedule)
        },
        |i, run| {
            let seed = seeds[i];
            if run.passed() {
                passed += 1;
                println!("  seed {seed}: pass");
                std::ops::ControlFlow::Continue(())
            } else {
                println!("  seed {seed}: FAIL");
                print!("{}", run.report());
                println!(
                    "== tamp-chaos proxy sweep: {passed}/{} seeds passed before first failure ==",
                    i as u64 + 1
                );
                failed = true;
                std::ops::ControlFlow::Break(())
            }
        },
    );
    if failed {
        return 1;
    }
    println!(
        "== tamp-chaos proxy sweep: {passed}/{} seeds passed ==",
        seeds.len()
    );
    0
}

fn load_schedule(opts: &ChaosOptions) -> Schedule {
    if opts.adversarial && opts.scenario.is_none() {
        return adversarial_schedule(opts.seed, &AdversarialConfig::default());
    }
    scenario_schedule(
        opts.scenario.as_deref(),
        opts.seed,
        &GeneratorConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generated scenario from `seed`, lax oracle, every switch off.
    fn single_run(seed: u64) -> ChaosOptions {
        ChaosOptions {
            seed,
            scenario: None,
            sweep: None,
            broken: false,
            proxy: false,
            trace: false,
            strict: false,
            adversarial: false,
            jobs: 1,
            sharding: ShardingKind::Sequential,
            protocol: None,
        }
    }

    #[test]
    fn generated_single_run_passes_and_exits_zero() {
        assert_eq!(run(&single_run(4)), 0);
    }

    #[test]
    fn strict_single_run_passes_with_suspicion_on() {
        let opts = ChaosOptions {
            strict: true,
            ..single_run(4)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn adversarial_single_run_passes_strict() {
        let opts = ChaosOptions {
            strict: true,
            adversarial: true,
            ..single_run(11)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn swim_scenario_file_passes_strict() {
        let opts = ChaosOptions {
            scenario: Some(
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../scenarios/swim-restart.chaos"
                )
                .to_string(),
            ),
            strict: true,
            ..single_run(4)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn protocol_flag_reaches_the_runner() {
        // tamp-rapid via the flag (no directive in the generated
        // schedule) must run the cut-detection discipline end to end.
        let opts = ChaosOptions {
            strict: true,
            protocol: Some(Protocol::TampRapid),
            ..single_run(4)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn broken_config_exits_nonzero() {
        let opts = ChaosOptions {
            sweep: Some(1),
            broken: true,
            ..single_run(4)
        };
        assert_eq!(run(&opts), 1);
    }
}
