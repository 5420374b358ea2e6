//! `tamp-exp chaos` — drive the fault-injection subsystem from the
//! command line: run one scenario (from a DSL file or generated from the
//! seed), sweep many seeds, exercise the multi-datacenter proxy mode, or
//! demonstrate the oracle catching a broken configuration.
//!
//! Both deployments share one path: `--proxy` picks the two-DC runner
//! and its generator, and single runs, `--scenario`, `--trace` and
//! `--sweep` work the same either way.

use crate::common::{chaos_trace_config, read_scenario, sharding_from};
use crate::registry::Args;
use tamp_chaos::{
    adversarial_schedule, random_schedule, run_proxy_scenario, run_scenario, seed_range, sweep,
    AdversarialConfig, GeneratorConfig, Protocol, ScenarioConfig, ScenarioRun, Schedule,
};
use tamp_membership::MembershipConfig;
use tamp_par::Pool;

/// The `--proxy` generator: the two-DC deployment's 16 hosts, and one
/// segment so no partition is drawn — WAN partitions park the
/// proxy-consistency checks by design (they are skipped while severed),
/// so partition events would only dilute a sweep.
fn proxy_generator() -> GeneratorConfig {
    GeneratorConfig {
        num_hosts: 16,
        num_segments: 1,
        ..GeneratorConfig::default()
    }
}

fn scenario_config(seed: u64, args: &Args) -> ScenarioConfig {
    // Adversarial runs live on the router ring (a schedule-carried
    // topology overrides this anyway; the base keeps single runs of
    // hand-written schedules on the right fabric too).
    let mut cfg = if args.adversarial {
        ScenarioConfig::ring(4, 2, seed)
    } else {
        ScenarioConfig::two_segments(seed)
    };
    if args.broken {
        // MAX_LOSS = 0: a detection timeout shorter than the heartbeat
        // period, to show the oracle failing and shrinking.
        cfg.membership = MembershipConfig {
            max_loss: 0,
            ..Default::default()
        };
    }
    cfg.strict = args.strict;
    cfg.engine.sharding = sharding_from(args.shards);
    if let Some(p) = args.protocol {
        cfg.protocol = p;
    }
    if args.trace {
        cfg.engine.trace = chaos_trace_config();
    }
    cfg
}

/// The schedule seed `seed` draws: the proxy, adversarial or classic
/// generator.
fn generated(seed: u64, args: &Args) -> Schedule {
    if args.proxy {
        random_schedule(seed, &proxy_generator())
    } else if args.adversarial {
        adversarial_schedule(seed, &AdversarialConfig::default())
    } else {
        random_schedule(seed, &GeneratorConfig::default())
    }
}

/// Run `schedule` at `seed` on the deployment `args` selects.
fn execute(seed: u64, schedule: &Schedule, args: &Args) -> ScenarioRun {
    let cfg = scenario_config(seed, args);
    if args.proxy {
        run_proxy_scenario(&cfg, schedule)
    } else {
        run_scenario(&cfg, schedule)
    }
}

/// Entry point for `tamp-exp chaos`. Returns process exit code: 0 when
/// every oracle invariant held, 1 otherwise, 2 on options that do not
/// combine.
pub fn run(args: &Args) -> i32 {
    if args.broken {
        println!("(broken config: MAX_LOSS = 0 — detection timeout < heartbeat period)\n");
    }
    if args.proxy && args.protocol.is_some_and(|p| p != Protocol::Tamp) {
        eprintln!("tamp-exp: --proxy deployments are hierarchical-only (--protocol tamp)");
        return 2;
    }
    if args.proxy && args.adversarial {
        eprintln!("tamp-exp: --proxy and --adversarial do not combine (the two-DC fabric has no router ring)");
        return 2;
    }
    if let Some(count) = args.sweep {
        let report = sweep(
            &Pool::new(args.jobs),
            seed_range(args.seed, count),
            |seed| generated(seed, args),
            |seed, schedule| execute(seed, schedule, args),
        );
        print!("{}", report.report());
        return if report.passed() { 0 } else { 1 };
    }

    let schedule = match &args.scenario {
        Some(path) => read_scenario(path),
        None => generated(args.seed, args),
    };
    let run = execute(args.seed, &schedule, args);
    print!("{}", run.report());
    if args.trace {
        println!("\ntrace timeline (faults interleaved with control traffic):");
        crate::trace_tool::print_chaos_trace(&run.trace);
    }
    if run.passed() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generated scenario from `seed`, lax oracle, every switch off.
    fn single_run(seed: u64) -> Args {
        Args {
            seed,
            jobs: 1,
            ..Args::default()
        }
    }

    #[test]
    fn generated_single_run_passes_and_exits_zero() {
        assert_eq!(run(&single_run(4)), 0);
    }

    #[test]
    fn strict_single_run_passes_with_suspicion_on() {
        let opts = Args {
            strict: true,
            ..single_run(4)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn adversarial_single_run_passes_strict() {
        let opts = Args {
            strict: true,
            adversarial: true,
            ..single_run(11)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn swim_scenario_file_passes_strict() {
        let opts = Args {
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
        let opts = Args {
            strict: true,
            protocol: Some(Protocol::TampRapid),
            ..single_run(4)
        };
        assert_eq!(run(&opts), 0);
    }

    #[test]
    fn broken_config_exits_nonzero() {
        let opts = Args {
            sweep: Some(1),
            broken: true,
            ..single_run(4)
        };
        assert_eq!(run(&opts), 1);
    }
}
