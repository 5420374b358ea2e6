//! The `tamp-exp` command table. [`EXPERIMENTS`] is the one list of
//! subcommands: `main` dispatches through it, `all` walks it, `--help`
//! prints it, and the tests regenerate `results/` from it.

use crate::grid::{self, Grid};
use crate::{
    ablations, adversarial, analysis_tables, bandwidth, baselines_grid, chaos, common, detection,
    fig14, fig2, load, metrics_tool, scale, slo_gate, topo_tool, trace_tool,
};
use tamp_chaos::Protocol;
use tamp_par::Pool;

/// Everything `tamp-exp` reads off its command line: the one options
/// struct every subcommand takes (`--help` says what each flag does).
pub struct Args {
    pub seed: u64,
    pub quick: bool,
    pub trials: usize,
    pub nodes: Option<usize>,
    /// `None` keeps each subcommand's default (figures: all five
    /// columns; chaos: tamp). A schedule's `protocol` directive wins.
    pub protocol: Option<Protocol>,
    /// Worker threads for sweeps, grids and campaigns; output is
    /// byte-identical at any width.
    pub jobs: usize,
    pub shards: Option<usize>,
    pub topo_file: Option<String>,
    /// `chaos`: the schedule to run; `load --campaign`: the fault to
    /// replay instead of the stock ones.
    pub scenario: Option<String>,
    pub sweep: Option<u64>,
    pub broken: bool,
    pub proxy: bool,
    pub adversarial: bool,
    pub trace: bool,
    pub strict: bool,
    pub users: u64,
    pub skew: String,
    pub datacenters: usize,
    pub campaign: bool,
    pub open: bool,
    pub update: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 2005,
            quick: false,
            trials: 1,
            nodes: None,
            protocol: None,
            jobs: tamp_par::default_jobs(),
            shards: None,
            topo_file: None,
            scenario: None,
            sweep: None,
            broken: false,
            proxy: false,
            adversarial: false,
            trace: false,
            strict: false,
            users: 1_000_000,
            skew: String::from("zipf:1.1"),
            datacenters: 3,
            campaign: false,
            open: false,
            update: false,
        }
    }
}

impl Args {
    /// `--protocol` narrows the figure sweeps to one column; the default
    /// is all five (the paper's three plus swim and tamp-rapid).
    fn protocols(&self) -> Vec<Protocol> {
        self.protocol
            .map_or(common::FIGURE_ORDER.to_vec(), |p| vec![p])
    }

    /// The cluster sizes of Figs. 11–13.
    fn testbed_sizes(&self) -> &'static [usize] {
        if self.quick {
            &[20, 60, 100]
        } else {
            &bandwidth::PAPER_SIZES
        }
    }
}

/// How a subcommand runs.
pub enum Run {
    /// A declared experiment, built to render the given subset of the
    /// command's names, then executed by [`grid::run`].
    Grid(fn(&Args, &[&'static str]) -> Box<dyn Grid>),
    /// Anything that is not a grid; returns the exit code.
    Tool(fn(&Args) -> i32),
}

/// One registered subcommand.
pub struct Command {
    /// The subcommand's name. A second name renders the same runs as a
    /// second table: Figs. 12 and 13 are one measurement.
    pub names: &'static [&'static str],
    /// The banner `all` prints above the first command of a section;
    /// `None` keeps the command out of `all`.
    pub section: Option<&'static str>,
    pub run: Run,
}

const fn grid(
    name: &'static [&'static str],
    section: Option<&'static str>,
    build: fn(&Args, &[&'static str]) -> Box<dyn Grid>,
) -> Command {
    Command {
        names: name,
        section,
        run: Run::Grid(build),
    }
}

const fn tool(name: &'static [&'static str], run: fn(&Args) -> i32) -> Command {
    Command {
        names: name,
        section: None,
        run: Run::Tool(run),
    }
}

const ABLATIONS: Option<&str> = Some("Ablations");

/// Every `tamp-exp` subcommand, in `all` and `--help` order.
pub const EXPERIMENTS: &[Command] = &[
    grid(&["fig2"], Some("Fig. 2"), |a, _| {
        let sizes: &[usize] = if a.quick {
            &[250, 1000, 4000]
        } else {
            &fig2::PAPER_SIZES
        };
        Box::new(fig2::experiment(sizes, a.seed))
    }),
    grid(&["analysis"], Some("§4 analysis"), |_, _| {
        Box::new(analysis_tables::experiment(&[20, 100, 500, 1000, 4000]))
    }),
    grid(&["fig11"], Some("Fig. 11"), |a, _| {
        Box::new(bandwidth::experiment(
            a.testbed_sizes(),
            &a.protocols(),
            a.seed,
        ))
    }),
    grid(&["fig12", "fig13"], Some("Figs. 12 & 13"), |a, figures| {
        let (sizes, protocols) = (a.testbed_sizes(), a.protocols());
        if a.trials > 1 {
            Box::new(detection::trials_experiment(
                sizes, &protocols, a.seed, a.trials, figures,
            ))
        } else {
            Box::new(detection::experiment(sizes, &protocols, a.seed, figures))
        }
    }),
    grid(&["fig14"], Some("Fig. 14"), |a, _| {
        Box::new(fig14::experiment(a.seed))
    }),
    grid(&["ablation-group-size"], ABLATIONS, |a, _| {
        Box::new(ablations::group_size(200, &[5, 10, 20, 40], a.seed))
    }),
    grid(&["ablation-loss"], ABLATIONS, |a, _| {
        Box::new(ablations::loss(100, &[0.0, 0.02, 0.05, 0.10, 0.20], a.seed))
    }),
    grid(&["ablation-scale"], ABLATIONS, |a, _| {
        Box::new(ablations::scale(&[100, 240, 500, 1000, 2000], a.seed))
    }),
    grid(&["ablation-leader"], ABLATIONS, |a, _| {
        Box::new(ablations::leader(100, a.seed))
    }),
    grid(&["ablation-piggyback"], ABLATIONS, |a, _| {
        Box::new(ablations::piggyback(100, &[1, 2, 4, 8], 0.05, a.seed))
    }),
    grid(&["ablation-topology"], ABLATIONS, |a, _| {
        Box::new(ablations::topology(a.seed))
    }),
    grid(&["ablation-detector"], ABLATIONS, |a, _| {
        Box::new(ablations::detector(100, &[0.0, 0.10, 0.20], a.seed))
    }),
    grid(&["ablation-suspicion"], ABLATIONS, |a, _| {
        Box::new(ablations::suspicion(
            100,
            &[0, 1000, 2000, 4000],
            &[0.0, 0.10, 0.20],
            a.seed,
        ))
    }),
    grid(&["baselines"], Some("A11 baselines grid"), |a, _| {
        let rates: &[f64] = if a.quick {
            &[0.0, 0.20]
        } else {
            &[0.0, 0.10, 0.20]
        };
        Box::new(baselines_grid::experiment(
            40,
            &a.protocols(),
            rates,
            a.seed,
        ))
    }),
    grid(&["adversarial"], None, |a, _| {
        Box::new(adversarial::experiment(
            a.seed,
            if a.quick { 5 } else { 20 },
        ))
    }),
    grid(&["scale"], None, |a, _| {
        let sizes = match a.nodes {
            Some(n) => vec![n],
            None if a.quick => vec![1000],
            None => scale::SWEEP_SIZES.to_vec(),
        };
        Box::new(scale::experiment(
            &sizes,
            a.seed,
            common::sharding_from(a.shards),
        ))
    }),
    tool(&["topo"], |a| {
        let path = a
            .topo_file
            .as_deref()
            .unwrap_or_else(|| die("usage: tamp-exp topo <file.topo>"));
        topo_tool::run(path, a.seed).unwrap_or_else(|e| die(&e));
        0
    }),
    tool(&["trace"], |a| {
        trace_tool::run(a.seed);
        0
    }),
    tool(&["metrics"], |a| {
        metrics_tool::run_and_print(if a.quick { 20 } else { 60 }, a.seed)
    }),
    tool(&["chaos"], chaos::run),
    tool(&["load"], load::run_and_print),
    tool(&["slo-gate"], slo_gate::run_and_print),
    tool(&["all"], run_all),
];

/// Every registered subcommand name, in registry order.
pub fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().flat_map(|c| c.names.iter().copied())
}

/// Run subcommand `name`; `None` if no command has that name.
pub fn dispatch(name: &str, args: &Args) -> Option<i32> {
    EXPERIMENTS.iter().find_map(|command| {
        let name = command.names.iter().find(|n| **n == name)?;
        Some(command.execute(args, &[name]))
    })
}

impl Command {
    fn execute(&self, args: &Args, names: &[&'static str]) -> i32 {
        match self.run {
            Run::Grid(build) => grid::run(&*build(args, names), &Pool::new(args.jobs)),
            Run::Tool(run) => run(args),
        }
    }
}

/// `tamp-exp all`: every command that has a section, under its banner,
/// each measurement rendered under all of its names. Exits with the
/// worst code of the lot.
fn run_all(args: &Args) -> i32 {
    let mut code = 0;
    let mut banner = None;
    for command in EXPERIMENTS.iter().filter(|c| c.section.is_some()) {
        if banner != command.section {
            banner = command.section;
            println!("\n================================================================");
            println!("  {}", banner.unwrap_or_default());
            println!("================================================================");
        }
        code = code.max(command.execute(args, command.names));
    }
    code
}

/// The CLI's contract for bad input: a diagnostic on stderr, exit 2.
pub fn die(msg: &str) -> ! {
    eprintln!("tamp-exp: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn grids() -> Vec<(&'static Command, Box<dyn Grid>)> {
        EXPERIMENTS
            .iter()
            .filter_map(|c| match c.run {
                Run::Grid(build) => Some((c, build(&Args::default(), c.names))),
                Run::Tool(_) => None,
            })
            .collect()
    }

    #[test]
    fn subcommand_and_csv_names_are_unique_and_tables_have_columns() {
        let all: Vec<&str> = names().collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "{all:?}"
        );
        let mut csvs = BTreeSet::new();
        for (command, grid) in grids() {
            assert!(!grid.headers().is_empty(), "{:?}", command.names);
            assert_eq!(
                grid.csv_names().len(),
                command.names.len(),
                "{:?}: one table per name",
                command.names
            );
            for csv in grid.csv_names() {
                assert!(csvs.insert(csv), "results/{csv}.csv is written twice");
            }
        }
    }
}
