//! The any-width contract, once, for every grid: each registered
//! experiment, at a smoke size, renders the same tables and reaches the
//! same verdict on a 1-wide and a 4-wide pool. (A9's wall-clock column
//! is the one cell that is allowed to differ.)

use tamp_chaos::Protocol;
use tamp_harness::common::FIGURE_ORDER;
use tamp_harness::grid::Grid;
use tamp_harness::registry::{Args, Run, EXPERIMENTS};
use tamp_harness::{
    ablations, adversarial, analysis_tables, bandwidth, baselines_grid, detection, fig14, fig2,
    scale,
};
use tamp_netsim::ShardingKind;
use tamp_par::Pool;

/// One smoke-sized instance per registered grid, in registry order,
/// plus the `--trials` fold.
fn smoke_grids() -> Vec<Box<dyn Grid>> {
    let three = [Protocol::Tamp, Protocol::Swim, Protocol::TampRapid];
    let both = ["fig12", "fig13"];
    vec![
        Box::new(fig2::experiment(&[50, 100], 7)),
        Box::new(analysis_tables::experiment(&[20, 100])),
        Box::new(bandwidth::experiment(&[20, 40], &FIGURE_ORDER, 7)),
        Box::new(detection::experiment(&[20, 40], &FIGURE_ORDER, 7, &both)),
        Box::new(fig14::experiment(7)),
        Box::new(ablations::group_size(40, &[5, 20], 21)),
        Box::new(ablations::loss(40, &[0.05], 25)),
        Box::new(ablations::scale(&[40, 60], 7)),
        Box::new(ablations::leader(40, 23)),
        Box::new(ablations::piggyback(40, &[1, 8], 0.05, 27)),
        Box::new(ablations::topology(29)),
        Box::new(ablations::detector(40, &[0.20], 33)),
        Box::new(ablations::suspicion(40, &[0, 2000], &[0.0], 31)),
        Box::new(baselines_grid::experiment(20, &three, &[0.0, 0.10], 99)),
        Box::new(adversarial::experiment(7, 2)),
        Box::new(scale::experiment(&[60, 80], 7, ShardingKind::Sequential)),
        Box::new(detection::trials_experiment(&[20], &three, 7, 2, &both)),
    ]
}

/// Everything `grid::run` would print or write, wall-clock cells blanked.
fn output(grid: &dyn Grid, pool: &Pool) -> Vec<String> {
    let wall = grid.headers().iter().position(|h| *h == "wall ms");
    let (tables, verdict) = grid.tables(pool);
    let mut out: Vec<String> = tables
        .iter()
        .map(|(csv, t)| {
            let rows: Vec<String> = t
                .to_csv()
                .lines()
                .map(|line| {
                    let mut cells: Vec<&str> = line.split(',').collect();
                    if let Some(w) = wall {
                        cells[w] = "";
                    }
                    cells.join(",")
                })
                .collect();
            format!("{csv}\n{}", rows.join("\n"))
        })
        .collect();
    let text = if wall.is_some() { "" } else { &verdict.text };
    out.push(format!("pass={} {text}", verdict.pass));
    out
}

#[test]
fn every_registered_grid_is_pool_width_invariant() {
    let grids = smoke_grids();
    let covered: Vec<&str> = grids.iter().flat_map(|g| g.csv_names()).collect();
    let registered: Vec<&str> = EXPERIMENTS
        .iter()
        .filter_map(|c| match c.run {
            Run::Grid(build) => Some(build(&Args::default(), c.names).csv_names()),
            Run::Tool(_) => None,
        })
        .flatten()
        .collect();
    assert_eq!(
        covered[..registered.len()],
        registered,
        "a registered grid has no smoke case"
    );
    for grid in &grids {
        let name = grid.csv_names()[0];
        let narrow = output(grid.as_ref(), &Pool::sequential());
        let wide = output(grid.as_ref(), &Pool::new(4));
        assert!(narrow[0].lines().count() > 2, "{name}: empty table");
        assert_eq!(narrow, wide, "{name} changed with pool width");
    }
}
