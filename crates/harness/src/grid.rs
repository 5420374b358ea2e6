//! The one experiment table: every figure, ablation and grid of this
//! crate is a declared [`Experiment`] — a cell list, a `measure` per
//! cell, a column list — and [`run`] is the only place a sweep is
//! executed, rendered, printed or written.
//!
//! Cells are independent deterministic runs. They execute on the
//! `tamp-par` pool and come back in cell order, so stdout and every CSV
//! are byte-identical at any `--jobs` width.

use crate::report::{write_export, Table};
use std::path::Path;
use tamp_par::Pool;

/// One table column: its header and how a row prints under it.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// The cells of a two-axis grid: the cartesian product, `outer`-major.
pub fn product<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// What an experiment concludes from its rows.
pub struct Verdict {
    /// `false` makes the subcommand exit 1.
    pub pass: bool,
    /// Printed verbatim below the table and the note.
    pub text: String,
}

impl Verdict {
    /// A verdict with nothing to say beyond pass or fail.
    pub fn of(pass: bool) -> Verdict {
        Verdict {
            pass,
            text: String::new(),
        }
    }
}

type Judge<R> = dyn Fn(&[R]) -> Verdict;

/// An experiment as a value. `C` is a cell of the grid (in row order),
/// `M` what one cell measures, `R` a table row — the same as `M` unless
/// a fold aggregates cells (A10: seeds into classes; `--trials`: seeds
/// into mean/min/max) or expands them (Fig. 14: one run, 60 seconds).
pub struct Experiment<C, M, R: 'static = M> {
    tables: Vec<(String, &'static str)>,
    cells: Vec<C>,
    measure: Box<dyn Fn(&C) -> M + Sync>,
    fold: Box<dyn Fn(Vec<M>) -> Vec<R>>,
    columns: &'static [Column<R>],
    verdict: Box<Judge<R>>,
    note: &'static str,
}

impl<C: Sync, R: Send> Experiment<C, R> {
    /// One row per cell, rendered as `title` and written to
    /// `results/<csv>.csv`.
    pub fn new(
        title: impl Into<String>,
        csv: &'static str,
        cells: Vec<C>,
        measure: impl Fn(&C) -> R + Sync + 'static,
        columns: &'static [Column<R>],
    ) -> Self {
        Self::folded(title, csv, cells, measure, |rows| rows, columns)
    }
}

impl<C: Sync, M: Send, R> Experiment<C, M, R> {
    /// [`Experiment::new`] with `fold` between the measured cells and
    /// the rows.
    pub fn folded(
        title: impl Into<String>,
        csv: &'static str,
        cells: Vec<C>,
        measure: impl Fn(&C) -> M + Sync + 'static,
        fold: impl Fn(Vec<M>) -> Vec<R> + 'static,
        columns: &'static [Column<R>],
    ) -> Self {
        Experiment {
            tables: vec![(title.into(), csv)],
            cells,
            measure: Box::new(measure),
            fold: Box::new(fold),
            columns,
            verdict: Box::new(|_| Verdict::of(true)),
            note: "",
        }
    }

    /// Render the same rows a second time under another title and CSV
    /// name (Figs. 12 and 13 are one set of runs).
    pub fn also_as(mut self, title: impl Into<String>, csv: &'static str) -> Self {
        self.tables.push((title.into(), csv));
        self
    }

    /// The "Expected / Paper shape" paragraph printed below each table.
    pub fn note(mut self, note: &'static str) -> Self {
        self.note = note;
        self
    }

    /// Judge the rows; without one the experiment always passes.
    pub fn verdict(mut self, verdict: impl Fn(&[R]) -> Verdict + 'static) -> Self {
        self.verdict = Box::new(verdict);
        self
    }

    /// Measure every cell on `pool` and fold the results into rows.
    pub fn rows(&self, pool: &Pool) -> Vec<R> {
        let (cells, measure) = (&self.cells, &self.measure);
        (self.fold)(pool.ordered_map(cells.len(), |i| measure(&cells[i])))
    }
}

/// An [`Experiment`] with its cell and row types erased — what the
/// registry holds and [`run`] executes.
pub trait Grid {
    /// `results/<name>.csv` of every table this experiment writes.
    fn csv_names(&self) -> Vec<&'static str>;
    fn headers(&self) -> Vec<&'static str>;
    fn note(&self) -> &'static str;
    /// Run the cells on `pool`; the rendered tables in print order,
    /// each with its CSV name, and the verdict.
    fn tables(&self, pool: &Pool) -> (Vec<(&'static str, Table)>, Verdict);
}

impl<C: Sync, M: Send, R> Grid for Experiment<C, M, R> {
    fn csv_names(&self) -> Vec<&'static str> {
        self.tables.iter().map(|&(_, csv)| csv).collect()
    }

    fn headers(&self) -> Vec<&'static str> {
        self.columns.iter().map(|&(header, _)| header).collect()
    }

    fn note(&self) -> &'static str {
        self.note
    }

    fn tables(&self, pool: &Pool) -> (Vec<(&'static str, Table)>, Verdict) {
        let rows = self.rows(pool);
        let tables = self
            .tables
            .iter()
            .map(|(title, csv)| {
                let mut t = Table::new(title.as_str(), &self.headers());
                for r in &rows {
                    t.row(self.columns.iter().map(|(_, cell)| cell(r)).collect());
                }
                (*csv, t)
            })
            .collect();
        (tables, (self.verdict)(&rows))
    }
}

/// Run `experiment` on `pool`: print each table, write its CSV, print
/// the note and the verdict. Returns the exit code, 0 or 1; a CSV that
/// cannot be written ends the process with 2 ([`write_export`]).
pub fn run(experiment: &dyn Grid, pool: &Pool) -> i32 {
    let (tables, verdict) = experiment.tables(pool);
    for (csv, t) in &tables {
        t.print();
        let path = Path::new("results").join(format!("{csv}.csv"));
        if let Err(code) = write_export(&path, &t.to_csv()) {
            std::process::exit(code);
        }
        if !experiment.note().is_empty() {
            println!("\n{}", experiment.note());
        }
    }
    print!("{}", verdict.text);
    i32::from(!verdict.pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLUMNS: &[Column<(usize, usize)>] =
        &[("cells", |r| r.0.to_string()), ("sum", |r| r.1.to_string())];

    #[test]
    fn cells_run_in_order_fold_into_rows_and_render_once_per_table() {
        let e = Experiment::folded(
            "sums",
            "sums",
            vec![3, 1, 2],
            |&c| c,
            |m| (1..=m.len()).map(|k| (k, m[..k].iter().sum())).collect(),
            COLUMNS,
        )
        .also_as("again", "sums_again")
        .verdict(|rows| Verdict::of(rows.len() == 2));
        assert_eq!(e.csv_names(), ["sums", "sums_again"]);
        assert_eq!(e.headers(), ["cells", "sum"]);
        let (tables, verdict) = e.tables(&Pool::new(4));
        assert_eq!(tables[0].1.to_csv(), "cells,sum\n1,3\n2,4\n3,6\n");
        assert_eq!(tables[0].1.to_csv(), tables[1].1.to_csv());
        assert!(tables[1].1.render().contains("## again"));
        assert!(!verdict.pass);
    }
}
