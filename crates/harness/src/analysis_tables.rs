//! §4 scalability analysis, rendered as tables: the closed-form
//! bandwidth / detection / convergence model and the BDT / BCT products,
//! side by side for the three schemes.

use crate::grid::{Column, Experiment};
use tamp_analysis::{all_schemes, ModelParams, Prediction};

/// One (n, scheme) line of the model.
pub type ModelRow = (usize, &'static str, Prediction);

pub const COLUMNS: &[Column<ModelRow>] = &[
    ("nodes", |(n, _, _)| n.to_string()),
    ("scheme", |(_, name, _)| name.to_string()),
    ("bw KB/s", |(_, _, p)| {
        format!("{:.1}", p.bandwidth_bytes_per_s / 1e3)
    }),
    ("detect s", |(_, _, p)| format!("{:.2}", p.detection_s)),
    ("converge s", |(_, _, p)| format!("{:.2}", p.convergence_s)),
    ("BDT KB", |(_, _, p)| format!("{:.0}", p.bdt() / 1e3)),
    ("BCT KB", |(_, _, p)| format!("{:.0}", p.bct() / 1e3)),
];

/// The model at each size: a grid whose cells run no simulation, each
/// folded into one row per scheme.
pub fn experiment(sizes: &[usize]) -> Experiment<usize, Vec<ModelRow>, ModelRow> {
    Experiment::folded(
        "§4 analysis — closed-form model (s=228 B, k=5, T=1 s, g=20, P_mistake=0.1%)",
        "analysis",
        sizes.to_vec(),
        |&n| {
            let p = ModelParams {
                n,
                ..Default::default()
            };
            all_schemes(&p)
                .into_iter()
                .map(|(name, pred)| (n, name, pred))
                .collect()
        },
        |sizes| sizes.into_iter().flatten().collect(),
        COLUMNS,
    )
    .note(
        "Paper conclusion: \"the hierarchical scheme is the most scalable approach in terms\n\
         of the bandwidth detection time product\" — and likewise for BCT.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_wins_both_products_beyond_one_group() {
        for n in [100usize, 1000, 4000] {
            let p = ModelParams {
                n,
                ..Default::default()
            };
            let preds = all_schemes(&p);
            let bdt: Vec<f64> = preds.iter().map(|(_, p)| p.bdt()).collect();
            let bct: Vec<f64> = preds.iter().map(|(_, p)| p.bct()).collect();
            // Order: all-to-all, gossip, hierarchical.
            assert!(bdt[2] < bdt[0] && bdt[2] < bdt[1], "n={n} bdt={bdt:?}");
            assert!(bct[2] < bct[0] && bct[2] < bct[1], "n={n} bct={bct:?}");
        }
    }
}
