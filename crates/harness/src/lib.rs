//! # tamp-harness — experiment drivers for every paper figure
//!
//! One module per experiment. Each figure, ablation and grid is a
//! declared [`grid::Experiment`] — cells, a `measure` per cell, a column
//! list — with structured rows (so tests can assert on fields), and
//! [`grid::run`] is the one runner that executes, renders, prints and
//! writes them. [`registry::EXPERIMENTS`] lists every `tamp-exp`
//! subcommand once; this is the table of what each one reproduces.
//! Wall-clock cost is not measured here: `benchmark/run.sh` is the perf
//! ledger.
//!
//! | Paper figure | Module | Subcommand |
//! |---|---|---|
//! | Fig. 2 (all-to-all CPU & pps)            | [`fig2`]      | `fig2` |
//! | Fig. 11 (bandwidth vs n)                 | [`bandwidth`] | `fig11` |
//! | Fig. 12 (failure detection time vs n)    | [`detection`] | `fig12` |
//! | Fig. 13 (view convergence time vs n)     | [`detection`] | `fig13` |
//! | Fig. 14 (proxy failover timeline)        | [`fig14`]     | `fig14` |
//! | §4 analysis (BDT/BCT model)              | [`analysis_tables`] | `analysis` |
//! | Ablations A1–A8 (DESIGN.md)              | [`ablations`] | `ablation-*` |
//! | A9 scale sweep vs the §4 model           | [`scale`]     | `scale` |
//! | A10 adversarial fault grid               | [`adversarial`] | `adversarial` |
//! | A11 five-protocol comparison grid        | [`baselines_grid`] | `baselines` |
//! | Chaos scenarios + invariant oracle       | [`chaos`]     | `chaos` |
//! | Telemetry dashboard + canonical exports  | [`metrics_tool`] | `metrics` |
//! | Fig. 14 at scale (load + chaos-under-load) | [`load`]    | `load` |
//! | SLO-regression gate (CI)                 | [`slo_gate`]  | `slo-gate` |
//! | Packet-level timeline of one run         | [`trace_tool`] | `trace` |
//! | Fabric description file inspector        | [`topo_tool`] | `topo <file.topo>` |
//! | The figures, §4, A1–A8 and A11, in order | [`registry`]  | `all` |

pub mod ablations;
pub mod adversarial;
pub mod analysis_tables;
pub mod bandwidth;
pub mod baselines_grid;
pub mod chaos;
pub mod common;
pub mod detection;
pub mod fig14;
pub mod fig2;
pub mod grid;
pub mod load;
pub mod metrics_tool;
pub mod registry;
pub mod report;
pub mod scale;
pub mod slo_gate;
pub mod topo_tool;
pub mod trace_tool;
