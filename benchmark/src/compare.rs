//! `compare <parent.json> <change.json>`: one row per (workload,
//! metric), each judged by the metric's own bound.
//!
//! A timed metric regresses when the change's median is worse than the
//! parent's by more than the bound. When the parent's own min–max range
//! is already wider than the bound the row is `unresolved`: the ledger
//! cannot tell such a move from noise, and says so instead of passing
//! it. An exact metric must be bit-equal.

use crate::catalog::{self, Better, Bound, EXACT_METRICS, HOST_METRICS};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
    /// An exact metric that is not bit-equal to the parent's.
    Changed,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Changed => "CHANGED",
            Verdict::Missing => "MISSING",
        }
    }

    /// Does this row make `compare` exit non-zero?
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Changed | Verdict::Missing
        )
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Judge a timed metric of the change against the parent's.
pub fn judge_timed(parent: Timed, change: Timed, better: Better, bound: Bound) -> Verdict {
    let Bound::Timed { share, floor } = bound else {
        panic!("judge_timed needs a timed bound");
    };
    let allowed = (share * parent.median.abs()).max(floor);
    if parent.max - parent.min > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => change.median - parent.median,
        Better::Higher => parent.median - change.median,
    };
    if worse_by > allowed {
        Verdict::Regression
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Judge an exact metric: equal bits, or changed; a rise in
/// `failed_ops_pct` is a regression by name.
pub fn judge_exact(metric: &str, parent: f64, change: f64) -> Verdict {
    if parent.to_bits() == change.to_bits() {
        Verdict::Ok
    } else if metric == "failed_ops_pct" && change > parent {
        Verdict::Regression
    } else {
        Verdict::Changed
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub text: String,
    pub verdict: Verdict,
}

fn timed_of(v: &Value) -> Option<Timed> {
    Some(Timed {
        median: v.get("median")?.as_f64()?,
        min: v.get("min")?.as_f64()?,
        max: v.get("max")?.as_f64()?,
    })
}

fn spread_pct(t: Timed) -> f64 {
    100.0 * (t.max - t.min) / t.median.abs()
}

/// Compare two ledger files. `Err` when they cannot be compared at all
/// (different size or seed, or not ledger files).
pub fn compare(parent: &Value, change: &Value) -> Result<Vec<Row>, String> {
    for key in ["size", "seed"] {
        let (a, b) = (parent.get(key), change.get(key));
        if a.is_none() || a != b {
            return Err(format!(
                "the two ledgers differ in {key} ({a:?} vs {b:?}); compare runs of the same inputs"
            ));
        }
    }
    let workloads = |v: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no \"workloads\" object: not a ledger file")?
            .to_vec())
    };
    let (pw, cw) = (workloads(parent)?, workloads(change)?);
    let mut rows = Vec::new();
    for (name, pv) in &pw {
        let metrics = |v: &Value| v.get("end_to_end").cloned().unwrap_or(Value::Null);
        let pm = metrics(pv);
        let cm = cw
            .iter()
            .find(|(n, _)| n == name)
            .map_or(Value::Null, |(_, v)| metrics(v));
        for m in &HOST_METRICS {
            let (Some(p), c) = (
                pm.get(m.name).and_then(timed_of),
                cm.get(m.name).and_then(timed_of),
            ) else {
                continue;
            };
            let bound = catalog::bound(name, m.name);
            let (verdict, text) = match c {
                None => (Verdict::Missing, format!("{:.6} -> (missing)", p.median)),
                Some(c) => (
                    judge_timed(p, c, m.better, bound),
                    format!(
                        "{:.6} (±{:.1}%) -> {:.6} (±{:.1}%)  {:+.1}%",
                        p.median,
                        spread_pct(p) / 2.0,
                        c.median,
                        spread_pct(c) / 2.0,
                        100.0 * (c.median / p.median - 1.0)
                    ),
                ),
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                text: format!("{} {text}", m.unit),
                verdict,
            });
        }
        for m in &EXACT_METRICS {
            let exact = |v: &Value| v.get(m.name)?.get("exact")?.as_f64();
            let Some(p) = exact(&pm) else { continue };
            let (verdict, text) = match exact(&cm) {
                None => (Verdict::Missing, format!("{p} -> (missing)")),
                Some(c) => (judge_exact(m.name, p, c), format!("{p} -> {c}")),
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                text: format!("{} {text}", m.unit),
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_PCT: Bound = Bound::Timed {
        share: 0.10,
        floor: 0.0,
    };

    fn t(median: f64, min: f64, max: f64) -> Timed {
        Timed { median, min, max }
    }

    #[test]
    fn timed_verdicts() {
        let parent = t(10.0, 9.8, 10.3);
        let judge = |c: f64, better| judge_timed(parent, t(c, c, c), better, TEN_PCT);
        assert_eq!(judge(10.9, Better::Lower), Verdict::Ok);
        assert_eq!(judge(11.1, Better::Lower), Verdict::Regression);
        assert_eq!(judge(8.9, Better::Lower), Verdict::Improved);
        assert_eq!(judge(8.9, Better::Higher), Verdict::Regression);
        assert_eq!(judge(11.1, Better::Higher), Verdict::Improved);
        // A parent whose own range exceeds the bound resolves nothing.
        let noisy = t(10.0, 9.0, 10.5);
        assert_eq!(
            judge_timed(noisy, t(20.0, 20.0, 20.0), Better::Lower, TEN_PCT),
            Verdict::Unresolved
        );
    }

    #[test]
    fn absolute_floor_covers_small_quantities() {
        // 3 ms of set-up moving to 30 ms is inside the 50 ms floor.
        let bound = catalog::bound("chaos_mix", "setup_s");
        let v = judge_timed(
            t(0.003, 0.002, 0.004),
            t(0.030, 0.03, 0.03),
            Better::Lower,
            bound,
        );
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn exact_verdicts() {
        assert_eq!(judge_exact("sim_detect_s", 5.03, 5.03), Verdict::Ok);
        assert_eq!(judge_exact("sim_detect_s", 5.03, 5.04), Verdict::Changed);
        assert_eq!(judge_exact("failed_ops_pct", 6.0, 6.5), Verdict::Regression);
        assert_eq!(judge_exact("failed_ops_pct", 6.0, 5.5), Verdict::Changed);
        assert!(Verdict::Changed.fails() && !Verdict::Unresolved.fails());
    }
}
