//! Shared by the engine-level locks (`differential_shard.rs`,
//! `fanout_golden.rs`).

use tamp_netsim::Engine;

/// Serialize everything a run can possibly tell the outside world: the
/// full trace, per-host stats and liveness, totals, series,
/// observations, sends by kind, and the telemetry snapshot.
pub fn fingerprint(eng: &Engine) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let records: Vec<_> = eng.trace_log().records().cloned().collect();
    out.push_str(&tamp_netsim::telemetry::export::events_to_jsonl(&records));
    writeln!(out, "trace_total={}", eng.trace_log().total_recorded()).unwrap();
    for h in eng.hosts() {
        writeln!(
            out,
            "{h:?} {:?} alive={}",
            eng.stats().host(h),
            eng.is_alive(h)
        )
        .unwrap();
    }
    writeln!(out, "totals={:?}", eng.stats().totals()).unwrap();
    writeln!(out, "series={:?}", eng.stats().series()).unwrap();
    writeln!(out, "obs={:?}", eng.stats().observations()).unwrap();
    let mut kinds: Vec<_> = eng.stats().sends_by_kind().collect();
    kinds.sort();
    writeln!(out, "kinds={kinds:?}").unwrap();
    out.push_str(&tamp_netsim::telemetry::export::snapshot_to_csv(
        &eng.registry().snapshot(),
    ));
    out
}
