//! Shared by the engine-level locks (`differential_shard.rs`,
//! `fanout_golden.rs`).

use tamp_netsim::{Engine, TraceEvent, SECS};

/// One second of cluster-wide traffic. The name and the field order are
/// those of the series the engine once kept: the fingerprint's `{:?}`
/// line, and every hash recorded over it, depend on them.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeriesPoint {
    pub recv_pkts: u64,
    pub recv_bytes: u64,
    pub sent_pkts: u64,
    pub sent_bytes: u64,
}

/// The per-second send and delivery totals of a run, from its complete
/// trace: a send counts in the second it left, a delivery in the second
/// it arrived, and the series ends at the last second holding either.
pub fn series(eng: &Engine) -> Vec<SeriesPoint> {
    let log = eng.trace_log();
    assert_eq!(
        log.total_recorded(),
        log.records().count() as u64,
        "the trace overflowed: the series would miss its first records"
    );
    let mut series: Vec<SeriesPoint> = Vec::new();
    for r in log.records() {
        let (sent, bytes) = match r.event {
            TraceEvent::Send { bytes, .. } => (true, bytes as u64),
            TraceEvent::Deliver { bytes, .. } => (false, bytes as u64),
            _ => continue,
        };
        let idx = (r.time / SECS) as usize;
        if series.len() <= idx {
            series.resize(idx + 1, SeriesPoint::default());
        }
        let p = &mut series[idx];
        if sent {
            p.sent_pkts += 1;
            p.sent_bytes += bytes;
        } else {
            p.recv_pkts += 1;
            p.recv_bytes += bytes;
        }
    }
    series
}

/// Serialize everything a run can possibly tell the outside world: the
/// full trace, per-host stats and liveness, totals, the per-second
/// series, observations, sends by kind, and the telemetry snapshot.
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
    writeln!(out, "series={:?}", series(eng)).unwrap();
    writeln!(out, "obs={:?}", eng.stats().observations()).unwrap();
    let mut kinds: Vec<_> = eng.stats().sends_by_kind().collect();
    kinds.sort();
    writeln!(out, "kinds={kinds:?}").unwrap();
    out.push_str(&tamp_netsim::telemetry::export::snapshot_to_csv(
        &eng.registry().snapshot(),
    ));
    out
}
