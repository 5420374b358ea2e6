//! Exporters: canonical JSONL event traces and CSV / summary-table
//! metric dumps.
//!
//! Every format here is **byte-deterministic**: iteration is over
//! sorted maps or the ordered event log, every number is an integer,
//! and JSON is hand-rolled with a fixed field order (no external
//! serializer, no HashMap iteration). Same seed → same bytes, so the
//! exports double as regression oracles in tests and CI.

use crate::events::{Event, EventRecord};
use crate::metrics::{MetricValue, MetricsSnapshot, CLUSTER};
use crate::protocol::Value;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn opt_u16(v: Option<u16>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Serialize one event record as a single JSON line. Field order is
/// fixed: `t`, `type`, then event-specific fields in declaration order.
pub fn event_to_json(r: &EventRecord) -> String {
    let t = r.time;
    match &r.event {
        Event::Send {
            src,
            multicast,
            kind,
            bytes,
            receivers,
        } => {
            let (ch, ttl) = match multicast {
                Some((c, l)) => (Some(*c), Some(*l)),
                None => (None, None),
            };
            format!(
                "{{\"t\":{t},\"type\":\"send\",\"src\":{},\"channel\":{},\"ttl\":{},\"kind\":\"{}\",\"bytes\":{bytes},\"receivers\":{receivers}}}",
                src.0,
                opt_u16(ch),
                match ttl {
                    Some(l) => l.to_string(),
                    None => "null".to_string(),
                },
                json_escape(kind),
            )
        }
        Event::Deliver {
            src,
            dst,
            channel,
            kind,
            bytes,
        } => format!(
            "{{\"t\":{t},\"type\":\"deliver\",\"src\":{},\"dst\":{},\"channel\":{},\"kind\":\"{}\",\"bytes\":{bytes}}}",
            src.0,
            dst.0,
            opt_u16(*channel),
            json_escape(kind),
        ),
        Event::Drop {
            src,
            dst,
            channel,
            kind,
            reason,
        } => format!(
            "{{\"t\":{t},\"type\":\"drop\",\"src\":{},\"dst\":{},\"channel\":{},\"kind\":\"{}\",\"reason\":\"{reason:?}\"}}",
            src.0,
            dst.0,
            opt_u16(*channel),
            json_escape(kind),
        ),
        Event::Timer { host, token } => format!(
            "{{\"t\":{t},\"type\":\"timer\",\"host\":{},\"token\":{token}}}",
            host.0
        ),
        Event::Fault(what, host) => format!(
            "{{\"t\":{t},\"type\":\"fault\",\"what\":\"{}\",\"host\":{}}}",
            json_escape(what),
            host.0
        ),
        Event::Net(what, detail) => format!(
            "{{\"t\":{t},\"type\":\"net\",\"what\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(what),
            json_escape(detail)
        ),
        Event::Protocol { node, event } => {
            let fields: Vec<String> = event
                .fields()
                .into_iter()
                .map(|(name, value)| {
                    let value = match value {
                        Value::Int(v) => v.to_string(),
                        Value::Node(n) | Value::Peer(Some(n)) => n.to_string(),
                        Value::Peer(None) => "null".to_string(),
                        Value::Word(w) => format!("\"{w}\""),
                        Value::Flag(f) => f.to_string(),
                    };
                    format!("\"{name}\":{value}")
                })
                .collect();
            let fields = fields.join(",");
            format!(
                "{{\"t\":{t},\"type\":\"{}\",\"node\":{},{fields}}}",
                event.name(),
                node.0
            )
        }
    }
}

/// Serialize a slice of records as JSONL (one JSON object per line,
/// trailing newline when non-empty).
pub fn events_to_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&event_to_json(r));
        out.push('\n');
    }
    out
}

/// Canonical CSV header for [`snapshot_to_csv`].
pub const CSV_HEADER: &str = "subsystem,name,node,kind,value,count,sum,p50,p90,p99,max";

fn csv_node(node: u32) -> String {
    if node == CLUSTER {
        "cluster".to_string()
    } else {
        node.to_string()
    }
}

/// Serialize a metrics snapshot as CSV. Rows are sorted by
/// `(subsystem, name, node)`; counters fill `value`,
/// histograms fill `count,sum,p50,p90,p99,max`.
pub fn snapshot_to_csv(snap: &MetricsSnapshot) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (k, v) in &snap.entries {
        let node = csv_node(k.node);
        match v {
            MetricValue::Counter(c) => {
                out.push_str(&format!(
                    "{},{},{node},counter,{c},,,,,,\n",
                    k.subsystem, k.name
                ));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{},{},{node},histogram,,{},{},{},{},{},{}\n",
                    k.subsystem,
                    k.name,
                    h.count,
                    h.sum,
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99),
                    h.max(),
                ));
            }
        }
    }
    out
}

/// Render a metrics snapshot as an aligned plain-text table (for
/// terminal dashboards). Deterministic like every other exporter.
pub fn summary_table(snap: &MetricsSnapshot) -> String {
    let mut rows: Vec<[String; 4]> = vec![[
        "metric".to_string(),
        "node".to_string(),
        "kind".to_string(),
        "value".to_string(),
    ]];
    for (k, v) in &snap.entries {
        let value = match v {
            MetricValue::Counter(c) => c.to_string(),
            MetricValue::Histogram(h) => format!(
                "n={} p50={} p99={} max={}",
                h.count,
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            ),
        };
        rows.push([
            format!("{}/{}", k.subsystem, k.name),
            csv_node(k.node),
            v.kind().to_string(),
            value,
        ]);
    }
    let mut widths = [0usize; 4];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let line = format!(
            "{:<w0$}  {:>w1$}  {:<w2$}  {}",
            row[0],
            row[1],
            row[2],
            row[3],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
        );
        out.push_str(line.trim_end());
        out.push('\n');
        if i == 0 {
            let dash = widths.iter().sum::<usize>()
                + 6
                + rows[1..]
                    .iter()
                    .map(|r| r[3].len())
                    .max()
                    .unwrap_or(0)
                    .saturating_sub(widths[3]);
            out.push_str(&"-".repeat(dash.max(widths.iter().sum::<usize>() + 6)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::ProtocolEvent;
    use tamp_topology::HostId;

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let records = vec![
            EventRecord {
                time: 5,
                event: Event::Send {
                    src: HostId(1),
                    multicast: Some((2, 3)),
                    kind: "update",
                    bytes: 100,
                    receivers: 4,
                },
            },
            EventRecord {
                time: 6,
                event: Event::Net("partition", "a\"b".to_string()),
            },
            EventRecord {
                time: 7,
                event: Event::Protocol {
                    node: HostId(9),
                    event: ProtocolEvent::SuspicionArmed { subject: 4 },
                },
            },
        ];
        let jsonl = events_to_jsonl(&records);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"t\":5,\"type\":\"send\",\"src\":1,\"channel\":2,\"ttl\":3,\"kind\":\"update\",\"bytes\":100,\"receivers\":4}"
        );
        assert!(lines[1].contains("a\\\"b"));
        assert_eq!(
            lines[2],
            "{\"t\":7,\"type\":\"suspicion-armed\",\"node\":9,\"subject\":4}"
        );
        // Unicast deliver serializes channel as null.
        let uni = events_to_jsonl(&[EventRecord {
            time: 1,
            event: Event::Deliver {
                src: HostId(0),
                dst: HostId(1),
                channel: None,
                kind: "digest",
                bytes: 8,
            },
        }]);
        assert!(uni.contains("\"channel\":null"));
    }

    #[test]
    fn csv_has_canonical_header_and_sorted_rows() {
        let reg = Registry::new();
        reg.counter(2, "net", "sent").add(7);
        reg.counter(1, "net", "sent").add(3);
        reg.histogram(1, "net", "latency").record(100);
        let csv = snapshot_to_csv(&reg.snapshot());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines[1], "net,latency,1,histogram,,1,100,127,127,127,127");
        assert_eq!(lines[2], "net,sent,1,counter,3,,,,,,");
        assert_eq!(lines[3], "net,sent,2,counter,7,,,,,,");
    }

    #[test]
    fn summary_table_is_deterministic() {
        let reg = Registry::new();
        reg.counter(0, "m", "updates").add(12);
        let a = summary_table(&reg.snapshot());
        let b = summary_table(&reg.snapshot());
        assert_eq!(a, b);
        assert!(a.contains("m/updates"));
        assert!(a.contains("12"));
    }
}
