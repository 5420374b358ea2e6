//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (nothing inside
//! the measured crates is instrumented), kept in a `Vec` while the run
//! lasts and written out when it ends. A disabled tracer records
//! nothing, so the untraced runs that give the end-to-end numbers pay
//! one branch per call site.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the process's origin instant.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "span still open");
        &self.spans
    }
}

/// Sum of the durations of every span called `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Every child must start after its parent was opened, and lie inside it.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            if p >= i {
                return Err(format!("span {i} ({}) names a later parent {p}", s.name));
            }
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// The JSON fields of one span (callers may add their own).
pub fn span_fields(s: &Span) -> Vec<(String, Value)> {
    vec![
        ("name".to_string(), Value::str(&s.name)),
        ("start".to_string(), Value::from(s.start_ns)),
        ("end".to_string(), Value::from(s.end_ns)),
        (
            "parent".to_string(),
            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
        ),
    ]
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(spans.iter().map(|s| Value::Obj(span_fields(s))).collect())
}

pub fn spans_from_json(v: &Value) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: s.get("start")?.as_f64()? as u64,
                end_ns: s.get("end")?.as_f64()? as u64,
                parent: match s.get("parent")? {
                    Value::Null => None,
                    p => Some(p.as_f64()? as usize),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("run", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("loop", 50, 90, Some(0)),
            // Overlaps "loop": the shared 10 ns count once.
            span("overlap", 80, 95, Some(0)),
        ];
        check_nesting(&spans).unwrap();
        // run: 100 − (30 + 40 + 5 uncovered by loop) = 25.
        assert_eq!(self_times_ns(&spans), vec![25, 20, 10, 40, 15]);
        assert_eq!(total_ns(&spans, "loop"), 40);
    }

    #[test]
    fn nesting_violations_are_reported() {
        assert!(check_nesting(&[span("a", 0, 10, None), span("b", 5, 11, Some(0))]).is_err());
        assert!(check_nesting(&[span("a", 0, 10, Some(1)), span("b", 0, 10, None)]).is_err());
        assert!(check_nesting(&[span("a", 10, 0, None)]).is_err());
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        check_nesting(spans).unwrap();
        assert!(self_times_ns(spans)
            .iter()
            .all(|&ns| ns <= spans[0].duration_ns()));
        assert_eq!(
            spans_from_json(&spans_to_json(spans)).as_deref(),
            Some(spans)
        );

        let mut off = Tracer::new(false, Instant::now());
        let o = off.enter("x");
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
