//! The scenario DSL: a small line-oriented text format for fault
//! schedules, parsed in the same hand-rolled style as the topology
//! description format (`tamp-topology`'s `parse` module).
//!
//! ```text
//! # Two kill waves around a partition, with a loss burst.
//! settle 45s
//! at 10s kill host 3
//! at 12s kill leader 1          # whoever leads level 1 right then
//! at 15s kill random            # a random live host
//! at 30s revive host 3
//! at 35s revive random          # a random dead host
//! at 40s partition 0 1          # sever segments 0 and 1
//! at 70s heal 0 1               # or: heal all
//! at 80s loss 0.3 for 10s       # uniform loss burst
//! restart host 2 at 100s down 2s
//! rolling-restart hosts 0..3 start 110s down 2s gap 5s
//! ```
//!
//! `restart` and `rolling-restart` are sugar: they expand to kill/revive
//! pairs at parse time, so every schedule is a flat timed event list.

use crate::cluster::Protocol;
use crate::schedule::{Action, Schedule, ScheduledFault, Target, TopoSpec};
use tamp_topology::Nanos;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parse `10s`, `500ms`, `250us`, `17ns` (also bare-integer nanoseconds).
pub fn parse_duration(tok: &str, line: usize) -> Result<Nanos, ParseError> {
    let (digits, mult) = if let Some(d) = tok.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = tok.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = tok.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = tok.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (tok, 1)
    };
    match digits.parse::<u64>() {
        Ok(v) => Ok(v * mult),
        Err(_) => err(line, format!("bad duration {tok:?} (want e.g. 10s, 500ms)")),
    }
}

fn parse_u32(tok: &str, line: usize, what: &str) -> Result<u32, ParseError> {
    tok.parse().map_err(|_| ParseError {
        line,
        message: format!("bad {what} {tok:?}"),
    })
}

fn parse_rate(tok: &str, line: usize) -> Result<f64, ParseError> {
    match tok.parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
        _ => err(line, format!("bad loss rate {tok:?} (want 0.0–1.0)")),
    }
}

/// Signed clock-skew rate; bounded well inside what the skewed-delay
/// arithmetic tolerates (|ppm| < 10^6 would stall or negate the clock).
fn parse_ppm(tok: &str, line: usize) -> Result<i64, ParseError> {
    match tok.parse::<i64>() {
        Ok(p) if p.abs() <= 500_000 => Ok(p),
        _ => err(
            line,
            format!("bad skew {tok:?} (want signed ppm, |ppm| <= 500000)"),
        ),
    }
}

/// A two-segment-id pair for (gray-)partition/heal directives.
fn parse_seg_pair(action: &[&str], line: usize, what: &str) -> Result<(u16, u16), ParseError> {
    let (Some(a), Some(b)) = (action.get(1), action.get(2)) else {
        return err(line, format!("{what} needs two segment ids"));
    };
    expect_end(action, 3, line)?;
    Ok((
        parse_u32(a, line, "segment")? as u16,
        parse_u32(b, line, "segment")? as u16,
    ))
}

fn parse_target(toks: &[&str], line: usize) -> Result<(Target, usize), ParseError> {
    match toks.first() {
        Some(&"host") => {
            let Some(h) = toks.get(1) else {
                return err(line, "host needs an index");
            };
            Ok((Target::Host(parse_u32(h, line, "host index")?), 2))
        }
        Some(&"leader") => {
            let Some(l) = toks.get(1) else {
                return err(line, "leader needs a level");
            };
            Ok((Target::Leader(parse_u32(l, line, "level")? as u8), 2))
        }
        Some(&"random") => Ok((Target::Random, 1)),
        other => err(
            line,
            format!("bad target {other:?} (want host N | leader L | random)"),
        ),
    }
}

/// Expect exactly `n` remaining tokens consumed; reject trailing junk.
fn expect_end(toks: &[&str], used: usize, line: usize) -> Result<(), ParseError> {
    if toks.len() > used {
        return err(
            line,
            format!("unexpected trailing tokens {:?}", &toks[used..]),
        );
    }
    Ok(())
}

/// Parse one `at <time> <action...>` event.
fn parse_at(toks: &[&str], line: usize) -> Result<ScheduledFault, ParseError> {
    let Some(at_tok) = toks.first() else {
        return err(line, "at needs a time");
    };
    let at = parse_duration(at_tok, line)?;
    let action = &toks[1..];
    let fault = match action.first() {
        Some(&"kill") => {
            let (t, used) = parse_target(&action[1..], line)?;
            expect_end(action, 1 + used, line)?;
            Action::Kill(t)
        }
        Some(&"revive") => {
            let (t, used) = parse_target(&action[1..], line)?;
            if matches!(t, Target::Leader(_)) {
                return err(line, "revive cannot target a leader (it is dead)");
            }
            expect_end(action, 1 + used, line)?;
            Action::Revive(t)
        }
        Some(&"partition") => {
            let (Some(a), Some(b)) = (action.get(1), action.get(2)) else {
                return err(line, "partition needs two segment ids");
            };
            expect_end(action, 3, line)?;
            let (a, b) = (
                parse_u32(a, line, "segment")? as u16,
                parse_u32(b, line, "segment")? as u16,
            );
            if a == b {
                return err(line, "cannot partition a segment from itself");
            }
            Action::Partition(a, b)
        }
        Some(&"heal") => match action.get(1) {
            Some(&"all") => {
                expect_end(action, 2, line)?;
                Action::HealAll
            }
            Some(a) => {
                let Some(b) = action.get(2) else {
                    return err(line, "heal needs two segment ids (or: heal all)");
                };
                expect_end(action, 3, line)?;
                Action::Heal(
                    parse_u32(a, line, "segment")? as u16,
                    parse_u32(b, line, "segment")? as u16,
                )
            }
            None => return err(line, "heal needs two segment ids (or: heal all)"),
        },
        Some(&"loss") => {
            let (Some(r), Some(kw), Some(d)) = (action.get(1), action.get(2), action.get(3)) else {
                return err(line, "loss needs: loss <rate> for <duration>");
            };
            if *kw != "for" {
                return err(line, format!("expected `for`, got {kw:?}"));
            }
            expect_end(action, 4, line)?;
            Action::Loss {
                rate: parse_rate(r, line)?,
                duration: parse_duration(d, line)?,
            }
        }
        Some(&"gray-partition") => {
            let (a, b) = parse_seg_pair(action, line, "gray-partition")?;
            if a == b {
                return err(line, "cannot gray-partition a segment from itself");
            }
            Action::GrayPartition(a, b)
        }
        Some(&"gray-heal") => {
            let (a, b) = parse_seg_pair(action, line, "gray-heal")?;
            Action::GrayHeal(a, b)
        }
        Some(&"rack-fail") => {
            let Some(s) = action.get(1) else {
                return err(line, "rack-fail needs a segment id");
            };
            expect_end(action, 2, line)?;
            Action::RackFail(parse_u32(s, line, "segment")? as u16)
        }
        Some(&"rack-recover") => {
            let Some(s) = action.get(1) else {
                return err(line, "rack-recover needs a segment id");
            };
            expect_end(action, 2, line)?;
            Action::RackRecover(parse_u32(s, line, "segment")? as u16)
        }
        Some(&"churn-storm") => {
            let (Some(c), Some(kw), Some(d)) = (action.get(1), action.get(2), action.get(3)) else {
                return err(
                    line,
                    "churn-storm needs: churn-storm <count> for <duration>",
                );
            };
            if *kw != "for" {
                return err(line, format!("expected `for`, got {kw:?}"));
            }
            expect_end(action, 4, line)?;
            let count = parse_u32(c, line, "churn count")?;
            if count == 0 {
                return err(line, "churn-storm count must be at least 1");
            }
            Action::ChurnStorm {
                count,
                duration: parse_duration(d, line)?,
            }
        }
        Some(&"skew") => {
            let (Some(h), Some(p)) = (action.get(1), action.get(2)) else {
                return err(line, "skew needs: skew <host> <ppm>");
            };
            expect_end(action, 3, line)?;
            Action::Skew {
                host: parse_u32(h, line, "host index")?,
                ppm: parse_ppm(p, line)?,
            }
        }
        Some(&"router-down") => {
            let Some(r) = action.get(1) else {
                return err(line, "router-down needs a router id");
            };
            expect_end(action, 2, line)?;
            Action::RouterDown(parse_u32(r, line, "router")? as u16)
        }
        Some(&"router-up") => {
            let Some(r) = action.get(1) else {
                return err(line, "router-up needs a router id");
            };
            expect_end(action, 2, line)?;
            Action::RouterUp(parse_u32(r, line, "router")? as u16)
        }
        Some(other) => return err(line, format!("unknown action {other:?}")),
        None => return err(line, "at needs an action (kill/revive/partition/heal/loss)"),
    };
    Ok(ScheduledFault { at, action: fault })
}

/// `restart host <n> at <t> down <d>` → kill at `t`, revive at `t+d`.
fn parse_restart(
    toks: &[&str],
    line: usize,
    out: &mut Vec<ScheduledFault>,
) -> Result<(), ParseError> {
    let [kw_host, h, kw_at, t, kw_down, d] = toks else {
        return err(line, "restart needs: restart host <n> at <t> down <d>");
    };
    if *kw_host != "host" || *kw_at != "at" || *kw_down != "down" {
        return err(line, "restart needs: restart host <n> at <t> down <d>");
    }
    let host = parse_u32(h, line, "host index")?;
    let at = parse_duration(t, line)?;
    let down = parse_duration(d, line)?;
    out.push(ScheduledFault {
        at,
        action: Action::Kill(Target::Host(host)),
    });
    out.push(ScheduledFault {
        at: at + down,
        action: Action::Revive(Target::Host(host)),
    });
    Ok(())
}

/// `rolling-restart hosts <a>..<b> start <t> down <d> gap <g>`:
/// restart hosts `a..=b` one after another, each down for `d`, with `g`
/// between consecutive kills.
fn parse_rolling(
    toks: &[&str],
    line: usize,
    out: &mut Vec<ScheduledFault>,
) -> Result<(), ParseError> {
    let [kw_hosts, range, kw_start, t, kw_down, d, kw_gap, g] = toks else {
        return err(
            line,
            "rolling-restart needs: rolling-restart hosts <a>..<b> start <t> down <d> gap <g>",
        );
    };
    if *kw_hosts != "hosts" || *kw_start != "start" || *kw_down != "down" || *kw_gap != "gap" {
        return err(
            line,
            "rolling-restart needs: rolling-restart hosts <a>..<b> start <t> down <d> gap <g>",
        );
    }
    let Some((a, b)) = range.split_once("..") else {
        return err(
            line,
            format!("bad host range {range:?} (want a..b, inclusive)"),
        );
    };
    let (a, b) = (
        parse_u32(a, line, "host index")?,
        parse_u32(b, line, "host index")?,
    );
    if b < a {
        return err(line, format!("empty host range {range:?}"));
    }
    let start = parse_duration(t, line)?;
    let down = parse_duration(d, line)?;
    let gap = parse_duration(g, line)?;
    for (i, host) in (a..=b).enumerate() {
        let at = start + gap * i as u64;
        out.push(ScheduledFault {
            at,
            action: Action::Kill(Target::Host(host)),
        });
        out.push(ScheduledFault {
            at: at + down,
            action: Action::Revive(Target::Host(host)),
        });
    }
    Ok(())
}

/// Parse a scenario file into a [`Schedule`].
pub fn parse(text: &str) -> Result<Schedule, ParseError> {
    let mut schedule = Schedule::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let toks: Vec<&str> = body.split_whitespace().collect();
        match toks[0] {
            "settle" => {
                let Some(d) = toks.get(1) else {
                    return err(line, "settle needs a duration");
                };
                expect_end(&toks, 2, line)?;
                schedule.settle = parse_duration(d, line)?;
            }
            "at" => {
                let ev = parse_at(&toks[1..], line)?;
                schedule.events.push(ev);
            }
            "topology" => {
                let (Some(kind), Some(s), Some(h)) = (toks.get(1), toks.get(2), toks.get(3)) else {
                    return err(
                        line,
                        "topology needs: topology star|ring <segments> <hosts>",
                    );
                };
                expect_end(&toks, 4, line)?;
                let segments = parse_u32(s, line, "segment count")? as u16;
                let hosts_per_segment = parse_u32(h, line, "host count")? as u16;
                schedule.topo = Some(match *kind {
                    "star" => TopoSpec::Star {
                        segments,
                        hosts_per_segment,
                    },
                    "ring" => TopoSpec::Ring {
                        segments,
                        hosts_per_segment,
                    },
                    other => {
                        return err(line, format!("unknown topology {other:?} (want star|ring)"))
                    }
                });
            }
            "protocol" => {
                let Some(p) = toks.get(1) else {
                    return err(line, "protocol needs a name");
                };
                expect_end(&toks, 2, line)?;
                let Some(protocol) = Protocol::parse(p) else {
                    return err(
                        line,
                        format!(
                            "unknown protocol {p:?} (want one of {:?})",
                            crate::PROTOCOLS
                        ),
                    );
                };
                schedule.protocol = Some(protocol);
            }
            "restart" => parse_restart(&toks[1..], line, &mut schedule.events)?,
            "rolling-restart" => parse_rolling(&toks[1..], line, &mut schedule.events)?,
            other => return err(line, format!("unknown directive {other:?}")),
        }
    }
    schedule.normalize();
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::SECS;

    #[test]
    fn parses_the_doc_example() {
        let text = "\
# Two kill waves around a partition, with a loss burst.
settle 45s
at 10s kill host 3
at 12s kill leader 1
at 15s kill random
at 30s revive host 3
at 35s revive random
at 40s partition 0 1
at 70s heal 0 1
at 80s loss 0.3 for 10s
restart host 2 at 100s down 2s
rolling-restart hosts 0..3 start 110s down 2s gap 5s
";
        let s = parse(text).unwrap();
        assert_eq!(s.settle, 45 * SECS);
        // 8 explicit + 2 (restart) + 8 (rolling over 4 hosts).
        assert_eq!(s.events.len(), 18);
        assert_eq!(
            s.events[0],
            ScheduledFault {
                at: 10 * SECS,
                action: Action::Kill(Target::Host(3)),
            }
        );
        // Rolling restart expanded with the right phase.
        let kills: Vec<_> = s
            .events
            .iter()
            .filter(|e| matches!(e.action, Action::Kill(Target::Host(h)) if h < 4 && e.at >= 110 * SECS))
            .map(|e| e.at)
            .collect();
        assert_eq!(kills, vec![110 * SECS, 115 * SECS, 120 * SECS, 125 * SECS]);
    }

    #[test]
    fn render_parse_round_trip() {
        let text = "\
settle 30s
at 5s kill leader 0
at 8s loss 0.25 for 2500ms
at 20s partition 0 1
at 40s heal all
at 50s revive random
";
        let s = parse(text).unwrap();
        let rendered = s.render();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(s, reparsed);
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("at 5s kill host 1\nat 6s explode\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown action"), "{}", e.message);

        let e = parse("at 5s loss 1.5 for 10s\n").unwrap_err();
        assert!(e.message.contains("loss rate"), "{}", e.message);

        let e = parse("at 5s partition 1 1\n").unwrap_err();
        assert!(e.message.contains("itself"), "{}", e.message);

        let e = parse("at 5s revive leader 0\n").unwrap_err();
        assert!(e.message.contains("revive"), "{}", e.message);

        let e = parse("at 5s kill host 1 junk\n").unwrap_err();
        assert!(e.message.contains("trailing"), "{}", e.message);
    }

    #[test]
    fn parses_the_adversarial_fault_classes() {
        let text = "\
topology ring 4 2
settle 60s
at 10s gray-partition 0 1      # 0→1 blocked, 1→0 flows
at 20s skew 3 -200
at 25s rack-fail 2
at 30s churn-storm 5 for 10s
at 45s router-down 1
at 55s rack-recover 2
at 60s gray-heal 0 1
at 70s router-up 1
";
        let s = parse(text).unwrap();
        assert_eq!(
            s.topo,
            Some(crate::schedule::TopoSpec::Ring {
                segments: 4,
                hosts_per_segment: 2
            })
        );
        assert_eq!(s.events.len(), 8);
        assert_eq!(s.events[0].action, Action::GrayPartition(0, 1));
        assert_eq!(s.events[1].action, Action::Skew { host: 3, ppm: -200 });
        assert_eq!(s.events[2].action, Action::RackFail(2));
        assert_eq!(
            s.events[3].action,
            Action::ChurnStorm {
                count: 5,
                duration: 10 * SECS
            }
        );
        assert_eq!(s.events[4].action, Action::RouterDown(1));
        assert_eq!(s.events[7].action, Action::RouterUp(1));
        // Full round trip through canonical text, topology included.
        let reparsed = parse(&s.render()).unwrap();
        assert_eq!(s, reparsed);
        assert_eq!(s.render(), reparsed.render());
    }

    #[test]
    fn adversarial_directives_reject_bad_operands() {
        let e = parse("at 5s gray-partition 1 1\n").unwrap_err();
        assert!(e.message.contains("itself"), "{}", e.message);

        let e = parse("at 5s skew 3 600000\n").unwrap_err();
        assert!(e.message.contains("skew"), "{}", e.message);

        let e = parse("at 5s churn-storm 0 for 10s\n").unwrap_err();
        assert!(e.message.contains("at least 1"), "{}", e.message);

        let e = parse("at 5s churn-storm 5 over 10s\n").unwrap_err();
        assert!(e.message.contains("expected `for`"), "{}", e.message);

        let e = parse("at 5s router-down\n").unwrap_err();
        assert!(e.message.contains("router"), "{}", e.message);

        let e = parse("topology mesh 4 2\n").unwrap_err();
        assert!(e.message.contains("unknown topology"), "{}", e.message);

        let e = parse("at 5s rack-fail 1 2\n").unwrap_err();
        assert!(e.message.contains("trailing"), "{}", e.message);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s = parse("\n# nothing\n   \nat 1s kill random # inline\n").unwrap();
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn protocol_directive_round_trips_and_validates() {
        let s = parse("protocol swim\nsettle 30s\nat 5s kill host 1\n").unwrap();
        assert_eq!(s.protocol, Some(Protocol::Swim));
        let reparsed = parse(&s.render()).unwrap();
        assert_eq!(s, reparsed);

        for p in crate::PROTOCOLS {
            assert!(parse(&format!("protocol {p}\n")).is_ok(), "{p}");
        }
        let e = parse("protocol raft\n").unwrap_err();
        assert!(e.message.contains("unknown protocol"), "{}", e.message);
    }
}
