//! Engine-level pin of the `(time, key, seq)` event total order (see
//! the `scheduler` module docs): when several events share a timestamp,
//! control events dispatch first (key 0), then hosts in id order
//! (key = host + 1), and only then insertion order breaks ties.
//!
//! The schedule below is built so that insertion order *contradicts*
//! host order at the rendezvous instant — the host with the highest id
//! arms its timers first. A scheduler that fell back to insertion
//! order (or to an unstable heap ordering) would fire them first.

use std::sync::{Arc, Mutex};
use tamp_netsim::{Actor, Context, Control, Engine, EngineConfig, PacketMeta, SimTime, MILLIS};
use tamp_topology::{generators, HostId};
use tamp_wire::Message;

/// All three hosts rendezvous their timers at this instant.
const RENDEZVOUS: SimTime = 10 * MILLIS;

/// Every timer firing appends `(host, token)` to the shared log.
struct Staggered {
    host: u32,
    log: Arc<Mutex<Vec<(u32, u64)>>>,
}

impl Actor for Staggered {
    fn on_start(&mut self, ctx: &mut Context) {
        match self.host {
            // Highest host arms its rendezvous timers FIRST (lowest
            // seqs), two of them to pin same-host insertion order.
            2 => {
                ctx.set_timer(RENDEZVOUS, 200);
                ctx.set_timer(RENDEZVOUS, 201);
            }
            // The others arm theirs later, via a chained earlier timer,
            // so their seqs are strictly larger — and host 0, which must
            // fire first at the rendezvous, gets the largest seq of all.
            1 => ctx.set_timer(MILLIS, 1),
            0 => ctx.set_timer(2 * MILLIS, 2),
            _ => unreachable!(),
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context, _meta: PacketMeta, _msg: &Message) {}

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        self.log.lock().unwrap().push((self.host, token));
        match token {
            1 => ctx.set_timer(RENDEZVOUS - ctx.now(), 100),
            2 => ctx.set_timer(RENDEZVOUS - ctx.now(), 0),
            _ => {}
        }
    }
}

fn run(kill_host2_at_rendezvous: bool) -> Vec<(u32, u64)> {
    let topo = generators::single_segment(3);
    let mut engine = Engine::new(topo, EngineConfig::default(), 7);
    let log = Arc::new(Mutex::new(Vec::new()));
    for h in engine.hosts() {
        engine.add_actor(
            h,
            Box::new(Staggered {
                host: h.0,
                log: Arc::clone(&log),
            }),
        );
    }
    if kill_host2_at_rendezvous {
        engine.schedule(RENDEZVOUS, Control::Kill(HostId(2)));
    }
    engine.start();
    engine.run_until(2 * RENDEZVOUS);
    let out = log.lock().unwrap().clone();
    out
}

/// At the rendezvous, host order beats insertion order; within one
/// host, insertion order decides.
#[test]
fn equal_timestamps_order_by_host_then_seq() {
    let expected = vec![(1, 1), (0, 2), (0, 0), (1, 100), (2, 200), (2, 201)];
    assert_eq!(run(false), expected, "tie-break order violated");
}

/// A control event at the same timestamp (key 0) dispatches before any
/// host event: a kill scheduled exactly at the rendezvous must suppress
/// the victim's same-instant timers.
#[test]
fn control_events_preempt_same_time_host_events() {
    let expected = vec![(1, 1), (0, 2), (0, 0), (1, 100)];
    assert_eq!(run(true), expected, "control-first ordering violated");
}
