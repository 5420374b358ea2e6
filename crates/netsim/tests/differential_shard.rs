//! The sharded-engine lock: running the simulation partitioned across
//! shards (at any shard count, on any pool width) must be
//! **byte-identical** to the sequential engine — same traces, same
//! per-host stats, same per-second series, same observations, same
//! telemetry.
//!
//! The fingerprint below serializes every externally visible output of
//! a run; the grid compares it across `ShardingKind::Sequential` and
//! `Sharded(k)` for k ∈ {1, 2, 4, 8} and pool widths {1, 2, 5}, over
//! three topology sizes and ten seeds, under a fault script that
//! exercises every control the engine has (kill + revive mid-run, loss
//! changes, a gray partition, a router flap, clock skew). A WAN scenario locks the multi-datacenter sharding case the
//! feature exists for, and a proptest pins the planner's lookahead as a
//! true lower bound on every cross-shard delivery latency — the safety
//! invariant the epoch protocol rests on.

mod common;

use common::fingerprint;
use proptest::prelude::*;
use tamp_netsim::{
    Actor, ChannelId, Context, Control, Engine, EngineConfig, LossModel, PacketMeta, ShardingKind,
    TraceConfig, MILLIS, SECS,
};
use tamp_topology::{generators, sharding::plan_shards, HostId, SegmentId, Topology};
use tamp_wire::{Message, NodeId, SyncRequest, SyncResponse};

/// A busy little protocol: beacons a TTL-2 multicast every second
/// (timer cadence jittered through the per-host RNG), unicasts a reply
/// to every third beacon it hears, and reports membership observations
/// and telemetry counters — so every output channel of the engine
/// carries data the fingerprint can disagree about.
struct Chatter {
    seq: u64,
    heard: u64,
}

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.subscribe(ChannelId(0));
        let j = ctx.jitter(50 * MILLIS);
        ctx.set_timer(SECS + j, 0);
    }
    fn on_packet(&mut self, ctx: &mut Context, meta: PacketMeta, msg: &Message) {
        match msg {
            Message::SyncRequest(rq) => {
                self.heard += 1;
                ctx.count("diff", "beacons", 1);
                if self.heard.is_multiple_of(3) {
                    ctx.send_unicast(
                        NodeId(meta.src.0),
                        Message::SyncResponse(SyncResponse {
                            from: ctx.node_id(),
                            latest_seq: rq.since_seq,
                            records: Vec::new(),
                        }),
                    );
                }
            }
            Message::SyncResponse(rs) => {
                ctx.record("diff", "ack_seq", rs.latest_seq);
                if self.heard.is_multiple_of(5) {
                    ctx.observe_added(rs.from);
                } else if self.heard.is_multiple_of(7) {
                    ctx.observe_suspected(rs.from);
                }
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        self.seq += 1;
        ctx.send_multicast(
            ChannelId(0),
            2,
            Message::SyncRequest(SyncRequest {
                from: ctx.node_id(),
                since_seq: self.seq,
            }),
        );
        let j = ctx.jitter(50 * MILLIS);
        ctx.set_timer(SECS + j, 0);
    }
}

fn config(sharding: ShardingKind, jobs: usize) -> EngineConfig {
    EngineConfig {
        loss: LossModel { rate: 0.05 },
        trace: TraceConfig::all(),
        metrics: true,
        sharding,
        shard_jobs: Some(jobs),
        ..Default::default()
    }
}

/// The standard fault script: every control the engine supports, timed
/// so several land mid-epoch and mid-flight.
fn run_scripted(topo: Topology, seed: u64, sharding: ShardingKind, jobs: usize) -> String {
    let mut eng = Engine::new(topo, config(sharding, jobs), seed);
    let hs = eng.hosts();
    let victim = hs[hs.len() / 2];
    let skewed = hs[hs.len() - 1];
    eng.control_now(Control::SetSkew(skewed, 150_000));
    for &h in &hs {
        eng.add_actor(h, Box::new(Chatter { seq: 0, heard: 0 }));
    }
    eng.start();
    eng.schedule(4 * SECS + 500 * MILLIS, Control::Kill(victim));
    eng.schedule(9 * SECS + 500 * MILLIS, Control::Revive(victim));
    eng.schedule(3 * SECS, Control::SetLoss(0.25));
    eng.schedule(6 * SECS, Control::SetLoss(0.05));
    eng.schedule(
        5 * SECS + 250 * MILLIS,
        Control::BlockDirection(SegmentId(0), SegmentId(1)),
    );
    eng.schedule(
        8 * SECS + 250 * MILLIS,
        Control::UnblockDirection(SegmentId(0), SegmentId(1)),
    );
    eng.schedule(7 * SECS, Control::RouterDown(0));
    eng.schedule(11 * SECS, Control::RouterUp(0));
    // Split the run so public API boundaries (and a traffic reset) land
    // between epochs too.
    eng.run_until(5 * SECS);
    eng.run_until(13 * SECS);
    eng.control_now(Control::Kill(hs[0]));
    eng.revive_now(hs[0]);
    eng.run_until(15 * SECS);
    fingerprint(&eng)
}

#[test]
fn sharded_matches_sequential_grid() {
    let sizes: [(usize, usize); 3] = [(2, 3), (4, 3), (6, 4)];
    for (segs, per) in sizes {
        for seed in 0..10u64 {
            let reference = run_scripted(
                generators::star_of_segments(segs, per),
                seed,
                ShardingKind::Sequential,
                1,
            );
            for shards in [1usize, 2, 4, 8] {
                for jobs in [1usize, 2, 5] {
                    let got = run_scripted(
                        generators::star_of_segments(segs, per),
                        seed,
                        ShardingKind::Sharded(shards),
                        jobs,
                    );
                    assert!(
                        got == reference,
                        "divergence: segs={segs} per={per} seed={seed} \
                         shards={shards} jobs={jobs}\n\
                         --- sequential ---\n{reference}\n--- sharded ---\n{got}"
                    );
                }
            }
        }
    }
}

#[test]
fn wan_partition_matches_sequential() {
    // Two DCs over a 45 ms WAN — the deployment sharding was built for.
    // A full partition opens and heals mid-run; a host dies and revives
    // during the partition so the revive's start-phase traffic crosses
    // a healing WAN.
    for seed in 0..5u64 {
        let run = |sharding, jobs| {
            let (topo, groups) = generators::multi_datacenter(&[(2, 4), (2, 4)], 45 * MILLIS);
            let victim = groups[1][0];
            let far_seg = topo.segment_of(victim);
            let near_seg = topo.segment_of(groups[0][0]);
            let mut eng = Engine::new(topo, config(sharding, jobs), seed);
            for h in eng.hosts() {
                eng.add_actor(h, Box::new(Chatter { seq: 0, heard: 0 }));
            }
            eng.start();
            eng.schedule(
                3 * SECS + 100 * MILLIS,
                Control::BlockSegments(near_seg, far_seg),
            );
            eng.schedule(
                8 * SECS + 100 * MILLIS,
                Control::UnblockSegments(near_seg, far_seg),
            );
            eng.schedule(4 * SECS, Control::Kill(victim));
            eng.schedule(8 * SECS, Control::Revive(victim));
            eng.run_until(12 * SECS);
            fingerprint(&eng)
        };
        let reference = run(ShardingKind::Sequential, 1);
        for jobs in [1usize, 3] {
            let got = run(ShardingKind::Sharded(2), jobs);
            assert!(got == reference, "WAN divergence: seed={seed} jobs={jobs}");
        }
    }
}

// ---------------------------------------------------------------- edges

#[test]
fn single_segment_collapses_to_sequential() {
    // One populated segment admits no split: the engine must fall back
    // to the sequential fast path (and still match it, trivially).
    let run = |sharding| {
        let mut eng = Engine::new(generators::single_segment(6), config(sharding, 4), 7);
        for h in eng.hosts() {
            eng.add_actor(h, Box::new(Chatter { seq: 0, heard: 0 }));
        }
        eng.start();
        eng.run_until(10 * SECS);
        (eng.effective_shards(), fingerprint(&eng))
    };
    let (n_seq, reference) = run(ShardingKind::Sequential);
    let (n_sh, got) = run(ShardingKind::Sharded(8));
    assert_eq!(n_seq, 1);
    assert_eq!(n_sh, 1, "single-segment plan must collapse to one shard");
    assert_eq!(got, reference);
}

#[test]
fn fully_killed_shard_stays_in_lockstep() {
    // Kill every host of one segment mid-run: that shard goes
    // event-idle (its next_time is None) while the others keep going,
    // then a revive wakes it back up. The epoch loop must neither hang
    // nor diverge.
    let run = |sharding, jobs| {
        let topo = generators::star_of_segments(2, 3);
        let doomed: Vec<HostId> = topo.hosts_on(SegmentId(1)).to_vec();
        let mut eng = Engine::new(topo, config(sharding, jobs), 21);
        for h in eng.hosts() {
            eng.add_actor(h, Box::new(Chatter { seq: 0, heard: 0 }));
        }
        eng.start();
        for &h in &doomed {
            eng.schedule(3 * SECS + 700 * MILLIS, Control::Kill(h));
        }
        eng.schedule(9 * SECS + 300 * MILLIS, Control::Revive(doomed[0]));
        eng.run_until(14 * SECS);
        fingerprint(&eng)
    };
    let reference = run(ShardingKind::Sequential, 1);
    for jobs in [1usize, 2] {
        assert_eq!(run(ShardingKind::Sharded(2), jobs), reference);
    }
}

#[test]
fn controls_at_epoch_boundaries_apply_once_everywhere() {
    // Global controls are broadcast to every shard with one (time, seq):
    // schedule a pile of them at the exact same instant — including the
    // very first event time, the classic epoch-boundary corner — plus
    // immediate controls between run_until calls.
    let run = |sharding, jobs| {
        let mut eng = Engine::new(
            generators::star_of_segments(3, 2),
            config(sharding, jobs),
            5,
        );
        for h in eng.hosts() {
            eng.add_actor(h, Box::new(Chatter { seq: 0, heard: 0 }));
        }
        eng.start();
        // Same-instant stack: ordering is fixed by the driver sequence.
        eng.schedule(SECS, Control::SetLoss(0.5));
        eng.schedule(SECS, Control::SetLoss(0.0));
        eng.schedule(SECS, Control::BlockSegments(SegmentId(0), SegmentId(2)));
        eng.schedule(SECS, Control::UnblockSegments(SegmentId(0), SegmentId(2)));
        eng.schedule(SECS, Control::RouterDown(0));
        eng.schedule(SECS + 1, Control::RouterUp(0));
        eng.run_until(2 * SECS);
        eng.control_now(Control::SetLoss(0.1));
        eng.run_until(4 * SECS);
        eng.control_now(Control::SetLoss(0.0));
        eng.run_until(8 * SECS);
        fingerprint(&eng)
    };
    let reference = run(ShardingKind::Sequential, 1);
    for shards in [2usize, 3] {
        for jobs in [1usize, 2] {
            assert_eq!(run(ShardingKind::Sharded(shards), jobs), reference);
        }
    }
}

// ----------------------------------------------------- lookahead safety

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The epoch protocol is safe iff no cross-shard delivery can ever
    /// undercut the planner's lookahead: for every pair of hosts placed
    /// in different shards, the minimum possible delivery latency
    /// (host link + fabric + host link, before jitter / serialization /
    /// queueing, which only add) must be ≥ `plan.lookahead`.
    #[test]
    fn planner_lookahead_is_a_true_lower_bound(
        segs in 2usize..9,
        per in 1usize..5,
        want in 2usize..9,
    ) {
        let topo = generators::star_of_segments(segs, per);
        let plan = plan_shards(&topo, want);
        if plan.shards <= 1 {
            return Ok(()); // want clamped to one shard: nothing to check
        }
        let la = plan.lookahead.expect("star is fully reachable");
        prop_assert!(la >= 1, "zero lookahead admits no concurrency window");
        for a in topo.hosts() {
            for b in topo.hosts() {
                let (sa, sb) = (topo.segment_of(a), topo.segment_of(b));
                if plan.seg_shard[sa.0 as usize] == plan.seg_shard[sb.0 as usize] {
                    continue;
                }
                let floor =
                    topo.host_link(a) + topo.segment_latency(sa, sb) + topo.host_link(b);
                prop_assert!(
                    floor >= la,
                    "pair {a:?}->{b:?} can deliver in {floor} < lookahead {la}"
                );
            }
        }
    }

    /// And the engine end-to-end: random small scenarios, sharded vs
    /// sequential, must fingerprint identically (the shard-internal
    /// `at > clock` assertion fires on any lookahead violation).
    #[test]
    fn random_scenarios_stay_byte_identical(
        segs in 2usize..5,
        per in 1usize..4,
        shards in 2usize..6,
        jobs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let reference = run_scripted(
            generators::star_of_segments(segs, per),
            seed,
            ShardingKind::Sequential,
            1,
        );
        let got = run_scripted(
            generators::star_of_segments(segs, per),
            seed,
            ShardingKind::Sharded(shards),
            jobs,
        );
        prop_assert_eq!(got, reference);
    }
}
