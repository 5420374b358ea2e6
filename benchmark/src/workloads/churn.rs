//! `churn_wire`: a cold-started tree cluster at default protocol
//! settings (suspicion, anti-entropy and quarantine on) with every
//! packet encoded and parsed through borrowed wire views. One whole leaf
//! segment is killed, then host 0 (a leader at every level), then the
//! segment is revived; the run ends once the view has to have healed.
//!
//! Uses the directory the other way round from `a9_*`: joins, leaves,
//! tombstones, digests, update logs, elections and full-view syncs.

use super::{a9::scale_topology, Ctx, Digest};
use crate::catalog::Size;
use tamp_membership::{MembershipConfig, MembershipNode};
use tamp_netsim::{Control, Engine, EngineConfig, SimTime, SECS};
use tamp_topology::{HostId, SegmentId};
use tamp_wire::{CodecKind, NodeId};

/// The frozen fault schedule, in simulated seconds.
struct Plan {
    nodes: usize,
    /// Kill every host of the segment but its leader, instead of the
    /// whole segment. With the whole segment dead, the rest of the run
    /// costs the host one of two levels at HEAD (`wall_s` ~30 % apart)
    /// depending on the seed — reproducible for one seed, so the ledger
    /// keeps it, but no bound can resolve a change across seeds, which
    /// is what `--workload` runs are compared over (README, Steadiness).
    spare_segment_leader: bool,
    kill_segment_at: u64,
    kill_leader_at: u64,
    revive_segment_at: u64,
    horizon: u64,
}

fn plan(size: Size) -> Plan {
    match size {
        Size::Smoke => Plan {
            nodes: 200,
            spare_segment_leader: false,
            kill_segment_at: 12,
            kill_leader_at: 14,
            revive_segment_at: 18,
            horizon: 40,
        },
        Size::Bench => Plan {
            nodes: 500,
            spare_segment_leader: true,
            kill_segment_at: 40,
            kill_leader_at: 45,
            revive_segment_at: 60,
            horizon: 120,
        },
        Size::Full => Plan {
            nodes: 1000,
            spare_segment_leader: false,
            kill_segment_at: 40,
            kill_leader_at: 45,
            revive_segment_at: 60,
            horizon: 120,
        },
    }
}

/// A started cluster with its faults scheduled.
pub struct State {
    engine: Engine,
    clients: Vec<tamp_directory::DirectoryClient>,
    plan: Plan,
}

const LEADER: HostId = HostId(0);

pub fn setup(ctx: &mut Ctx) -> State {
    let plan = plan(ctx.size);
    let tr = &mut ctx.tracer;
    let sp = tr.enter("topology.build");
    let (topo, _) = scale_topology(plan.nodes);
    tr.exit(sp);
    let n = topo.num_hosts();
    let last_segment = SegmentId(topo.num_segments() as u16 - 1);
    let mut segment: Vec<HostId> = topo.hosts_on(last_segment).to_vec();
    if plan.spare_segment_leader {
        // Lowest id wins elections: that is the segment's leader.
        segment.sort_unstable();
        segment.remove(0);
    }
    assert!(
        !segment.contains(&LEADER),
        "host 0 must outlive the segment kill"
    );

    let sp = tr.enter("setup.engine_build");
    let cfg = EngineConfig {
        wire_codec: Some(CodecKind::Borrowed),
        ..Default::default()
    };
    let mut engine = Engine::new(topo, cfg, ctx.seed);
    let mut clients = Vec::with_capacity(n);
    for h in engine.hosts() {
        let node = MembershipNode::new(NodeId(h.0), MembershipConfig::default());
        clients.push(node.directory_client());
        engine.add_actor(h, Box::new(node));
    }
    engine.start();
    for &h in &segment {
        engine.schedule(plan.kill_segment_at * SECS, Control::Kill(h));
        engine.schedule(plan.revive_segment_at * SECS, Control::Revive(h));
    }
    engine.schedule(plan.kill_leader_at * SECS, Control::Kill(LEADER));
    tr.exit(sp);
    State {
        engine,
        clients,
        plan,
    }
}

pub fn measure(ctx: &mut Ctx, state: State) {
    let State {
        mut engine,
        clients,
        plan,
    } = state;
    let n = engine.hosts().len();
    let kill_at: SimTime = plan.kill_leader_at * SECS;

    // ---------------------------------------------------- timed region
    let run = ctx.tracer.enter("netsim.run");
    engine.run_until(plan.horizon * SECS);
    ctx.tracer.exit(run);
    ctx.stop_timed();

    // --------------------------------------------------------- outputs
    // Ground truth at the horizon: everyone but host 0 is alive. Ids are
    // 0..n, so "n−1 members, host 0 not among them" pins the exact view.
    let live = n - 1;
    let wrong = engine
        .hosts()
        .into_iter()
        .filter(|&h| h != LEADER)
        .filter(|h| {
            let c = &clients[h.index()];
            c.member_count() != live || c.is_alive(NodeId(LEADER.0))
        })
        .count();
    ctx.check(wrong == 0, || {
        format!("churn_wire: {wrong}/{live} live nodes hold a wrong view at the horizon")
    });

    let subject = NodeId(LEADER.0);
    let since_kill = |t: Option<SimTime>| match t {
        Some(t) if t >= kill_at => (t - kill_at) as f64 / 1e9,
        // Never removed, or removed before it was killed: both wrong.
        _ => -1.0,
    };
    let detect_s = since_kill(engine.stats().first_removal(subject));
    let converge_s = since_kill(engine.stats().last_removal(subject));
    ctx.check(detect_s > 0.0 && converge_s >= detect_s, || {
        format!("churn_wire: host 0 removal times {detect_s} / {converge_s} s after its kill")
    });

    let totals = engine.stats().totals();
    let mut digest = Digest::default();
    digest.engine(&engine);

    let wall_s = ctx.out().wall_s;
    ctx.layer(
        "netsim.run_ns_per_delivery.churn_wire",
        wall_s * 1e9 / totals.recv_pkts as f64,
    );

    let out = ctx.out();
    out.deliveries = totals.recv_pkts;
    out.attempted = live as u64;
    out.failed = wrong as u64;
    out.digest = digest.value();
    out.exact = vec![
        ("failed_ops_pct".into(), 100.0 * wrong as f64 / live as f64),
        (
            "sim_bytes_per_node_s".into(),
            totals.recv_bytes as f64 / (n as f64 * plan.horizon as f64),
        ),
        ("sim_detect_s".into(), detect_s),
        ("sim_converge_s".into(), converge_s),
    ];
}
