//! Gossip-style membership à la van Renesse, Minsky & Hayden
//! (Middleware '98) — the paper's second baseline.
//!
//! Every node keeps a heartbeat counter per member. Once per period it
//! increments its own counter and sends its **entire membership view**
//! (records + counters, Θ(n·s) bytes) to `fanout` random peers, who merge
//! by taking the per-member maximum. A member whose counter has not
//! advanced for `T_fail` is declared failed; it stays blacklisted for
//! another `T_cleanup` so stale gossip cannot resurrect it.
//!
//! `T_fail` grows with `log n` for a fixed mistake probability — which is
//! exactly why the paper finds gossip the slowest of the three schemes on
//! a LAN (Figs. 12–13) while its per-round traffic is the largest
//! (Fig. 11).

use std::collections::HashMap;
use tamp_directory::{DirectoryClient, Provenance, SharedDirectory};
use tamp_netsim::{Actor, Context, Nanos, PacketMeta, ProtocolEvent, SECS};
use tamp_wire::{Gossip, GossipEntry, Message, NodeId, NodeRecord, ServiceDecl};

/// Tunables for one gossip node.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Gossip round period.
    pub period: Nanos,
    /// Random peers contacted per round.
    pub fanout: usize,
    /// Expected cluster size, used to size `T_fail` (gossip deployments
    /// configure this; detection time scales with `log n`).
    pub expected_cluster_size: usize,
    /// The address book: node ids this node may gossip with before it
    /// has learned the membership (the seed list every gossip deployment
    /// ships with).
    pub seeds: Vec<NodeId>,
    /// First-round phase jitter.
    pub startup_jitter: Nanos,
    /// Sweep granularity.
    pub sweep_period: Nanos,
    /// Services to export.
    pub services: Vec<ServiceDecl>,
}

/// Mistake (false failure declaration) probability bound; `T_fail` is
/// derived from it and the expected cluster size.
pub const MISTAKE_PROBABILITY: f64 = 0.001;
/// Each record is padded so one gossip entry costs the same bytes as
/// one heartbeat in the other schemes (228 B in the paper).
pub const PAD_ENTRY_TO: usize = 228;

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            period: SECS,
            fanout: 1,
            expected_cluster_size: 100,
            seeds: Vec::new(),
            startup_jitter: 500_000_000,
            sweep_period: 100_000_000,
            services: Vec::new(),
        }
    }
}

impl GossipConfig {
    /// Failure timeout: `T_fail = period × (log2 n + log2(1/P_mistake)/2)`.
    ///
    /// The first term is the expected O(log n) rounds for a counter to
    /// propagate everywhere with fanout ≥ 1; the second adds safety
    /// margin so the probability that a live node's counter is simply
    /// late stays below [`MISTAKE_PROBABILITY`] (van Renesse et al., §3).
    pub fn t_fail(&self) -> Nanos {
        let n = self.expected_cluster_size.max(2) as f64;
        let rounds = n.log2() + (1.0 / MISTAKE_PROBABILITY).log2() / 2.0;
        (self.period as f64 * rounds) as Nanos
    }

    /// Blacklist duration after a failure declaration (classic 2×T_fail).
    pub fn t_cleanup(&self) -> Nanos {
        2 * self.t_fail()
    }
}

const T_ROUND: u64 = 1;
const T_SWEEP: u64 = 2;

struct MemberState {
    counter: u64,
    last_increase: Nanos,
}

/// One node of the gossip baseline.
pub struct GossipNode {
    cfg: GossipConfig,
    me: NodeId,
    incarnation: u64,
    crashed: bool,
    record: NodeRecord,
    my_counter: u64,
    /// When the last gossip message arrived. Failure staleness is
    /// measured against this, not against `now`: while nothing at all is
    /// arriving, the silence is evidence of *our* starvation (fanout-1
    /// inbound gaps, isolation), not of every member's death — declaring
    /// on wall-clock time lets one quiet stretch mass-remove the whole
    /// live view.
    last_rx: Nanos,
    members: HashMap<NodeId, MemberState>,
    /// Failed members and when they may be forgotten.
    blacklist: HashMap<NodeId, Nanos>,
    directory: SharedDirectory,
}

impl GossipNode {
    pub fn new(me: NodeId, cfg: GossipConfig) -> Self {
        let mut n = GossipNode {
            record: NodeRecord::new(me, 0),
            me,
            incarnation: 0,
            crashed: false,
            my_counter: 0,
            last_rx: 0,
            members: HashMap::new(),
            blacklist: HashMap::new(),
            directory: SharedDirectory::new(),
            cfg,
        };
        n.rebuild_record();
        n
    }

    pub fn directory_client(&self) -> DirectoryClient {
        self.directory.client()
    }

    fn rebuild_record(&mut self) {
        let mut r = NodeRecord::new(self.me, self.incarnation);
        r.services = self.cfg.services.clone();
        r.pad_to_encoded_size(PAD_ENTRY_TO);
        self.record = r;
    }

    /// Build the full view this node would gossip.
    fn view(&self) -> Vec<GossipEntry> {
        let mut entries: Vec<GossipEntry> = self.directory.read(|d| {
            d.entries()
                .filter(|e| e.node != self.me)
                .map(|e| GossipEntry {
                    record: e.record(),
                    heartbeat_counter: self.members.get(&e.node).map_or(0, |m| m.counter),
                })
                .collect()
        });
        entries.push(GossipEntry {
            record: self.record.clone(),
            heartbeat_counter: self.my_counter,
        });
        entries.sort_by_key(|e| e.record.node);
        entries
    }

    /// Pick `fanout` random gossip targets among known live members and
    /// seeds.
    fn targets(&self, ctx: &mut Context) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .members
            .keys()
            .copied()
            .chain(self.cfg.seeds.iter().copied())
            .filter(|&n| n != self.me && !self.blacklist.contains_key(&n))
            .collect();
        candidates.sort();
        candidates.dedup();
        let mut out = Vec::new();
        for _ in 0..self.cfg.fanout.min(candidates.len()) {
            let i = ctx.rand_below(candidates.len() as u64) as usize;
            out.push(candidates.swap_remove(i));
        }
        out
    }
}

impl Actor for GossipNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            self.crashed = false;
            self.members.clear();
            self.blacklist.clear();
            self.my_counter = 0;
            self.last_rx = 0;
            self.directory.update(|d| {
                *d = tamp_directory::Directory::new();
                (true, ())
            });
        }
        self.incarnation += 1;
        self.rebuild_record();
        let rec = self.record.clone();
        let now = ctx.now();
        self.directory
            .update(|d| (d.apply_join(rec, Provenance::Local, now).changed(), ()));
        let phase = ctx.jitter(self.cfg.startup_jitter);
        ctx.set_timer(phase + self.cfg.period, T_ROUND);
        ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.directory.update(|d| {
            *d = tamp_directory::Directory::new();
            (true, ())
        });
    }

    fn on_packet(&mut self, ctx: &mut Context, _meta: PacketMeta, msg: &Message) {
        let Message::Gossip(g) = msg else { return };
        if g.from == self.me {
            return;
        }
        let now = ctx.now();
        self.last_rx = now;
        for e in &g.entries {
            let node = e.record.node;
            if node == self.me {
                continue;
            }
            // The blacklist wins over stale counters, but a *higher
            // incarnation* means a genuine restart: let it through.
            if let Some(&until) = self.blacklist.get(&node) {
                let known_inc = self.directory.read(|d| d.get(node).map(|e| e.incarnation));
                let restarted = known_inc.is_none_or(|inc| e.record.incarnation > inc);
                if now < until && !restarted {
                    continue;
                }
                if restarted && now < until {
                    // A higher incarnation overrode an active blacklist
                    // entry: the presumed death was refuted by a genuine
                    // restart — gossip's analogue of a refutation.
                    ctx.count("gossip", "suspicions_refuted", 1);
                    ctx.emit(ProtocolEvent::SuspicionRefuted { subject: node.0 });
                }
                self.blacklist.remove(&node);
            }
            let m = self.members.entry(node).or_insert(MemberState {
                counter: 0,
                last_increase: now,
            });
            if e.heartbeat_counter > m.counter || !self.directory.read(|d| d.contains(node)) {
                if e.heartbeat_counter > m.counter {
                    m.counter = e.heartbeat_counter;
                    m.last_increase = now;
                }
                let (was, applied) = self.directory.update(|d| {
                    let was = d.contains(node);
                    let a = d.apply_join(e.record.clone(), Provenance::Direct, now);
                    (a.changed(), (was, a))
                });
                if applied.changed() && !was {
                    ctx.observe_added(node);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        match token {
            T_ROUND => {
                self.my_counter += 1;
                let entries = self.view();
                for t in self.targets(ctx) {
                    ctx.count("gossip", "rounds_sent", 1);
                    ctx.send_unicast(
                        t,
                        Message::Gossip(Gossip {
                            from: self.me,
                            entries: entries.clone(),
                        }),
                    );
                }
                ctx.set_timer(self.cfg.period, T_ROUND);
            }
            T_SWEEP => {
                let now = ctx.now();
                let t_fail = self.cfg.t_fail();
                let t_cleanup = self.cfg.t_cleanup();
                // Staleness is `last_rx − last_increase`: how much
                // *received* information failed to advance the member's
                // counter. Using `now` here would convict every member
                // during an inbound-starvation gap.
                let failed: Vec<NodeId> = self
                    .members
                    .iter()
                    .filter(|(_, m)| self.last_rx.saturating_sub(m.last_increase) >= t_fail)
                    .map(|(&n, _)| n)
                    .collect();
                for n in failed {
                    self.members.remove(&n);
                    self.blacklist.insert(n, now + t_cleanup);
                    let inc = self.directory.read(|d| d.get(n).map(|e| e.incarnation));
                    if let Some(inc) = inc {
                        self.directory
                            .update(|d| (d.apply_leave(n, inc, now).changed(), ()));
                        ctx.count("gossip", "deaths_declared", 1);
                        ctx.observe_removed(n);
                    }
                }
                self.blacklist.retain(|_, &mut until| now < until);
                ctx.set_timer(self.cfg.sweep_period, T_SWEEP);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_fail_grows_logarithmically() {
        let mk = |n| GossipConfig {
            expected_cluster_size: n,
            ..Default::default()
        };
        let t20 = mk(20).t_fail();
        let t100 = mk(100).t_fail();
        let t1000 = mk(1000).t_fail();
        assert!(t20 < t100 && t100 < t1000);
        // Doubling n adds exactly one period.
        let t40 = mk(40).t_fail();
        assert_eq!(t40 - t20, SECS);
        // Roughly: 20 nodes → ~9.3 periods, 100 → ~11.6.
        assert!((9 * SECS..10 * SECS).contains(&t20), "{t20}");
        assert!((11 * SECS..13 * SECS).contains(&t100), "{t100}");
    }

    #[test]
    fn cleanup_is_twice_fail() {
        let cfg = GossipConfig::default();
        assert_eq!(cfg.t_cleanup(), 2 * cfg.t_fail());
    }

    #[test]
    fn view_contains_self_with_counter() {
        let mut n = GossipNode::new(NodeId(3), GossipConfig::default());
        n.my_counter = 7;
        // Before start, directory is empty — the view still carries self.
        let v = n.view();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].record.node, NodeId(3));
        assert_eq!(v[0].heartbeat_counter, 7);
    }

    #[test]
    fn gossip_message_size_matches_paper_model() {
        // One entry ≈ one 228-byte heartbeat record (+ counter): a full
        // view of n members costs ≈ n × s bytes, the paper's Θ(n·s).
        let mut node = GossipNode::new(NodeId(1), GossipConfig::default());
        node.my_counter = 1;
        let msg = Message::Gossip(Gossip {
            from: NodeId(1),
            entries: node.view(),
        });
        let one = tamp_wire::codec::encoded_len(&msg);
        assert!((200..300).contains(&one), "single-entry gossip: {one}");
    }
}
