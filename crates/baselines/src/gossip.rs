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

use crate::column::{take_due, Baseline, Column, Profile, Shell, Tombstones};
use std::collections::BTreeMap;
use tamp_netsim::{Context, Nanos, PacketMeta, ProtocolEvent, SECS};
use tamp_wire::{GossipEntry, Message, NodeId, ServiceDecl};

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

struct MemberState {
    counter: u64,
    last_increase: Nanos,
}

/// One node of the gossip baseline.
pub type GossipNode = Baseline<Gossip>;

/// The gossip column: heartbeat counters, spread by sending the whole
/// view to `fanout` random peers a round.
#[derive(Default)]
pub struct Gossip {
    cfg: GossipConfig,
    my_counter: u64,
    /// When the last gossip message arrived. Failure staleness is
    /// measured against this, not against `now`: while nothing at all is
    /// arriving, the silence is evidence of *our* starvation (fanout-1
    /// inbound gaps, isolation), not of every member's death — declaring
    /// on wall-clock time lets one quiet stretch mass-remove the whole
    /// live view.
    last_rx: Nanos,
    members: BTreeMap<NodeId, MemberState>,
    /// Failed members, until they may be forgotten. The entries keep no
    /// record: what a blacklisted member's news is weighed against is
    /// the incarnation the yellow pages hold.
    blacklist: Tombstones<()>,
}

impl Gossip {
    /// Build the full view this node would gossip.
    fn view(&self, shell: &Shell) -> Vec<GossipEntry> {
        let mut entries: Vec<GossipEntry> = shell.read(|d| {
            d.entries()
                .filter(|e| e.node != shell.me())
                .map(|e| GossipEntry {
                    record: e.record(),
                    heartbeat_counter: self.members.get(&e.node).map_or(0, |m| m.counter),
                })
                .collect()
        });
        entries.push(GossipEntry {
            record: shell.record().clone(),
            heartbeat_counter: self.my_counter,
        });
        entries.sort_by_key(|e| e.record.node);
        entries
    }

    /// Pick `fanout` random gossip targets among known live members and
    /// seeds.
    fn targets(&self, me: NodeId, ctx: &mut Context) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .members
            .keys()
            .copied()
            .chain(self.cfg.seeds.iter().copied())
            .filter(|&n| n != me && !self.blacklist.contains_key(&n))
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

impl Column for Gossip {
    type Config = GossipConfig;

    fn new(mut cfg: GossipConfig) -> (Self, Profile) {
        let profile = Profile {
            services: std::mem::take(&mut cfg.services),
            pad_to: PAD_ENTRY_TO,
            startup_jitter: cfg.startup_jitter,
            period: cfg.period,
            sweep_period: cfg.sweep_period,
        };
        let column = Gossip {
            cfg,
            ..Gossip::default()
        };
        (column, profile)
    }

    fn reset(&mut self) {
        self.members.clear();
        self.blacklist.clear();
        self.my_counter = 0;
        self.last_rx = 0;
    }

    fn on_packet(&mut self, shell: &mut Shell, ctx: &mut Context, _: PacketMeta, msg: &Message) {
        let Message::Gossip(g) = msg else { return };
        if g.from == shell.me() {
            return;
        }
        let now = ctx.now();
        self.last_rx = now;
        for e in &g.entries {
            let node = e.record.node;
            if node == shell.me() {
                continue;
            }
            // The blacklist wins over stale counters, but a *higher
            // incarnation* means a genuine restart: let it through.
            if let Some(&((), until)) = self.blacklist.get(&node) {
                let known_inc = shell.read(|d| d.get(node).map(|e| e.incarnation));
                let restarted = known_inc.is_none_or(|inc| e.record.incarnation > inc);
                if now < until && !restarted {
                    continue;
                }
                if restarted && now < until {
                    // A higher incarnation overrode an active blacklist
                    // entry: the presumed death was refuted by a genuine
                    // restart — gossip's analogue of a refutation.
                    ctx.emit(ProtocolEvent::BlacklistOverridden {
                        subject: node.0,
                        incarnation: e.record.incarnation,
                    });
                }
                self.blacklist.remove(&node);
            }
            let m = self.members.entry(node).or_insert(MemberState {
                counter: 0,
                last_increase: now,
            });
            if e.heartbeat_counter > m.counter || !shell.read(|d| d.contains(node)) {
                if e.heartbeat_counter > m.counter {
                    m.counter = e.heartbeat_counter;
                    m.last_increase = now;
                }
                let rec = &e.record;
                shell.admit(
                    ctx,
                    node,
                    rec.incarnation,
                    || rec.clone(),
                    |held| **rec == *held,
                );
            }
        }
    }

    fn on_tick(&mut self, shell: &mut Shell, ctx: &mut Context) {
        self.my_counter += 1;
        let entries = self.view(shell);
        for t in self.targets(shell.me(), ctx) {
            ctx.emit(ProtocolEvent::GossipRound { peer: t.0 });
            ctx.send_unicast(
                t,
                Message::Gossip(tamp_wire::Gossip {
                    from: shell.me(),
                    entries: entries.clone(),
                }),
            );
        }
    }

    fn on_sweep(&mut self, shell: &mut Shell, ctx: &mut Context) {
        let now = ctx.now();
        let t_fail = self.cfg.t_fail();
        let until = now + self.cfg.t_cleanup();
        // Staleness is `last_rx − last_increase`: how much *received*
        // information failed to advance the member's counter. Using
        // `now` here would convict every member during an
        // inbound-starvation gap.
        let last_rx = self.last_rx;
        let failed = take_due(&mut self.members, |m| {
            last_rx.saturating_sub(m.last_increase) >= t_fail
        });
        for n in failed {
            self.blacklist.insert(n, ((), until));
            shell.remove_held(ctx, n);
        }
        self.blacklist.expire(now);
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
        n.column.my_counter = 7;
        // Before start, directory is empty — the view still carries self.
        let v = n.column.view(&n.shell);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].record.node, NodeId(3));
        assert_eq!(v[0].heartbeat_counter, 7);
    }

    #[test]
    fn gossip_message_size_matches_paper_model() {
        // One entry ≈ one 228-byte heartbeat record (+ counter): a full
        // view of n members costs ≈ n × s bytes, the paper's Θ(n·s).
        let mut node = GossipNode::new(NodeId(1), GossipConfig::default());
        node.column.my_counter = 1;
        let msg = Message::Gossip(tamp_wire::Gossip {
            from: NodeId(1),
            entries: node.column.view(&node.shell),
        });
        let one = tamp_wire::codec::encoded_len(&msg);
        assert!((200..300).contains(&one), "single-entry gossip: {one}");
    }
}
