//! SWIM failure detection (Das, Gupta & Motivala, DSN 2002) — the
//! modern baseline ROADMAP item 3 calls for, a design the paper (2003)
//! never compared against.
//!
//! Each protocol period a node pings one member, chosen by walking a
//! randomized permutation of its view (round-robin with a shuffle per
//! lap, SWIM §4.3: bounded worst-case detection time instead of the
//! gossip baseline's probabilistic tail). If the direct ack misses its
//! deadline, `k` randomly chosen members are asked to `ping-req` the
//! target through a disjoint network path; only when the indirect phase
//! also stays silent is the target *suspected* — and a suspicion is
//! refutable: the subject, on hearing it via piggybacked dissemination,
//! bumps its incarnation number and floods an `Alive` that overrides the
//! suspicion everywhere. Unrefuted suspicions are confirmed dead after
//! [`SUSPECT_TIMEOUT`].
//!
//! Membership updates (alive / suspect / confirm) travel **piggybacked**
//! on the probe traffic itself — zero dedicated dissemination packets —
//! with a per-update retransmission budget of `λ·⌈log₂(n+1)⌉` sends
//! (SWIM's infection-style dissemination bound).
//!
//! The node publishes the same [`tamp_directory`] yellow pages and
//! add/remove/suspect/refute observations as the other baselines, so it
//! drops into every harness surface as one more protocol column.

use crate::column::{Baseline, Column, Profile, Shell, Tombstones};
use std::collections::{BTreeMap, HashMap};
use tamp_netsim::telemetry::Ping;
use tamp_netsim::{Context, Nanos, PacketMeta, ProtocolEvent, MILLIS, SECS};
use tamp_wire::{
    Message, NodeId, NodeRecord, ServiceDecl, SwimAck, SwimPing, SwimPingReq, SwimState, SwimUpdate,
};

// The protocol's constants (defaults per SNIPPETS.md ADR-001).

/// Protocol period: one direct probe per period.
pub const PROBE_PERIOD: Nanos = SECS;
/// Deadline for the direct ack before escalating to ping-req.
pub const DIRECT_TIMEOUT: Nanos = 500 * MILLIS;
/// Deadline for the indirect (ping-req) phase after escalation.
pub const INDIRECT_TIMEOUT: Nanos = 200 * MILLIS;
/// `k`: members asked to probe the target indirectly.
pub const INDIRECT_PROBES: usize = 3;
/// How long a suspicion stays refutable before it is confirmed.
pub const SUSPECT_TIMEOUT: Nanos = 5 * SECS;
/// Maximum piggybacked updates per message (besides the sender's own
/// alive record, which always rides along).
pub const PIGGYBACK_MAX: usize = 6;
/// `λ` in the `λ·⌈log₂(n+1)⌉` per-update retransmission budget.
pub const RETRANSMIT_FACTOR: f64 = 3.0;
/// First-probe phase jitter.
pub const STARTUP_JITTER: Nanos = 500 * MILLIS;
/// Deadline-check granularity.
pub const SWEEP_PERIOD: Nanos = 100 * MILLIS;
/// How long a confirmed death is remembered, so stale alive updates at
/// the dead incarnation cannot resurrect it (a ping *from* a dead-listed
/// node gets the confirmation echoed back, so a wrongly confirmed node
/// learns to re-incarnate — targeted anti-entropy). Kept long: a
/// forgotten death makes its seed look uncontacted again and draws
/// bootstrap probes.
pub const CLEANUP_WINDOW: Nanos = 600 * SECS;
/// Every this-many protocol periods, additionally ping one random
/// dead-listed node (Serf-style reconnect). A really-dead node ignores
/// it; a node on the far side of a healed partition answers, which
/// triggers the dead-list echo → re-incarnation → alive-flood cascade
/// that merges the views back. Without it, two sides that confirmed
/// each other dead during a partition never exchange another packet.
pub const RECONNECT_EVERY: u32 = 5;
/// Each record is padded so one update costs the same bytes as one
/// heartbeat in the other schemes (228 B in the paper).
pub const PAD_RECORD_TO: usize = 228;

/// What one SWIM node is given: whom it may probe first and what it
/// exports. Everything else is a constant of the protocol.
#[derive(Debug, Clone, Default)]
pub struct SwimConfig {
    /// The address book: node ids this node may probe before it has
    /// learned any membership (the harness lists the whole cluster,
    /// like the gossip baseline's seed list).
    pub seeds: Vec<NodeId>,
    /// Services to export.
    pub services: Vec<ServiceDecl>,
}

/// Per-member state: where it sits on the Alive < Suspect lattice (a
/// Confirm removes the member outright) and the record we last merged.
struct Member {
    state: SwimState,
    record: NodeRecord,
    /// When `state` last changed (suspicions age against this).
    since: Nanos,
}

/// The one in-flight direct probe.
#[derive(Clone, Copy)]
struct PendingProbe {
    target: NodeId,
    seq: u64,
    sent_at: Nanos,
    /// When the ping-req escalation went out (None while still in the
    /// direct phase).
    indirect_at: Option<Nanos>,
}

/// Bookkeeping for a ping we sent on someone else's behalf.
struct ProxyEntry {
    requester: NodeId,
    orig_seq: u64,
    expires: Nanos,
}

/// One queued dissemination update with its remaining send budget.
struct QueuedUpdate {
    update: SwimUpdate,
    remaining: u32,
}

/// One node of the SWIM baseline.
pub type SwimNode = Baseline<Swim>;

/// The SWIM column: one random probe a period plus `k` indirect ones,
/// news piggybacked on the probes.
#[derive(Default)]
pub struct Swim {
    seeds: Vec<NodeId>,
    members: BTreeMap<NodeId, Member>,
    /// Confirmed deaths, kept for [`CLEANUP_WINDOW`] with the record
    /// echoed back to a dead-listed node that pings.
    dead: Tombstones<NodeRecord>,
    /// Current randomized probe permutation and the cursor into it.
    order: Vec<NodeId>,
    order_pos: usize,
    seq: u64,
    pending: Option<PendingProbe>,
    /// Proxy pings we issued for ping-req requesters, keyed by our seq.
    proxied: HashMap<u64, ProxyEntry>,
    queue: Vec<QueuedUpdate>,
    /// Protocol periods since the last dead-list reconnect ping.
    periods_since_reconnect: u32,
}

impl Swim {
    /// Per-update retransmission budget: `λ·⌈log₂(n+1)⌉`, n = current
    /// view size including self.
    fn budget(&self) -> u32 {
        let n = (self.members.len() + 2) as f64; // n + 1, self included
        ((RETRANSMIT_FACTOR * n.log2().ceil()) as u32).max(1)
    }

    /// Does `new` override `old` on the SWIM state lattice? Confirm
    /// beats alive/suspect up to its incarnation, suspect beats alive at
    /// the *same* incarnation, and a higher incarnation beats everything
    /// below it (only the subject itself mints new incarnations, which
    /// is what makes refutation authoritative).
    fn overrides(new: (SwimState, u64), old: (SwimState, u64)) -> bool {
        use SwimState::*;
        let (ns, ni) = new;
        let (os, oi) = old;
        match (ns, os) {
            (Confirm, Confirm) => ni > oi,
            (Confirm, _) => ni >= oi,
            (Alive, Alive) | (Alive, Suspect) | (Alive, Confirm) => ni > oi,
            (Suspect, Alive) => ni >= oi,
            (Suspect, Suspect) => ni > oi,
            (Suspect, Confirm) => false,
        }
    }

    /// Queue `upd` for piggybacked dissemination with a fresh budget,
    /// replacing any queued update about the same subject it overrides.
    fn queue_update(&mut self, upd: SwimUpdate) {
        let budget = self.budget();
        let subject = upd.record.node;
        if let Some(q) = self
            .queue
            .iter_mut()
            .find(|q| q.update.record.node == subject)
        {
            let new = (upd.state, upd.record.incarnation);
            let old = (q.update.state, q.update.record.incarnation);
            if Self::overrides(new, old) {
                q.update = upd;
                q.remaining = budget;
            }
            return;
        }
        self.queue.push(QueuedUpdate {
            update: upd,
            remaining: budget,
        });
    }

    /// Updates to ride on the next outgoing message: our own alive
    /// record always leads, then the freshest-budget queued updates up
    /// to [`PIGGYBACK_MAX`], each spending one unit of budget.
    fn select_updates(&mut self, shell: &Shell) -> Vec<SwimUpdate> {
        self.queue.sort_by(|a, b| {
            b.remaining
                .cmp(&a.remaining)
                .then(a.update.record.node.cmp(&b.update.record.node))
        });
        // Under heavy backlog (mass join or mass churn) the cap would
        // stretch the drain across minutes of protocol periods; spill
        // over and send everything — the datagram analog of the
        // full-state push-pull sync production SWIM implementations
        // fall back to in exactly these situations. Steady state (a
        // handful of queued updates) stays under the normal cap.
        let take = if self.queue.len() > 2 * PIGGYBACK_MAX {
            self.queue.len()
        } else {
            self.queue.len().min(PIGGYBACK_MAX)
        };
        let mut out = Vec::with_capacity(take + 1);
        out.push(SwimUpdate {
            state: SwimState::Alive,
            record: shell.record().clone(),
        });
        for q in self.queue.iter_mut().take(take) {
            out.push(q.update.clone());
            q.remaining -= 1;
        }
        self.queue.retain(|q| q.remaining > 0);
        out
    }

    /// A packet from `from` (or an ack vouching for `from`) is proof of
    /// life: clear any local suspicion of it. No dissemination — on the
    /// lattice only the subject's own re-incarnation clears suspicion
    /// globally; this keeps *our* view from confirming a member we can
    /// demonstrably reach.
    fn mark_alive(&mut self, ctx: &mut Context, from: NodeId, now: Nanos) {
        if let Some(m) = self.members.get_mut(&from) {
            if m.state == SwimState::Suspect {
                m.state = SwimState::Alive;
                m.since = now;
                refuted(ctx, from);
            }
        }
    }

    /// Apply a batch. `disseminate` queues each absorbed update for
    /// piggybacked retransmission — true for gossip (`updates`), false
    /// for join-time state transfer (`sync`), which every receiver
    /// already re-serves to its own joiners and must not re-flood.
    fn apply_updates(
        &mut self,
        shell: &mut Shell,
        ctx: &mut Context,
        updates: &[SwimUpdate],
        disseminate: bool,
    ) {
        for u in updates {
            if self.absorb(shell, ctx, u) && disseminate {
                self.queue_update(u.clone());
            }
        }
    }

    /// Merge one update into the books; true if it moved them, so that
    /// it is worth passing on.
    fn absorb(&mut self, shell: &mut Shell, ctx: &mut Context, upd: &SwimUpdate) -> bool {
        let subject = upd.record.node;
        let inc = upd.record.incarnation;
        let now = ctx.now();

        // An accusation naming us is a false positive: refute by
        // re-incarnating — only a strictly higher incarnation beats the
        // suspicion at nodes that already adopted it.
        if subject == shell.me() {
            if upd.state != SwimState::Alive && inc >= shell.incarnation() {
                shell.refute(ctx, inc);
                let own = SwimUpdate {
                    state: SwimState::Alive,
                    record: shell.record().clone(),
                };
                self.queue_update(own);
            }
            return false;
        }

        // The dead list wins over stale state, but a higher incarnation
        // is a genuine rebirth.
        if self.dead.contains_key(&subject) {
            if upd.state != SwimState::Alive || self.dead.blocks(subject, inc) {
                return false;
            }
            self.dead.remove(&subject);
        }

        let Some(m) = self.members.get_mut(&subject) else {
            if upd.state == SwimState::Confirm {
                // Death of a node we never met: remember the verdict (and
                // pass it on) so its stale alive updates cannot introduce
                // it later.
                let until = now + CLEANUP_WINDOW;
                self.dead.insert(subject, (upd.record.clone(), until));
                shell.withdraw(now, subject, inc);
            } else {
                let member = Member {
                    state: upd.state,
                    record: upd.record.clone(),
                    since: now,
                };
                self.members.insert(subject, member);
                shell.introduce(ctx, upd.record.clone());
                if upd.state == SwimState::Suspect {
                    raised(ctx, subject);
                }
            }
            return true;
        };
        if !Self::overrides((upd.state, inc), (m.state, m.record.incarnation)) {
            // Same-incarnation alive updates may still carry content
            // changes (service registration): merge the record without
            // treating it as a state transition.
            if upd.state == SwimState::Alive
                && m.state == SwimState::Alive
                && inc == m.record.incarnation
            {
                m.record = upd.record.clone();
                shell.join(now, upd.record.clone());
            }
            return false;
        }
        let was = m.state;
        match upd.state {
            SwimState::Alive => {
                m.state = SwimState::Alive;
                m.record = upd.record.clone();
                m.since = now;
                shell.join(now, upd.record.clone());
                if was == SwimState::Suspect {
                    refuted(ctx, subject);
                }
            }
            SwimState::Suspect => {
                m.state = SwimState::Suspect;
                if inc > m.record.incarnation {
                    m.record = upd.record.clone();
                }
                m.since = now;
                if was == SwimState::Alive {
                    raised(ctx, subject);
                }
            }
            SwimState::Confirm => {
                self.remove_member(shell, ctx, subject, inc, was == SwimState::Suspect);
            }
        }
        true
    }

    /// Apply a confirmed death: drop the member, tombstone it on the
    /// dead list, and withdraw it from the yellow pages.
    fn remove_member(
        &mut self,
        shell: &Shell,
        ctx: &mut Context,
        subject: NodeId,
        inc: u64,
        was_suspect: bool,
    ) {
        let Some(m) = self.members.remove(&subject) else {
            return;
        };
        let until = ctx.now() + CLEANUP_WINDOW;
        self.dead.insert(subject, (m.record, until));
        shell.remove(ctx, subject, inc, was_suspect);
    }

    /// Our probe (direct + indirect) got no answer: suspect the target.
    fn suspect(&mut self, ctx: &mut Context, target: NodeId) {
        let now = ctx.now();
        let Some(m) = self.members.get_mut(&target) else {
            return;
        };
        if m.state == SwimState::Suspect {
            return;
        }
        m.state = SwimState::Suspect;
        m.since = now;
        let upd = SwimUpdate {
            state: SwimState::Suspect,
            record: m.record.clone(),
        };
        raised(ctx, target);
        self.queue_update(upd);
    }

    /// Next member to probe: walk the randomized permutation, reshuffle
    /// a fresh one each lap (bounded worst-case detection: every member
    /// is probed once per lap). Seeds we have never contacted come
    /// first — SWIM's join protocol stands in for dedicated anti-entropy
    /// here; without it, simultaneously booting nodes can pair off into
    /// islands whose piggyback queues dry up before the views merge.
    fn next_probe_target(&mut self, me: NodeId, ctx: &mut Context) -> Option<NodeId> {
        let unseen: Vec<NodeId> = self
            .seeds
            .iter()
            .copied()
            .filter(|&s| s != me && !self.members.contains_key(&s) && !self.dead.contains_key(&s))
            .collect();
        if !unseen.is_empty() {
            return Some(unseen[ctx.rand_below(unseen.len() as u64) as usize]);
        }
        if self.members.is_empty() {
            return None;
        }
        loop {
            if self.order_pos >= self.order.len() {
                self.order = self.members.keys().copied().collect();
                for i in (1..self.order.len()).rev() {
                    let j = ctx.rand_below((i + 1) as u64) as usize;
                    self.order.swap(i, j);
                }
                self.order_pos = 0;
            }
            let t = self.order[self.order_pos];
            self.order_pos += 1;
            if self.members.contains_key(&t) {
                return Some(t);
            }
        }
    }

    /// `k` random live members (≠ target) to route ping-reqs through.
    fn indirect_helpers(&self, ctx: &mut Context, target: NodeId) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .members
            .keys()
            .copied()
            .filter(|&n| n != target)
            .collect();
        let mut out = Vec::new();
        for _ in 0..INDIRECT_PROBES.min(candidates.len()) {
            let i = ctx.rand_below(candidates.len() as u64) as usize;
            out.push(candidates.swap_remove(i));
        }
        out
    }

    /// Send a ping to `target` under the next sequence number, recorded
    /// as sent for `purpose`; returns the sequence number.
    fn ping(&mut self, shell: &Shell, ctx: &mut Context, target: NodeId, purpose: Ping) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        let updates = self.select_updates(shell);
        ctx.emit(ProtocolEvent::PingSent {
            target: target.0,
            purpose,
        });
        ctx.send_unicast(
            target,
            Message::SwimPing(SwimPing {
                from: shell.me(),
                seq,
                updates,
            }),
        );
        seq
    }
}

/// Report that this node now suspects `subject`.
fn raised(ctx: &mut Context, subject: NodeId) {
    ctx.emit(ProtocolEvent::SuspicionArmed { subject: subject.0 });
}

/// Report that this node stopped suspecting `subject`.
fn refuted(ctx: &mut Context, subject: NodeId) {
    ctx.emit(ProtocolEvent::SuspicionRefuted { subject: subject.0 });
}

impl Column for Swim {
    type Config = SwimConfig;

    fn new(cfg: SwimConfig) -> (Self, Profile) {
        let column = Swim {
            seeds: cfg.seeds,
            ..Swim::default()
        };
        let profile = Profile {
            services: cfg.services,
            pad_to: PAD_RECORD_TO,
            startup_jitter: STARTUP_JITTER,
            period: PROBE_PERIOD,
            sweep_period: SWEEP_PERIOD,
        };
        (column, profile)
    }

    fn reset(&mut self) {
        self.members.clear();
        self.dead.clear();
        self.order.clear();
        self.order_pos = 0;
        self.pending = None;
        self.proxied.clear();
        self.queue.clear();
        self.periods_since_reconnect = 0;
    }

    fn on_packet(&mut self, shell: &mut Shell, ctx: &mut Context, _: PacketMeta, msg: &Message) {
        let now = ctx.now();
        let me = shell.me();
        match msg {
            Message::SwimPing(p) => {
                if p.from == me {
                    return;
                }
                // A ping from a node we have never heard of is a join:
                // answer with our full view (SWIM transfers the
                // membership list to joiners), not just the piggyback
                // queue — the only state transfer beyond piggybacking.
                let newcomer =
                    !self.members.contains_key(&p.from) && !self.dead.contains_key(&p.from);
                self.mark_alive(ctx, p.from, now);
                self.apply_updates(shell, ctx, &p.updates, true);
                let updates = self.select_updates(shell);
                // Join-time state transfer rides in `sync`, not
                // `updates`: the receiver applies it without a
                // dissemination budget, so n pairwise first contacts at
                // boot don't each re-flood the whole view.
                let mut sync = Vec::new();
                if newcomer {
                    for (&n, m) in &self.members {
                        if n != p.from && !updates.iter().any(|u| u.record.node == n) {
                            sync.push(SwimUpdate {
                                state: m.state,
                                record: m.record.clone(),
                            });
                        }
                    }
                }
                // Targeted anti-entropy: a ping *from* a node we hold
                // confirmed dead means the confirmation never reached it
                // — echo it back so the node re-incarnates and its next
                // alive update resurrects it everywhere.
                if let Some((record, _)) = self.dead.get(&p.from) {
                    sync.push(SwimUpdate {
                        state: SwimState::Confirm,
                        record: record.clone(),
                    });
                }
                ctx.emit(ProtocolEvent::AckSent { peer: p.from.0 });
                ctx.send_unicast(
                    p.from,
                    Message::SwimAck(SwimAck {
                        from: me,
                        subject: me,
                        seq: p.seq,
                        updates,
                        sync,
                    }),
                );
            }
            Message::SwimPingReq(r) => {
                if r.from == me || r.target == me {
                    return;
                }
                self.mark_alive(ctx, r.from, now);
                self.apply_updates(shell, ctx, &r.updates, true);
                // Probe the target on the requester's behalf; the ack
                // comes back to us and is forwarded below.
                let seq = self.ping(shell, ctx, r.target, Ping::Indirect);
                self.proxied.insert(
                    seq,
                    ProxyEntry {
                        requester: r.from,
                        orig_seq: r.seq,
                        expires: now + DIRECT_TIMEOUT + INDIRECT_TIMEOUT,
                    },
                );
            }
            Message::SwimAck(a) => {
                if a.from == me {
                    return;
                }
                self.mark_alive(ctx, a.from, now);
                self.apply_updates(shell, ctx, &a.updates, true);
                self.apply_updates(shell, ctx, &a.sync, false);
                // The ack vouches for its subject (== from for a direct
                // ack; the probed target when forwarded by a helper).
                self.mark_alive(ctx, a.subject, now);
                if let Some(proxy) = self.proxied.remove(&a.seq) {
                    let updates = self.select_updates(shell);
                    ctx.emit(ProtocolEvent::AckForwarded {
                        peer: proxy.requester.0,
                    });
                    ctx.send_unicast(
                        proxy.requester,
                        Message::SwimAck(SwimAck {
                            from: me,
                            subject: a.subject,
                            seq: proxy.orig_seq,
                            updates,
                            sync: Vec::new(),
                        }),
                    );
                } else if self
                    .pending
                    .is_some_and(|p| p.seq == a.seq && p.target == a.subject)
                {
                    self.pending = None;
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, shell: &mut Shell, ctx: &mut Context) {
        let now = ctx.now();
        if let Some(target) = self.next_probe_target(shell.me(), ctx) {
            let seq = self.ping(shell, ctx, target, Ping::Probe);
            self.pending = Some(PendingProbe {
                target,
                seq,
                sent_at: now,
                indirect_at: None,
            });
        }
        // Serf-style reconnect: fire-and-forget ping at one random
        // dead-listed node (no pending entry — a missed ack must not
        // re-suspect an already-confirmed death).
        self.periods_since_reconnect += 1;
        if self.periods_since_reconnect >= RECONNECT_EVERY && !self.dead.is_empty() {
            self.periods_since_reconnect = 0;
            let i = ctx.rand_below(self.dead.len() as u64) as usize;
            let target = *self.dead.keys().nth(i).expect("index < len");
            self.ping(shell, ctx, target, Ping::Reconnect);
        }
    }

    fn on_sweep(&mut self, shell: &mut Shell, ctx: &mut Context) {
        let now = ctx.now();
        // Probe deadlines: direct miss escalates to ping-req, indirect
        // miss turns into a suspicion.
        if let Some(p) = self.pending {
            if p.indirect_at.is_none() && now >= p.sent_at + DIRECT_TIMEOUT {
                let helpers = self.indirect_helpers(ctx, p.target);
                if helpers.is_empty() {
                    self.pending = None;
                    self.suspect(ctx, p.target);
                } else {
                    for h in helpers {
                        let updates = self.select_updates(shell);
                        ctx.emit(ProtocolEvent::PingReqSent {
                            helper: h.0,
                            target: p.target.0,
                        });
                        ctx.send_unicast(
                            h,
                            Message::SwimPingReq(SwimPingReq {
                                from: shell.me(),
                                target: p.target,
                                seq: p.seq,
                                updates,
                            }),
                        );
                    }
                    self.pending = Some(PendingProbe {
                        indirect_at: Some(now),
                        ..p
                    });
                }
            } else if p.indirect_at.is_some_and(|t0| now >= t0 + INDIRECT_TIMEOUT) {
                self.pending = None;
                self.suspect(ctx, p.target);
            }
        }
        // Unrefuted suspicions confirm after the window, in id order.
        // One at a time: each removal shrinks the budget the next
        // confirmation is queued with.
        let due: Vec<(NodeId, u64)> = self
            .members
            .iter()
            .filter(|(_, m)| {
                m.state == SwimState::Suspect && now.saturating_sub(m.since) >= SUSPECT_TIMEOUT
            })
            .map(|(&n, m)| (n, m.record.incarnation))
            .collect();
        for (n, inc) in due {
            self.remove_member(shell, ctx, n, inc, true);
            if let Some((record, _)) = self.dead.get(&n) {
                let record = record.clone();
                self.queue_update(SwimUpdate {
                    state: SwimState::Confirm,
                    record,
                });
            }
        }
        self.proxied.retain(|_, p| now < p.expires);
        self.dead.expire(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{T_SWEEP, T_TICK as T_PROBE};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tamp_netsim::{collect_effects, Actor, Destination, Effect};
    use tamp_topology::HostId;

    fn sends(effects: &[Effect]) -> Vec<(&Destination, &Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { dest, msg } => Some((dest, msg)),
                _ => None,
            })
            .collect()
    }

    struct Harness {
        node: SwimNode,
        rng: StdRng,
    }

    impl Harness {
        fn new(id: u32, cfg: SwimConfig) -> Self {
            let mut h = Harness {
                node: SwimNode::new(NodeId(id), cfg),
                rng: StdRng::seed_from_u64(9),
            };
            let me = HostId(id);
            let (node, rng) = (&mut h.node, &mut h.rng);
            let _ = collect_effects(0, me, rng, |ctx| node.on_start(ctx));
            h
        }

        fn timer(&mut self, now: u64, token: u64) -> Vec<Effect> {
            let (node, rng) = (&mut self.node, &mut self.rng);
            collect_effects(now, HostId(node.shell.me().0), rng, |ctx| {
                node.on_timer(ctx, token)
            })
        }

        fn packet(&mut self, now: u64, from: u32, msg: Message) -> Vec<Effect> {
            let (node, rng) = (&mut self.node, &mut self.rng);
            collect_effects(now, HostId(node.shell.me().0), rng, |ctx| {
                node.on_packet(ctx, PacketMeta::unicast(HostId(from), 100), &msg)
            })
        }
    }

    fn alive(id: u32, inc: u64) -> SwimUpdate {
        SwimUpdate {
            state: SwimState::Alive,
            record: NodeRecord::new(NodeId(id), inc),
        }
    }

    #[test]
    fn probe_timer_pings_a_seed_before_any_contact() {
        let cfg = SwimConfig {
            seeds: vec![NodeId(1), NodeId(2), NodeId(3)],
            ..Default::default()
        };
        let mut h = Harness::new(1, cfg);
        let fx = h.timer(SECS, T_PROBE);
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        let Message::SwimPing(p) = s[0].1 else {
            panic!("expected ping, got {:?}", s[0].1.kind());
        };
        assert_eq!(p.from, NodeId(1));
        assert_ne!(s[0].0, &Destination::Unicast(HostId(1)), "never self");
        // Own alive record always piggybacks.
        assert_eq!(p.updates[0].record.node, NodeId(1));
        assert_eq!(p.updates[0].state, SwimState::Alive);
    }

    #[test]
    fn ping_is_acked_with_matching_seq() {
        let mut h = Harness::new(1, SwimConfig::default());
        let ping = Message::SwimPing(SwimPing {
            from: NodeId(2),
            seq: 41,
            updates: vec![alive(2, 1)],
        });
        let fx = h.packet(SECS, 2, ping);
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        let Message::SwimAck(a) = s[0].1 else {
            panic!("expected ack");
        };
        assert_eq!((a.from, a.subject, a.seq), (NodeId(1), NodeId(1), 41));
        // The piggybacked alive update introduced node 2.
        assert!(h.node.column.members.contains_key(&NodeId(2)));
    }

    #[test]
    fn missed_direct_ack_escalates_to_ping_req_then_suspicion() {
        let (direct, indirect) = (DIRECT_TIMEOUT, INDIRECT_TIMEOUT);
        let mut h = Harness::new(1, SwimConfig::default());
        // Introduce members 2..=5.
        for id in 2..=5 {
            let ping = Message::SwimPing(SwimPing {
                from: NodeId(id),
                seq: 1,
                updates: vec![alive(id, 1)],
            });
            h.packet(SECS, id, ping);
        }
        // Probe fires; force the target to be whatever it picked.
        let fx = h.timer(2 * SECS, T_PROBE);
        let target = match sends(&fx)[0].1 {
            Message::SwimPing(p) => {
                let _ = p;
                match sends(&fx)[0].0 {
                    Destination::Unicast(h) => NodeId(h.0),
                    _ => panic!("unicast expected"),
                }
            }
            _ => panic!("ping expected"),
        };
        // Direct deadline passes: k ping-reqs to other members.
        let fx = h.timer(2 * SECS + direct, T_SWEEP);
        let reqs: Vec<_> = sends(&fx)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::SwimPingReq(_)))
            .collect();
        assert_eq!(reqs.len(), 3, "k=3 indirect probes");
        for (dest, m) in &reqs {
            let Message::SwimPingReq(r) = m else { panic!() };
            assert_eq!(r.target, target);
            assert_ne!(dest, &&Destination::Unicast(HostId(target.0)));
        }
        // Indirect deadline passes silently: target suspected.
        let _ = h.timer(2 * SECS + direct + indirect, T_SWEEP);
        assert_eq!(
            h.node.column.members.get(&target).map(|m| m.state),
            Some(SwimState::Suspect)
        );
        // Unrefuted for suspect_timeout: confirmed dead + dead-listed.
        let _ = h.timer(20 * SECS, T_SWEEP);
        assert!(!h.node.column.members.contains_key(&target));
        assert!(h.node.column.dead.contains_key(&target));
    }

    #[test]
    fn suspicion_of_self_re_incarnates() {
        let mut h = Harness::new(1, SwimConfig::default());
        let inc0 = h.node.shell.incarnation();
        let ping = Message::SwimPing(SwimPing {
            from: NodeId(2),
            seq: 1,
            updates: vec![
                alive(2, 1),
                SwimUpdate {
                    state: SwimState::Suspect,
                    record: NodeRecord::new(NodeId(1), inc0),
                },
            ],
        });
        let _ = h.packet(SECS, 2, ping);
        assert_eq!(
            h.node.shell.incarnation(),
            inc0 + 1,
            "refutes by re-incarnating"
        );
        // The refutation is queued for dissemination.
        assert!(h.node.column.queue.iter().any(|q| {
            q.update.record.node == NodeId(1)
                && q.update.state == SwimState::Alive
                && q.update.record.incarnation == inc0 + 1
        }));
    }

    #[test]
    fn higher_incarnation_alive_refutes_suspicion() {
        let mut h = Harness::new(1, SwimConfig::default());
        let _ = h.packet(
            SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 1,
                updates: vec![alive(2, 1), alive(3, 1)],
            }),
        );
        // Suspect 3 via a relayed update.
        let _ = h.packet(
            2 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 2,
                updates: vec![SwimUpdate {
                    state: SwimState::Suspect,
                    record: NodeRecord::new(NodeId(3), 1),
                }],
            }),
        );
        assert_eq!(
            h.node.column.members.get(&NodeId(3)).map(|m| m.state),
            Some(SwimState::Suspect)
        );
        // Alive at the same incarnation does NOT clear it...
        let _ = h.packet(
            3 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 3,
                updates: vec![alive(3, 1)],
            }),
        );
        assert_eq!(
            h.node.column.members.get(&NodeId(3)).map(|m| m.state),
            Some(SwimState::Suspect),
            "same-incarnation alive loses to suspect on the lattice"
        );
        // ...but the subject's own re-incarnation does.
        let _ = h.packet(
            4 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 4,
                updates: vec![alive(3, 2)],
            }),
        );
        assert_eq!(
            h.node.column.members.get(&NodeId(3)).map(|m| m.state),
            Some(SwimState::Alive)
        );
    }

    #[test]
    fn confirm_tombstones_until_higher_incarnation() {
        let mut h = Harness::new(1, SwimConfig::default());
        let _ = h.packet(
            SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 1,
                updates: vec![alive(2, 1), alive(3, 1)],
            }),
        );
        let _ = h.packet(
            2 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 2,
                updates: vec![SwimUpdate {
                    state: SwimState::Confirm,
                    record: NodeRecord::new(NodeId(3), 1),
                }],
            }),
        );
        assert!(!h.node.column.members.contains_key(&NodeId(3)));
        assert!(h.node.column.dead.contains_key(&NodeId(3)));
        // Stale alive at the confirmed incarnation bounces off.
        let _ = h.packet(
            3 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 3,
                updates: vec![alive(3, 1)],
            }),
        );
        assert!(!h.node.column.members.contains_key(&NodeId(3)));
        // A rebirth at a higher incarnation resurrects.
        let _ = h.packet(
            4 * SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 4,
                updates: vec![alive(3, 2)],
            }),
        );
        assert!(h.node.column.members.contains_key(&NodeId(3)));
        assert!(!h.node.column.dead.contains_key(&NodeId(3)));
    }

    #[test]
    fn ping_req_proxies_and_forwards_the_ack() {
        let mut h = Harness::new(2, SwimConfig::default());
        let _ = h.packet(
            SECS,
            1,
            Message::SwimPing(SwimPing {
                from: NodeId(1),
                seq: 1,
                updates: vec![alive(1, 1), alive(3, 1)],
            }),
        );
        // Node 1 asks us to probe node 3.
        let fx = h.packet(
            2 * SECS,
            1,
            Message::SwimPingReq(SwimPingReq {
                from: NodeId(1),
                target: NodeId(3),
                seq: 77,
                updates: vec![],
            }),
        );
        let s = sends(&fx);
        let (dest, Message::SwimPing(proxy)) = s[s.len() - 1] else {
            panic!("expected proxy ping");
        };
        assert_eq!(dest, &Destination::Unicast(HostId(3)));
        // Node 3 acks our proxy ping; we forward under the original seq.
        let fx = h.packet(
            2 * SECS + 1,
            3,
            Message::SwimAck(SwimAck {
                from: NodeId(3),
                subject: NodeId(3),
                seq: proxy.seq,
                updates: vec![alive(3, 1)],
                sync: vec![],
            }),
        );
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        let (dest, Message::SwimAck(fwd)) = s[0] else {
            panic!("expected forwarded ack");
        };
        assert_eq!(dest, &Destination::Unicast(HostId(1)));
        assert_eq!((fwd.subject, fwd.seq), (NodeId(3), 77));
    }

    #[test]
    fn dissemination_budget_caps_retransmissions() {
        let mut h = Harness::new(1, SwimConfig::default());
        let _ = h.packet(
            SECS,
            2,
            Message::SwimPing(SwimPing {
                from: NodeId(2),
                seq: 1,
                updates: vec![alive(2, 1), alive(3, 1)],
            }),
        );
        let budget = h.node.column.budget();
        assert!(budget >= 3, "λ=3 × ⌈log₂(n+1)⌉ ≥ 3");
        // Each select spends one unit per queued update; the queue
        // eventually dries up.
        let mut carried = 0;
        for _ in 0..(budget + 2) {
            let upds = h.node.column.select_updates(&h.node.shell);
            carried += upds.len() - 1; // minus the always-on self record
        }
        assert!(h.node.column.queue.is_empty(), "budget exhausted");
        assert!(carried > 0);
    }
}
