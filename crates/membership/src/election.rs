//! Leader election (§3.1.1): sticky bully — lowest id wins, an incumbent
//! is never deposed by a lower-id *newcomer* — with a leader-designated
//! backup for fast takeover.
//!
//! The per-group election state (`leader`, `backup`, `election`) lives in
//! [`GroupState`] and is written only from here, apart from
//! [`GroupState::remove_peer`] clearing a departed peer's roles. The
//! node-side half claims, objects, re-asserts and keeps the backup
//! fresh; what a *lost* leadership costs (the levels above) is
//! [`MembershipNode::deactivate_above`].

use crate::group::{Election, GroupState};
use crate::node::{election_token, MembershipNode};
use tamp_netsim::{Context, ProtocolEvent};
use tamp_wire::{ElectionMsg, Message, NodeId};

/// What a rival's leadership claim did to our view of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Claim {
    /// The claimant is (now, or still) the leader we follow — or we keep
    /// a live incumbent over it.
    Followed,
    /// We lead and outrank the claimant: say so again.
    Reassert,
    /// We led, and a lower id claims: lowest wins, we follow it.
    Deposed,
}

impl GroupState {
    fn follow(&mut self, leader: NodeId, backup: Option<NodeId>) {
        self.leader = Some(leader);
        self.backup = backup;
        self.election = Election::Idle;
    }

    /// `from` claims to lead this group (a leader-flagged heartbeat, or
    /// a `Coordinator`), naming `backup`. The sticky rule does not
    /// protect *us* from a lower id that already considers itself leader
    /// (group merge after a partition heals): lowest wins.
    ///
    /// `sticky` (heartbeats): prefer the incumbent we already track if
    /// it is alive *and still claiming* — an incumbent that stopped
    /// claiming has abdicated, and following it forever would wedge the
    /// group in disagreement; two live claimants resolve to the lower
    /// id. A `Coordinator` is an announcement and is adopted as is.
    pub(crate) fn hear_claim(
        &mut self,
        me: NodeId,
        from: NodeId,
        backup: Option<NodeId>,
        sticky: bool,
    ) -> Claim {
        match self.leader {
            Some(l) if l == me => {
                if from > me {
                    return Claim::Reassert;
                }
                self.follow(from, backup);
                return Claim::Deposed;
            }
            Some(l) if sticky && from >= l => {
                let incumbent_alive = self.peers().get(&l).is_some_and(|p| p.claims_leader);
                if !incumbent_alive {
                    self.follow(from, backup);
                }
            }
            _ => self.follow(from, backup),
        }
        Claim::Followed
    }
}

impl MembershipNode {
    /// Multicast our `Coordinator` claim (with the current backup) into
    /// the level-`level` group we lead.
    pub(crate) fn announce_leadership(&mut self, ctx: &mut Context, level: u8) {
        let backup = self.groups[level as usize]
            .as_ref()
            .expect("announcing on an inactive level")
            .backup;
        let claim = ElectionMsg::Coordinator {
            from: self.me,
            level,
            backup,
        };
        self.multicast(ctx, level, Message::Election(claim));
    }

    fn become_leader(&mut self, ctx: &mut Context, level: u8) {
        let salt = ctx.rand_below(u64::MAX);
        ctx.emit(ProtocolEvent::LeadershipClaimed { level });
        let g = self.groups[level as usize].as_mut().unwrap();
        // An initial claim (no predecessor known on this channel) on a
        // warm-started node has nothing to re-stamp: every member was
        // pre-seeded with the same provenance this exchange would carry.
        // A takeover (the previous leader died) still does the full
        // §3.1.2 exchange.
        let takeover = g.leader.is_some_and(|l| l != self.me);
        g.leader = Some(self.me);
        g.election = Election::Idle;
        g.backup = g.pick_backup(salt);
        self.announce_leadership(ctx, level);
        // Re-announce everything we know into the group so members
        // re-stamp the provenance of entries previously relayed by the
        // old leader ("the newly elected leader will join the same group
        // and exchange the membership information with other group
        // members", §3.1.2). reply_wanted: members answer with their own
        // snapshots — in overlapping-group topologies a member may hold
        // knowledge from its *other* group that this leader has never
        // seen, and the exchange must flow both ways.
        if !self.cfg.warm_start || takeover {
            let exchange = self.snapshot_exchange(true);
            if !exchange.records.is_empty() {
                self.multicast(ctx, level, Message::DirectoryExchange(exchange));
            }
        }
        // Group leaders join the next level up (TTL grows by one).
        let next = level + 1;
        if next <= self.cfg.top_level() {
            self.activate_level(ctx, next);
        }
        self.update_probe();
    }

    pub(crate) fn start_or_progress_election(&mut self, ctx: &mut Context, level: u8) {
        let now = ctx.now();
        let me = self.me;
        let g = self.groups[level as usize].as_mut().unwrap();
        if g.leader_present(me) {
            return;
        }
        // Give a fresh channel time to reveal an existing leader first.
        if now < g.joined_at + self.cfg.listen_period {
            return;
        }
        match g.election {
            Election::Idle => {
                if g.backup == Some(me) {
                    // Fast path: the paper's backup takeover.
                    self.become_leader(ctx, level);
                } else if g.backup.is_some_and(|b| g.peers().contains_key(&b)) {
                    // A live backup exists; give it a grace period.
                    g.election = Election::AwaitingBackup {
                        deadline: now + self.cfg.backup_grace,
                    };
                    ctx.set_timer(self.cfg.backup_grace, election_token(level));
                } else if g.am_lowest(me) {
                    // Bully: the lowest id claims directly.
                    self.become_leader(ctx, level);
                } else {
                    // Wait for the lower-id member to claim; if it does
                    // not (it may be deaf or about to fail), escalate by
                    // announcing our own candidacy at the deadline.
                    g.election = Election::Candidate {
                        deadline: now + self.cfg.election_timeout,
                    };
                    ctx.emit(ProtocolEvent::ElectionRound { level });
                    let candidacy = ElectionMsg::Election { from: me, level };
                    self.multicast(ctx, level, Message::Election(candidacy));
                    ctx.set_timer(self.cfg.election_timeout, election_token(level));
                }
            }
            Election::AwaitingBackup { deadline } => {
                if now >= deadline {
                    // Backup never took over; strike it and retry.
                    g.backup = None;
                    g.election = Election::Idle;
                    self.start_or_progress_election(ctx, level);
                }
            }
            Election::Candidate { deadline } => {
                if now >= deadline {
                    // No objection from a lower id, no rival coordinator.
                    self.become_leader(ctx, level);
                }
            }
        }
    }

    /// Sweep-time elections and backup maintenance, for the levels
    /// active *now*: winning level ℓ activates ℓ+1, which waits for the
    /// next sweep. Only iteration ℓ can activate ℓ+1, so sampling ℓ+1
    /// just before it is that snapshot without allocating it.
    pub(crate) fn run_elections(&mut self, ctx: &mut Context) {
        let mut active = self.groups[0].is_some();
        for level in 0..self.groups.len() as u8 {
            let was_active = active;
            active = self
                .groups
                .get(level as usize + 1)
                .is_some_and(|g| g.is_some());
            if !was_active {
                continue;
            }
            self.start_or_progress_election(ctx, level);
            // A leader whose backup died picks a fresh one.
            if self.am_leader(level) {
                let salt = ctx.rand_below(u64::MAX);
                let g = self.groups[level as usize].as_mut().unwrap();
                let backup_alive = g.backup.is_some_and(|b| g.peers().contains_key(&b));
                if !backup_alive && !g.peers().is_empty() {
                    g.backup = g.pick_backup(salt);
                    self.announce_leadership(ctx, level);
                }
            }
        }
    }

    pub(crate) fn handle_election(&mut self, ctx: &mut Context, e: &ElectionMsg) {
        let (me, now) = (self.me, ctx.now());
        match *e {
            ElectionMsg::Election { from, level } => {
                if from == me {
                    return;
                }
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, now, false, 0);
                // Non-participation rule (§3.1.1): a node that already
                // follows a live leader at this level stays out of other
                // groups' elections on the same (channel, TTL) — in an
                // overlapping-group topology the candidate may simply be
                // unable to see our leader, and it must be allowed to win
                // its own group. The leader itself still objects.
                let follows_other_leader = g
                    .leader
                    .is_some_and(|l| l != me && g.peers().contains_key(&l));
                if follows_other_leader {
                    return;
                }
                if me < from {
                    // Objection: we outrank the candidate.
                    let objection = ElectionMsg::Alive { from: me, level };
                    self.multicast(ctx, level, Message::Election(objection));
                    if self.am_leader(level) {
                        self.announce_leadership(ctx, level);
                    }
                } else if matches!(g.election, Election::Candidate { .. }) {
                    // A lower-id candidate is running; stand down.
                    g.election = Election::Idle;
                }
            }
            ElectionMsg::Alive { from, level } => {
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, now, false, 0);
                if from < me && matches!(g.election, Election::Candidate { .. }) {
                    g.election = Election::Idle;
                }
            }
            ElectionMsg::Coordinator {
                from,
                level,
                backup,
            } => {
                if from == me {
                    return;
                }
                let Some(g) = self.groups.get_mut(level as usize).and_then(|g| g.as_mut()) else {
                    return;
                };
                g.heard(from, now, true, 0);
                match g.hear_claim(me, from, backup, false) {
                    Claim::Reassert => self.announce_leadership(ctx, level),
                    Claim::Deposed => self.deactivate_above(ctx, level),
                    Claim::Followed => {}
                }
                self.update_probe();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: NodeId = NodeId(5);

    fn group(leader: Option<u32>) -> GroupState {
        let mut g = GroupState::new(0, 0);
        g.leader = leader.map(NodeId);
        g.election = Election::Candidate { deadline: 9 };
        g
    }

    #[test]
    fn a_leader_yields_to_a_lower_id_and_reasserts_over_a_higher_one() {
        for sticky in [true, false] {
            let mut g = group(Some(ME.0));
            assert_eq!(g.hear_claim(ME, NodeId(8), None, sticky), Claim::Reassert);
            assert_eq!(g.leader, Some(ME));
            assert_eq!(
                g.hear_claim(ME, NodeId(2), Some(NodeId(3)), sticky),
                Claim::Deposed
            );
            assert_eq!((g.leader, g.backup), (Some(NodeId(2)), Some(NodeId(3))));
            assert_eq!(g.election, Election::Idle);
        }
    }

    #[test]
    fn heartbeat_claims_are_sticky_and_coordinators_are_not() {
        // A live, still-claiming incumbent keeps the group against a
        // higher-id claimant's heartbeat…
        let mut g = group(Some(3));
        g.heard(NodeId(3), 1, true, 1);
        assert_eq!(g.hear_claim(ME, NodeId(7), None, true), Claim::Followed);
        assert_eq!(g.leader, Some(NodeId(3)));
        // …but not against a lower id, nor against a `Coordinator`.
        assert_eq!(g.hear_claim(ME, NodeId(1), None, true), Claim::Followed);
        assert_eq!(g.leader, Some(NodeId(1)));
        let mut g = group(Some(3));
        g.heard(NodeId(3), 1, true, 1);
        assert_eq!(g.hear_claim(ME, NodeId(7), None, false), Claim::Followed);
        assert_eq!(g.leader, Some(NodeId(7)));
        // An incumbent that stopped claiming has abdicated.
        let mut g = group(Some(3));
        g.heard_heartbeat(NodeId(3), 1, false, 1);
        assert_eq!(g.hear_claim(ME, NodeId(7), None, true), Claim::Followed);
        assert_eq!(g.leader, Some(NodeId(7)));
        // No leader known: the first claimant is it.
        let mut g = group(None);
        assert_eq!(g.hear_claim(ME, NodeId(9), None, true), Claim::Followed);
        assert_eq!(g.leader, Some(NodeId(9)));
    }
}
