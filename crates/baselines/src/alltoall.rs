//! The all-to-all multicast heartbeat protocol (paper §2).
//!
//! "One straightforward approach … is to let every node periodically send
//! its heartbeats to other nodes and collect heartbeats from other nodes.
//! … Every node builds its own membership directory based on these
//! heartbeat packets. … The advantage of this approach is that each node
//! functions independently and it provides the best fault isolation.
//! Unfortunately, this simple scheme is not scalable."

use crate::column::{take_due, Baseline, Column, Profile, Shell};
use std::collections::BTreeMap;
use tamp_netsim::{ChannelId, Context, Nanos, PacketMeta, ProtocolEvent, MILLIS, SECS};
use tamp_wire::{Heartbeat, Message, MessageView, NodeId, ServiceDecl};

/// The single cluster-wide multicast channel.
pub const CHANNEL: ChannelId = ChannelId(0);
/// TTL that reaches the whole cluster.
pub const TTL: u8 = 8;
/// Missed heartbeats tolerated before declaring a node dead.
pub const MAX_LOSS: u32 = 5;
/// First-heartbeat phase jitter.
pub const STARTUP_JITTER: Nanos = 500 * MILLIS;
/// Timeout-check granularity.
pub const SWEEP_PERIOD: Nanos = 100 * MILLIS;

/// Tunables for one all-to-all node.
#[derive(Debug, Clone)]
pub struct AllToAllConfig {
    /// Heartbeat period (the paper fixes 1 Hz).
    pub heartbeat_period: Nanos,
    /// Services to export.
    pub services: Vec<ServiceDecl>,
    /// Pad heartbeats to this encoded size (0 = no padding). The paper
    /// measures 228-byte heartbeats; its Fig. 2 bandwidth plot uses
    /// 1024-byte packets.
    pub pad_heartbeat_to: usize,
}

impl Default for AllToAllConfig {
    fn default() -> Self {
        AllToAllConfig {
            heartbeat_period: SECS,
            services: Vec::new(),
            pad_heartbeat_to: 228,
        }
    }
}

/// One node of the all-to-all baseline.
pub type AllToAllNode = Baseline<AllToAll>;

/// The all-to-all column: everyone monitors everyone through one
/// multicast heartbeat.
#[derive(Default)]
pub struct AllToAll {
    heartbeat_period: Nanos,
    seq: u64,
    last_heard: BTreeMap<NodeId, Nanos>,
}

impl AllToAll {
    fn timeout(&self) -> Nanos {
        MAX_LOSS as u64 * self.heartbeat_period
    }

    /// Note a heartbeat from `from` heard now; false if it is our own.
    fn heard(&mut self, shell: &Shell, ctx: &Context, from: NodeId) -> bool {
        if from == shell.me() {
            return false;
        }
        self.last_heard.insert(from, ctx.now());
        true
    }
}

impl Column for AllToAll {
    type Config = AllToAllConfig;

    fn new(cfg: AllToAllConfig) -> (Self, Profile) {
        let column = AllToAll {
            heartbeat_period: cfg.heartbeat_period,
            ..AllToAll::default()
        };
        let profile = Profile {
            services: cfg.services,
            pad_to: cfg.pad_heartbeat_to,
            startup_jitter: STARTUP_JITTER,
            period: cfg.heartbeat_period,
            sweep_period: SWEEP_PERIOD,
        };
        (column, profile)
    }

    fn reset(&mut self) {
        self.last_heard.clear();
        self.seq = 0;
    }

    fn on_start(&mut self, _shell: &mut Shell, ctx: &mut Context) {
        ctx.subscribe(CHANNEL);
    }

    fn on_packet(&mut self, shell: &mut Shell, ctx: &mut Context, _: PacketMeta, msg: &Message) {
        let Message::Heartbeat(hb) = msg else { return };
        let rec = &hb.record;
        if self.heard(shell, ctx, hb.from) {
            shell.admit(
                ctx,
                rec.node,
                rec.incarnation,
                || rec.clone(),
                |held| **rec == *held,
            );
        }
    }

    /// Zero-copy receive: the protocol is heartbeat-only, and on the
    /// steady-state refresh path (same incarnation, same content) the
    /// sender's record never gets materialized — the directory's lazy
    /// join compares through the borrowed view.
    fn on_packet_view(
        &mut self,
        shell: &mut Shell,
        ctx: &mut Context,
        _: PacketMeta,
        view: &MessageView<'_>,
    ) {
        let Some(hb) = view.as_heartbeat() else {
            return;
        };
        let rec = &hb.record;
        if self.heard(shell, ctx, hb.from) {
            shell.admit(
                ctx,
                rec.node,
                rec.incarnation,
                || rec.to_record(),
                |held| rec.same_payload(held),
            );
        }
    }

    fn on_tick(&mut self, shell: &mut Shell, ctx: &mut Context) {
        self.seq += 1;
        ctx.emit(ProtocolEvent::HeartbeatSent { level: 0 });
        ctx.send_multicast(
            CHANNEL,
            TTL,
            Message::Heartbeat(Heartbeat {
                from: shell.me(),
                level: 0,
                seq: self.seq,
                is_leader: false,
                backup: None,
                latest_update_seq: 0,
                record: shell.record().clone(),
            }),
        );
    }

    fn on_sweep(&mut self, shell: &mut Shell, ctx: &mut Context) {
        let now = ctx.now();
        let timeout = self.timeout();
        for n in take_due(&mut self.last_heard, |&t| now.saturating_sub(t) >= timeout) {
            shell.remove_held(ctx, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_padded_to_configured_size() {
        let node = AllToAllNode::new(NodeId(1), AllToAllConfig::default());
        let msg = Message::Heartbeat(Heartbeat {
            from: node.shell.me(),
            level: 0,
            seq: 0,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: node.shell.record().clone(),
        });
        assert_eq!(tamp_wire::codec::encoded_len(&msg), 228);
    }

    #[test]
    fn timeout_is_max_loss_periods() {
        let node = AllToAllNode::new(NodeId(1), AllToAllConfig::default());
        assert_eq!(node.column.timeout(), 5 * SECS);
    }
}
