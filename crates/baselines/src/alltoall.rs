//! The all-to-all multicast heartbeat protocol (paper §2).
//!
//! "One straightforward approach … is to let every node periodically send
//! its heartbeats to other nodes and collect heartbeats from other nodes.
//! … Every node builds its own membership directory based on these
//! heartbeat packets. … The advantage of this approach is that each node
//! functions independently and it provides the best fault isolation.
//! Unfortunately, this simple scheme is not scalable."

use std::collections::HashMap;
use tamp_directory::{DirectoryClient, Provenance, SharedDirectory};
use tamp_netsim::{Actor, ChannelId, Context, Nanos, PacketMeta, MILLIS, SECS};
use tamp_wire::{Heartbeat, Message, NodeId, NodeRecord, RecordPayload, ServiceDecl};

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

const T_HEARTBEAT: u64 = 1;
const T_SWEEP: u64 = 2;

/// One node of the all-to-all baseline.
pub struct AllToAllNode {
    cfg: AllToAllConfig,
    me: NodeId,
    incarnation: u64,
    crashed: bool,
    record: NodeRecord,
    seq: u64,
    directory: SharedDirectory,
    last_heard: HashMap<NodeId, Nanos>,
}

impl AllToAllNode {
    pub fn new(me: NodeId, cfg: AllToAllConfig) -> Self {
        let mut n = AllToAllNode {
            record: NodeRecord::new(me, 0),
            me,
            incarnation: 0,
            crashed: false,
            seq: 0,
            directory: SharedDirectory::new(),
            last_heard: HashMap::new(),
            cfg,
        };
        n.rebuild_record();
        n
    }

    /// Yellow-page read handle.
    pub fn directory_client(&self) -> DirectoryClient {
        self.directory.client()
    }

    fn rebuild_record(&mut self) {
        let mut r = NodeRecord::new(self.me, self.incarnation);
        r.services = self.cfg.services.clone();
        if self.cfg.pad_heartbeat_to > 0 {
            r.pad_to_encoded_size(self.cfg.pad_heartbeat_to);
        }
        self.record = r;
    }

    fn timeout(&self) -> Nanos {
        MAX_LOSS as u64 * self.cfg.heartbeat_period
    }

    /// A heartbeat from `from`, carrying the record of `node` at
    /// `incarnation`: note the sender alive and join or refresh its row.
    /// `make_record` and `same` are [`tamp_directory::Directory::apply_join_with`]'s
    /// — a clone and an equality for an owned message, a materialization
    /// and a borrowed comparison for a wire view.
    fn on_heartbeat(
        &mut self,
        ctx: &mut Context,
        from: NodeId,
        node: NodeId,
        incarnation: u64,
        make_record: impl FnOnce() -> NodeRecord,
        same: impl FnOnce(&RecordPayload) -> bool,
    ) {
        if from == self.me {
            return;
        }
        let now = ctx.now();
        self.last_heard.insert(from, now);
        let (was, applied) = self.directory.update(|d| {
            let was = d.contains(from);
            let (a, _) = d.apply_join_with(
                node,
                incarnation,
                Provenance::Direct,
                now,
                make_record,
                same,
            );
            (a.changed(), (was, a))
        });
        if applied.changed() && !was {
            ctx.observe_added(from);
        }
    }
}

impl Actor for AllToAllNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.crashed {
            self.crashed = false;
            self.last_heard.clear();
            self.seq = 0;
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
        ctx.subscribe(CHANNEL);
        let phase = ctx.jitter(STARTUP_JITTER);
        ctx.set_timer(phase + self.cfg.heartbeat_period, T_HEARTBEAT);
        ctx.set_timer(SWEEP_PERIOD, T_SWEEP);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        self.directory.update(|d| {
            *d = tamp_directory::Directory::new();
            (true, ())
        });
    }

    fn on_packet(&mut self, ctx: &mut Context, _meta: PacketMeta, msg: &Message) {
        let Message::Heartbeat(hb) = msg else { return };
        self.on_heartbeat(
            ctx,
            hb.from,
            hb.record.node,
            hb.record.incarnation,
            || hb.record.clone(),
            |held| *hb.record == *held,
        );
    }

    /// Zero-copy receive: the protocol is heartbeat-only, and on the
    /// steady-state refresh path (same incarnation, same content) the
    /// sender's record never gets materialized — the directory's lazy
    /// join compares through the borrowed view.
    fn on_packet_view(
        &mut self,
        ctx: &mut Context,
        _meta: PacketMeta,
        view: &tamp_wire::MessageView<'_>,
    ) {
        let Some(hb) = view.as_heartbeat() else {
            return;
        };
        self.on_heartbeat(
            ctx,
            hb.from,
            hb.record.node,
            hb.record.incarnation,
            || hb.record.to_record(),
            |held| hb.record.same_payload(held),
        );
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        match token {
            T_HEARTBEAT => {
                self.seq += 1;
                ctx.count("alltoall", "heartbeats_sent", 1);
                ctx.send_multicast(
                    CHANNEL,
                    TTL,
                    Message::Heartbeat(Heartbeat {
                        from: self.me,
                        level: 0,
                        seq: self.seq,
                        is_leader: false,
                        backup: None,
                        latest_update_seq: 0,
                        record: self.record.clone(),
                    }),
                );
                ctx.set_timer(self.cfg.heartbeat_period, T_HEARTBEAT);
            }
            T_SWEEP => {
                let now = ctx.now();
                let timeout = self.timeout();
                let dead: Vec<NodeId> = self
                    .last_heard
                    .iter()
                    .filter(|(_, &t)| now.saturating_sub(t) >= timeout)
                    .map(|(&n, _)| n)
                    .collect();
                for n in dead {
                    self.last_heard.remove(&n);
                    let inc = self.directory.read(|d| d.get(n).map(|e| e.incarnation));
                    if let Some(inc) = inc {
                        self.directory
                            .update(|d| (d.apply_leave(n, inc, now).changed(), ()));
                        ctx.count("alltoall", "deaths_declared", 1);
                        ctx.observe_removed(n);
                    }
                }
                ctx.set_timer(SWEEP_PERIOD, T_SWEEP);
            }
            _ => {}
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
            from: node.me,
            level: 0,
            seq: 0,
            is_leader: false,
            backup: None,
            latest_update_seq: 0,
            record: node.record.clone(),
        });
        assert_eq!(tamp_wire::codec::encoded_len(&msg), 228);
    }

    #[test]
    fn timeout_is_max_loss_periods() {
        let node = AllToAllNode::new(NodeId(1), AllToAllConfig::default());
        assert_eq!(node.timeout(), 5 * SECS);
    }
}
