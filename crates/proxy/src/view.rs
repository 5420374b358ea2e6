//! Shared cross-actor state: the virtual-IP table and the remote service
//! view.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tamp_wire::{DcId, NodeId, ServiceAvail};

/// The virtual-IP indirection of the paper's IP-failover mechanism.
///
/// "All proxies share a single external IP address using an IP failover
/// mechanism. When the proxy leader fails, the newly elected leader will
/// take over the IP address. Thus, all other data centers always see the
/// same IP address." In the simulator the VIP is a level of indirection:
/// remote senders resolve `DcId → current leader NodeId` at send time.
/// The table is shared (Arc) across every actor of the simulation, the
/// same way ARP state is shared by a LAN.
#[derive(Debug, Clone, Default)]
pub struct VipTable {
    map: Arc<RwLock<HashMap<DcId, NodeId>>>,
}

impl VipTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take over a DC's virtual IP (gratuitous-ARP analogue).
    pub fn set(&self, dc: DcId, owner: NodeId) {
        self.map.write().insert(dc, owner);
    }

    /// Resolve a DC's virtual IP to its current owner.
    pub fn get(&self, dc: DcId) -> Option<NodeId> {
        self.map.read().get(&dc).copied()
    }
}

/// A data center's view of *other* data centers' service availability,
/// kept by every proxy (the leader feeds it from WAN traffic and relays
/// to the local proxy group so failover loses nothing).
#[derive(Debug, Clone, Default)]
pub struct RemoteView {
    map: Arc<RwLock<HashMap<DcId, Vec<ServiceAvail>>>>,
}

impl RemoteView {
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the whole summary for one DC.
    pub fn set_dc(&self, dc: DcId, services: Vec<ServiceAvail>) {
        self.map.write().insert(dc, services);
    }

    /// Apply one incremental change.
    pub fn apply(&self, dc: DcId, event: &tamp_wire::SummaryEvent) {
        let mut map = self.map.write();
        let list = map.entry(dc).or_default();
        match event {
            tamp_wire::SummaryEvent::Avail(a) => {
                list.retain(|s| s.name != a.name);
                list.push(a.clone());
            }
            tamp_wire::SummaryEvent::Gone { name } => {
                list.retain(|s| s.name != *name);
            }
        }
    }

    /// Data centers currently believed to offer `service`/`partition`,
    /// sorted by descending instance count (better-provisioned first).
    pub fn find(&self, service: &str, partition: u16) -> Vec<DcId> {
        let map = self.map.read();
        let mut hits: Vec<(DcId, u16)> = map
            .iter()
            .filter_map(|(&dc, services)| {
                services
                    .iter()
                    .find(|s| s.name == service && s.partitions.contains(partition))
                    .map(|s| (dc, s.instances))
            })
            .collect();
        hits.sort_by_key(|&(dc, inst)| (std::cmp::Reverse(inst), dc));
        hits.into_iter().map(|(dc, _)| dc).collect()
    }

    /// Snapshot of one DC's summary.
    pub fn get_dc(&self, dc: DcId) -> Option<Vec<ServiceAvail>> {
        self.map.read().get(&dc).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_wire::{PartitionSet, SummaryEvent};

    fn avail(name: &str, parts: &[u16], instances: u16) -> ServiceAvail {
        ServiceAvail {
            name: name.into(),
            partitions: PartitionSet::from_iter(parts.iter().copied()),
            instances,
        }
    }

    #[test]
    fn vip_set_get() {
        let v = VipTable::new();
        assert_eq!(v.get(DcId(0)), None);
        v.set(DcId(0), NodeId(4));
        assert_eq!(v.get(DcId(0)), Some(NodeId(4)));
        v.set(DcId(0), NodeId(9));
        assert_eq!(v.get(DcId(0)), Some(NodeId(9)));
    }

    #[test]
    fn vip_clones_share_state() {
        let v = VipTable::new();
        let v2 = v.clone();
        v.set(DcId(1), NodeId(7));
        assert_eq!(v2.get(DcId(1)), Some(NodeId(7)));
    }

    #[test]
    fn remote_view_find_prefers_more_instances() {
        let r = RemoteView::new();
        r.set_dc(DcId(1), vec![avail("doc", &[0, 1], 2)]);
        r.set_dc(DcId(2), vec![avail("doc", &[0], 5)]);
        assert_eq!(r.find("doc", 0), vec![DcId(2), DcId(1)]);
        assert_eq!(r.find("doc", 1), vec![DcId(1)]);
        assert!(r.find("doc", 9).is_empty());
        assert!(r.find("idx", 0).is_empty());
    }

    #[test]
    fn remote_view_incremental_apply() {
        let r = RemoteView::new();
        r.set_dc(DcId(1), vec![avail("doc", &[0], 1)]);
        r.apply(DcId(1), &SummaryEvent::Avail(avail("doc", &[0, 1], 3)));
        assert_eq!(r.find("doc", 1), vec![DcId(1)]);
        r.apply(DcId(1), &SummaryEvent::Gone { name: "doc".into() });
        assert!(r.find("doc", 0).is_empty());
    }
}
