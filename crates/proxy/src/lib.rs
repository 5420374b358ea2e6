//! # tamp-proxy — membership proxies across data centers (paper §3.2)
//!
//! A service may be deployed in several hosting centers connected by a
//! VPN/Internet, where TTL-scoped multicast cannot reach. Each data
//! center runs a handful of **membership proxies**:
//!
//! * proxies form their own membership group on a reserved multicast
//!   channel and elect a leader (lowest id, sticky);
//! * the proxy leader participates in the local cluster's membership
//!   tree and aggregates the local directory into a compact per-service
//!   **summary** ("the summary does not include the detailed machine
//!   information — it only has the availability of service information");
//! * leaders exchange summaries over WAN **unicast** — periodic
//!   [`ProxySummary`](tamp_wire::ProxySummary) heartbeats (split into
//!   multiple packets when large) plus immediate incremental
//!   [`ProxyUpdate`](tamp_wire::ProxyUpdate)s on change;
//! * all proxies of a DC share one external **virtual IP**: when the
//!   leader fails, the next proxy takes over both the leadership and the
//!   VIP ([`VipTable`]), so remote DCs keep talking to the same address;
//! * a service request that cannot be served locally is forwarded
//!   through the proxies to a data center that can (the six-step flow of
//!   paper Fig. 6), implemented in [`ProxyNode`]'s `ServiceRequest`
//!   handling.
//!
//! Proxies are full cluster members: each is a
//! [`Role`](tamp_membership::Role) hosted beside a
//! [`MembershipNode`](tamp_membership::MembershipNode) by
//! [`Hosted`](tamp_membership::Hosted), and exports a `__proxy`
//! pseudo-service, so any consumer can find its local proxies through
//! the ordinary yellow-page lookup.

mod node;
mod view;

pub use node::{
    ProxyConfig, ProxyNode, MAX_AVAIL_PER_PACKET, PENDING_TIMEOUT, PROXY_CHANNEL, PROXY_SERVICE,
    PROXY_TTL,
};
pub use view::{RemoteView, VipTable};
