//! # tamp-baselines — the paper's two comparison protocols
//!
//! The evaluation (paper §6) compares the hierarchical membership service
//! against:
//!
//! * [`AllToAllNode`] — every node multicasts a heartbeat to the whole
//!   cluster once per period and independently tracks everyone else
//!   (§2). Perfect fault isolation, `O(n²)` aggregate traffic: the
//!   motivation for the hierarchical design (Fig. 2).
//! * [`GossipNode`] — the gossip-style failure-detection service of
//!   van Renesse et al. (§2, \[23\]): each node keeps a heartbeat counter
//!   per member, periodically sends its whole view to a few random peers,
//!   and declares a member failed when its counter has not advanced for
//!   `T_fail`. Probabilistic, `Θ(n·s)` bytes *per message*, detection
//!   time growing with `log n`.
//!
//! A third, newer baseline rides along for perspective the paper could
//! not have had in 2003:
//!
//! * [`SwimNode`] — SWIM (Das, Gupta & Motivala, DSN 2002): round-robin
//!   direct probes over a randomized permutation, `k` indirect probes
//!   via ping-req on a missed ack, and suspect/alive/confirm updates
//!   piggybacked on the probe traffic itself with incarnation-number
//!   refutation. Constant per-node probe load, `O(log n)` dissemination
//!   latency, bounded worst-case detection time.
//!
//! All three are one actor, [`column::Baseline`], over a
//! [`column::Column`] that holds only the protocol's monitoring relation
//! and dissemination: the shell owns identity, restart, timers and the
//! [`tamp_directory`] yellow-page writes with their add/remove
//! observations, so the experiment harness can swap protocols behind
//! one [`tamp_netsim::Actor`] interface.

pub mod alltoall;
pub mod column;
pub mod gossip;
pub mod swim;

pub use alltoall::{AllToAllConfig, AllToAllNode};
pub use gossip::{GossipConfig, GossipNode};
pub use swim::{SwimConfig, SwimNode};
