//! Membership service configuration, including the paper's Fig. 7
//! configuration-file format.
//!
//! ```text
//! *SYSTEM
//! SHM_KEY    = 999
//! MAX_TTL    = 4
//! MCAST_ADDR = 239.255.0.2
//! MCAST_PORT = 10050
//! MCAST_FREQ = 1
//! MAX_LOSS   = 5
//!
//! *SERVICE
//! [HTTP]
//!     PARTITION = 0
//!     Port      = 8080
//! [Cache]
//!     PARTITION = 2
//! ```

use tamp_netsim::ChannelId;
use tamp_topology::{Nanos, MILLIS, SECS};
use tamp_wire::{PartitionSet, ServiceDecl};

/// How a timed-out (and, with a suspicion window, unrefuted) member is
/// ultimately removed from the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalDiscipline {
    /// The paper's discipline: each observer confirms its own timeouts
    /// independently (after the refutable suspicion window, if enabled).
    Timeout,
    /// Rapid-style multi-process cut detection (Suresh et al., 2018):
    /// a timeout only makes the observer broadcast an `Alert` report.
    /// Every node aggregates reports per subject, counting *distinct*
    /// reporters, and removes nothing until the report pattern is
    /// *stable* — every reported subject has reached the high watermark
    /// [`CUT_HIGH_WATERMARK`] (clamped to the observer count in small
    /// groups) and the batch has been quiescent for [`CUT_BATCH_DELAY`].
    /// The whole stable cut is then applied as one batched view change.
    /// Subjects stuck between one report and the watermark (e.g. one
    /// asymmetric reporter under a gray partition) block nothing and
    /// expire after [`CUT_REPORT_TTL`]; refutations clear them instantly.
    CutDetection,
}

/// Per-level timeout scaling: `timeout(ℓ) = max_loss × period ×
/// (1 + ℓ × LEVEL_TIMEOUT_FACTOR)`. "Higher level groups are assigned
/// with larger timeout values" so a lower group can re-elect before
/// the higher group purges its subtree.
pub const LEVEL_TIMEOUT_FACTOR: f64 = 0.5;
/// Flap damping à la Rapid: each *refuted* suspicion of a node adds
/// one unit of instability, decaying with this half-life. A node with
/// instability `u` gets its suspicion window scaled by
/// `1 + min(u, FLAP_SCORE_CAP)`.
pub const FLAP_HALF_LIFE: Nanos = 30 * SECS;
/// Upper bound on the flap-damping multiplier increment, so a
/// persistently flapping node's confirmation latency stays bounded.
pub const FLAP_SCORE_CAP: f64 = 3.0;
/// Graceful degradation under measured heavy loss: a peer whose EWMA
/// inter-arrival estimate (the A7 detector signal) or current heartbeat
/// silence exceeds this multiple of the heartbeat period looks late;
/// when half a group looks late, timeouts and suspicion windows stretch
/// by [`DEGRADE_MAX_STRETCH`].
pub const DEGRADE_STRETCH_THRESHOLD: f64 = 1.5;
/// The loss-degradation stretch factor for timeouts and windows.
pub const DEGRADE_MAX_STRETCH: f64 = 3.0;
/// Cut-detection low watermark `L`: a subject with `[1, L)` distinct
/// reporters is considered noise and never blocks a batch (it still
/// expires via [`CUT_REPORT_TTL`]). Subjects in `[L, H)` mark the cut
/// *unstable* and defer the view change.
pub const CUT_LOW_WATERMARK: usize = 2;
/// Cut-detection high watermark `H`: distinct reporters needed before
/// a subject joins the stable cut. Clamped to the number of live
/// observers at the subject's level so small groups stay live.
pub const CUT_HIGH_WATERMARK: usize = 3;
/// Quiescence delay before a stable cut is applied as a batched view
/// change: the batch executes only after no report for any pending
/// subject has arrived for this long.
pub const CUT_BATCH_DELAY: Nanos = SECS;
/// How long an unconfirmed report (reporter, subject) vote stays
/// valid. Bounds how long a lone gray-partition reporter can keep a
/// subject on the books.
pub const CUT_REPORT_TTL: Nanos = 8 * SECS;

/// All tunables of one membership node.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// Base multicast channel; level `k` uses `base_channel + k`
    /// ("all other channels can be derived from the base channel and a
    /// TTL value").
    pub base_channel: ChannelId,
    /// Highest TTL the group-formation process may use (`MAX_TTL`). The
    /// top group level is `max_ttl - 1`.
    pub max_ttl: u8,
    /// Heartbeat multicast period (1 / `MCAST_FREQ`).
    pub heartbeat_period: Nanos,
    /// Consecutive heartbeat losses tolerated before declaring a node
    /// dead (`MAX_LOSS`): the level-0 failure timeout is
    /// `max_loss × heartbeat_period`.
    pub max_loss: u32,
    /// Shared-memory key from the paper's config format. Cosmetic here
    /// (identifies the directory handle).
    pub shm_key: u32,
    /// Events carried per update message (new event + piggybacked
    /// predecessors). The paper uses 4 (current + last 3).
    pub piggyback_window: usize,
    /// Random phase jitter applied to the first heartbeat so nodes do not
    /// beat in lockstep.
    pub startup_jitter: Nanos,
    /// How long a node listens on a newly joined channel before starting
    /// an election (it must first learn of any existing leader).
    pub listen_period: Nanos,
    /// How long an election candidate waits for an objection (`Alive`)
    /// or a rival `Coordinator` before claiming leadership.
    pub election_timeout: Nanos,
    /// How long non-backup members wait for the backup leader's takeover
    /// before starting a full election.
    pub backup_grace: Nanos,
    /// Sweep granularity for timeout checks.
    pub sweep_period: Nanos,
    /// Anti-entropy period: each group leader multicasts a compact
    /// (id, incarnation) digest of its directory into the groups it
    /// leads every this often, letting members detect and repair missing
    /// or orphaned entries. 0 disables. Robustness extension over the
    /// paper; ablation A2 quantifies it.
    pub anti_entropy_period: Nanos,
    /// How long a death declaration suppresses same-incarnation rejoins
    /// in the local directory (see `tamp_directory`).
    pub tombstone_ttl: Nanos,
    /// Use the adaptive (EWMA inter-arrival) failure detector instead of
    /// the paper's fixed `max_loss × period` timeout. Under packet loss
    /// the adaptive deadline stretches automatically; ablation A7
    /// quantifies the trade-off. Off by default (paper-faithful).
    pub adaptive_timeout: bool,
    /// Base suspicion window (docs/ROBUSTNESS.md): a timed-out member is
    /// held in a refutable `Suspect` state this long before the suspicion
    /// is confirmed as a `Leave`. Level-scaled like `timeout`, and
    /// stretched per node by flap damping. 0 disables the suspicion layer
    /// (timed-out members are removed immediately, the paper's behavior).
    pub suspicion_window: Nanos,
    /// How long a dead leader's relayed subtree is quarantined (kept in
    /// the directory, marked suspect-as-a-unit) waiting for a successor
    /// leader to re-vouch for it, instead of being purged outright. 0
    /// falls back to the paper's immediate subtree purge.
    pub quarantine_window: Nanos,
    /// How timed-out members are removed: independent per-observer
    /// timeouts (the paper) or Rapid-style aggregated cut detection.
    pub removal_discipline: RemovalDiscipline,
    /// Trust pre-seeded directories at boot: groups start `bootstrapped`
    /// (no pull from the first leader heard) and an *initial* leadership
    /// claim skips the takeover snapshot exchange. Used by the harness to
    /// start 10k-node runs in a converged state; mid-run leader deaths
    /// still trigger the full §3.1.2 exchange. See
    /// [`MembershipNode::preload`](crate::MembershipNode::preload).
    pub warm_start: bool,
    /// Services this node exports (`*SERVICE` sections).
    pub services: Vec<ServiceDecl>,
    /// Machine attributes published in this node's record.
    pub attrs: Vec<(String, String)>,
    /// If nonzero, pad this node's heartbeat record to this encoded size
    /// (the paper's measured heartbeat is 228 bytes).
    pub pad_heartbeat_to: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            base_channel: ChannelId(0),
            max_ttl: 4,
            heartbeat_period: SECS,
            max_loss: 5,
            shm_key: 999,
            piggyback_window: 4,
            startup_jitter: 500 * MILLIS,
            listen_period: 2 * SECS + 500 * MILLIS,
            election_timeout: 500 * MILLIS,
            backup_grace: 500 * MILLIS,
            sweep_period: 100 * MILLIS,
            anti_entropy_period: 10 * SECS,
            tombstone_ttl: 15 * SECS,
            adaptive_timeout: false,
            suspicion_window: 2 * SECS,
            quarantine_window: 10 * SECS,
            removal_discipline: RemovalDiscipline::Timeout,
            warm_start: false,
            services: Vec::new(),
            attrs: Vec::new(),
            pad_heartbeat_to: 228,
        }
    }
}

/// Error from [`MembershipConfig::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl MembershipConfig {
    /// Failure timeout for group level `level`.
    pub fn timeout(&self, level: u8) -> Nanos {
        let base = self.max_loss as u64 * self.heartbeat_period;
        let scaled = base as f64 * (1.0 + level as f64 * LEVEL_TIMEOUT_FACTOR);
        scaled as Nanos
    }

    /// Suspicion window for group level `level`: scaled with the same
    /// per-level factor as [`MembershipConfig::timeout`], so higher-level
    /// suspicions (whose refutations must travel further) get more time.
    pub fn suspicion(&self, level: u8) -> Nanos {
        let scaled = self.suspicion_window as f64 * (1.0 + level as f64 * LEVEL_TIMEOUT_FACTOR);
        scaled as Nanos
    }

    /// Multicast channel for group level `level`.
    pub fn channel(&self, level: u8) -> ChannelId {
        self.base_channel.for_level(level)
    }

    /// TTL used by group level `level`.
    pub fn ttl(&self, level: u8) -> u8 {
        level + 1
    }

    /// Highest group level (`max_ttl - 1`).
    pub fn top_level(&self) -> u8 {
        self.max_ttl.saturating_sub(1)
    }

    /// The tombstone TTL actually installed in the directory.
    ///
    /// Under `Timeout` this is `tombstone_ttl` as configured. Under
    /// `CutDetection` it is stretched to at least the relayed-rot
    /// horizon (`6 × anti_entropy_period`): the watermark filter means
    /// a side of a real partition with too few cross-cut observers
    /// (correctly) removes nothing, so at heal it still advertises
    /// nodes the other side buried long ago. The digest death
    /// back-push is the only channel that reconciles that divided
    /// knowledge, and it only fires while the tombstone is fresh —
    /// with the short `Timeout`-tuned TTL a death near the end of a
    /// long partition expires before the first cross-cut digest and
    /// the stale side re-infects everyone with an uncovered,
    /// mutually-re-vouched ghost entry. Long tombstones are free in
    /// this mode: removals need multi-observer agreement, and a
    /// wrongly buried *live* node refutes `Leave(self)` by incarnation
    /// bump, which beats any tombstone immediately.
    pub fn effective_tombstone_ttl(&self) -> Nanos {
        match self.removal_discipline {
            RemovalDiscipline::CutDetection if self.anti_entropy_period > 0 => {
                self.tombstone_ttl.max(6 * self.anti_entropy_period)
            }
            _ => self.tombstone_ttl,
        }
    }

    /// Parse the paper's Fig. 7 configuration format. Unknown `*SYSTEM`
    /// keys are rejected; unknown keys inside a `[Service]` section become
    /// service attributes (the paper's "service specific parameters").
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = MembershipConfig::default();
        let err = |line: usize, m: &str| ConfigError {
            line,
            message: m.to_string(),
        };

        #[derive(PartialEq)]
        enum Section {
            None,
            System,
            Service,
        }
        let mut section = Section::None;
        let mut current_service: Option<ServiceDecl> = None;

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('*') {
                if let Some(s) = current_service.take() {
                    cfg.services.push(s);
                }
                section = match rest.trim() {
                    "SYSTEM" => Section::System,
                    "SERVICE" => Section::Service,
                    other => return Err(err(line_no, &format!("unknown section *{other}"))),
                };
                continue;
            }
            if line.starts_with('[') {
                if section != Section::Service {
                    return Err(err(line_no, "service block outside *SERVICE"));
                }
                let name = line
                    .strip_prefix('[')
                    .and_then(|l| l.strip_suffix(']'))
                    .ok_or_else(|| err(line_no, "malformed [Service] header"))?;
                if let Some(s) = current_service.take() {
                    cfg.services.push(s);
                }
                current_service = Some(ServiceDecl::new(name.trim(), PartitionSet::empty()));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(line_no, "expected KEY = VALUE"))?;
            let (key, value) = (key.trim(), value.trim());
            match section {
                Section::System => match key {
                    "SHM_KEY" => {
                        cfg.shm_key = value.parse().map_err(|_| err(line_no, "bad SHM_KEY"))?
                    }
                    "MAX_TTL" => {
                        cfg.max_ttl = value.parse().map_err(|_| err(line_no, "bad MAX_TTL"))?
                    }
                    "MCAST_ADDR" => {
                        // Hash the dotted-quad into a channel id so distinct
                        // addresses get distinct simulated channels.
                        let addr: std::net::Ipv4Addr =
                            value.parse().map_err(|_| err(line_no, "bad MCAST_ADDR"))?;
                        let h = addr
                            .octets()
                            .iter()
                            .fold(0u32, |a, &b| a.wrapping_mul(31).wrapping_add(b as u32));
                        cfg.base_channel = ChannelId((h % 60000) as u16);
                    }
                    "MCAST_PORT" => {
                        // Checked, then folded into the channel id space.
                        value
                            .parse::<u16>()
                            .map_err(|_| err(line_no, "bad MCAST_PORT"))?;
                    }
                    "MCAST_FREQ" => {
                        let f: f64 = value.parse().map_err(|_| err(line_no, "bad MCAST_FREQ"))?;
                        if f <= 0.0 {
                            return Err(err(line_no, "MCAST_FREQ must be positive"));
                        }
                        cfg.heartbeat_period = (SECS as f64 / f) as Nanos;
                    }
                    "MAX_LOSS" => {
                        cfg.max_loss = value.parse().map_err(|_| err(line_no, "bad MAX_LOSS"))?
                    }
                    other => return Err(err(line_no, &format!("unknown *SYSTEM key {other}"))),
                },
                Section::Service => {
                    let svc = current_service
                        .as_mut()
                        .ok_or_else(|| err(line_no, "key before any [Service] header"))?;
                    if key == "PARTITION" {
                        svc.partitions = PartitionSet::parse(value)
                            .ok_or_else(|| err(line_no, "bad PARTITION list"))?;
                    } else {
                        svc.attrs.push((key.to_string(), value.to_string()));
                    }
                }
                Section::None => return Err(err(line_no, "key before any *SECTION")),
            }
        }
        if let Some(s) = current_service.take() {
            cfg.services.push(s);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG7: &str = r#"
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
"#;

    #[test]
    fn parses_the_papers_example() {
        let cfg = MembershipConfig::parse(FIG7).unwrap();
        assert_eq!(cfg.shm_key, 999);
        assert_eq!(cfg.max_ttl, 4);
        assert_eq!(cfg.heartbeat_period, SECS);
        assert_eq!(cfg.max_loss, 5);
        assert_eq!(cfg.services.len(), 2);
        assert_eq!(cfg.services[0].name, "HTTP");
        assert!(cfg.services[0].partitions.contains(0));
        assert_eq!(cfg.services[0].attrs, vec![("Port".into(), "8080".into())]);
        assert_eq!(cfg.services[1].name, "Cache");
        assert!(cfg.services[1].partitions.contains(2));
    }

    #[test]
    fn malformed_mcast_addr_and_port_are_rejected_with_the_line() {
        let fig7 = MembershipConfig::parse(FIG7).unwrap();
        assert_eq!(fig7.base_channel, ChannelId(45106));
        for addr in [
            "239.x.0.2",
            "hello",
            "239.255.0",
            "239.255.0.2.1",
            "239.256.0.2",
            "",
        ] {
            let e =
                MembershipConfig::parse(&format!("*SYSTEM\nMCAST_ADDR = {addr}\n")).unwrap_err();
            assert!(e.message.contains("MCAST_ADDR"), "{addr}: {e}");
            assert_eq!(e.line, 2);
        }
        for port in ["http", "65536", "-1", ""] {
            let e =
                MembershipConfig::parse(&format!("*SYSTEM\n\nMCAST_PORT = {port}\n")).unwrap_err();
            assert!(e.message.contains("MCAST_PORT"), "{port}: {e}");
            assert_eq!(e.line, 3);
        }
        assert!(MembershipConfig::parse("*SYSTEM\nMCAST_PORT = 10050\n").is_ok());
    }

    #[test]
    fn mcast_freq_scales_period() {
        let cfg = MembershipConfig::parse("*SYSTEM\nMCAST_FREQ = 2\n").unwrap();
        assert_eq!(cfg.heartbeat_period, SECS / 2);
        assert!(MembershipConfig::parse("*SYSTEM\nMCAST_FREQ = 0\n").is_err());
    }

    #[test]
    fn rejects_unknown_system_key() {
        let e = MembershipConfig::parse("*SYSTEM\nBOGUS = 1\n").unwrap_err();
        assert!(e.message.contains("BOGUS"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_stray_lines() {
        assert!(MembershipConfig::parse("KEY = 1").is_err());
        assert!(MembershipConfig::parse("*SERVICE\nPARTITION = 1").is_err());
        assert!(MembershipConfig::parse("*SYSTEM\nnot-an-assignment").is_err());
        assert!(MembershipConfig::parse("*WHAT").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = MembershipConfig::parse("# hi\n\n*SYSTEM\n# mid\nMAX_LOSS = 3\n").unwrap();
        assert_eq!(cfg.max_loss, 3);
    }

    #[test]
    fn timeout_scales_with_level() {
        let cfg = MembershipConfig::default();
        assert_eq!(cfg.timeout(0), 5 * SECS);
        assert_eq!(cfg.timeout(1), 7 * SECS + SECS / 2);
        assert_eq!(cfg.timeout(2), 10 * SECS);
        assert!(cfg.timeout(3) > cfg.timeout(2));
    }

    #[test]
    fn suspicion_window_scales_with_level() {
        let cfg = MembershipConfig::default();
        assert_eq!(cfg.suspicion(0), 2 * SECS);
        assert_eq!(cfg.suspicion(1), 3 * SECS);
        assert_eq!(cfg.suspicion(2), 4 * SECS);
        let off = MembershipConfig {
            suspicion_window: 0,
            ..MembershipConfig::default()
        };
        assert_eq!(off.suspicion(3), 0, "0 disables at every level");
    }

    #[test]
    fn channel_and_ttl_per_level() {
        let cfg = MembershipConfig::default();
        assert_eq!(cfg.channel(0), ChannelId(0));
        assert_eq!(cfg.channel(2), ChannelId(2));
        assert_eq!(cfg.ttl(0), 1);
        assert_eq!(cfg.ttl(3), 4);
        assert_eq!(cfg.top_level(), 3);
    }

    #[test]
    fn bad_partition_rejected() {
        let e = MembershipConfig::parse("*SERVICE\n[A]\nPARTITION = x-y\n").unwrap_err();
        assert!(e.message.contains("PARTITION"));
    }

    #[test]
    fn cut_detection_stretches_tombstones_to_rot_horizon() {
        let cfg = MembershipConfig::default();
        assert_eq!(cfg.effective_tombstone_ttl(), cfg.tombstone_ttl);
        let rapid = MembershipConfig {
            removal_discipline: RemovalDiscipline::CutDetection,
            ..MembershipConfig::default()
        };
        assert_eq!(
            rapid.effective_tombstone_ttl(),
            6 * rapid.anti_entropy_period,
            "back-push must outlive a partition-scale knowledge divide"
        );
        let long = MembershipConfig {
            removal_discipline: RemovalDiscipline::CutDetection,
            tombstone_ttl: 120 * SECS,
            ..MembershipConfig::default()
        };
        assert_eq!(long.effective_tombstone_ttl(), 120 * SECS);
        let no_ae = MembershipConfig {
            removal_discipline: RemovalDiscipline::CutDetection,
            anti_entropy_period: 0,
            ..MembershipConfig::default()
        };
        assert_eq!(
            no_ae.effective_tombstone_ttl(),
            no_ae.tombstone_ttl,
            "no anti-entropy → no rot horizon to outlive"
        );
    }
}
