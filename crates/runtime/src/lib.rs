//! # tamp-runtime — real-time UDP driver for TAMP actors
//!
//! The protocols in this workspace are sans-io state machines
//! ([`tamp_netsim::Actor`]); the discrete-event simulator drives them in
//! virtual time for experiments. This crate drives the *same* actors in
//! real time over *real* UDP sockets, one thread per node — the
//! deployment shape of the paper's C++ daemon.
//!
//! Multicast is emulated: nodes bind ordinary loopback UDP sockets and a
//! shared [`Fabric`] registry (channel subscriptions + TTL filtering
//! against the configured [`Topology`]) expands each multicast send into
//! unicast datagrams to every eligible subscriber — the moral equivalent
//! of the switch fabric replicating a TTL-scoped multicast. Real IP
//! multicast with `IP_MULTICAST_TTL` would behave identically on a real
//! network but cannot be demonstrated on a single loopback interface,
//! where no router ever decrements the TTL; the emulation preserves
//! exactly the delivery rule the protocol depends on. All nodes live in
//! one process (threads), which is what lets them share the registry.
//!
//! ```no_run
//! use tamp_runtime::Runtime;
//! use tamp_membership::{MembershipConfig, MembershipNode};
//! use tamp_topology::generators;
//! use tamp_wire::NodeId;
//!
//! let topo = generators::star_of_segments(2, 3);
//! let mut rt = Runtime::new(topo);
//! let mut clients = Vec::new();
//! for h in rt.hosts() {
//!     let node = MembershipNode::new(NodeId(h.0), MembershipConfig::default());
//!     clients.push(node.directory_client());
//!     rt.add_node(h, Box::new(node));
//! }
//! rt.start();
//! std::thread::sleep(std::time::Duration::from_secs(10));
//! assert!(clients.iter().all(|c| c.member_count() == 6));
//! rt.shutdown();
//! ```

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tamp_netsim::telemetry::{Counter, MetricsSnapshot, Registry};
use tamp_netsim::{Actor, ChannelId, Context, Destination, Effect, Nanos, PacketMeta};
use tamp_topology::{HostId, SegmentId, Topology};
use tamp_wire::{codec, CodecKind};

/// Wire framing for the emulated fabric: src(4) | channel(2) | ttl(1),
/// then the encoded message. Channel 0xffff marks plain unicast.
const HDR_LEN: usize = 7;
const UNICAST_CHANNEL: u16 = 0xffff;

/// Shared switch-fabric state: who is where, and who subscribed to what.
#[derive(Debug, Default)]
struct FabricState {
    addrs: HashMap<HostId, SocketAddr>,
    subs: BTreeMap<ChannelId, HashSet<HostId>>,
    /// Severed segment pairs (network partition emulation).
    blocked: HashSet<(u16, u16)>,
}

/// The emulated multicast fabric shared by all node drivers.
#[derive(Debug, Clone)]
pub struct Fabric {
    topo: Arc<Topology>,
    state: Arc<RwLock<FabricState>>,
}

impl Fabric {
    fn new(topo: Topology) -> Self {
        Fabric {
            topo: Arc::new(topo),
            state: Arc::new(RwLock::new(FabricState::default())),
        }
    }

    fn register(&self, host: HostId, addr: SocketAddr) {
        self.state.write().addrs.insert(host, addr);
    }

    fn subscribe(&self, host: HostId, ch: ChannelId) {
        self.state.write().subs.entry(ch).or_default().insert(host);
    }

    fn unsubscribe(&self, host: HostId, ch: ChannelId) {
        if let Some(set) = self.state.write().subs.get_mut(&ch) {
            set.remove(&host);
        }
    }

    fn deregister(&self, host: HostId) {
        let mut s = self.state.write();
        s.addrs.remove(&host);
        for set in s.subs.values_mut() {
            set.remove(&host);
        }
    }

    /// Sever (or restore) all traffic between two segments — live
    /// network-partition emulation, mirroring the simulator's
    /// `Control::BlockSegments`.
    pub fn set_segments_blocked(&self, a: SegmentId, b: SegmentId, blocked: bool) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        let mut s = self.state.write();
        if blocked {
            s.blocked.insert(key);
        } else {
            s.blocked.remove(&key);
        }
    }

    fn pair_blocked(&self, s: &FabricState, a: HostId, b: HostId) -> bool {
        if s.blocked.is_empty() {
            return false;
        }
        let (sa, sb) = (self.topo.segment_of(a).0, self.topo.segment_of(b).0);
        s.blocked.contains(&(sa.min(sb), sa.max(sb)))
    }

    /// Expand a destination into concrete socket addresses, applying the
    /// TTL-scoped multicast delivery rule and any active partitions.
    fn resolve(&self, src: HostId, dest: Destination) -> Vec<SocketAddr> {
        let s = self.state.read();
        match dest {
            Destination::Unicast(h) => {
                if self.pair_blocked(&s, src, h) {
                    return Vec::new();
                }
                s.addrs.get(&h).copied().into_iter().collect()
            }
            Destination::Multicast { channel, ttl } => match s.subs.get(&channel) {
                None => Vec::new(),
                Some(set) => set
                    .iter()
                    .filter(|&&h| {
                        h != src
                            && self.topo.ttl_distance(src, h) <= ttl
                            && !self.pair_blocked(&s, src, h)
                    })
                    .filter_map(|h| s.addrs.get(h).copied())
                    .collect(),
            },
        }
    }
}

/// How many times a failed `send_to` is retried before the datagram is
/// dropped, and the initial backoff between attempts (doubled each
/// retry: 50 µs, 100 µs, 200 µs). The protocol tolerates loss — a
/// heartbeat is re-sent next period anyway — so the retry budget only
/// papers over transient local conditions (full socket buffers,
/// interrupted syscalls), never blocks the driver loop for long.
const SEND_RETRIES: u32 = 3;
const SEND_BACKOFF: Duration = Duration::from_micros(50);

/// Per-host telemetry handles for one driver thread. The send-path
/// counters (`runtime/send_drops`, `runtime/send_retries`) make every
/// dropped datagram and every retry observable so deployments (and
/// tests) can distinguish "the network lost it" from "we never handed
/// it to the kernel". Recording is a relaxed `fetch_add` on a shared
/// registry slot — the same storage `Runtime::metrics` snapshots.
#[derive(Clone)]
struct HostMeters {
    send_drops: Counter,
    send_retries: Counter,
    registry: Registry,
    node: u32,
}

impl HostMeters {
    fn new(registry: &Registry, host: HostId) -> Self {
        HostMeters {
            send_drops: registry.counter(host.0, "runtime", "send_drops"),
            send_retries: registry.counter(host.0, "runtime", "send_retries"),
            registry: registry.clone(),
            node: host.0,
        }
    }
}

/// Send one frame with bounded retry + exponential backoff. Transient
/// errors (buffer pressure, interrupted syscall) are retried; anything
/// else — or exhausting the budget — counts a drop and moves on.
fn send_with_retry(socket: &UdpSocket, frame: &[u8], addr: SocketAddr, meters: &HostMeters) {
    let mut backoff = SEND_BACKOFF;
    for attempt in 0..=SEND_RETRIES {
        match socket.send_to(frame, addr) {
            Ok(_) => return,
            Err(e)
                if attempt < SEND_RETRIES
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::OutOfMemory
                    ) =>
            {
                meters.send_retries.inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(_) => break,
        }
    }
    meters.send_drops.inc();
}

struct TimerEntry {
    at: Instant,
    token: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token == other.token
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by time.
        other.at.cmp(&self.at).then(other.token.cmp(&self.token))
    }
}

/// The real-time runtime: owns one driver thread per node.
pub struct Runtime {
    fabric: Fabric,
    epoch: Instant,
    pending: Vec<(HostId, Box<dyn Actor>)>,
    threads: Vec<std::thread::JoinHandle<()>>,
    stops: HashMap<HostId, Arc<AtomicBool>>,
    registry: Registry,
}

impl Runtime {
    pub fn new(topo: Topology) -> Self {
        Runtime {
            fabric: Fabric::new(topo),
            epoch: Instant::now(),
            pending: Vec::new(),
            threads: Vec::new(),
            stops: HashMap::new(),
            registry: Registry::new(),
        }
    }

    /// Hosts of the underlying topology.
    pub fn hosts(&self) -> Vec<HostId> {
        self.fabric.topo.hosts().collect()
    }

    /// Queue an actor for a host; started by [`Runtime::start`].
    pub fn add_node(&mut self, host: HostId, actor: Box<dyn Actor>) {
        self.pending.push((host, actor));
    }

    /// Bind sockets and spawn one driver thread per queued node.
    pub fn start(&mut self) {
        let nodes = std::mem::take(&mut self.pending);
        for (host, actor) in nodes {
            self.spawn(host, actor);
        }
    }

    fn spawn(&mut self, host: HostId, actor: Box<dyn Actor>) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
        let addr = socket.local_addr().unwrap();
        self.fabric.register(host, addr);
        let stop = Arc::new(AtomicBool::new(false));
        self.stops.insert(host, Arc::clone(&stop));
        // Registry slots are cumulative across restarts of the same host.
        let meters = HostMeters::new(&self.registry, host);
        let fabric = self.fabric.clone();
        let epoch = self.epoch;
        let handle = std::thread::Builder::new()
            .name(format!("tamp-{host}"))
            .spawn(move || drive(host, actor, socket, fabric, epoch, stop, meters))
            .expect("spawn driver thread");
        self.threads.push(handle);
    }

    /// The live telemetry registry every driver thread records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time snapshot of all runtime and protocol metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Datagrams the send path abandoned on one host (retry budget
    /// exhausted or non-transient error). Cumulative across
    /// [`Runtime::start_node`] restarts.
    pub fn send_drops(&self, host: HostId) -> u64 {
        self.registry.counter(host.0, "runtime", "send_drops").get()
    }

    /// Handle to the shared fabric (for live partition injection).
    pub fn fabric(&self) -> Fabric {
        self.fabric.clone()
    }

    /// Stop one node (models a process crash: its socket closes and its
    /// heartbeats cease; peers detect via timeout).
    pub fn stop_node(&mut self, host: HostId) {
        if let Some(s) = self.stops.get(&host) {
            s.store(true, Ordering::Relaxed);
        }
        self.fabric.deregister(host);
    }

    /// Start (or restart) one node immediately — the live analogue of
    /// the simulator's `Control::Revive`. The caller supplies a fresh
    /// actor, just as a restarted process begins with empty state; the
    /// host must not currently be running (call [`Runtime::stop_node`]
    /// first when restarting).
    pub fn start_node(&mut self, host: HostId, actor: Box<dyn Actor>) {
        self.spawn(host, actor);
    }

    /// Stop everything and join the driver threads.
    pub fn shutdown(&mut self) {
        for s in self.stops.values() {
            s.store(true, Ordering::Relaxed);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Driver loop: interleave socket reads with due timers, applying actor
/// effects as they are produced.
fn drive(
    host: HostId,
    mut actor: Box<dyn Actor>,
    socket: UdpSocket,
    fabric: Fabric,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    meters: HostMeters,
) {
    let mut rng = StdRng::seed_from_u64(host.0 as u64 ^ 0x7a3f);
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let mut buf = vec![0u8; 64 * 1024];
    let now_nanos = |epoch: Instant| -> Nanos { epoch.elapsed().as_nanos() as Nanos };

    // Start the actor.
    let mut effects = Vec::new();
    {
        let mut ctx = Context::new(now_nanos(epoch), host, &mut rng, &mut effects);
        actor.on_start(&mut ctx);
    }
    apply(host, &fabric, &socket, &meters, &mut timers, effects);

    while !stop.load(Ordering::Relaxed) {
        // Fire due timers.
        loop {
            match timers.peek() {
                Some(t) if t.at <= Instant::now() => {
                    let t = timers.pop().unwrap();
                    let mut effects = Vec::new();
                    {
                        let mut ctx = Context::new(now_nanos(epoch), host, &mut rng, &mut effects);
                        actor.on_timer(&mut ctx, t.token);
                    }
                    apply(host, &fabric, &socket, &meters, &mut timers, effects);
                }
                _ => break,
            }
        }
        // Wait for a packet until the next timer (bounded poll so the
        // stop flag is honored promptly).
        let wait = timers
            .peek()
            .map(|t| t.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(20))
            .max(Duration::from_micros(100));
        socket.set_read_timeout(Some(wait)).ok();
        match socket.recv_from(&mut buf) {
            Ok((len, _)) if len >= HDR_LEN => {
                let src = HostId(u32::from_le_bytes(buf[0..4].try_into().unwrap()));
                let ch = u16::from_le_bytes(buf[4..6].try_into().unwrap());
                let ttl = buf[6];
                let meta = PacketMeta {
                    src,
                    channel: (ch != UNICAST_CHANNEL).then_some(ChannelId(ch)),
                    ttl: (ch != UNICAST_CHANNEL).then_some(ttl),
                    size: len as u32,
                };
                let mut effects = Vec::new();
                {
                    let mut ctx = Context::new(now_nanos(epoch), host, &mut rng, &mut effects);
                    // `on_wire_packet` parses a zero-copy view over the
                    // receive buffer and drops frames that fail
                    // validation.
                    actor.on_wire_packet(&mut ctx, meta, &buf[HDR_LEN..len], CodecKind::Borrowed);
                }
                apply(host, &fabric, &socket, &meters, &mut timers, effects);
            }
            _ => {} // timeout or short datagram
        }
    }
}

fn apply(
    host: HostId,
    fabric: &Fabric,
    socket: &UdpSocket,
    meters: &HostMeters,
    timers: &mut BinaryHeap<TimerEntry>,
    effects: Vec<Effect>,
) {
    for e in effects {
        match e {
            Effect::Send { dest, msg } => {
                let (ch, ttl) = match dest {
                    Destination::Unicast(_) => (UNICAST_CHANNEL, 0),
                    Destination::Multicast { channel, ttl } => (channel.0, ttl),
                };
                let body = codec::encode(&msg);
                let mut frame = Vec::with_capacity(HDR_LEN + body.len());
                frame.extend_from_slice(&host.0.to_le_bytes());
                frame.extend_from_slice(&ch.to_le_bytes());
                frame.push(ttl);
                frame.extend_from_slice(&body);
                for addr in fabric.resolve(host, dest) {
                    send_with_retry(socket, &frame, addr, meters);
                }
            }
            Effect::SetTimer { delay, token } => {
                timers.push(TimerEntry {
                    at: Instant::now() + Duration::from_nanos(delay),
                    token,
                });
            }
            Effect::Subscribe(ch) => fabric.subscribe(host, ch),
            Effect::Unsubscribe(ch) => fabric.unsubscribe(host, ch),
            Effect::Observe(_) => {} // observations are a simulation-side tool
            Effect::Count { subsystem, name, n } => meters.registry.apply(
                meters.node,
                tamp_netsim::telemetry::Sample::Count { subsystem, name, n },
            ),
            Effect::Record {
                subsystem,
                name,
                value,
            } => meters.registry.apply(
                meters.node,
                tamp_netsim::telemetry::Sample::Record {
                    subsystem,
                    name,
                    value,
                },
            ),
            // No event log at real-time rates: fold protocol events into
            // per-kind counters instead.
            Effect::Emit(ev) => meters
                .registry
                .counter(meters.node, "events", ev.name())
                .inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_membership::{MembershipConfig, MembershipNode};
    use tamp_topology::generators;
    use tamp_wire::NodeId;

    /// Fast protocol settings so real-time tests finish quickly.
    fn quick_config() -> MembershipConfig {
        MembershipConfig {
            heartbeat_period: 50_000_000, // 50 ms
            max_loss: 3,
            startup_jitter: 20_000_000,
            listen_period: 150_000_000,
            election_timeout: 60_000_000,
            backup_grace: 60_000_000,
            sweep_period: 20_000_000,
            anti_entropy_period: 500_000_000,
            tombstone_ttl: 1_000_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn live_udp_cluster_converges_and_detects_failure() {
        let topo = generators::star_of_segments(2, 3);
        let mut rt = Runtime::new(topo);
        let mut clients = Vec::new();
        for h in rt.hosts() {
            let node = MembershipNode::new(NodeId(h.0), quick_config());
            clients.push(node.directory_client());
            rt.add_node(h, Box::new(node));
        }
        rt.start();

        // Convergence: everyone sees all 6 members.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if clients.iter().all(|c| c.member_count() == 6) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no convergence over live UDP: {:?}",
                clients.iter().map(|c| c.member_count()).collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Kill the highest-id node; survivors drop it within a few
        // hundred ms (3 × 50 ms plus slack).
        let victim = rt.hosts()[5];
        rt.stop_node(victim);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let views: Vec<usize> = clients[..5].iter().map(|c| c.member_count()).collect();
            if views.iter().all(|&v| v == 5) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "failure never detected: {views:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        rt.shutdown();

        // Loopback never exerts enough pressure to exhaust the retry
        // budget: nothing may be silently dropped on the send path.
        assert_eq!(rt.metrics().counter_total("runtime", "send_drops"), 0);
    }
}
