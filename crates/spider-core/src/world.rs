//! The full-system simulation: a fleet of clients, many APs, and the
//! Spider driver (or a baseline) in between.
//!
//! This module is the substitute for the paper's outdoor testbed. It wires
//! together every substrate crate under a single deterministic event loop:
//!
//! * **Air interface** — frames pay airtime on a per-channel serialized
//!   medium; delivery is evaluated *at arrival* against the client radio's
//!   tuning (an AP's association or DHCP response that lands while the
//!   radio serves another channel is simply lost — the paper's central
//!   failure mode) and the PHY's distance-dependent loss.
//! * **APs** — `wifi-mac::ApMac` (with honest PSM buffering) plus a
//!   `dhcp::DhcpServer` with per-AP response delays, plus a shaped
//!   backhaul (`workload::SerialLink`) behind which a `tcp_lite`
//!   bulk sender plays the content server.
//! * **Clients** — one or more [`ClientNode`]s (see [`crate::fleet`]),
//!   each a `wifi-mac::Radio` scheduled by the configured
//!   [`SchedulePolicy`], up to seven virtual interfaces each running the
//!   join FSM, DHCP client, and a TCP receiver; opportunistic scanning
//!   feeds the selection heuristic. All clients share the deployment, the
//!   event queue, and the per-channel medium, so contention between them
//!   is **endogenous**: every transmitted frame seizes the same medium,
//!   every association loads the same AP station sets, and each client's
//!   uplink backoff bound scales with how many fleet members share its
//!   grid cell (the occupancy the `analytical::cell` offered-load model
//!   takes as `n`).
//!
//! Protocol discrimination on the data path uses a 1-byte IP-protocol tag
//! (17 = UDP/DHCP, 6 = TCP) prefixed to payloads — the moral equivalent of
//! the IP header's protocol field.
//!
//! Deliberate simplification (see DESIGN.md): management and DHCP frames
//! are single-shot (no MAC ARQ), matching the paper's join model where
//! each lost handshake message costs a protocol timeout; TCP data frames
//! get the standard 802.11 retry budget folded into an expected airtime
//! and residual loss.

use std::cell::Cell;

use dhcp::client::{DhcpAction, DhcpClient, Lease};
use dhcp::message::DhcpMessage;
use dhcp::server::{DhcpServer, DhcpServerConfig};
use geo::{GridIndex, MoverIndex, RankedSet};
use mobility::deployment::ApSite;
use mobility::geometry::Point;
use mobility::route::Vehicle;
use sim_engine::queue::EventQueue;
use sim_engine::rng::Rng;
use sim_engine::runner::{run_until, Handler};
use sim_engine::stats::Samples;
use sim_engine::time::{Duration, Instant};
use sim_engine::wire::{Bytes, Writer};
use tcp_lite::connection::{BulkReceiver, BulkSender, ReceiverAction, SenderAction};
use tcp_lite::segment::Segment;
use tcp_lite::TcpConfig;
use wifi_mac::addr::MacAddr;
use wifi_mac::ap::{ApAction, ApConfig, ApMac};
use wifi_mac::channel::Channel;
use wifi_mac::client::{Action as MacAction, ClientMac, JoinConfig};
use wifi_mac::frame::{Frame, FrameBody};
use wifi_mac::phy::PhyConfig;
use wifi_mac::radio::{Radio, RadioConfig};
use workload::downloads::DownloadPlan;
use workload::shaper::SerialLink;

use crate::config::{SchedulePolicy, SpiderConfig};
use crate::fleet::{station_addr, ClientCounters, CLIENT_ADDR_STRIDE};
use crate::history::ApHistory;
use crate::intern::MacIntern;
use crate::metrics::Metrics;
use crate::selection::{select_aps, Candidate};

/// IP protocol numbers used as payload tags.
const PROTO_UDP: u8 = 17;
const PROTO_TCP: u8 = 6;

/// Where the client is over time.
#[derive(Debug, Clone)]
pub enum ClientMotion {
    /// Stationary (the lab micro-benchmarks of §4.2 and Figs. 7–9).
    Fixed(Point),
    /// Driving a route (every outdoor experiment).
    Route(Vehicle),
}

impl ClientMotion {
    fn position(&self, now: Instant) -> Point {
        match self {
            ClientMotion::Fixed(p) => *p,
            ClientMotion::Route(v) => v.position_at(now),
        }
    }
}

/// Everything a run needs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every random draw derives from it.
    pub seed: u64,
    /// PHY model.
    pub phy: PhyConfig,
    /// Radio switch-cost model.
    pub radio: RadioConfig,
    /// The deployed APs.
    pub sites: Vec<ApSite>,
    /// Client mobility.
    pub motion: ClientMotion,
    /// Driver configuration under test.
    pub spider: SpiderConfig,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Experiment length.
    pub duration: Duration,
    /// One-way wired latency between content server and AP.
    pub backhaul_latency: Duration,
    /// Bytes per saturating TCP connection before it completes and is
    /// reopened (bounds per-connection sequence space).
    pub bytes_per_connection: u64,
    /// What the client fetches: saturating bulk (the paper's evaluation
    /// workload) or segmented objects with think time (streaming-style).
    pub plan: DownloadPlan,
    /// Motion of every **additional** client beyond the primary one
    /// described by `motion`. The world runs `1 + fleet.len()` clients;
    /// an empty fleet is byte-identical to the historical single-client
    /// world. See [`crate::fleet`] for the determinism contract.
    pub fleet: Vec<ClientMotion>,
}

impl WorldConfig {
    /// Reasonable defaults around the given sites/motion/driver.
    pub fn new(
        seed: u64,
        sites: Vec<ApSite>,
        motion: ClientMotion,
        spider: SpiderConfig,
        duration: Duration,
    ) -> WorldConfig {
        WorldConfig {
            seed,
            phy: PhyConfig::default(),
            radio: RadioConfig::default(),
            sites,
            motion,
            spider,
            tcp: TcpConfig::default(),
            duration,
            backhaul_latency: Duration::from_millis(20),
            bytes_per_connection: 512 * 1024 * 1024,
            plan: DownloadPlan::Saturating,
            fleet: Vec::new(),
        }
    }

    /// The one world-level check, for the settings [`run`] would
    /// otherwise panic or stall on. Routes and speed profiles are checked
    /// when they are built (`Route::try_new`, `Vehicle::try_with_profile`);
    /// this covers the rest, in O(sites + schedule slices):
    ///
    /// * rates that are divided by are non-zero (PHY bitrate, every
    ///   site's backhaul, the TCP MSS), and the data retry count is at
    ///   most [`MAX_DATA_RETRIES`];
    /// * periods that re-arm themselves are non-zero (every schedule
    ///   slice, the adaptive reconsider period, the evaluation period,
    ///   the DHCP retransmission timeout), so sim time always advances;
    /// * a multi-channel schedule has at least one slice, and the
    ///   interface count fits the per-client address stride;
    /// * no timer is longer than [`MAX_TIMER`].
    ///
    /// The run length itself is not capped.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |reason| Err(ConfigError(reason));
        if self.phy.bitrate_bps == 0 {
            return bad("PHY bitrate");
        }
        if self.phy.data_retries > MAX_DATA_RETRIES {
            return bad("data retry count");
        }
        if self.tcp.mss == 0 {
            return bad("TCP MSS");
        }
        if self.sites.iter().any(|site| site.backhaul_bps == 0) {
            return bad("backhaul rate");
        }
        let spider = &self.spider;
        if spider.max_ifaces >= CLIENT_ADDR_STRIDE as usize {
            return bad("iface count");
        }
        match &spider.schedule {
            SchedulePolicy::MultiChannel { slices } if slices.is_empty() => {
                return bad("slice count")
            }
            SchedulePolicy::MultiChannel { slices } if slices.iter().any(|s| s.1.is_zero()) => {
                return bad("slice duration")
            }
            SchedulePolicy::AdaptiveChannel { reconsider, .. } if reconsider.is_zero() => {
                return bad("reconsider period")
            }
            _ => {}
        }
        if spider.evaluate_every.is_zero() {
            return bad("evaluation period");
        }
        if spider.dhcp.retx_timeout.is_zero() {
            return bad("DHCP retransmission timeout");
        }
        if self.timers().any(|d| d > MAX_TIMER) {
            return bad("timer (longer than MAX_TIMER)");
        }
        Ok(())
    }

    /// Every duration in the config except the run length.
    fn timers(&self) -> impl Iterator<Item = Duration> + '_ {
        let (phy, radio, spider) = (&self.phy, &self.radio, &self.spider);
        let schedule = match &spider.schedule {
            SchedulePolicy::SingleChannel(_) => Vec::new(),
            SchedulePolicy::MultiChannel { slices } => slices.iter().map(|s| s.1).collect(),
            SchedulePolicy::ScanWhenIdle { dwell } => vec![*dwell],
            SchedulePolicy::AdaptiveChannel {
                reconsider,
                scan_dwell,
            } => vec![*reconsider, *scan_dwell],
        };
        let think = match self.plan {
            DownloadPlan::Saturating => None,
            DownloadPlan::Segmented { think, .. } | DownloadPlan::WebMix { think } => Some(think),
        };
        [
            phy.preamble,
            phy.difs,
            phy.mean_backoff,
            radio.reset,
            radio.reset_jitter,
            radio.per_iface,
            radio.per_iface_jitter,
            spider.join.link_layer_timeout,
            spider.dhcp.retx_timeout,
            spider.dhcp.attempt_budget,
            spider.dhcp.idle_after_fail,
            spider.ap_loss_timeout,
            spider.evaluate_every,
            spider.retry_backoff,
            spider.join_setup_delay,
            self.tcp.min_rto,
            self.tcp.max_rto,
            self.backhaul_latency,
        ]
        .into_iter()
        .chain(schedule)
        .chain(think)
        .chain(
            self.sites
                .iter()
                .flat_map(|site| [site.dhcp_delay_min, site.dhcp_delay_max]),
        )
    }
}

/// The longest any timer in a [`WorldConfig`] may be. Protocol timers
/// are milliseconds to seconds; the cap keeps `now + timer`, and the
/// retry-scaled airtimes built from the PHY timers, far inside the u64
/// nanosecond clock.
pub const MAX_TIMER: Duration = Duration::from_secs(24 * 3600);

/// The most 802.11 retries a data frame may take (the standard's retry
/// limits are 8-bit counters).
pub const MAX_DATA_RETRIES: u32 = 255;

/// Why [`WorldConfig::validate`] rejected a config: the field or
/// invariant it breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "world config: invalid {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Aggregated outcome of one run; the raw material for every table/figure.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Experiment length.
    pub duration: Duration,
    /// Bytes delivered to the sink.
    pub total_bytes: u64,
    /// Average throughput, bytes/s.
    pub avg_throughput_bps: f64,
    /// Fraction of seconds with non-zero transfer.
    pub connectivity: f64,
    /// Maximal connected runs, seconds (Fig. 10a).
    pub connection_durations: Samples,
    /// Maximal disconnected runs, seconds (Fig. 10b).
    pub disruption_durations: Samples,
    /// Bytes per connected second (Fig. 10c).
    pub instantaneous_bandwidth: Samples,
    /// Link-layer association times, seconds (Fig. 5).
    pub assoc_times: Samples,
    /// Full join times (assoc + DHCP), seconds (Figs. 6/11/12).
    pub join_times: Samples,
    /// Channel-switch latencies, seconds (Table 1).
    pub switch_latencies: Samples,
    /// DHCP acquisitions started.
    pub dhcp_attempts: u64,
    /// DHCP acquisitions failed (Table 3).
    pub dhcp_failures: u64,
    /// Associations started.
    pub assoc_attempts: u64,
    /// Associations failed.
    pub assoc_failures: u64,
    /// Channel switches performed.
    pub switch_count: u64,
    /// Peak simultaneous associations (§4.4).
    pub max_concurrent_aps: usize,
    /// Seconds spent with exactly `i` concurrent associations.
    pub concurrency_seconds: Vec<f64>,
    /// TCP retransmission timeouts observed across all connections.
    pub tcp_rtos: u64,
    /// Packets dropped at backhaul queue bounds (down + up).
    pub backhaul_drops: u64,
    /// Downlink frames dropped on PSM buffer overflow.
    pub psm_drops: u64,
    /// Downlink frames dropped because the station was not associated.
    pub unassociated_drops: u64,
    /// Data frames dropped at the bounded air transmit queue.
    pub air_drops: u64,
    /// Per-client counters, indexed by client (0 = the primary client,
    /// then `fleet` order). Always has at least one entry.
    pub per_client: Vec<ClientCounters>,
}

impl RunResult {
    /// DHCP failure rate (Table 3).
    pub fn dhcp_failure_rate(&self) -> f64 {
        if self.dhcp_attempts == 0 {
            0.0
        } else {
            self.dhcp_failures as f64 / self.dhcp_attempts as f64
        }
    }

    /// Average throughput in the paper's KB/s units.
    pub fn avg_throughput_kbps(&self) -> f64 {
        self.avg_throughput_bps / 1000.0
    }
}

/// Simulation events. Client-scoped events carry the dense client index;
/// AP- and server-scoped events are unchanged from the single-client
/// world (frames identify their station by MAC address).
#[derive(Debug)]
enum Event {
    /// An AP's periodic beacon timer.
    BeaconTick { ap: usize },
    /// A frame from AP `ap` reaches client `client`'s antenna.
    AirToClient {
        client: usize,
        ap: usize,
        frame: Frame,
    },
    /// A frame from a client reaches AP `ap`.
    AirToAp { ap: usize, frame: Frame },
    /// Link-layer join timer for an interface.
    MacTimer {
        client: usize,
        iface: usize,
        gen: u64,
        token: u64,
    },
    /// DHCP retransmit timer for an interface.
    DhcpTimer {
        client: usize,
        iface: usize,
        gen: u64,
        token: u64,
    },
    /// TCP sender RTO at the content server behind AP `ap`.
    SenderTimer { ap: usize, conn: u64, token: u64 },
    /// A TCP segment from the server arrives at AP `ap`.
    BackhaulToAp { ap: usize, payload: Bytes },
    /// A client TCP segment (ACK) arrives at the server behind AP `ap`.
    BackhaulToServer { ap: usize, payload: Bytes },
    /// The AP's local DHCP server finished processing; deliver the reply
    /// into the AP's downlink path.
    DhcpReplyReady {
        ap: usize,
        station: MacAddr,
        payload: Bytes,
    },
    /// Move client `client` to schedule slice `idx`.
    ScheduleSlice { client: usize, idx: usize },
    /// PSM announcements have drained; begin the hardware retune.
    SwitchBegin { client: usize, target: Channel },
    /// The client's radio finished retuning.
    SwitchDone { client: usize },
    /// Periodic driver evaluation: teardown dead links, start joins.
    Evaluate { client: usize },
    /// Adaptive-channel policy: reconsider which channel to dwell on.
    Reconsider { client: usize },
    /// A segmented download's think time elapsed: open the next object.
    NextObject {
        /// Client whose stream continues.
        client: usize,
        /// Interface whose stream continues.
        iface: usize,
        /// Generation guard.
        gen: u64,
        /// AP behind the stream.
        ap: usize,
    },
    /// A deferred join begins (stock-path scan/supplicant setup elapsed).
    BeginJoin {
        /// Client doing the join.
        client: usize,
        /// Interface reserved for the join.
        iface: usize,
        /// Generation guard.
        gen: u64,
        /// Target AP index.
        ap: usize,
    },
    /// Periodic housekeeping (AP idle expiry, spatial upkeep).
    Maintenance,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IfaceState {
    Idle,
    Associating,
    Acquiring,
    Connected,
}

/// One virtual interface of the client.
struct Iface {
    addr: MacAddr,
    state: IfaceState,
    /// Guards stale timers when the interface is re-purposed.
    gen: u64,
    mac: Option<ClientMac>,
    dhcp: Option<DhcpClient>,
    receiver: Option<BulkReceiver>,
    ap: Option<usize>,
    conn: Option<u64>,
    join_started: Option<Instant>,
}

impl Iface {
    fn new(addr: MacAddr) -> Iface {
        Iface {
            addr,
            state: IfaceState::Idle,
            gen: 0,
            mac: None,
            dhcp: None,
            receiver: None,
            ap: None,
            conn: None,
            join_started: None,
        }
    }

    fn reset(&mut self) {
        self.state = IfaceState::Idle;
        self.gen += 1;
        self.mac = None;
        self.dhcp = None;
        self.receiver = None;
        self.ap = None;
        self.conn = None;
        self.join_started = None;
    }
}

/// One AP node: MAC + DHCP server + backhaul + content server.
struct ApNode {
    site: ApSite,
    mac: ApMac,
    dhcp: DhcpServer,
    /// Server → AP pipe (the shaped backhaul).
    downlink: SerialLink,
    /// AP → server pipe for ACKs.
    uplink: SerialLink,
    /// Live content-server connections, sorted by connection id (ids are
    /// minted monotonically, so pushes keep the order). A handful at most
    /// per AP, so a linear scan beats an ordered map on the hot path.
    senders: Vec<(u64, BulkSender)>,
}

impl ApNode {
    fn sender_mut(&mut self, conn: u64) -> Option<&mut BulkSender> {
        self.senders
            .iter_mut()
            .find(|(c, _)| *c == conn)
            .map(|(_, s)| s)
    }

    fn remove_sender(&mut self, conn: u64) {
        // `retain` keeps the remaining connections in id order.
        self.senders.retain(|(c, _)| *c != conn);
    }
}

/// How long an unrefreshed scan entry stays in the heard set. Must
/// exceed every consumer's freshness window (`select_aps`: 2 s,
/// `reconsider`: 3 s) for the heard-set walk to be output-identical to
/// a full scan-table sweep.
const HEARD_TTL: Duration = Duration::from_secs(5);

/// One client of the fleet: motion, radio, virtual interfaces, join
/// history, scan state, and private RNG streams. Everything that was
/// world-global in the single-client simulator and is logically *per
/// station* lives here; the shared medium, AP nodes, and metrics stay on
/// [`World`].
struct ClientNode {
    motion: ClientMotion,
    radio: Radio,
    ifaces: Vec<Iface>,
    /// Scan candidates, indexed by AP id (dense; `None` = never heard).
    /// MacAddr-ordered iteration goes through `heard` (see below).
    scan: Vec<Option<Candidate>>,
    /// The **heard set**: AP slots with a recorded scan entry, iterated
    /// in MacAddr-rank order. Candidate collection walks this instead of
    /// the full `bssids.iter_sorted()` table — O(heard), not O(APs) —
    /// and stays byte-identical because `select_aps` (2 s freshness) and
    /// `reconsider`'s scoring (3 s freshness) both filter before
    /// ordering/summing, while entries are pruned here only after 5 s.
    heard: RankedSet,
    history: ApHistory,
    /// Spider's per-channel transmit queues (§3): frames bound for an
    /// off-channel AP wait here and flush when the radio arrives.
    /// Indexed by [`Channel::index`]; buffers are reused across swaps.
    tx_queues: [Vec<(Instant, usize, Frame)>; Channel::COUNT],
    /// Spare queue buffer swapped against `tx_queues` on channel switch so
    /// steady-state flushes never allocate.
    tx_spare: Vec<(Instant, usize, Frame)>,
    /// Exact-key one-entry caches for the pure per-frame math. Keys are
    /// the full bit patterns of the inputs, so a hit returns the *same*
    /// f64 the recomputation would — determinism-safe by construction.
    /// They earn their keep because one delivered frame touches the same
    /// `(distance, len)` several times in a single event (send airtime +
    /// delivery probability, then the ACK it triggers at the same `now`).
    pos_cache: Cell<Option<(Instant, Point)>>,
    fep_cache: Cell<Option<(u64, u32, f64)>>,
    rssi_cache: Cell<Option<(u64, f64)>>,
    /// Private RNG streams, forked from the master with client-stable
    /// stream ids (see [`crate::fleet`]): PHY delivery draws, radio
    /// switch jitter, and misc draws (DHCP xids, TCP ISNs, object sizes).
    rng_phy: Rng,
    rng_radio: Rng,
    rng_misc: Rng,
    /// Stock-driver idle scan rotation index.
    scan_channel_idx: usize,
    /// Stock DHCP clients go idle after a failed acquisition ("idle for 60
    /// seconds if it fails"); no joins start before this instant.
    dhcp_idle_until: Instant,
    drops_radio_busy: u64,
    /// Fleet members sharing this client's grid cell (self included), as
    /// of the last Maintenance tick. Scales the uplink contention bound:
    /// a fuller cell means a longer expected wait to win the medium.
    /// Always 1 in a single-client world.
    cell_occupancy: u32,
    /// Per-client joins/bytes/cell-crossings, reported in
    /// [`RunResult::per_client`].
    counters: ClientCounters,
    /// High-water mark of APs inside the 400 m hearing disc (1 Hz
    /// samples via the grid). Diagnostic only — never in `RunRecord`.
    peak_inrange_aps: u32,
}

struct World {
    cfg: WorldConfig,
    aps: Vec<ApNode>,
    /// BSSID → AP index, interned at build time; also drives every
    /// MacAddr-ordered iteration over per-AP state (see [`MacIntern`]).
    bssids: MacIntern,
    /// The fleet, indexed densely: client 0 is `cfg.motion`, clients
    /// 1.. are `cfg.fleet` in order.
    clients: Vec<ClientNode>,
    /// Station address → (client, iface), sorted by address for binary
    /// search: the downlink path resolves `addr1` to the owning client.
    stations: Vec<(MacAddr, u32, u32)>,
    /// Spatial grid over the deployment's AP positions (dense AP slots).
    /// Range queries (`count_in_disc`) replace linear scans over `aps`.
    grid: GridIndex,
    /// Cell membership of every moving client (mover slot = client
    /// index), updated incrementally at Maintenance cadence. Feeds each
    /// client's `cell_occupancy`.
    mover_cells: MoverIndex,
    /// Fleet-wide metrics, fed in event order. With one client this is
    /// exactly the historical per-client metrics object; with N clients
    /// throughput/connectivity/concurrency are fleet aggregates and
    /// [`RunResult::per_client`] carries the per-client split.
    metrics: Metrics,
    /// Per-channel medium occupancy (next free instant), indexed by
    /// [`Channel::index`]. `Instant::ZERO` means the channel was never
    /// seized — the same default the old map's `or_insert` supplied.
    /// Shared by every client and AP: this is where fleet contention
    /// becomes endogenous.
    medium: [Instant; Channel::COUNT],
    /// Reusable encode buffer for the payload-wrapping hot path.
    scratch: Writer,
    /// Reusable per-event action buffers: the hot handlers `mem::take`
    /// one, let the protocol layer push into it, drain it, and put it
    /// back — steady state does zero action-Vec allocations per event.
    ap_actions_scratch: Vec<ApAction>,
    sender_actions_scratch: Vec<SenderAction>,
    receiver_actions_scratch: Vec<ReceiverAction>,
    /// AP-side draws (DHCP server delays), in event order — shared
    /// infrastructure, deliberately *not* per client.
    rng_ap: Rng,
    next_conn: u64,
    tcp_rtos: u64,
    air_drops: u64,
}

impl World {
    fn new(cfg: WorldConfig) -> (World, EventQueue<Event>) {
        if let Err(e) = cfg.validate() {
            // simlint: allow(panic-path) — documented contract of `run` (see its # Panics); configs from outside arrive through decode_world, which rejects them as an error value
            panic!("{e}");
        }
        let mut master = Rng::new(cfg.seed);
        let rng_phy = master.fork(1);
        let rng_ap = master.fork(2);
        let rng_radio = master.fork(3);
        let mut rng_misc = master.fork(4);

        let aps: Vec<ApNode> = cfg
            .sites
            .iter()
            .map(|site| {
                let ssid = format!("open-{}", site.id);
                let ap_cfg = ApConfig::open(site.id, &ssid, site.channel);
                let dhcp_cfg =
                    DhcpServerConfig::for_ap(site.id, site.dhcp_delay_min, site.dhcp_delay_max);
                ApNode {
                    site: site.clone(),
                    mac: ApMac::new(ap_cfg),
                    dhcp: DhcpServer::new(dhcp_cfg),
                    downlink: SerialLink::new(site.backhaul_bps, cfg.backhaul_latency),
                    uplink: SerialLink::new(site.backhaul_bps, cfg.backhaul_latency),
                    senders: Vec::new(),
                }
            })
            .collect();
        let bssids = MacIntern::build(aps.iter().map(|a| a.mac.bssid()));

        let initial_channel = match &cfg.spider.schedule {
            SchedulePolicy::SingleChannel(c) => *c,
            SchedulePolicy::MultiChannel { slices } => slices[0].0,
            SchedulePolicy::ScanWhenIdle { .. } => Channel::CH1,
            SchedulePolicy::AdaptiveChannel { .. } => Channel::CH1,
        };
        let n_clients = 1 + cfg.fleet.len();

        let mut queue = EventQueue::new();
        // Stagger beacons so the channel isn't beacon-synchronized. These
        // draws come from `rng_misc` *before* client 0 takes ownership of
        // the stream, so the fleet refactor leaves them untouched.
        for i in 0..aps.len() {
            let offset = Duration::from_micros(rng_misc.range_u64(0, 102_400));
            queue.push(Instant::ZERO + offset, Event::BeaconTick { ap: i });
        }
        // De-aligned from slice boundaries so periodic evaluation never
        // lands at the instant the radio is about to leave the channel.
        for c in 0..n_clients {
            queue.push(Instant::from_millis(50), Event::Evaluate { client: c });
        }
        queue.push(Instant::from_secs(1), Event::Maintenance);
        if matches!(cfg.spider.schedule, SchedulePolicy::MultiChannel { .. }) {
            for c in 0..n_clients {
                queue.push(Instant::ZERO, Event::ScheduleSlice { client: c, idx: 0 });
            }
        }
        if let SchedulePolicy::AdaptiveChannel { reconsider, .. } = &cfg.spider.schedule {
            for c in 0..n_clients {
                queue.push(Instant::ZERO + *reconsider, Event::Reconsider { client: c });
            }
        }

        // Cell edge 200 m: a 400 m hearing disc touches at most a 5×5
        // block of cells, and a vehicular client crosses a cell boundary
        // every ten-odd seconds, so incremental mover updates are rare.
        const CELL_M: f64 = 200.0;
        let grid = GridIndex::build(
            &aps.iter().map(|a| a.site.position).collect::<Vec<_>>(),
            CELL_M,
        );
        let mover_cells = MoverIndex::new(CELL_M, n_clients);

        let make_client =
            |motion: ClientMotion, c: usize, phy: Rng, radio: Rng, misc: Rng| ClientNode {
                motion,
                radio: Radio::new(cfg.radio.clone(), initial_channel),
                ifaces: (0..cfg.spider.max_ifaces)
                    .map(|i| Iface::new(station_addr(c, i)))
                    .collect(),
                scan: vec![None; aps.len()],
                heard: RankedSet::new(bssids.ranks()),
                history: ApHistory::new(),
                tx_queues: std::array::from_fn(|_| Vec::new()),
                tx_spare: Vec::new(),
                pos_cache: Cell::new(None),
                fep_cache: Cell::new(None),
                rssi_cache: Cell::new(None),
                rng_phy: phy,
                rng_radio: radio,
                rng_misc: misc,
                scan_channel_idx: 0,
                dhcp_idle_until: Instant::ZERO,
                drops_radio_busy: 0,
                cell_occupancy: 1,
                counters: ClientCounters::default(),
                peak_inrange_aps: 0,
            };
        let mut clients = Vec::with_capacity(n_clients);
        // Client 0 inherits the historical streams, already advanced past
        // the beacon-stagger draws — a one-client fleet world is
        // byte-identical to the single-client world it replaced.
        clients.push(make_client(
            cfg.motion.clone(),
            0,
            rng_phy,
            rng_radio,
            rng_misc,
        ));
        // Extra clients fork fresh streams from the master with stream
        // ids that depend only on the client index, so adding client k+1
        // never perturbs clients 1..k's streams.
        for (k, motion) in cfg.fleet.iter().enumerate() {
            let base = 5 + 3 * k as u64;
            let phy = master.fork(base);
            let radio = master.fork(base + 1);
            let misc = master.fork(base + 2);
            clients.push(make_client(motion.clone(), k + 1, phy, radio, misc));
        }
        let mut stations: Vec<(MacAddr, u32, u32)> = clients
            .iter()
            .enumerate()
            .flat_map(|(c, node)| {
                node.ifaces
                    .iter()
                    .enumerate()
                    .map(move |(i, iface)| (iface.addr, c as u32, i as u32))
            })
            .collect();
        stations.sort_unstable_by_key(|&(a, _, _)| a);

        let world = World {
            cfg,
            aps,
            bssids,
            clients,
            stations,
            grid,
            mover_cells,
            metrics: Metrics::new(),
            medium: [Instant::ZERO; Channel::COUNT],
            scratch: Writer::with_capacity(256),
            ap_actions_scratch: Vec::new(),
            sender_actions_scratch: Vec::new(),
            receiver_actions_scratch: Vec::new(),
            rng_ap,
            next_conn: 1,
            tcp_rtos: 0,
            air_drops: 0,
        };
        (world, queue)
    }

    fn client_pos(&self, client: usize, now: Instant) -> Point {
        let node = &self.clients[client];
        if let Some((t, p)) = node.pos_cache.get() {
            if t == now {
                return p;
            }
        }
        let p = node.motion.position(now);
        node.pos_cache.set(Some((now, p)));
        p
    }

    /// Per-attempt frame error at `dist` for a `len`-byte frame, memoized
    /// on the exact input bits (see the cache fields' doc comment).
    fn frame_error_at(&self, client: usize, dist: f64, len: usize) -> f64 {
        let key = (dist.to_bits(), len as u32);
        if let Some((d, l, e)) = self.clients[client].fep_cache.get() {
            if (d, l) == key {
                return e;
            }
        }
        let e = self.cfg.phy.frame_error_prob(dist, len);
        self.clients[client].fep_cache.set(Some((key.0, key.1, e)));
        e
    }

    /// RSSI at `dist`, memoized on the exact input bits.
    fn rssi_at(&self, client: usize, dist: f64) -> f64 {
        if let Some((d, rssi)) = self.clients[client].rssi_cache.get() {
            if d == dist.to_bits() {
                return rssi;
            }
        }
        let rssi = self.cfg.phy.link_at(dist).rssi_dbm;
        self.clients[client]
            .rssi_cache
            .set(Some((dist.to_bits(), rssi)));
        rssi
    }

    /// Wrap an encoded payload behind a protocol tag using the world's
    /// scratch buffer: one `Bytes` allocation, no intermediate vector.
    fn wrap_scratch(scratch: &mut Writer, proto: u8, encode: impl FnOnce(&mut Writer)) -> Bytes {
        scratch.clear();
        scratch.put_u8(proto);
        encode(scratch);
        scratch.to_bytes()
    }

    /// A client's scan-table entry for `bssid`, if it has heard that AP.
    fn candidate_for(&self, client: usize, bssid: MacAddr) -> Option<&Candidate> {
        self.bssids
            .get(bssid)
            .and_then(|id| self.clients[client].scan[id].as_ref())
    }

    /// The (client, iface) owning a station address, via binary search
    /// over the sorted station map.
    fn station_owner(&self, addr: MacAddr) -> Option<(usize, usize)> {
        self.stations
            .binary_search_by_key(&addr, |&(a, _, _)| a)
            .ok()
            .map(|i| (self.stations[i].1 as usize, self.stations[i].2 as usize))
    }

    fn distance_to(&self, client: usize, ap: usize, now: Instant) -> f64 {
        self.client_pos(client, now)
            .distance(self.aps[ap].site.position)
    }

    /// Seize the channel medium for `airtime`; returns the arrival instant.
    fn seize_medium(&mut self, channel: Channel, now: Instant, airtime: Duration) -> Instant {
        let free = &mut self.medium[channel.index()];
        let start = now.max(*free);
        let arrival = start + airtime;
        *free = arrival;
        arrival
    }

    /// Frames older than this are dropped from a per-channel TX queue
    /// instead of being flushed (they are protocol-stale by then).
    const TX_QUEUE_TTL: Duration = Duration::from_secs(1);
    /// An AP's share of the air is a bounded transmit queue (a real AP's
    /// TX ring is ~64 frames): data frames that would wait longer than
    /// this for the medium are dropped, giving TCP its loss signal when
    /// the backhaul outruns the on-channel airtime.
    const AIR_QUEUE_BOUND: Duration = Duration::from_millis(500);
    /// Per-channel TX queue depth cap.
    const TX_QUEUE_CAP: usize = 128;

    /// Client `client` transmits `frame` toward AP `ap`. If its radio is
    /// on another channel (or mid-switch), the frame goes into that
    /// channel's transmit queue — Spider keeps "one packet queue per
    /// channel that is swapped in and out of the driver" (§3) — and
    /// flushes when the radio arrives.
    fn client_send(
        &mut self,
        client: usize,
        ap: usize,
        frame: Frame,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let channel = self.aps[ap].site.channel;
        if !self.clients[client].radio.can_hear(channel, now) {
            let node = &mut self.clients[client];
            let q = &mut node.tx_queues[channel.index()];
            if q.len() < Self::TX_QUEUE_CAP {
                q.push((now, ap, frame));
            } else {
                node.drops_radio_busy += 1;
            }
            return;
        }
        let len = frame.wire_len();
        let is_data = matches!(frame.body, FrameBody::Data(_));
        let dist = self.distance_to(client, ap, now);
        let (airtime, delivery) = if is_data {
            let e = self.frame_error_at(client, dist, len);
            (
                self.cfg.phy.expected_data_airtime_from_error(e, len),
                self.cfg.phy.data_delivery_prob_from_error(e),
            )
        } else {
            (
                self.cfg.phy.airtime(len),
                1.0 - self.frame_error_at(client, dist, len),
            )
        };
        // Uplink frames contend per-frame: the client wins the medium
        // within a couple of frame airtimes even when the AP has a deep
        // committed backlog (a FIFO pipe would wrongly park the client's
        // PSM announcements behind the AP's entire queue). The bound
        // scales with the client's cell occupancy: every co-located fleet
        // member is another station the backoff must share the air with
        // (the `n` of `analytical::cell`). Occupancy is 1 when alone, so
        // a single-client world keeps the historical 3 ms cap.
        let occupancy = self.clients[client].cell_occupancy.max(1) as u64;
        let free = &mut self.medium[channel.index()];
        let contention = free
            .saturating_since(now)
            .min(Duration::from_millis(3) * occupancy);
        let arrival = now + contention + airtime;
        // The frame still consumes channel capacity.
        *free = (*free).max(now) + airtime;
        if self.clients[client].rng_phy.chance(delivery) {
            queue.push(arrival, Event::AirToAp { ap, frame });
        }
    }

    /// AP transmits `frame` after `extra_delay` (management processing
    /// time). Unicast frames are routed to the station's owning client;
    /// broadcast frames fan out to every client (one shared-medium seize
    /// either way — it is one transmission on the air). Whether a client
    /// *hears* it is decided at arrival.
    fn ap_send(
        &mut self,
        ap: usize,
        frame: Frame,
        extra_delay: Duration,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let channel = self.aps[ap].site.channel;
        let len = frame.wire_len();
        let is_data = matches!(frame.body, FrameBody::Data(_));
        let target = if frame.addr1.is_broadcast() {
            None
        } else {
            match self.station_owner(frame.addr1) {
                Some((client, _)) => Some(client),
                // Not one of our stations: nobody can receive it.
                None => return,
            }
        };
        if is_data {
            let backlog = self.medium[channel.index()].saturating_since(now);
            if backlog > Self::AIR_QUEUE_BOUND {
                self.air_drops += 1;
                return;
            }
        }
        let airtime = if is_data {
            // Data frames are always unicast; rate/retry adapt to the
            // owning client's distance.
            let client = target.unwrap_or(0);
            let dist = self.distance_to(client, ap, now);
            let e = self.frame_error_at(client, dist, len);
            self.cfg.phy.expected_data_airtime_from_error(e, len)
        } else {
            self.cfg.phy.airtime(len)
        };
        let arrival = self.seize_medium(channel, now + extra_delay, airtime);
        match target {
            Some(client) => {
                queue.push(arrival, Event::AirToClient { client, ap, frame });
            }
            None => {
                // Broadcast: one transmission, every antenna sees it.
                for client in 0..self.clients.len() {
                    queue.push(
                        arrival,
                        Event::AirToClient {
                            client,
                            ap,
                            frame: frame.clone(),
                        },
                    );
                }
            }
        }
    }

    fn process_ap_actions(
        &mut self,
        ap: usize,
        actions: &mut Vec<ApAction>,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        for action in actions.drain(..) {
            match action {
                ApAction::Send { delay, frame } => self.ap_send(ap, frame, delay, queue, now),
                ApAction::ToUplink { from, payload } => {
                    self.handle_uplink(ap, from, payload, queue, now)
                }
            }
        }
    }

    /// An uplink payload arrived at the AP from the client: route by the
    /// protocol tag.
    fn handle_uplink(
        &mut self,
        ap: usize,
        station: MacAddr,
        payload: Bytes,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let Some((proto, body)) = unwrap_proto(&payload) else {
            return;
        };
        match proto {
            PROTO_UDP => {
                // DHCP: handled by the AP's embedded server.
                let Ok(msg) = DhcpMessage::decode(body) else {
                    return;
                };
                let node = &mut self.aps[ap];
                if let Some((delay, reply)) = node.dhcp.on_message(&msg, now, &mut self.rng_ap) {
                    let reply_payload =
                        Self::wrap_scratch(&mut self.scratch, PROTO_UDP, |w| reply.encode_into(w));
                    queue.push(
                        now + delay,
                        Event::DhcpReplyReady {
                            ap,
                            station,
                            payload: reply_payload,
                        },
                    );
                }
            }
            PROTO_TCP => {
                // ACK toward the content server: ride the uplink pipe. The
                // event keeps the tagged payload (an O(1) Bytes clone); the
                // handler strips the tag on arrival.
                if let Some(arrival) = self.aps[ap].uplink.transmit(now, body.len()) {
                    queue.push(arrival, Event::BackhaulToServer { ap, payload });
                }
            }
            _ => {}
        }
    }

    fn process_sender_actions(
        &mut self,
        ap: usize,
        conn: u64,
        actions: &mut Vec<SenderAction>,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        for action in actions.drain(..) {
            match action {
                SenderAction::Transmit(seg) => {
                    if let Some(arrival) =
                        self.aps[ap].downlink.transmit(now, seg.wire_len() as usize)
                    {
                        let payload = Self::wrap_scratch(&mut self.scratch, PROTO_TCP, |w| {
                            seg.encode_into(w)
                        });
                        queue.push(arrival, Event::BackhaulToAp { ap, payload });
                    }
                }
                SenderAction::ArmTimer { after, token } => {
                    queue.push(now + after, Event::SenderTimer { ap, conn, token });
                }
                SenderAction::Connected => {}
                SenderAction::Complete => {
                    self.aps[ap].remove_sender(conn);
                    if let Some((client, iface_idx)) = self.iface_for_conn(conn) {
                        let think = self.cfg.plan.think_time();
                        if think.is_zero() {
                            // Saturating plan: reopen immediately.
                            self.open_connection(client, iface_idx, ap, queue, now);
                        } else {
                            // Segmented plan: pause, then fetch the next
                            // object.
                            let gen = self.clients[client].ifaces[iface_idx].gen;
                            queue.push(
                                now + think,
                                Event::NextObject {
                                    client,
                                    iface: iface_idx,
                                    gen,
                                    ap,
                                },
                            );
                        }
                    }
                }
                SenderAction::Aborted => {
                    self.aps[ap].remove_sender(conn);
                    // If the client is still bound to this AP, retry with a
                    // fresh connection (the old one died of timeouts).
                    if let Some((client, iface_idx)) = self.iface_for_conn(conn) {
                        self.open_connection(client, iface_idx, ap, queue, now);
                    }
                }
            }
        }
    }

    /// The (client, iface) a live connection terminates at. Connection ids
    /// are unique across the fleet (minted from one world counter), so at
    /// most one interface matches.
    fn iface_for_conn(&self, conn: u64) -> Option<(usize, usize)> {
        self.clients.iter().enumerate().find_map(|(c, node)| {
            node.ifaces
                .iter()
                .position(|i| i.conn == Some(conn) && i.state == IfaceState::Connected)
                .map(|i| (c, i))
        })
    }

    /// Open a saturating TCP connection from the server behind `ap` toward
    /// interface `iface_idx` of `client`.
    fn open_connection(
        &mut self,
        client: usize,
        iface_idx: usize,
        ap: usize,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let conn = self.next_conn;
        self.next_conn += 1;
        let node = &mut self.clients[client];
        let isn = node.rng_misc.next_u64() as u32;
        let object = self
            .cfg
            .plan
            .next_object_rng(&mut node.rng_misc)
            .min(self.cfg.bytes_per_connection);
        let mut sender = BulkSender::new(self.cfg.tcp.clone(), conn, object, isn);
        let mut actions = sender.start(now);
        self.aps[ap].senders.push((conn, sender));
        node.ifaces[iface_idx].conn = Some(conn);
        node.ifaces[iface_idx].receiver = Some(BulkReceiver::new(conn));
        self.process_sender_actions(ap, conn, &mut actions, queue, now);
    }

    fn process_mac_actions(
        &mut self,
        client: usize,
        iface_idx: usize,
        actions: Vec<MacAction>,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        for action in actions {
            match action {
                MacAction::Send(frame) => {
                    if let Some(ap) = self.clients[client].ifaces[iface_idx].ap {
                        self.client_send(client, ap, frame, queue, now);
                    }
                }
                MacAction::ArmTimer { after, token } => {
                    let gen = self.clients[client].ifaces[iface_idx].gen;
                    queue.push(
                        now + after,
                        Event::MacTimer {
                            client,
                            iface: iface_idx,
                            gen,
                            token,
                        },
                    );
                }
                MacAction::Joined { .. } => self.on_associated(client, iface_idx, queue, now),
                MacAction::Failed(_) => {
                    self.metrics.assoc_failures += 1;
                    if let Some(ap) = self.clients[client].ifaces[iface_idx].ap {
                        let bssid = self.aps[ap].mac.bssid();
                        self.clients[client].history.record_failure(bssid, now);
                    }
                    self.teardown_iface(client, iface_idx, now);
                }
            }
        }
    }

    fn on_associated(
        &mut self,
        client: usize,
        iface_idx: usize,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let node = &mut self.clients[client];
        let started = node.ifaces[iface_idx]
            .join_started
            // simlint: allow(panic-path) — join FSM invariant: an Associating iface always has join_started; silent recovery would corrupt join-time metrics
            .expect("associated without a join start");
        self.metrics
            .assoc_times
            .record_duration(now.saturating_since(started));
        node.ifaces[iface_idx].state = IfaceState::Acquiring;
        self.update_concurrency(now);
        // Kick off DHCP.
        let node = &mut self.clients[client];
        let addr = node.ifaces[iface_idx].addr;
        let ap = node.ifaces[iface_idx]
            .ap
            // simlint: allow(panic-path) — join FSM invariant: an Associating iface always has a target AP; a hole here is a driver bug that must be loud
            .expect("associated without an AP");
        let bssid = self.aps[ap].mac.bssid();
        let cached = if self.cfg.spider.lease_cache {
            node.history.cached_lease(bssid, now)
        } else {
            None
        };
        let xid_seed = node.rng_misc.next_u64() as u32;
        let mut dhcp = DhcpClient::new(self.cfg.spider.dhcp.clone(), addr.octets(), xid_seed);
        self.metrics.dhcp_attempts += 1;
        let actions = dhcp.start(now, cached);
        node.ifaces[iface_idx].dhcp = Some(dhcp);
        self.process_dhcp_actions(client, iface_idx, actions, queue, now);
    }

    fn process_dhcp_actions(
        &mut self,
        client: usize,
        iface_idx: usize,
        actions: Vec<DhcpAction>,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        for action in actions {
            match action {
                DhcpAction::Send(msg) => {
                    let Some(ap) = self.clients[client].ifaces[iface_idx].ap else {
                        continue;
                    };
                    let station = self.clients[client].ifaces[iface_idx].addr;
                    let bssid = self.aps[ap].mac.bssid();
                    let payload =
                        Self::wrap_scratch(&mut self.scratch, PROTO_UDP, |w| msg.encode_into(w));
                    let frame = Frame::data_to_ap(station, bssid, payload);
                    self.client_send(client, ap, frame, queue, now);
                }
                DhcpAction::ArmTimer { after, token } => {
                    let gen = self.clients[client].ifaces[iface_idx].gen;
                    queue.push(
                        now + after,
                        Event::DhcpTimer {
                            client,
                            iface: iface_idx,
                            gen,
                            token,
                        },
                    );
                }
                DhcpAction::Bound(lease) => self.on_bound(client, iface_idx, lease, queue, now),
                DhcpAction::Failed => {
                    self.metrics.dhcp_failures += 1;
                    let node = &mut self.clients[client];
                    node.dhcp_idle_until = node
                        .dhcp_idle_until
                        .max(now + self.cfg.spider.dhcp.idle_after_fail);
                    if let Some(ap) = node.ifaces[iface_idx].ap {
                        let bssid = self.aps[ap].mac.bssid();
                        self.clients[client].history.record_failure(bssid, now);
                    }
                    self.teardown_iface(client, iface_idx, now);
                }
            }
        }
    }

    fn on_bound(
        &mut self,
        client: usize,
        iface_idx: usize,
        lease: Lease,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let node = &mut self.clients[client];
        let started = node.ifaces[iface_idx]
            .join_started
            // simlint: allow(panic-path) — join FSM invariant: a Bound iface always has join_started; silent recovery would corrupt join-time metrics
            .expect("bound without a join start");
        let join_time = now.saturating_since(started);
        self.metrics.join_times.record_duration(join_time);
        // simlint: allow(panic-path) — join FSM invariant: a Bound iface always has a target AP; a hole here is a driver bug that must be loud
        let ap = node.ifaces[iface_idx].ap.expect("bound without an AP");
        let bssid = self.aps[ap].mac.bssid();
        node.history.record_success(bssid, join_time);
        node.history.store_lease(bssid, lease);
        node.ifaces[iface_idx].state = IfaceState::Connected;
        node.counters.joins += 1;
        self.update_concurrency(now);
        self.open_connection(client, iface_idx, ap, queue, now);
    }

    /// Fleet-wide concurrent-association count (the §4.4 metric). With one
    /// client this is exactly the historical per-client count.
    fn update_concurrency(&mut self, now: Instant) {
        let connected = self
            .clients
            .iter()
            .flat_map(|c| c.ifaces.iter())
            .filter(|i| i.state == IfaceState::Connected)
            .count();
        self.metrics.record_concurrency(now, connected);
    }

    fn teardown_iface(&mut self, client: usize, iface_idx: usize, now: Instant) {
        let iface = &mut self.clients[client].ifaces[iface_idx];
        if let (Some(ap), Some(conn)) = (iface.ap, iface.conn) {
            self.aps[ap].remove_sender(conn);
        }
        let iface = &mut self.clients[client].ifaces[iface_idx];
        if let Some(dhcp) = iface.dhcp.as_mut() {
            dhcp.abort();
        }
        iface.reset();
        self.update_concurrency(now);
    }

    /// A frame arrived at a client's antenna: deliverable only if that
    /// radio is tuned to the AP's channel and the PHY draw succeeds.
    fn on_air_to_client(
        &mut self,
        client: usize,
        ap: usize,
        frame: Frame,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let channel = self.aps[ap].site.channel;
        if !self.clients[client].radio.can_hear(channel, now) {
            // The station left the channel while this frame was in flight.
            // For a PSM station the AP's MAC-retry failure routes a data
            // frame back into the power-save queue rather than dropping it.
            if let FrameBody::Data(payload) = &frame.body {
                self.aps[ap]
                    .mac
                    .rebuffer_front(frame.addr1, payload.clone(), now);
            }
            return;
        }
        let dist = self.distance_to(client, ap, now);
        let len = frame.wire_len();
        let is_data = matches!(frame.body, FrameBody::Data(_));
        let delivery = if is_data {
            let e = self.frame_error_at(client, dist, len);
            self.cfg.phy.data_delivery_prob_from_error(e)
        } else {
            1.0 - self.frame_error_at(client, dist, len)
        };
        if !self.clients[client].rng_phy.chance(delivery) {
            return;
        }
        // Opportunistic scanning: every beacon/probe-response refreshes the
        // candidate table. `addr2` is always an interned AP bssid here; the
        // lookup canonicalizes it to the dense slot the old map keyed by.
        if let FrameBody::Beacon(b) | FrameBody::ProbeResp(b) = &frame.body {
            if let Some(slot) = self.bssids.get(frame.addr2) {
                let rssi = self.rssi_at(client, dist);
                let node = &mut self.clients[client];
                node.scan[slot] = Some(Candidate {
                    bssid: frame.addr2,
                    channel: b.channel,
                    rssi_dbm: rssi,
                    last_heard: now,
                });
                node.heard.insert(slot);
            }
        }
        // Route to the client's interface talking to this AP.
        let node = &self.clients[client];
        let Some(iface_idx) = node
            .ifaces
            .iter()
            .position(|i| i.ap == Some(ap) && i.state != IfaceState::Idle)
        else {
            return;
        };
        if frame.addr1 != node.ifaces[iface_idx].addr && !frame.addr1.is_broadcast() {
            return;
        }
        match &frame.body {
            FrameBody::Data(payload) => {
                let Some((proto, body)) = unwrap_proto(payload) else {
                    return;
                };
                match proto {
                    PROTO_UDP => {
                        if let Ok(msg) = DhcpMessage::decode(body) {
                            if let Some(dhcp) = self.clients[client].ifaces[iface_idx].dhcp.as_mut()
                            {
                                let actions = dhcp.handle_message(&msg, now);
                                self.process_dhcp_actions(client, iface_idx, actions, queue, now);
                            }
                        }
                    }
                    PROTO_TCP => {
                        if let Some(seg) = Segment::decode(body) {
                            self.on_client_segment(client, iface_idx, ap, seg, queue, now);
                        }
                    }
                    _ => {}
                }
            }
            _ => {
                if let Some(mac) = self.clients[client].ifaces[iface_idx].mac.as_mut() {
                    let actions = mac.handle_frame(&frame);
                    self.process_mac_actions(client, iface_idx, actions, queue, now);
                }
            }
        }
    }

    fn on_client_segment(
        &mut self,
        client: usize,
        iface_idx: usize,
        ap: usize,
        seg: Segment,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let Some(receiver) = self.clients[client].ifaces[iface_idx].receiver.as_mut() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.receiver_actions_scratch);
        receiver.on_segment_into(&seg, now, &mut actions);
        for action in actions.drain(..) {
            match action {
                ReceiverAction::Transmit(ack) => {
                    let station = self.clients[client].ifaces[iface_idx].addr;
                    let bssid = self.aps[ap].mac.bssid();
                    let payload =
                        Self::wrap_scratch(&mut self.scratch, PROTO_TCP, |w| ack.encode_into(w));
                    let frame = Frame::data_to_ap(station, bssid, payload);
                    self.client_send(client, ap, frame, queue, now);
                }
                ReceiverAction::Deliver { bytes } => {
                    self.metrics.record_bytes(now, bytes);
                    self.clients[client].counters.bytes += bytes;
                }
                ReceiverAction::Finished => {}
            }
        }
        self.receiver_actions_scratch = actions;
    }

    /// Driver evaluation for one client: tear down links to vanished APs,
    /// start new joins, and (stock driver only) rotate channels while idle.
    fn evaluate(&mut self, client: usize, queue: &mut EventQueue<Event>, now: Instant) {
        let loss_timeout = self.cfg.spider.ap_loss_timeout;
        // 1. Teardown: APs unheard for too long (left range).
        for idx in 0..self.clients[client].ifaces.len() {
            if self.clients[client].ifaces[idx].state == IfaceState::Idle {
                continue;
            }
            let Some(ap) = self.clients[client].ifaces[idx].ap else {
                continue;
            };
            let bssid = self.aps[ap].mac.bssid();
            let heard_recently = self
                .candidate_for(client, bssid)
                .is_some_and(|c| now.saturating_since(c.last_heard) <= loss_timeout);
            if !heard_recently {
                self.teardown_iface(client, idx, now);
            }
        }
        // 2. Start joins on the current channel.
        let started = self.try_start_joins(client, queue, now);
        // 3. Idle scanning (stock driver and the adaptive extension): if
        //    nothing is joined, joining, or joinable on this channel, move
        //    the radio along to refresh the candidate table.
        if matches!(
            self.cfg.spider.schedule,
            SchedulePolicy::ScanWhenIdle { .. } | SchedulePolicy::AdaptiveChannel { .. }
        ) {
            let node = &mut self.clients[client];
            let any_busy = node.ifaces.iter().any(|i| i.state != IfaceState::Idle);
            if !any_busy && started == 0 {
                node.scan_channel_idx = (node.scan_channel_idx + 1) % wifi_mac::ORTHOGONAL.len();
                let target = wifi_mac::ORTHOGONAL[node.scan_channel_idx];
                let latency = node.radio.switch_to(target, now, 0, &mut node.rng_radio);
                if !latency.is_zero() {
                    self.metrics.switch_latencies.record_duration(latency);
                }
            }
        }
        queue.push(
            now + self.cfg.spider.evaluate_every,
            Event::Evaluate { client },
        );
    }

    /// Begin joins toward the best unjoined candidates on the client's
    /// current channel, within its interface budget. Returns how many
    /// started.
    fn try_start_joins(
        &mut self,
        client: usize,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) -> usize {
        let node = &self.clients[client];
        let budget = if self.cfg.spider.single_ap {
            1usize.saturating_sub(
                node.ifaces
                    .iter()
                    .filter(|i| i.state != IfaceState::Idle)
                    .count(),
            )
        } else {
            node.ifaces
                .iter()
                .filter(|i| i.state == IfaceState::Idle)
                .count()
        };
        if budget == 0 || node.radio.is_busy(now) || now < node.dhcp_idle_until {
            return 0;
        }
        // The heard set iterates in MacAddr-rank order — exactly the
        // order the old full `bssids.iter_sorted()` scan produced:
        // candidate order feeds tie-breaking in `select_aps`, and a
        // process-randomized order here once meant two identical runs
        // could join APs in different orders (the simlint `unordered-map`
        // rule still rejects any hash-keyed state). Walking only heard
        // slots is output-identical because `select_aps` drops anything
        // older than its 2 s freshness window and Maintenance prunes the
        // heard set only after 5 s — so every candidate that can survive
        // the filter is still a member. Cost: O(heard), not O(APs).
        let candidates: Vec<Candidate> = node.heard.iter().filter_map(|id| node.scan[id]).collect();
        let joined: Vec<MacAddr> = node
            .ifaces
            .iter()
            .filter(|i| i.state != IfaceState::Idle)
            .filter_map(|i| i.ap.map(|a| self.aps[a].mac.bssid()))
            .collect();
        let picks = select_aps(
            &candidates,
            node.radio.channel(),
            self.cfg.spider.selection,
            &node.history,
            now,
            Duration::from_secs(2),
            self.cfg.spider.retry_backoff,
            self.cfg.spider.min_join_rssi_dbm,
            budget + joined.len(),
        );
        let mut started = 0;
        for bssid in picks {
            if started >= budget {
                break;
            }
            if joined.contains(&bssid) {
                continue;
            }
            let Some(ap) = self.bssids.get(bssid) else {
                continue;
            };
            let Some(idx) = self.clients[client]
                .ifaces
                .iter()
                .position(|i| i.state == IfaceState::Idle)
            else {
                break;
            };
            let setup = self.cfg.spider.join_setup_delay;
            if setup.is_zero() {
                self.start_join(client, idx, ap, queue, now);
            } else {
                // Reserve the interface and defer the handshake by the
                // scan/supplicant setup time (the stock path).
                let iface = &mut self.clients[client].ifaces[idx];
                iface.state = IfaceState::Associating;
                iface.gen += 1;
                iface.ap = Some(ap);
                iface.join_started = Some(now);
                let gen = iface.gen;
                queue.push(
                    now + setup,
                    Event::BeginJoin {
                        client,
                        iface: idx,
                        gen,
                        ap,
                    },
                );
            }
            started += 1;
        }
        started
    }

    fn start_join(
        &mut self,
        client: usize,
        iface_idx: usize,
        ap: usize,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let bssid = self.aps[ap].mac.bssid();
        let ssid = self.aps[ap].mac.config().ssid.clone();
        // Opportunistic scanning just heard this AP; skip the probe phase.
        let heard_just_now = self
            .candidate_for(client, bssid)
            .is_some_and(|c| now.saturating_since(c.last_heard) <= Duration::from_secs(1));
        let join_cfg = JoinConfig {
            use_probe: !heard_just_now,
            ..self.cfg.spider.join.clone()
        };
        let station = self.clients[client].ifaces[iface_idx].addr;
        let mut mac = ClientMac::new(station, bssid, ssid, join_cfg);
        self.metrics.assoc_attempts += 1;
        let actions = mac.start(now);
        {
            let iface = &mut self.clients[client].ifaces[iface_idx];
            iface.state = IfaceState::Associating;
            iface.gen += 1;
            iface.ap = Some(ap);
            iface.join_started = Some(now);
            iface.mac = Some(mac);
        }
        self.process_mac_actions(client, iface_idx, actions, queue, now);
    }

    /// Multi-channel schedule: enter PSM on the old channel, retune, wake
    /// interfaces on the new channel. Each client runs its own slice
    /// cursor (fleet members need not be slice-synchronized).
    fn schedule_slice(
        &mut self,
        client: usize,
        idx: usize,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let SchedulePolicy::MultiChannel { slices } = &self.cfg.spider.schedule else {
            return;
        };
        let (target, slice_len) = slices[idx % slices.len()];
        let old = self.clients[client].radio.channel();
        if target != old {
            // Announce power-save to every associated AP on the old channel.
            // The radio keeps listening while these drain (the Table 1
            // switch latency *includes* this phase), so the AP's in-flight
            // downlink frames are not lost to the retune.
            let psm_targets: Vec<(usize, MacAddr, MacAddr)> = self.clients[client]
                .ifaces
                .iter()
                .filter(|i| i.state == IfaceState::Connected)
                .filter_map(|i| i.ap.map(|a| (a, i.addr, self.aps[a].mac.bssid())))
                .filter(|(a, _, _)| self.aps[*a].site.channel == old)
                .collect();
            let connected = psm_targets.len();
            for (ap, station, bssid) in psm_targets {
                let frame = Frame::psm_enter(station, bssid);
                self.client_send(client, ap, frame, queue, now);
            }
            let grace =
                Duration::from_micros(3_700) + Duration::from_micros(300) * connected as u64;
            queue.push(now + grace, Event::SwitchBegin { client, target });
        }
        queue.push(
            now + slice_len,
            Event::ScheduleSlice {
                client,
                idx: idx + 1,
            },
        );
    }

    fn on_switch_begin(
        &mut self,
        client: usize,
        target: Channel,
        queue: &mut EventQueue<Event>,
        now: Instant,
    ) {
        let node = &mut self.clients[client];
        if target == node.radio.channel() {
            return;
        }
        let connected = node
            .ifaces
            .iter()
            .filter(|i| i.state == IfaceState::Connected)
            .count();
        let latency = node
            .radio
            .switch_to(target, now, connected, &mut node.rng_radio);
        self.metrics.switch_latencies.record_duration(latency);
        queue.push(now + latency, Event::SwitchDone { client });
    }

    fn on_switch_done(&mut self, client: usize, queue: &mut EventQueue<Event>, now: Instant) {
        // Wake every associated AP on the (new) current channel.
        let channel = self.clients[client].radio.channel();
        let wake_targets: Vec<(usize, MacAddr, MacAddr)> = self.clients[client]
            .ifaces
            .iter()
            .filter(|i| i.state == IfaceState::Connected)
            .filter_map(|i| i.ap.map(|a| (a, i.addr, self.aps[a].mac.bssid())))
            .filter(|(a, _, _)| self.aps[*a].site.channel == channel)
            .collect();
        for (ap, station, bssid) in wake_targets {
            let frame = Frame::psm_exit(station, bssid);
            self.client_send(client, ap, frame, queue, now);
        }
        // Swap in this channel's transmit queue: flush frames that waited
        // out the off-channel period (dropping protocol-stale ones). The
        // queue's buffer is swapped against the spare and handed back after
        // the drain, so steady-state switches reuse the same allocations.
        let node = &mut self.clients[client];
        let mut pending = std::mem::replace(
            &mut node.tx_queues[channel.index()],
            std::mem::take(&mut node.tx_spare),
        );
        for (queued_at, ap, frame) in pending.drain(..) {
            if now.saturating_since(queued_at) <= Self::TX_QUEUE_TTL {
                self.client_send(client, ap, frame, queue, now);
            }
        }
        self.clients[client].tx_spare = pending;
        // Freshly on-channel with a whole slice ahead: the best moment to
        // start joins (this is Spider's "parallel per-channel association").
        self.try_start_joins(client, queue, now);
    }

    /// The §4.8 extension: periodically dwell on whichever orthogonal
    /// channel offers the best-scoring fresh candidates. A switch tears
    /// down current associations (we will not be coming back for their
    /// PSM buffers), so the bar for moving is a strict improvement.
    fn reconsider(&mut self, client: usize, queue: &mut EventQueue<Event>, now: Instant) {
        let SchedulePolicy::AdaptiveChannel { reconsider, .. } = self.cfg.spider.schedule else {
            return;
        };
        let freshness = Duration::from_secs(3);
        // The heard set iterates in MacAddr-rank order, so this
        // floating-point sum visits candidates in the same order the full
        // sorted-table walk (and before it, the BTreeMap) produced; the
        // 3 s freshness filter keeps the summed subset identical too,
        // since heard entries outlive it (5 s prune).
        let score_of =
            |ch: Channel, heard: &RankedSet, scan: &[Option<Candidate>], history: &ApHistory| {
                heard
                    .iter()
                    .filter_map(|id| scan[id].as_ref())
                    .filter(|c| c.channel == ch)
                    .filter(|c| now.saturating_since(c.last_heard) <= freshness)
                    .map(|c| history.score(c.bssid, now))
                    .sum::<f64>()
            };
        let node = &self.clients[client];
        let current = node.radio.channel();
        let current_score = score_of(current, &node.heard, &node.scan, &node.history);
        let mut best = (current, current_score);
        for ch in wifi_mac::ORTHOGONAL {
            let s = score_of(ch, &node.heard, &node.scan, &node.history);
            if s > best.1 {
                best = (ch, s);
            }
        }
        // Move only on a clear win: switching abandons live associations.
        if best.0 != current && best.1 > current_score * 1.25 + 0.25 {
            for idx in 0..self.clients[client].ifaces.len() {
                if self.clients[client].ifaces[idx].state != IfaceState::Idle {
                    self.teardown_iface(client, idx, now);
                }
            }
            let node = &mut self.clients[client];
            let latency = node.radio.switch_to(best.0, now, 0, &mut node.rng_radio);
            self.metrics.switch_latencies.record_duration(latency);
            queue.push(now + latency, Event::SwitchDone { client });
        }
        queue.push(now + reconsider, Event::Reconsider { client });
    }

    fn beacon_tick(&mut self, ap: usize, queue: &mut EventQueue<Event>, now: Instant) {
        let interval = self.aps[ap].mac.config().beacon_interval;
        // Fan out to every client within earshot: one transmission on the
        // air (one medium seize, one airtime charge), one arrival per
        // in-range antenna. Clients are visited in ascending index order.
        let in_range: Vec<usize> = (0..self.clients.len())
            .filter(|&c| self.distance_to(c, ap, now) <= 400.0)
            .collect();
        if in_range.is_empty() {
            // Out of everyone's earshot: check back lazily instead of
            // spamming events.
            queue.push(now + Duration::from_secs(2), Event::BeaconTick { ap });
            return;
        }
        let frame = self.aps[ap].mac.beacon(now);
        let channel = self.aps[ap].site.channel;
        let airtime = self.cfg.phy.airtime(frame.wire_len());
        let arrival = self.seize_medium(channel, now, airtime);
        for client in in_range {
            queue.push(
                arrival,
                Event::AirToClient {
                    client,
                    ap,
                    frame: frame.clone(),
                },
            );
        }
        queue.push(now + interval, Event::BeaconTick { ap });
    }

    fn result(mut self) -> RunResult {
        let d = self.cfg.duration;
        self.metrics.record_concurrency(Instant::ZERO + d, 0);
        let backhaul_drops: u64 = self
            .aps
            .iter()
            .map(|a| a.downlink.drops() + a.uplink.drops())
            .sum();
        let psm_drops: u64 = self.aps.iter().map(|a| a.mac.counters().psm_dropped).sum();
        let unassociated_drops: u64 = self
            .aps
            .iter()
            .map(|a| a.mac.counters().unassociated_drops)
            .sum();
        RunResult {
            duration: d,
            total_bytes: self.metrics.total_bytes(),
            avg_throughput_bps: self.metrics.avg_throughput_bps(d),
            connectivity: self.metrics.connectivity(d),
            connection_durations: self.metrics.connection_durations(d),
            disruption_durations: self.metrics.disruption_durations(d),
            instantaneous_bandwidth: self.metrics.instantaneous_bandwidth(d),
            assoc_times: self.metrics.assoc_times.clone(),
            join_times: self.metrics.join_times.clone(),
            switch_latencies: self.metrics.switch_latencies.clone(),
            dhcp_attempts: self.metrics.dhcp_attempts,
            dhcp_failures: self.metrics.dhcp_failures,
            assoc_attempts: self.metrics.assoc_attempts,
            assoc_failures: self.metrics.assoc_failures,
            switch_count: self.clients.iter().map(|c| c.radio.switch_count()).sum(),
            max_concurrent_aps: self.metrics.max_concurrent_aps,
            concurrency_seconds: self.metrics.concurrency_seconds.clone(),
            tcp_rtos: self.tcp_rtos,
            backhaul_drops,
            psm_drops,
            unassociated_drops,
            air_drops: self.air_drops,
            per_client: self.clients.iter().map(|c| c.counters).collect(),
        }
    }
}

impl Handler<Event> for World {
    fn handle(&mut self, now: Instant, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::BeaconTick { ap } => self.beacon_tick(ap, queue, now),
            Event::AirToClient { client, ap, frame } => {
                self.on_air_to_client(client, ap, frame, queue, now)
            }
            Event::AirToAp { ap, frame } => {
                let mut actions = std::mem::take(&mut self.ap_actions_scratch);
                {
                    let node = &mut self.aps[ap];
                    node.mac
                        .on_frame_into(&frame, now, &mut self.rng_ap, &mut actions);
                }
                self.process_ap_actions(ap, &mut actions, queue, now);
                self.ap_actions_scratch = actions;
            }
            Event::MacTimer {
                client,
                iface,
                gen,
                token,
            } => {
                if self.clients[client].ifaces[iface].gen != gen {
                    return;
                }
                if let Some(mac) = self.clients[client].ifaces[iface].mac.as_mut() {
                    let actions = mac.handle_timer(token);
                    self.process_mac_actions(client, iface, actions, queue, now);
                }
            }
            Event::DhcpTimer {
                client,
                iface,
                gen,
                token,
            } => {
                if self.clients[client].ifaces[iface].gen != gen {
                    return;
                }
                if let Some(dhcp) = self.clients[client].ifaces[iface].dhcp.as_mut() {
                    let actions = dhcp.handle_timer(token, now);
                    self.process_dhcp_actions(client, iface, actions, queue, now);
                }
            }
            Event::SenderTimer { ap, conn, token } => {
                let mut actions = std::mem::take(&mut self.sender_actions_scratch);
                match self.aps[ap].sender_mut(conn) {
                    Some(sender) => sender.on_timer_into(token, now, &mut actions),
                    None => {
                        self.sender_actions_scratch = actions;
                        return;
                    }
                }
                if actions
                    .iter()
                    .any(|a| matches!(a, SenderAction::Transmit(_)))
                {
                    self.tcp_rtos += 1;
                }
                self.process_sender_actions(ap, conn, &mut actions, queue, now);
                self.sender_actions_scratch = actions;
            }
            Event::BackhaulToAp { ap, payload } => {
                // A TCP segment for one of our clients: find which
                // interface its connection terminates at.
                let Some((_, body)) = unwrap_proto(&payload) else {
                    return;
                };
                let Some(seg) = Segment::decode(body) else {
                    return;
                };
                let Some((client, iface_idx)) =
                    self.clients.iter().enumerate().find_map(|(c, node)| {
                        node.ifaces
                            .iter()
                            .position(|i| i.conn == Some(seg.conn) && i.ap == Some(ap))
                            .map(|i| (c, i))
                    })
                else {
                    return;
                };
                let station = self.clients[client].ifaces[iface_idx].addr;
                let mut actions = std::mem::take(&mut self.ap_actions_scratch);
                self.aps[ap]
                    .mac
                    .deliver_downlink_into(station, payload, now, &mut actions);
                self.process_ap_actions(ap, &mut actions, queue, now);
                self.ap_actions_scratch = actions;
            }
            Event::BackhaulToServer { ap, payload } => {
                // The payload still carries its protocol tag (kept to make
                // the uplink enqueue copy-free); strip it here.
                let Some((_, body)) = unwrap_proto(&payload) else {
                    return;
                };
                let Some(seg) = Segment::decode(body) else {
                    return;
                };
                let mut actions = std::mem::take(&mut self.sender_actions_scratch);
                match self.aps[ap].sender_mut(seg.conn) {
                    Some(sender) => sender.on_segment_into(&seg, now, &mut actions),
                    None => {
                        self.sender_actions_scratch = actions;
                        return;
                    }
                }
                self.process_sender_actions(ap, seg.conn, &mut actions, queue, now);
                self.sender_actions_scratch = actions;
            }
            Event::DhcpReplyReady {
                ap,
                station,
                payload,
            } => {
                let mut actions = std::mem::take(&mut self.ap_actions_scratch);
                self.aps[ap]
                    .mac
                    .deliver_downlink_into(station, payload, now, &mut actions);
                self.process_ap_actions(ap, &mut actions, queue, now);
                self.ap_actions_scratch = actions;
            }
            Event::ScheduleSlice { client, idx } => self.schedule_slice(client, idx, queue, now),
            Event::SwitchBegin { client, target } => {
                self.on_switch_begin(client, target, queue, now)
            }
            Event::SwitchDone { client } => self.on_switch_done(client, queue, now),
            Event::Evaluate { client } => self.evaluate(client, queue, now),
            Event::Reconsider { client } => self.reconsider(client, queue, now),
            Event::NextObject {
                client,
                iface,
                gen,
                ap,
            } => {
                if self.clients[client].ifaces[iface].gen != gen
                    || self.clients[client].ifaces[iface].state != IfaceState::Connected
                {
                    return;
                }
                self.open_connection(client, iface, ap, queue, now);
            }
            Event::BeginJoin {
                client,
                iface,
                gen,
                ap,
            } => {
                if self.clients[client].ifaces[iface].gen != gen {
                    return;
                }
                // The candidate must still be around after the setup delay.
                let bssid = self.aps[ap].mac.bssid();
                let fresh = self
                    .candidate_for(client, bssid)
                    .is_some_and(|c| now.saturating_since(c.last_heard) <= Duration::from_secs(3));
                if fresh {
                    self.clients[client].ifaces[iface].state = IfaceState::Idle;
                    self.start_join(client, iface, ap, queue, now);
                } else {
                    self.teardown_iface(client, iface, now);
                }
            }
            Event::Maintenance => {
                // Spatial upkeep, 1 Hz: move every client's cell membership
                // and sample how many APs each 400 m hearing disc covers —
                // grid range queries, not scans over `aps`. The mover index
                // then feeds back as cell occupancy: how many fleet members
                // (self included) share each client's cell, which scales
                // the uplink contention bound in `client_send`. Occupancy
                // is 1 whenever a client is alone in its cell, so the
                // single-client world is unaffected.
                for c in 0..self.clients.len() {
                    let pos = self.client_pos(c, now);
                    if self.mover_cells.update(c, pos) {
                        self.clients[c].counters.cell_crossings += 1;
                    }
                    let inrange = self.grid.count_in_disc(pos, 400.0) as u32;
                    let node = &mut self.clients[c];
                    node.peak_inrange_aps = node.peak_inrange_aps.max(inrange);
                }
                for c in 0..self.clients.len() {
                    let occupancy = self
                        .mover_cells
                        .cell_of(c)
                        .map_or(1, |key| self.mover_cells.movers_in(key).len())
                        .max(1) as u32;
                    self.clients[c].cell_occupancy = occupancy;
                }
                // Drop scan entries not refreshed in 5 s from the heard
                // set. Both consumers filter at ≤ 3 s, so pruning at 5 s
                // can never change what they see.
                for c in 0..self.clients.len() {
                    let ClientNode { scan, heard, .. } = &mut self.clients[c];
                    heard.retain(|slot| {
                        scan[slot].is_some_and(|c| now.saturating_since(c.last_heard) <= HEARD_TTL)
                    });
                }
                for ap in 0..self.aps.len() {
                    // An AP with no stations has nothing to expire:
                    // `expire_idle` over an empty table is a no-op, so
                    // skipping it cannot change event order. This turns
                    // the 1 Hz full-fleet walk into O(associated APs)
                    // of real work on metro-scale worlds.
                    if self.aps[ap].mac.station_count() == 0 {
                        continue;
                    }
                    let mut actions = self.aps[ap].mac.expire_idle(now);
                    self.process_ap_actions(ap, &mut actions, queue, now);
                }
                queue.push(now + Duration::from_secs(1), Event::Maintenance);
            }
        }
    }
}

/// Split a tagged payload into its protocol tag and body. Borrows — the
/// per-frame hot path must not copy payloads just to look at them.
fn unwrap_proto(payload: &[u8]) -> Option<(u8, &[u8])> {
    match payload {
        [proto, body @ ..] => Some((*proto, body)),
        [] => None,
    }
}

/// Deterministic per-run performance counters, reported alongside the
/// [`RunResult`] by [`run_with_diagnostics`].
///
/// These are intentionally **not** part of `RunRecord` JSON: the record is
/// the content-addressed campaign cache format and must stay byte-identical
/// for a given `WorldConfig`, while throughput-style numbers derived from
/// these counters (events/sec) mix in wall-clock time. The campaign layer
/// reports them on stderr instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDiagnostics {
    /// Events delivered by the queue over the run (deterministic).
    pub events_delivered: u64,
    /// High-water mark of **live** scheduled events (deterministic).
    /// Cancelled-but-still-queued entries do not count — see
    /// `EventQueue::peak_depth`.
    pub peak_queue_depth: usize,
    /// High-water mark of APs inside any client's 400 m hearing disc,
    /// sampled at 1 Hz through the spatial grid (deterministic; the max
    /// over the fleet).
    pub peak_inrange_aps: u32,
    /// Grid-cell crossings across the whole fleet, from the incremental
    /// mover index (deterministic; per-client splits are in
    /// [`RunResult::per_client`]).
    pub client_cell_crossings: u64,
}

/// Run one experiment to completion.
///
/// # Panics
/// Panics, naming the [`ConfigError`], on a config that fails
/// [`WorldConfig::validate`].
pub fn run(config: WorldConfig) -> RunResult {
    run_with_diagnostics(config).0
}

/// Run one experiment to completion, also reporting engine counters.
///
/// # Panics
/// As [`run`].
pub fn run_with_diagnostics(config: WorldConfig) -> (RunResult, RunDiagnostics) {
    let duration = config.duration;
    let (mut world, mut queue) = World::new(config);
    run_until(&mut queue, &mut world, Instant::ZERO + duration);
    let diagnostics = RunDiagnostics {
        events_delivered: queue.delivered(),
        peak_queue_depth: queue.peak_depth(),
        peak_inrange_aps: world
            .clients
            .iter()
            .map(|c| c.peak_inrange_aps)
            .max()
            .unwrap_or(0),
        client_cell_crossings: world
            .clients
            .iter()
            .map(|c| c.counters.cell_crossings)
            .sum(),
    };
    (world.result(), diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::route::Route;

    fn site(id: u32, x: f64, channel: Channel, backhaul_bps: u64) -> ApSite {
        ApSite {
            id,
            position: Point::new(x, 0.0),
            channel,
            backhaul_bps,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(400),
        }
    }

    fn static_world(sites: Vec<ApSite>, spider: SpiderConfig, secs: u64) -> WorldConfig {
        WorldConfig::new(
            42,
            sites,
            ClientMotion::Fixed(Point::new(0.0, 10.0)),
            spider,
            Duration::from_secs(secs),
        )
    }

    #[test]
    fn stationary_client_joins_and_transfers() {
        let cfg = static_world(
            vec![site(1, 0.0, Channel::CH1, 2_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            30,
        );
        let result = run(cfg);
        assert_eq!(
            result.assoc_failures, 0,
            "clean channel at 10 m must associate"
        );
        assert!(result.join_times.count() >= 1, "no successful join");
        assert!(
            result.total_bytes > 100_000,
            "only {} bytes",
            result.total_bytes
        );
        // 2 Mb/s backhaul = 250 kB/s ceiling; TCP should get most of it.
        let kbps = result.avg_throughput_kbps();
        assert!((100.0..260.0).contains(&kbps), "throughput {kbps} kB/s");
        assert!(
            result.connectivity > 0.8,
            "connectivity {}",
            result.connectivity
        );
    }

    /// A bad config built in code fails loudly at `World::new`, naming
    /// the broken setting, before any substrate asserts on it.
    #[test]
    #[should_panic(expected = "world config: invalid backhaul rate")]
    fn run_names_the_config_error() {
        run(static_world(
            vec![site(1, 0.0, Channel::CH1, 0)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            5,
        ));
    }

    #[test]
    fn backhaul_latency_hurts_throughput() {
        let with_latency = |ms: u64| {
            let mut cfg = static_world(
                vec![site(1, 0.0, Channel::CH1, 2_000_000)],
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                12,
            );
            cfg.backhaul_latency = Duration::from_millis(ms);
            run(cfg).total_bytes
        };
        let (fast, slow) = (with_latency(5), with_latency(500));
        assert!(fast > slow, "half-second RTTs must hurt: {fast} vs {slow}");
    }

    #[test]
    fn two_aps_on_one_channel_aggregate_backhaul() {
        // The Fig. 9 effect: two 2 Mb/s backhauls on one channel ≈ double
        // the single-AP throughput.
        let one = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 2_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            30,
        ));
        let two = run(static_world(
            vec![
                site(1, 0.0, Channel::CH1, 2_000_000),
                site(2, 5.0, Channel::CH1, 2_000_000),
            ],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            30,
        ));
        assert!(two.max_concurrent_aps >= 2, "did not hold 2 concurrent APs");
        let ratio = two.avg_throughput_bps / one.avg_throughput_bps;
        assert!(
            (1.5..2.5).contains(&ratio),
            "aggregation ratio {ratio}: one {} two {}",
            one.avg_throughput_kbps(),
            two.avg_throughput_kbps()
        );
    }

    #[test]
    fn single_ap_config_never_holds_two() {
        let result = run(static_world(
            vec![
                site(1, 0.0, Channel::CH1, 2_000_000),
                site(2, 5.0, Channel::CH1, 2_000_000),
            ],
            SpiderConfig::single_channel_single_ap(Channel::CH1),
            20,
        ));
        assert_eq!(result.max_concurrent_aps, 1);
    }

    #[test]
    fn wrong_channel_yields_nothing() {
        let result = run(static_world(
            vec![site(1, 0.0, Channel::CH6, 2_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            10,
        ));
        assert_eq!(result.total_bytes, 0);
        assert_eq!(result.join_times.count(), 0);
    }

    #[test]
    fn multi_channel_schedule_switches_and_transfers() {
        let result = run(static_world(
            vec![
                site(1, 0.0, Channel::CH1, 2_000_000),
                site(2, 5.0, Channel::CH6, 2_000_000),
            ],
            SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
            30,
        ));
        assert!(
            result.switch_count > 50,
            "only {} switches",
            result.switch_count
        );
        assert!(result.switch_latencies.count() > 0);
        assert!(
            result.total_bytes > 0,
            "no data through a multi-channel schedule"
        );
    }

    #[test]
    fn stock_driver_scans_joins_and_transfers() {
        let result = run(static_world(
            vec![site(1, 0.0, Channel::CH6, 2_000_000)],
            SpiderConfig::stock_madwifi(),
            40,
        ));
        // The idle scan must find channel 6 and camp there.
        assert!(result.join_times.count() >= 1, "stock driver never joined");
        assert!(result.total_bytes > 0);
        assert_eq!(result.max_concurrent_aps, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            run(static_world(
                vec![
                    site(1, 0.0, Channel::CH1, 2_000_000),
                    site(2, 5.0, Channel::CH1, 1_000_000),
                ],
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                15,
            ))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.dhcp_attempts, b.dhcp_attempts);
        assert_eq!(a.switch_count, b.switch_count);
    }

    #[test]
    fn drive_by_produces_bounded_encounter() {
        // A vehicle passing one AP at 10 m/s: data flows only near it.
        let route = Route::straight(Point::new(-1000.0, 0.0), Point::new(1000.0, 0.0));
        let vehicle = Vehicle::new(route, 10.0, Instant::ZERO);
        let cfg = WorldConfig::new(
            7,
            vec![site(1, 0.0, Channel::CH1, 4_000_000)],
            ClientMotion::Route(vehicle),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(200),
        );
        let result = run(cfg);
        assert!(result.join_times.count() >= 1, "drive-by never joined");
        assert!(result.total_bytes > 0);
        // Connectivity is bounded by the encounter window (~20 s of 200 s).
        assert!(
            result.connectivity < 0.35,
            "connectivity {} too high for a drive-by",
            result.connectivity
        );
        let mut disruptions = result.disruption_durations.clone();
        assert!(
            disruptions.quantile(1.0) > 50.0,
            "should see a long disruption"
        );
    }

    #[test]
    fn psm_aging_punishes_long_absences() {
        // Same world, two slice lengths: short slices stay inside the AP's
        // ~256 ms power-save aging horizon, long ones do not.
        let mk = |slice_ms: u64| {
            let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
            spider.schedule = SchedulePolicy::equal_three(Duration::from_millis(slice_ms));
            run(static_world(
                vec![site(1, 0.0, Channel::CH1, 4_000_000)],
                spider,
                40,
            ))
        };
        let short = mk(66);
        let long = mk(333);
        assert!(
            short.total_bytes > 3 * long.total_bytes,
            "66 ms slices ({}) must far out-deliver 333 ms ({})",
            short.total_bytes,
            long.total_bytes
        );
        assert!(long.psm_drops > 0, "long absences must age PSM frames out");
    }

    #[test]
    fn rssi_floor_gates_far_joins() {
        // An AP at 120 m is audible (beacons decode sometimes) but below
        // the −85 dBm join floor; the driver must not attempt it.
        let far = ApSite {
            id: 1,
            position: Point::new(0.0, 120.0),
            channel: Channel::CH1,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(300),
        };
        let gated = run(WorldConfig::new(
            42,
            vec![far.clone()],
            ClientMotion::Fixed(Point::new(0.0, 0.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(20),
        ));
        assert_eq!(gated.assoc_attempts, 0, "far AP must not be attempted");
        // Lowering the floor re-enables the attempt.
        let mut greedy_cfg = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        greedy_cfg.min_join_rssi_dbm = -200.0;
        let greedy = run(WorldConfig::new(
            42,
            vec![far],
            ClientMotion::Fixed(Point::new(0.0, 0.0)),
            greedy_cfg,
            Duration::from_secs(20),
        ));
        assert!(
            greedy.assoc_attempts > 0,
            "without the floor the driver tries"
        );
    }

    #[test]
    fn stock_setup_delay_postpones_the_join() {
        // With a 10 s scan/supplicant dead time, no join can complete in
        // the first 10 s.
        let result = run(static_world(
            vec![site(1, 0.0, Channel::CH6, 2_000_000)],
            SpiderConfig::stock_madwifi(),
            40,
        ));
        assert!(result.join_times.count() >= 1, "stock must eventually join");
        // First delivery can't precede the setup delay: connectivity over
        // 40 s is bounded accordingly.
        assert!(
            result.connectivity < 0.75,
            "setup delay must cost early seconds: connectivity {}",
            result.connectivity
        );
    }

    #[test]
    fn segmented_plan_paces_the_download() {
        // A streaming plan (1 MB objects, 4 s think) must move data in
        // bursts and far less of it than a saturating plan.
        let mut cfg = static_world(
            vec![site(1, 0.0, Channel::CH1, 4_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            40,
        );
        cfg.plan = workload::downloads::DownloadPlan::Segmented {
            object_bytes: 1_000_000,
            think: Duration::from_secs(4),
        };
        let segmented = run(cfg);
        let saturating = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 4_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            40,
        ));
        assert!(segmented.total_bytes > 1_000_000, "streams some objects");
        assert!(
            segmented.total_bytes < saturating.total_bytes,
            "think time must reduce volume: {} vs {}",
            segmented.total_bytes,
            saturating.total_bytes
        );
        // Think pauses show as sub-full connectivity.
        assert!(segmented.connectivity < saturating.connectivity);
    }

    #[test]
    fn adaptive_channel_follows_the_aps() {
        // All APs on channel 11; the adaptive policy must discover that and
        // move off its initial channel 1 to transfer data.
        let result = run(static_world(
            vec![
                site(1, 0.0, Channel::CH11, 2_000_000),
                site(2, 5.0, Channel::CH11, 2_000_000),
            ],
            SpiderConfig::adaptive_channel(),
            40,
        ));
        assert!(
            result.join_times.count() >= 1,
            "adaptive policy never joined"
        );
        assert!(result.total_bytes > 0, "adaptive policy moved no data");
    }

    #[test]
    fn adaptive_channel_stays_when_home_is_best() {
        // Candidates only on channel 1: the policy must not wander off and
        // lose throughput relative to a pinned single channel.
        let pinned = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 2_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            40,
        ));
        let adaptive = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 2_000_000)],
            SpiderConfig::adaptive_channel(),
            40,
        ));
        assert!(
            adaptive.total_bytes as f64 > 0.7 * pinned.total_bytes as f64,
            "adaptive {} vs pinned {} bytes",
            adaptive.total_bytes,
            pinned.total_bytes
        );
    }

    #[test]
    fn ablation_configs_run() {
        for spider in [
            SpiderConfig::ablate_history(Channel::CH1),
            SpiderConfig::ablate_lease_cache(Channel::CH1),
            SpiderConfig::ablate_reduced_timers(Channel::CH1),
            SpiderConfig::ablate_parallel_join(Channel::CH1),
        ] {
            let result = run(static_world(
                vec![site(1, 0.0, Channel::CH1, 2_000_000)],
                spider,
                20,
            ));
            assert!(result.total_bytes > 0, "ablation config moved no data");
        }
    }

    #[test]
    fn backhaul_is_the_bottleneck_not_the_air() {
        // 500 kb/s backhaul vs 11 Mb/s air: throughput pins near the
        // backhaul rate (Reno over a 64-packet drop-tail queue with a
        // 256 kB window runs in persistent deep congestion, so utilization
        // sits well below 100% — but far above what the air would limit).
        let result = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 500_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            30,
        ));
        let kbps = result.avg_throughput_kbps();
        assert!(
            (15.0..70.0).contains(&kbps),
            "throughput {kbps} kB/s vs 62.5 cap"
        );
        // The air could carry ~20× more; the wired side is the bottleneck.
        assert!(result.backhaul_drops > 0 || kbps > 40.0);
    }

    #[test]
    fn per_client_counters_cover_the_single_client_world() {
        let result = run(static_world(
            vec![site(1, 0.0, Channel::CH1, 2_000_000)],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            30,
        ));
        assert_eq!(result.per_client.len(), 1, "one slot for the one client");
        assert_eq!(result.per_client[0].bytes, result.total_bytes);
        assert_eq!(
            result.per_client[0].joins as usize,
            result.join_times.count()
        );
    }

    #[test]
    fn two_colocated_clients_split_the_backhaul() {
        let mk = |fleet: Vec<ClientMotion>| {
            let mut cfg = static_world(
                vec![site(1, 0.0, Channel::CH1, 2_000_000)],
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                30,
            );
            cfg.fleet = fleet;
            run(cfg)
        };
        let alone = mk(vec![]);
        let pair = mk(vec![ClientMotion::Fixed(Point::new(0.0, 10.0))]);
        assert_eq!(pair.per_client.len(), 2);
        assert!(pair.per_client[0].bytes > 0, "client 0 starved");
        assert!(pair.per_client[1].bytes > 0, "client 1 starved");
        assert_eq!(
            pair.per_client.iter().map(|c| c.bytes).sum::<u64>(),
            pair.total_bytes,
            "per-client bytes must partition the fleet total"
        );
        // Endogenous contention: sharing one 2 Mb/s backhaul must cost
        // client 0 real throughput relative to running alone.
        assert!(
            pair.per_client[0].bytes < alone.total_bytes,
            "contended {} vs alone {}",
            pair.per_client[0].bytes,
            alone.total_bytes
        );
    }

    #[test]
    fn fleet_runs_are_byte_identical_across_repeats() {
        let mk = || {
            let mut cfg = static_world(
                vec![
                    site(1, 0.0, Channel::CH1, 2_000_000),
                    site(2, 40.0, Channel::CH1, 2_000_000),
                ],
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                20,
            );
            cfg.fleet = vec![
                ClientMotion::Fixed(Point::new(10.0, 10.0)),
                ClientMotion::Fixed(Point::new(40.0, 10.0)),
            ];
            run(cfg)
        };
        let a = crate::report::RunRecord::to_json(&mk()).expect("serialize");
        let b = crate::report::RunRecord::to_json(&mk()).expect("serialize");
        assert_eq!(a, b, "same fleet config must replay byte-identically");
    }

    #[test]
    fn convoy_members_each_cross_cells() {
        let route = Route::straight(Point::new(-500.0, 0.0), Point::new(500.0, 0.0));
        let lead = Vehicle::new(route, 10.0, Instant::ZERO);
        let mut cfg = WorldConfig::new(
            7,
            vec![site(1, 0.0, Channel::CH1, 4_000_000)],
            ClientMotion::Route(lead.clone()),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(100),
        );
        cfg.fleet = crate::fleet::convoy(&ClientMotion::Route(lead), 2, Duration::from_secs(5));
        let result = run(cfg);
        assert_eq!(result.per_client.len(), 3);
        for (i, c) in result.per_client.iter().enumerate() {
            assert!(
                c.cell_crossings >= 2,
                "client {i} crossed only {} cells",
                c.cell_crossings
            );
        }
    }
}
