//! The full-system simulation: a fleet of clients, many APs, and the
//! Spider driver (or a baseline) in between.
//!
//! This module is the substitute for the paper's outdoor testbed. It wires
//! together every substrate crate under a single deterministic event loop,
//! one private submodule per layer of the paper's stack (§3), each with
//! its own event enum:
//!
//! * `air` — frames pay airtime on a per-channel serialized medium;
//!   delivery is evaluated *at arrival* against the client radio's tuning
//!   (an AP's association or DHCP response that lands while the radio
//!   serves another channel is simply lost — the paper's central failure
//!   mode) and the PHY's distance-dependent loss. Spider's per-channel
//!   transmit queues live here too.
//! * `ap` — `wifi-mac::ApMac` (with honest PSM buffering) plus a
//!   `dhcp::DhcpServer` with per-AP response delays, plus a shaped
//!   backhaul (`workload::SerialLink`) behind which a `tcp_lite` bulk
//!   sender plays the content server.
//! * `join` — up to seven virtual interfaces per client, each running the
//!   join FSM, DHCP client, and a TCP receiver; opportunistic scanning
//!   feeds the selection heuristic.
//! * `channel` — each client's `wifi-mac::Radio` scheduled by the
//!   configured [`SchedulePolicy`].
//! * `upkeep` — 1 Hz spatial upkeep and AP idle expiry.
//!
//! All clients (see [`crate::fleet`]) share the deployment, the event
//! queue, and the per-channel medium, so contention between them is
//! **endogenous**: every transmitted frame seizes the same medium, every
//! association loads the same AP station sets, and each client's uplink
//! backoff bound scales with how many fleet members share its grid cell
//! (the occupancy the `analytical::cell` offered-load model takes as
//! `n`).
//!
//! The data path carries typed values end to end: a data frame's payload
//! is a [`Packet`] (a DHCP message or a TCP segment), and the AP's
//! power-save buffer, the per-channel TX queues and the backhaul events
//! hold the message itself. Nothing is encoded or decoded per hop; the
//! air charges each frame the length of the byte form it stands for
//! (`Packet`'s `wire_len`).
//!
//! Deliberate simplification (see DESIGN.md): management frames are
//! single-shot (no MAC ARQ), matching the paper's join model where each
//! lost handshake message costs a protocol timeout; data frames (DHCP and
//! TCP) get the standard 802.11 retry budget folded into an expected
//! airtime and residual loss.

mod air;
mod ap;
mod channel;
mod join;
mod upkeep;

use std::cell::Cell;

use geo::{GridIndex, MoverIndex, RankedSet};
use mobility::deployment::ApSite;
use mobility::geometry::Point;
use mobility::route::{Anchor, Vehicle};
use sim_engine::queue::{EventId, EventQueue, LaneId};
use sim_engine::rng::Rng;
use sim_engine::runner::{run_until, Handler};
use sim_engine::stats::Samples;
use sim_engine::time::{Duration, Instant};
use tcp_lite::connection::{ReceiverAction, SenderAction};
use tcp_lite::TcpConfig;
use wifi_mac::ap::ApAction;
use wifi_mac::channel::Channel;
use wifi_mac::frame::Frame;
use wifi_mac::phy::{LinkQuality, PhyConfig};
use wifi_mac::radio::{Radio, RadioConfig};
use workload::downloads::DownloadPlan;

use crate::config::{SchedulePolicy, SpiderConfig};
use crate::fleet::{station_addr, ClientCounters, CLIENT_ADDR_STRIDE};
use crate::history::ApHistory;
use crate::intern::MacIntern;
use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::selection::Candidate;

use air::{AirEvent, AirSite, BEACON_REPOLL};
use ap::{ApEvent, ApNode};
use channel::ChannelEvent;
use join::{Iface, JoinEvent};
use upkeep::MAINTENANCE_PERIOD;

/// Radius of a client's hearing disc: the APs whose beacons it is sent,
/// and the APs the 1 Hz upkeep counts around it.
const HEARING_RADIUS_M: f64 = 400.0;

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

    /// The top speed, m/s; 0 for a fixed client.
    fn max_speed(&self) -> f64 {
        match self {
            ClientMotion::Fixed(_) => 0.0,
            ClientMotion::Route(v) => v.max_speed(),
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
    /// described by `motion`. The world runs `1 + fleet.len()` clients.
    /// See [`crate::fleet`] for the determinism contract.
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

/// The instant being simulated and the queue its follow-up events go
/// to: what every handler needs besides the world itself.
struct Sched<'q> {
    now: Instant,
    queue: &'q mut EventQueue<Event>,
}

impl Sched<'_> {
    /// Schedule `event` at `at`.
    fn at(&mut self, at: Instant, event: impl Into<Event>) {
        self.queue.push(at, event.into());
    }

    /// Schedule `event` `delay` from now.
    fn after(&mut self, delay: Duration, event: impl Into<Event>) {
        self.at(self.now + delay, event);
    }

    /// Move the queued event `id` to `delay` from now; if it already
    /// fired or was cancelled, schedule `event` there instead. Returns the
    /// handle of the one queued event.
    fn rearm(&mut self, id: Option<EventId>, delay: Duration, event: impl Into<Event>) -> EventId {
        let at = self.now + delay;
        match id.and_then(|id| self.queue.reschedule(id, at)) {
            Some(id) => id,
            None => self.queue.push(at, event.into()),
        }
    }
}

/// Simulation events, one enum per layer. Client-scoped events carry the
/// dense client index; AP- and server-scoped events identify stations by
/// MAC address.
#[derive(Debug)]
enum Event {
    /// Beacons and frames on the air.
    Air(AirEvent),
    /// AP, backhaul and content-server events.
    Ap(ApEvent),
    /// Interface timers and driver evaluation.
    Join(JoinEvent),
    /// Schedule slices, channel switches and reconsideration.
    Channel(ChannelEvent),
    /// Periodic housekeeping (AP idle expiry, spatial upkeep).
    Maintenance,
}

impl From<AirEvent> for Event {
    fn from(event: AirEvent) -> Event {
        Event::Air(event)
    }
}

impl From<ApEvent> for Event {
    fn from(event: ApEvent) -> Event {
        Event::Ap(event)
    }
}

impl From<JoinEvent> for Event {
    fn from(event: JoinEvent) -> Event {
        Event::Join(event)
    }
}

impl From<ChannelEvent> for Event {
    fn from(event: ChannelEvent) -> Event {
        Event::Channel(event)
    }
}

/// A link-budget cache entry: the `(distance bits, frame length, is data)`
/// key and the frame's `(airtime, delivery probability)`.
type BudgetEntry = ((u64, u32, bool), (Duration, f64));

/// One client of the fleet: motion, radio, virtual interfaces, join
/// history, scan state, and private RNG streams: everything logically
/// *per station*. The shared medium, AP nodes, and metrics stay on
/// [`World`].
struct ClientNode {
    motion: ClientMotion,
    radio: Radio,
    ifaces: Vec<Iface>,
    /// Scan candidates, indexed by AP id (dense; `None` = never heard).
    /// MacAddr-ordered iteration goes through `heard` (see below).
    scan: Vec<Option<Candidate>>,
    /// The **heard set**: AP slots with a recorded scan entry, iterated
    /// in MacAddr-rank order, so candidate collection is O(heard), not
    /// O(APs). It sees every fresh entry a full scan-table walk would:
    /// `select_aps` (2 s freshness) and `reconsider`'s scoring (3 s) both
    /// filter before ordering/summing, and entries are pruned here only
    /// after 5 s.
    heard: RankedSet,
    history: ApHistory,
    /// Spider's per-channel transmit queues (§3): frames bound for an
    /// off-channel AP wait here and flush when the radio arrives.
    /// Indexed by [`Channel::index`]; buffers are reused across swaps.
    tx_queues: [Vec<(Instant, usize, Frame<Packet>)>; Channel::COUNT],
    /// Spare queue buffer swapped against `tx_queues` on channel switch so
    /// steady-state flushes never allocate.
    tx_spare: Vec<(Instant, usize, Frame<Packet>)>,
    /// Where the client was at the last 1 Hz upkeep (at t = 0 before the
    /// first) and its top speed: decides most earshot questions without
    /// the client's exact position (see `World::in_earshot`).
    anchor: Anchor,
    /// Exact-key caches for the pure per-frame math. Keys are the full
    /// bit patterns of the inputs, so a hit returns the *same* values the
    /// recomputation would — determinism-safe by construction. They earn
    /// their keep because one delivered frame's budget is asked for at
    /// least twice (airtime when sent, delivery probability on arrival),
    /// and a stationary client sends the same few frame lengths at one
    /// distance all run long. The link-budget cache keeps the two most
    /// recent keys, most recent first: a stationary client alternates
    /// data and ACK lengths at one distance, which a one-entry cache
    /// misses each time the length alternates. The link memo keeps the
    /// PHY's link quality at the last distance, which every frame length
    /// sent over it and a beacon's RSSI derive from: the ACK a client
    /// sends at the instant its data frame arrives reuses it.
    pos_cache: Cell<Option<(Instant, Point)>>,
    budget_cache: Cell<[Option<BudgetEntry>; 2]>,
    link_memo: Cell<Option<(u64, LinkQuality)>>,
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
    /// Fleet members sharing this client's grid cell (self included), as
    /// of the last Maintenance tick. Scales the uplink contention bound:
    /// a fuller cell means a longer expected wait to win the medium.
    cell_occupancy: u32,
    /// Per-client joins/bytes/cell-crossings, reported in
    /// [`RunResult::per_client`].
    counters: ClientCounters,
    /// High-water mark of APs inside the hearing disc (1 Hz
    /// samples via the grid). Diagnostic only — never in `RunRecord`.
    peak_inrange_aps: u32,
}

struct World {
    cfg: WorldConfig,
    aps: Vec<ApNode>,
    /// What the air needs of each AP, indexed like `aps`.
    air_sites: Vec<AirSite>,
    /// BSSID → AP index, interned at build time; also drives every
    /// MacAddr-ordered iteration over per-AP state (see [`MacIntern`]).
    bssids: MacIntern,
    /// The fleet, indexed densely: client 0 is `cfg.motion`, clients
    /// 1.. are `cfg.fleet` in order.
    clients: Vec<ClientNode>,
    /// Spatial grid over the deployment's AP positions (dense AP slots).
    /// Range queries (`count_in_disc`) replace linear scans over `aps`.
    grid: GridIndex,
    /// Cell membership of every moving client (mover slot = client
    /// index), updated incrementally at Maintenance cadence. Feeds each
    /// client's `cell_occupancy`.
    mover_cells: MoverIndex,
    /// Fleet-wide metrics, fed in event order: throughput, connectivity
    /// and concurrency are fleet aggregates, and
    /// [`RunResult::per_client`] carries the per-client split.
    metrics: Metrics,
    /// Per-channel medium occupancy (next free instant), indexed by
    /// [`Channel::index`]. `Instant::ZERO` means the channel was never
    /// seized. Shared by every client and AP: this is where fleet contention
    /// becomes endogenous.
    medium: [Instant; Channel::COUNT],
    /// The queue lane of each channel's medium arrivals, indexed by
    /// [`Channel::index`]: a medium seize returns strictly increasing
    /// arrivals per channel, so AP frames and beacons join the lane's
    /// tail (see `sim_engine::queue`). A client's uplink frame is not
    /// seized in turn (its contention wait is capped) and goes to the
    /// heap.
    medium_lanes: [LaneId; Channel::COUNT],
    /// Emptied beacon audiences, reused by the next beacon that has one.
    audience_spare: Vec<Vec<usize>>,
    /// Reusable per-event action buffers: the hot handlers `mem::take`
    /// one, let the protocol layer push into it, drain it, and put it
    /// back — steady state does zero action-Vec allocations per event.
    ap_actions_scratch: Vec<ApAction<Packet>>,
    sender_actions_scratch: Vec<SenderAction>,
    receiver_actions_scratch: Vec<ReceiverAction>,
    /// AP-side draws (DHCP server delays), in event order — shared
    /// infrastructure, deliberately *not* per client.
    rng_ap: Rng,
    /// The `(client, iface)` each connection id was minted for, indexed by
    /// id − 1; the next id is one past the end.
    conn_owners: Vec<(usize, usize)>,
    tcp_rtos: u64,
    air_drops: u64,
}

impl World {
    fn new(cfg: WorldConfig) -> (World, EventQueue<Event>) {
        if let Err(e) = cfg.validate() {
            // simlint: allow(panic-path) — documented contract of `run` (see its # Panics): configs are built by in-process code, and callers that take them from elsewhere check `validate` first
            panic!("{e}");
        }
        let mut master = Rng::new(cfg.seed);
        let rng_phy = master.fork(1);
        let rng_ap = master.fork(2);
        let rng_radio = master.fork(3);
        let mut rng_misc = master.fork(4);

        let mut queue = EventQueue::new();
        let aps: Vec<ApNode> = cfg
            .sites
            .iter()
            .map(|site| ApNode::new(site, cfg.backhaul_latency, &mut queue))
            .collect();
        let bssids = MacIntern::build(aps.iter().map(|a| a.mac.bssid()));
        let air_sites = aps
            .iter()
            .map(|node| AirSite::new(node, &cfg.phy, &bssids))
            .collect();
        let medium_lanes = std::array::from_fn(|_| queue.add_named_lane());

        let initial_channel = match &cfg.spider.schedule {
            SchedulePolicy::SingleChannel(c) => *c,
            SchedulePolicy::MultiChannel { slices } => slices[0].0,
            SchedulePolicy::ScanWhenIdle { .. } | SchedulePolicy::AdaptiveChannel { .. } => {
                Channel::CH1
            }
        };
        let n_clients = 1 + cfg.fleet.len();

        for delay in lane_delays(&cfg, &aps) {
            queue.add_lane(delay);
        }
        // Stagger beacons so the channel isn't beacon-synchronized. These
        // draws come from `rng_misc` *before* client 0 takes ownership of
        // the stream, so they do not depend on the fleet.
        for ap in 0..aps.len() {
            let offset = Duration::from_micros(rng_misc.range_u64(0, 102_400));
            queue.push(Instant::ZERO + offset, AirEvent::BeaconTick { ap }.into());
        }
        // De-aligned from slice boundaries so periodic evaluation never
        // lands at the instant the radio is about to leave the channel.
        for c in 0..n_clients {
            queue.push(
                Instant::from_millis(50),
                JoinEvent::Evaluate { client: c }.into(),
            );
        }
        queue.push(Instant::ZERO + MAINTENANCE_PERIOD, Event::Maintenance);
        if matches!(cfg.spider.schedule, SchedulePolicy::MultiChannel { .. }) {
            for c in 0..n_clients {
                queue.push(
                    Instant::ZERO,
                    ChannelEvent::Slice { client: c, idx: 0 }.into(),
                );
            }
        }
        if let SchedulePolicy::AdaptiveChannel { reconsider, .. } = &cfg.spider.schedule {
            for c in 0..n_clients {
                let event = ChannelEvent::Reconsider { client: c };
                queue.push(Instant::ZERO + *reconsider, event.into());
            }
        }

        // Cell edge 200 m: a hearing disc (400 m) touches at most a 5×5
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
                radio: Radio::new(cfg.radio.clone(), initial_channel),
                ifaces: (0..cfg.spider.max_ifaces)
                    .map(|i| Iface::new(station_addr(c, i)))
                    .collect(),
                scan: vec![None; aps.len()],
                heard: RankedSet::new(bssids.ranks()),
                history: ApHistory::new(),
                tx_queues: std::array::from_fn(|_| Vec::new()),
                tx_spare: Vec::new(),
                anchor: Anchor {
                    at: Instant::ZERO,
                    pos: motion.position(Instant::ZERO),
                    max_speed: motion.max_speed(),
                },
                motion,
                pos_cache: Cell::new(None),
                budget_cache: Cell::new([None; 2]),
                link_memo: Cell::new(None),
                rng_phy: phy,
                rng_radio: radio,
                rng_misc: misc,
                scan_channel_idx: 0,
                dhcp_idle_until: Instant::ZERO,
                cell_occupancy: 1,
                counters: ClientCounters::default(),
                peak_inrange_aps: 0,
            };
        let mut clients = Vec::with_capacity(n_clients);
        // Client 0 takes the master's first streams, `rng_misc` already
        // advanced past the beacon-stagger draws.
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
        let world = World {
            cfg,
            aps,
            air_sites,
            bssids,
            clients,
            grid,
            mover_cells,
            metrics: Metrics::new(),
            medium: [Instant::ZERO; Channel::COUNT],
            medium_lanes,
            audience_spare: Vec::new(),
            ap_actions_scratch: Vec::new(),
            sender_actions_scratch: Vec::new(),
            receiver_actions_scratch: Vec::new(),
            rng_ap,
            conn_owners: Vec::new(),
            tcp_rtos: 0,
            air_drops: 0,
        };
        (world, queue)
    }

    fn result(mut self) -> RunResult {
        let d = self.cfg.duration;
        self.metrics.record_concurrency(Instant::ZERO + d, 0);
        let backhaul_drops: u64 = self
            .aps
            .iter()
            .map(|a| a.downlink.link.drops() + a.uplink.link.drops())
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

/// The delays the world's fixed-period timers re-arm themselves after,
/// each of which gets a FIFO lane in the event queue (see
/// `sim_engine::queue`): the AP beacon intervals, the out-of-earshot
/// beacon re-poll, housekeeping, driver evaluation, multi-channel slices
/// and adaptive reconsideration.
fn lane_delays(cfg: &WorldConfig, aps: &[ApNode]) -> Vec<Duration> {
    let schedule = match &cfg.spider.schedule {
        SchedulePolicy::MultiChannel { slices } => slices.iter().map(|s| s.1).collect(),
        SchedulePolicy::AdaptiveChannel { reconsider, .. } => vec![*reconsider],
        SchedulePolicy::SingleChannel(_) | SchedulePolicy::ScanWhenIdle { .. } => Vec::new(),
    };
    aps.iter()
        .map(|ap| ap.mac.config().beacon_interval)
        .chain([BEACON_REPOLL, MAINTENANCE_PERIOD, cfg.spider.evaluate_every])
        .chain(schedule)
        .collect()
}

impl Handler<Event> for World {
    fn handle(&mut self, now: Instant, event: Event, queue: &mut EventQueue<Event>) {
        let sched = &mut Sched { now, queue };
        match event {
            Event::Air(event) => self.handle_air(event, sched),
            Event::Ap(event) => self.handle_ap(event, sched),
            Event::Join(event) => self.handle_join(event, sched),
            Event::Channel(event) => self.handle_channel(event, sched),
            Event::Maintenance => self.maintenance(sched),
        }
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
    /// High-water mark of APs inside any client's hearing disc,
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
