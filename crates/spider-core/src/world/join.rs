//! Joining: each client's virtual interfaces, the glue between them and
//! the MAC join FSM, the DHCP client and the TCP receiver, and the
//! driver's periodic evaluation that picks APs to join.

use dhcp::client::{DhcpAction, DhcpClient, Lease};
use sim_engine::queue::EventId;
use sim_engine::time::{Duration, Instant};
use tcp_lite::connection::{BulkReceiver, ReceiverAction};
use tcp_lite::segment::Segment;
use wifi_mac::addr::MacAddr;
use wifi_mac::client::{Action as MacAction, ClientMac, JoinConfig};
use wifi_mac::frame::{Frame, FrameBody};

use crate::config::SchedulePolicy;
use crate::packet::Packet;
use crate::selection::{select_aps, Candidate};

use super::{Sched, World};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum IfaceState {
    Idle,
    Associating,
    Acquiring,
    Connected,
}

/// One virtual interface of a client.
pub(super) struct Iface {
    pub(super) addr: MacAddr,
    pub(super) state: IfaceState,
    /// The interface's one queued timer event and what it does when it
    /// fires. A re-arm moves the event and replaces what it does, and
    /// re-purposing the interface cancels it, so only the current arm
    /// ever fires.
    timer: Option<(EventId, IfaceTimer)>,
    mac: Option<ClientMac>,
    dhcp: Option<DhcpClient>,
    pub(super) receiver: Option<BulkReceiver>,
    pub(super) ap: Option<usize>,
    pub(super) conn: Option<u64>,
    join_started: Option<Instant>,
}

impl Iface {
    pub(super) fn new(addr: MacAddr) -> Iface {
        Iface {
            addr,
            state: IfaceState::Idle,
            timer: None,
            mac: None,
            dhcp: None,
            receiver: None,
            ap: None,
            conn: None,
            join_started: None,
        }
    }

    /// Back to Idle, keeping only the address; the queued timer is
    /// cancelled.
    fn reset(&mut self, sched: &mut Sched) {
        self.cancel_timer(sched);
        *self = Iface::new(self.addr);
    }

    fn cancel_timer(&mut self, sched: &mut Sched) {
        if let Some((id, _)) = self.timer.take() {
            sched.queue.cancel(id);
        }
    }
}

/// What an interface timer does when it fires.
pub(super) enum IfaceTimer {
    /// The link-layer join FSM's response timer.
    Mac,
    /// The DHCP client's retransmit timer.
    Dhcp,
    /// A segmented download's think time elapsed: open the next object
    /// from AP `ap`.
    NextObject { ap: usize },
    /// The stock path's scan/supplicant setup elapsed: begin the
    /// reserved join to AP `ap`.
    BeginJoin { ap: usize },
}

/// Events of the join layer.
#[derive(Debug)]
pub(super) enum JoinEvent {
    /// The one queued timer of interface `iface`; what it does is kept
    /// with its handle (see `Iface::timer`).
    IfaceTimer { client: usize, iface: usize },
    /// Periodic driver evaluation: teardown dead links, start joins.
    Evaluate { client: usize },
}

impl World {
    pub(super) fn handle_join(&mut self, event: JoinEvent, sched: &mut Sched) {
        let now = sched.now;
        let (client, iface) = match event {
            JoinEvent::Evaluate { client } => return self.evaluate(client, sched),
            JoinEvent::IfaceTimer { client, iface } => (client, iface),
        };
        let slot = &mut self.clients[client].ifaces[iface];
        // The event has fired: the next arm queues a fresh one.
        let Some((_, timer)) = slot.timer.take() else {
            return;
        };
        match timer {
            IfaceTimer::Mac => {
                if let Some(mac) = slot.mac.as_mut() {
                    let actions = mac.handle_timer();
                    self.process_mac_actions(client, iface, actions, sched);
                }
            }
            IfaceTimer::Dhcp => {
                if let Some(dhcp) = slot.dhcp.as_mut() {
                    let actions = dhcp.handle_timer(now);
                    self.process_dhcp_actions(client, iface, actions, sched);
                }
            }
            IfaceTimer::NextObject { ap } => {
                if slot.state == IfaceState::Connected {
                    self.open_connection(client, iface, ap, sched);
                }
            }
            IfaceTimer::BeginJoin { ap } => {
                // The candidate must still be around after the setup delay.
                let bssid = self.aps[ap].mac.bssid();
                let fresh = self
                    .candidate_for(client, bssid)
                    .is_some_and(|c| now.saturating_since(c.last_heard) <= Duration::from_secs(3));
                if fresh {
                    self.start_join(client, iface, ap, sched);
                } else {
                    self.teardown_iface(client, iface, sched);
                }
            }
        }
    }

    /// Arm `timer` to fire `after` from now for interface `iface`,
    /// replacing its queued timer if it has one.
    pub(super) fn arm_iface_timer(
        &mut self,
        client: usize,
        iface: usize,
        after: Duration,
        timer: IfaceTimer,
        sched: &mut Sched,
    ) {
        let slot = &mut self.clients[client].ifaces[iface];
        let queued = slot.timer.as_ref().map(|&(id, _)| id);
        let id = sched.rearm(queued, after, JoinEvent::IfaceTimer { client, iface });
        slot.timer = Some((id, timer));
    }

    /// A client's scan-table entry for `bssid`, if it has heard that AP.
    fn candidate_for(&self, client: usize, bssid: MacAddr) -> Option<&Candidate> {
        self.bssids
            .get(bssid)
            .and_then(|id| self.clients[client].scan[id].as_ref())
    }

    /// Send `packet` from interface `iface` to its AP as an uplink data
    /// frame.
    fn send_uplink(&mut self, client: usize, iface: usize, packet: Packet, sched: &mut Sched) {
        let slot = &self.clients[client].ifaces[iface];
        let (Some(ap), station) = (slot.ap, slot.addr) else {
            return;
        };
        let frame = Frame::data_to_ap(station, self.aps[ap].mac.bssid(), packet);
        self.client_send(client, ap, frame, sched);
    }

    /// A frame from AP `ap` reached client `client`: hand it to the
    /// interface talking to that AP, if the frame is addressed to it.
    pub(super) fn iface_receive(
        &mut self,
        client: usize,
        ap: usize,
        frame: &Frame<Packet>,
        sched: &mut Sched,
    ) {
        let ifaces = &mut self.clients[client].ifaces;
        let Some(iface) = ifaces
            .iter()
            .position(|i| i.ap == Some(ap) && i.state != IfaceState::Idle)
        else {
            return;
        };
        let slot = &mut ifaces[iface];
        if frame.addr1 != slot.addr && !frame.addr1.is_broadcast() {
            return;
        }
        let FrameBody::Data(packet) = &frame.body else {
            if let Some(mac) = slot.mac.as_mut() {
                let actions = mac.handle_frame(frame);
                self.process_mac_actions(client, iface, actions, sched);
            }
            return;
        };
        match packet {
            Packet::Dhcp(msg) => {
                if let Some(dhcp) = slot.dhcp.as_mut() {
                    let actions = dhcp.handle_message(msg, sched.now);
                    self.process_dhcp_actions(client, iface, actions, sched);
                }
            }
            Packet::Tcp(seg) => self.on_client_segment(client, iface, seg, sched),
        }
    }

    fn process_mac_actions(
        &mut self,
        client: usize,
        iface: usize,
        actions: Vec<MacAction<Packet>>,
        sched: &mut Sched,
    ) {
        for action in actions {
            match action {
                MacAction::Send(frame) => {
                    if let Some(ap) = self.clients[client].ifaces[iface].ap {
                        self.client_send(client, ap, frame, sched);
                    }
                }
                MacAction::ArmTimer { after } => {
                    self.arm_iface_timer(client, iface, after, IfaceTimer::Mac, sched)
                }
                MacAction::Joined { .. } => self.on_associated(client, iface, sched),
                MacAction::Failed(_) => {
                    self.metrics.assoc_failures += 1;
                    self.join_failed(client, iface, sched);
                }
            }
        }
    }

    fn on_associated(&mut self, client: usize, iface: usize, sched: &mut Sched) {
        let now = sched.now;
        let node = &mut self.clients[client];
        let started = node.ifaces[iface]
            .join_started
            // simlint: allow(panic-path) — join FSM invariant: an Associating iface always has join_started; silent recovery would corrupt join-time metrics
            .expect("associated without a join start");
        self.metrics
            .assoc_times
            .record_duration(now.saturating_since(started));
        node.ifaces[iface].state = IfaceState::Acquiring;
        self.update_concurrency(now);
        // Kick off DHCP.
        let node = &mut self.clients[client];
        let addr = node.ifaces[iface].addr;
        let ap = node.ifaces[iface]
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
        node.ifaces[iface].dhcp = Some(dhcp);
        self.process_dhcp_actions(client, iface, actions, sched);
    }

    fn process_dhcp_actions(
        &mut self,
        client: usize,
        iface: usize,
        actions: Vec<DhcpAction>,
        sched: &mut Sched,
    ) {
        let now = sched.now;
        for action in actions {
            match action {
                DhcpAction::Send(msg) => self.send_uplink(client, iface, Packet::Dhcp(msg), sched),
                DhcpAction::ArmTimer { after } => {
                    self.arm_iface_timer(client, iface, after, IfaceTimer::Dhcp, sched)
                }
                DhcpAction::Bound(lease) => self.on_bound(client, iface, lease, sched),
                DhcpAction::Failed => {
                    self.metrics.dhcp_failures += 1;
                    let node = &mut self.clients[client];
                    node.dhcp_idle_until = node
                        .dhcp_idle_until
                        .max(now + self.cfg.spider.dhcp.idle_after_fail);
                    self.join_failed(client, iface, sched);
                }
            }
        }
    }

    /// A join failed at the MAC or DHCP stage: charge it to the AP's
    /// history and free the interface.
    fn join_failed(&mut self, client: usize, iface: usize, sched: &mut Sched) {
        let node = &mut self.clients[client];
        if let Some(ap) = node.ifaces[iface].ap {
            node.history
                .record_failure(self.aps[ap].mac.bssid(), sched.now);
        }
        self.teardown_iface(client, iface, sched);
    }

    fn on_bound(&mut self, client: usize, iface: usize, lease: Lease, sched: &mut Sched) {
        let now = sched.now;
        let node = &mut self.clients[client];
        let started = node.ifaces[iface]
            .join_started
            // simlint: allow(panic-path) — join FSM invariant: a Bound iface always has join_started; silent recovery would corrupt join-time metrics
            .expect("bound without a join start");
        let join_time = now.saturating_since(started);
        self.metrics.join_times.record_duration(join_time);
        // simlint: allow(panic-path) — join FSM invariant: a Bound iface always has a target AP; a hole here is a driver bug that must be loud
        let ap = node.ifaces[iface].ap.expect("bound without an AP");
        let bssid = self.aps[ap].mac.bssid();
        node.history.record_success(bssid, join_time);
        node.history.store_lease(bssid, lease);
        node.ifaces[iface].state = IfaceState::Connected;
        node.counters.joins += 1;
        self.update_concurrency(now);
        self.open_connection(client, iface, ap, sched);
    }

    /// Fleet-wide concurrent-association count (the §4.4 metric).
    fn update_concurrency(&mut self, now: Instant) {
        let connected = self
            .clients
            .iter()
            .flat_map(|c| c.ifaces.iter())
            .filter(|i| i.state == IfaceState::Connected)
            .count();
        self.metrics.record_concurrency(now, connected);
    }

    pub(super) fn teardown_iface(&mut self, client: usize, iface: usize, sched: &mut Sched) {
        let slot = &mut self.clients[client].ifaces[iface];
        if let (Some(ap), Some(conn)) = (slot.ap, slot.conn) {
            self.aps[ap].remove_sender(conn, sched);
        }
        self.clients[client].ifaces[iface].reset(sched);
        self.update_concurrency(sched.now);
    }

    fn on_client_segment(&mut self, client: usize, iface: usize, seg: &Segment, sched: &mut Sched) {
        let now = sched.now;
        let Some(receiver) = self.clients[client].ifaces[iface].receiver.as_mut() else {
            return;
        };
        let mut actions = std::mem::take(&mut self.receiver_actions_scratch);
        receiver.on_segment_into(seg, now, &mut actions);
        for action in actions.drain(..) {
            match action {
                ReceiverAction::Transmit(ack) => {
                    self.send_uplink(client, iface, Packet::Tcp(ack), sched)
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
    fn evaluate(&mut self, client: usize, sched: &mut Sched) {
        let now = sched.now;
        let loss_timeout = self.cfg.spider.ap_loss_timeout;
        // 1. Teardown: APs unheard for too long (left range).
        for idx in 0..self.clients[client].ifaces.len() {
            let slot = &self.clients[client].ifaces[idx];
            let Some(ap) = slot.ap.filter(|_| slot.state != IfaceState::Idle) else {
                continue;
            };
            let bssid = self.aps[ap].mac.bssid();
            let heard_recently = self
                .candidate_for(client, bssid)
                .is_some_and(|c| now.saturating_since(c.last_heard) <= loss_timeout);
            if !heard_recently {
                self.teardown_iface(client, idx, sched);
            }
        }
        // 2. Start joins on the current channel.
        let started = self.try_start_joins(client, sched);
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
        sched.after(
            self.cfg.spider.evaluate_every,
            JoinEvent::Evaluate { client },
        );
    }

    /// Begin joins toward the best unjoined candidates on the client's
    /// current channel, within its interface budget. Returns how many
    /// started.
    pub(super) fn try_start_joins(&mut self, client: usize, sched: &mut Sched) -> usize {
        let now = sched.now;
        let node = &self.clients[client];
        let idle = node
            .ifaces
            .iter()
            .filter(|i| i.state == IfaceState::Idle)
            .count();
        let budget = if self.cfg.spider.single_ap {
            1usize.saturating_sub(node.ifaces.len() - idle)
        } else {
            idle
        };
        if budget == 0 || node.radio.is_busy(now) || now < node.dhcp_idle_until {
            return 0;
        }
        // The heard set iterates in MacAddr-rank order, and candidate
        // order feeds the tie-breaks in `select_aps`, so the order must
        // not depend on the process (simlint's `unordered-map` rule
        // rejects hash-keyed state). Walking only heard slots sees every
        // candidate `select_aps` can keep: it drops anything older than
        // its 2 s freshness window, and upkeep prunes the heard set only
        // after `HEARD_TTL` (5 s). Cost: O(heard), not O(APs).
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
                self.start_join(client, idx, ap, sched);
            } else {
                // Reserve the interface and defer the handshake by the
                // scan/supplicant setup time (the stock path).
                self.begin_associating(client, idx, ap, sched);
                let timer = IfaceTimer::BeginJoin { ap };
                self.arm_iface_timer(client, idx, setup, timer, sched);
            }
            started += 1;
        }
        started
    }

    /// Point interface `iface` at AP `ap`, start its join clock and
    /// cancel its queued timer.
    fn begin_associating(
        &mut self,
        client: usize,
        iface: usize,
        ap: usize,
        sched: &mut Sched,
    ) -> &mut Iface {
        let slot = &mut self.clients[client].ifaces[iface];
        slot.cancel_timer(sched);
        slot.state = IfaceState::Associating;
        slot.ap = Some(ap);
        slot.join_started = Some(sched.now);
        slot
    }

    fn start_join(&mut self, client: usize, iface: usize, ap: usize, sched: &mut Sched) {
        let now = sched.now;
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
        let station = self.clients[client].ifaces[iface].addr;
        let mut mac = ClientMac::new(station, bssid, ssid, join_cfg);
        self.metrics.assoc_attempts += 1;
        let actions = mac.start(now);
        self.begin_associating(client, iface, ap, sched).mac = Some(mac);
        self.process_mac_actions(client, iface, actions, sched);
    }
}
