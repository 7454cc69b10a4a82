//! The air: the per-channel medium every client and AP shares, the link
//! budget, frame delivery in both directions, AP beacons, and Spider's
//! per-channel transmit queues.
//!
//! A beacon is never built as a frame. It is a medium seize, one
//! sequence number of its AP, and one reception per listener
//! (`hear_beacon`): the only effect of a heard beacon is a scan-table
//! entry, so nothing else of the frame is needed.

use mobility::geometry::Point;
use sim_engine::time::{Duration, Instant};
use wifi_mac::channel::Channel;
use wifi_mac::frame::{Frame, FrameBody};
use wifi_mac::phy::{LinkQuality, PhyConfig};

use crate::fleet::station_owner;
use crate::intern::MacIntern;
use crate::packet::Packet;
use crate::selection::Candidate;

use super::ap::ApNode;
use super::{Sched, World, HEARING_RADIUS_M};

/// Events of the air layer.
#[derive(Debug)]
pub(super) enum AirEvent {
    /// An AP's periodic beacon timer.
    BeaconTick { ap: usize },
    /// A unicast frame from AP `ap` reaches client `client`'s antenna.
    ToClient {
        client: usize,
        ap: usize,
        frame: Frame<Packet>,
    },
    /// One beacon from AP `ap` reaches the antennas of `audience`, in
    /// ascending client order.
    Broadcast { audience: Vec<usize>, ap: usize },
    /// A frame from a client reaches AP `ap`.
    ToAp { ap: usize, frame: Frame<Packet> },
}

/// What the air needs of an AP: where it is, its channel, and its
/// beacon's period, airtime, length and scan slot, fixed when the world
/// is built. Kept apart from the rest of [`ApNode`] so that the beacon
/// ticks of a 1024-AP world read one compact array.
pub(super) struct AirSite {
    position: Point,
    channel: Channel,
    beacon_interval: Duration,
    beacon_len: usize,
    /// The airtime of `beacon_len` bytes.
    beacon_airtime: Duration,
    /// The AP's slot in each client's scan table: its BSSID's interned
    /// slot. A duplicated BSSID interns to one slot, the highest index of
    /// the APs that share it, so this need not be the AP's own index.
    scan_slot: Option<usize>,
}

impl AirSite {
    pub(super) fn new(node: &ApNode, phy: &PhyConfig, bssids: &MacIntern) -> AirSite {
        let beacon_len = node.mac.beacon_len();
        AirSite {
            position: node.site.position,
            channel: node.site.channel,
            beacon_interval: node.mac.config().beacon_interval,
            beacon_len,
            beacon_airtime: phy.airtime(beacon_len),
            scan_slot: bssids.get(node.mac.bssid()),
        }
    }
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
/// How long an AP out of every client's earshot waits before it checks
/// for listeners again, instead of beaconing into the void.
pub(super) const BEACON_REPOLL: Duration = Duration::from_secs(2);

impl World {
    pub(super) fn handle_air(&mut self, event: AirEvent, sched: &mut Sched) {
        let now = sched.now;
        match event {
            AirEvent::BeaconTick { ap } => self.beacon_tick(ap, sched),
            AirEvent::ToClient { client, ap, frame } => {
                self.on_air_to_client(client, ap, &frame, sched)
            }
            AirEvent::Broadcast { mut audience, ap } => {
                for &client in &audience {
                    self.hear_beacon(client, ap, now);
                }
                audience.clear();
                self.audience_spare.push(audience);
            }
            AirEvent::ToAp { ap, frame } => self.with_ap_actions(ap, sched, |mac, rng, out| {
                mac.on_frame_into(&frame, now, rng, out)
            }),
        }
    }

    pub(super) fn client_pos(&self, client: usize, now: Instant) -> Point {
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

    fn distance_to(&self, client: usize, ap: usize, now: Instant) -> f64 {
        self.client_pos(client, now)
            .distance(self.air_sites[ap].position)
    }

    /// Whether `client` is within `HEARING_RADIUS_M` of AP `ap`. The
    /// client's anchor decides it from the last upkeep's position and the
    /// client's top speed (see [`mobility::route::Anchor`]); only an AP
    /// in the band the bound leaves open costs the exact position.
    fn in_earshot(&self, client: usize, ap: usize, now: Instant) -> bool {
        let site = self.air_sites[ap].position;
        match self.clients[client]
            .anchor
            .within(now, site, HEARING_RADIUS_M)
        {
            Some(inside) => inside,
            None => self.distance_to(client, ap, now) <= HEARING_RADIUS_M,
        }
    }

    /// The link quality at `dist`, memoized on the exact input bits: the
    /// frames and beacons a client exchanges at one instant share one
    /// distance, and so one evaluation of the PHY's `log10` and `exp`.
    fn link_quality(&self, client: usize, dist: f64) -> LinkQuality {
        let memo = &self.clients[client].link_memo;
        if let Some((d, link)) = memo.get() {
            if d == dist.to_bits() {
                return link;
            }
        }
        let link = self.cfg.phy.link_at(dist);
        memo.set(Some((dist.to_bits(), link)));
        link
    }

    /// The link budget of `frame` between `client` and an AP `dist`
    /// metres away: its airtime and its delivery probability. A data
    /// frame gets the 802.11 retry budget folded into an expected airtime
    /// and a residual loss; a management frame is single-shot. Memoized
    /// on the exact input bits of the two most recent keys (see the cache
    /// field's doc comment).
    fn link_budget(&self, client: usize, dist: f64, frame: &Frame<Packet>) -> (Duration, f64) {
        let len = frame.wire_len();
        let is_data = matches!(frame.body, FrameBody::Data(_));
        let key = (dist.to_bits(), len as u32, is_data);
        let cache = &self.clients[client].budget_cache;
        let [recent, older] = cache.get();
        match (recent, older) {
            (Some((k, budget)), _) if k == key => return budget,
            (_, Some((k, budget))) if k == key => {
                cache.set([older, recent]);
                return budget;
            }
            _ => {}
        }
        let phy = &self.cfg.phy;
        let e = phy.frame_error_from_per(self.link_quality(client, dist).per, len);
        let budget = if is_data {
            (
                phy.expected_data_airtime_from_error(e, len),
                phy.data_delivery_prob_from_error(e),
            )
        } else {
            (phy.airtime(len), 1.0 - e)
        };
        cache.set([Some((key, budget)), recent]);
        budget
    }

    /// The arrival instant of a frame of `airtime` that seizes `channel`'s
    /// medium at `now`: it starts when the medium is free.
    fn medium_arrival(&self, channel: Channel, now: Instant, airtime: Duration) -> Instant {
        now.max(self.medium[channel.index()]) + airtime
    }

    /// Seize the channel medium for `airtime`; returns the arrival instant.
    fn seize_medium(&mut self, channel: Channel, now: Instant, airtime: Duration) -> Instant {
        let arrival = self.medium_arrival(channel, now, airtime);
        self.medium[channel.index()] = arrival;
        arrival
    }

    /// Client `client` transmits `frame` toward AP `ap`. If its radio is
    /// on another channel (or mid-switch), the frame goes into that
    /// channel's transmit queue — Spider keeps "one packet queue per
    /// channel that is swapped in and out of the driver" (§3) — and
    /// flushes when the radio arrives.
    pub(super) fn client_send(
        &mut self,
        client: usize,
        ap: usize,
        frame: Frame<Packet>,
        sched: &mut Sched,
    ) {
        let now = sched.now;
        let channel = self.air_sites[ap].channel;
        if !self.clients[client].radio.can_hear(channel, now) {
            let q = &mut self.clients[client].tx_queues[channel.index()];
            if q.len() < TX_QUEUE_CAP {
                q.push((now, ap, frame));
            }
            return;
        }
        let dist = self.distance_to(client, ap, now);
        let (airtime, delivery) = self.link_budget(client, dist, &frame);
        // Uplink frames contend per-frame: the client wins the medium
        // within a couple of frame airtimes even when the AP has a deep
        // committed backlog (a FIFO pipe would wrongly park the client's
        // PSM announcements behind the AP's entire queue). The bound
        // scales with the client's cell occupancy: every co-located fleet
        // member is another station the backoff must share the air with
        // (the `n` of `analytical::cell`). Alone in its cell, a client
        // waits at most 3 ms.
        let occupancy = self.clients[client].cell_occupancy.max(1) as u64;
        let free = &mut self.medium[channel.index()];
        let contention = free
            .saturating_since(now)
            .min(Duration::from_millis(3) * occupancy);
        let arrival = now + contention + airtime;
        // The frame still consumes channel capacity.
        *free = (*free).max(now) + airtime;
        if self.clients[client].rng_phy.chance(delivery) {
            sched.at(arrival, AirEvent::ToAp { ap, frame });
        }
    }

    /// AP transmits `frame` after `extra_delay` (management processing
    /// time): one shared-medium seize and one queued event for the
    /// station's owning client, who decides at arrival whether it *hears*
    /// it. Every frame an AP action carries is unicast; the beacon, the
    /// only broadcast, is sent by `beacon_tick`. The arrival rides its
    /// channel's medium lane: `seize_medium` returns strictly increasing
    /// instants per channel.
    pub(super) fn ap_send(
        &mut self,
        ap: usize,
        frame: Frame<Packet>,
        extra_delay: Duration,
        sched: &mut Sched,
    ) {
        let now = sched.now;
        let channel = self.air_sites[ap].channel;
        let is_data = matches!(frame.body, FrameBody::Data(_));
        // Not one of our stations: nobody can receive it.
        let n_clients = self.clients.len();
        let Some(client) = station_owner(frame.addr1, n_clients, self.cfg.spider.max_ifaces) else {
            return;
        };
        if is_data && self.medium[channel.index()].saturating_since(now) > AIR_QUEUE_BOUND {
            self.air_drops += 1;
            return;
        }
        let airtime = if is_data {
            // Rate/retry adapt to the owning client's distance.
            self.link_budget(client, self.distance_to(client, ap, now), &frame)
                .0
        } else {
            self.cfg.phy.airtime(frame.wire_len())
        };
        let arrival = self.seize_medium(channel, now + extra_delay, airtime);
        let event = AirEvent::ToClient { client, ap, frame };
        let lane = self.medium_lanes[channel.index()];
        sched.queue.push_on(lane, arrival, event.into());
    }

    /// A frame arrived at a client's antenna: deliverable only if that
    /// radio is tuned to the AP's channel and the PHY draw succeeds.
    fn on_air_to_client(
        &mut self,
        client: usize,
        ap: usize,
        frame: &Frame<Packet>,
        sched: &mut Sched,
    ) {
        let now = sched.now;
        let channel = self.air_sites[ap].channel;
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
        let (_, delivery) = self.link_budget(client, dist, frame);
        if !self.clients[client].rng_phy.chance(delivery) {
            return;
        }
        // Opportunistic scanning: a probe response refreshes the
        // candidate table as a beacon does (see `hear_beacon`).
        if let FrameBody::ProbeResp(_) = &frame.body {
            let rssi = self.link_quality(client, dist).rssi_dbm;
            self.record_scan(client, ap, rssi, now);
        }
        self.iface_receive(client, ap, frame, sched);
    }

    /// A beacon from AP `ap` reaches `client`'s antenna at `now`: heard
    /// only if the radio is tuned to the AP's channel and the PHY draw
    /// succeeds, and then it refreshes the client's scan entry for the
    /// AP. The client's join FSM answers a beacon with no action, so that
    /// is all it does.
    ///
    /// The order of a beacon's audience cannot matter: a reception
    /// touches only its listener's own state (its radio, position and
    /// link memos, PHY RNG stream, scan table and heard set), and it
    /// queues nothing, so no sequence number is drawn.
    fn hear_beacon(&mut self, client: usize, ap: usize, now: Instant) {
        let site = &self.air_sites[ap];
        if !self.clients[client].radio.can_hear(site.channel, now) {
            return;
        }
        let dist = self.distance_to(client, ap, now);
        let link = self.link_quality(client, dist);
        let e = self.cfg.phy.frame_error_from_per(link.per, site.beacon_len);
        if self.clients[client].rng_phy.chance(1.0 - e) {
            self.record_scan(client, ap, link.rssi_dbm, now);
        }
    }

    /// Record that `client` heard AP `ap` at `rssi_dbm` just now.
    fn record_scan(&mut self, client: usize, ap: usize, rssi_dbm: f64, now: Instant) {
        let site = &self.air_sites[ap];
        let Some(slot) = site.scan_slot else {
            return;
        };
        let client = &mut self.clients[client];
        client.scan[slot] = Some(Candidate {
            bssid: self.aps[ap].mac.bssid(),
            channel: site.channel,
            rssi_dbm,
            last_heard: now,
        });
        client.heard.insert(slot);
    }

    fn beacon_tick(&mut self, ap: usize, sched: &mut Sched) {
        let now = sched.now;
        let site = &self.air_sites[ap];
        let (channel, interval) = (site.channel, site.beacon_interval);
        // Every client within earshot hears one transmission: one medium
        // seize, one airtime charge, one queued event for the audience.
        // The beacon is on the air whoever listens; only a listener that
        // may hear it at arrival needs the event. Leaving the others out
        // changes nothing: `Radio::may_hear` false means the radio cannot
        // hear the channel at arrival whatever switches happen before
        // then, and `hear_beacon` returns for a deaf listener before any
        // RNG draw or state change.
        let arrival = self.medium_arrival(channel, now, site.beacon_airtime);
        let mut audience = self.audience_spare.pop().unwrap_or_default();
        let mut in_earshot = false;
        for c in 0..self.clients.len() {
            if self.in_earshot(c, ap, now) {
                in_earshot = true;
                if self.clients[c].radio.may_hear(channel, now, arrival) {
                    audience.push(c);
                }
            }
        }
        if !in_earshot {
            // Out of everyone's earshot: check back lazily instead of
            // spamming events.
            self.audience_spare.push(audience);
            sched.after(BEACON_REPOLL, AirEvent::BeaconTick { ap });
            return;
        }
        self.medium[channel.index()] = arrival;
        self.aps[ap].mac.send_beacon();
        if audience.is_empty() {
            self.audience_spare.push(audience);
        } else {
            let event = AirEvent::Broadcast { audience, ap };
            let lane = self.medium_lanes[channel.index()];
            sched.queue.push_on(lane, arrival, event.into());
        }
        sched.after(interval, AirEvent::BeaconTick { ap });
    }

    /// Swap in `channel`'s transmit queue: flush the frames that waited
    /// out the off-channel period, dropping protocol-stale ones. The
    /// queue's buffer is swapped against the spare and handed back after
    /// the drain, so steady-state switches reuse the same allocations.
    pub(super) fn flush_tx_queue(&mut self, client: usize, channel: Channel, sched: &mut Sched) {
        let node = &mut self.clients[client];
        let mut pending = std::mem::replace(
            &mut node.tx_queues[channel.index()],
            std::mem::take(&mut node.tx_spare),
        );
        for (queued_at, ap, frame) in pending.drain(..) {
            if sched.now.saturating_since(queued_at) <= TX_QUEUE_TTL {
                self.client_send(client, ap, frame, sched);
            }
        }
        self.clients[client].tx_spare = pending;
    }
}
