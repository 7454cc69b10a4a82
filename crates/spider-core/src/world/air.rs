//! The air: the per-channel medium every client and AP shares, the link
//! budget, frame delivery in both directions, AP beacons, and Spider's
//! per-channel transmit queues.

use mobility::geometry::Point;
use sim_engine::time::{Duration, Instant};
use wifi_mac::addr::MacAddr;
use wifi_mac::channel::Channel;
use wifi_mac::frame::{Frame, FrameBody};

use crate::packet::Packet;
use crate::selection::Candidate;

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
    /// One broadcast transmission from AP `ap` reaches the antennas of
    /// `audience`, in ascending client order.
    Broadcast {
        audience: Vec<usize>,
        ap: usize,
        frame: Frame<Packet>,
    },
    /// A frame from a client reaches AP `ap`.
    ToAp { ap: usize, frame: Frame<Packet> },
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
            AirEvent::Broadcast {
                audience,
                ap,
                frame,
            } => {
                for client in audience {
                    self.on_air_to_client(client, ap, &frame, sched);
                }
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
            .distance(self.aps[ap].site.position)
    }

    /// Whether `client` is within `HEARING_RADIUS_M` of AP `ap`.
    fn in_earshot(&self, client: usize, ap: usize, now: Instant) -> bool {
        self.distance_to(client, ap, now) <= HEARING_RADIUS_M
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
        let e = phy.frame_error_prob(dist, len);
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

    /// The client owning a station address, via binary search over the
    /// sorted station map.
    fn station_owner(&self, addr: MacAddr) -> Option<usize> {
        let i = self
            .stations
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()?;
        Some(self.stations[i].1)
    }

    /// Seize the channel medium for `airtime`; returns the arrival instant.
    fn seize_medium(&mut self, channel: Channel, now: Instant, airtime: Duration) -> Instant {
        let free = &mut self.medium[channel.index()];
        let start = now.max(*free);
        let arrival = start + airtime;
        *free = arrival;
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
        let channel = self.aps[ap].site.channel;
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
    /// time). Unicast frames are routed to the station's owning client;
    /// broadcast frames reach every client. Either way it is one
    /// transmission on the air: one shared-medium seize and one queued
    /// event. Whether a client *hears* it is decided at arrival.
    pub(super) fn ap_send(
        &mut self,
        ap: usize,
        frame: Frame<Packet>,
        extra_delay: Duration,
        sched: &mut Sched,
    ) {
        let now = sched.now;
        let channel = self.aps[ap].site.channel;
        let is_data = matches!(frame.body, FrameBody::Data(_));
        let target = if frame.addr1.is_broadcast() {
            None
        } else {
            // Not one of our stations: nobody can receive it.
            let Some(client) = self.station_owner(frame.addr1) else {
                return;
            };
            Some(client)
        };
        if is_data && self.medium[channel.index()].saturating_since(now) > AIR_QUEUE_BOUND {
            self.air_drops += 1;
            return;
        }
        let airtime = if is_data {
            // Data frames are always unicast; rate/retry adapt to the
            // owning client's distance.
            let client = target.unwrap_or(0);
            self.link_budget(client, self.distance_to(client, ap, now), &frame)
                .0
        } else {
            self.cfg.phy.airtime(frame.wire_len())
        };
        let arrival = self.seize_medium(channel, now + extra_delay, airtime);
        let event = match target {
            Some(client) => AirEvent::ToClient { client, ap, frame },
            None => AirEvent::Broadcast {
                audience: (0..self.clients.len()).collect(),
                ap,
                frame,
            },
        };
        sched.at(arrival, event);
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
        let (_, delivery) = self.link_budget(client, dist, frame);
        if !self.clients[client].rng_phy.chance(delivery) {
            return;
        }
        // Opportunistic scanning: every beacon/probe-response refreshes the
        // candidate table. `addr2` is always an interned AP bssid here; the
        // lookup maps it to its dense slot.
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
        self.iface_receive(client, ap, frame, sched);
    }

    fn beacon_tick(&mut self, ap: usize, sched: &mut Sched) {
        let now = sched.now;
        let interval = self.aps[ap].mac.config().beacon_interval;
        // Every client within earshot hears one transmission: one medium
        // seize, one airtime charge, one queued event for the audience.
        if !(0..self.clients.len()).any(|c| self.in_earshot(c, ap, now)) {
            // Out of everyone's earshot: check back lazily instead of
            // spamming events.
            sched.after(BEACON_REPOLL, AirEvent::BeaconTick { ap });
            return;
        }
        let channel = self.aps[ap].site.channel;
        let airtime = self.cfg.phy.airtime(self.aps[ap].mac.beacon_len());
        let arrival = self.seize_medium(channel, now, airtime);
        // The beacon is on the air either way; only a listener that may
        // hear it at arrival needs the event. Dropping the others changes
        // nothing: `Radio::may_hear` false means the radio cannot hear the
        // channel at arrival whatever switches happen before then, and a
        // deaf receiver of a non-Data frame returns from
        // `on_air_to_client` before any RNG draw or state change. An empty
        // audience allocates nothing.
        let audience: Vec<usize> = (0..self.clients.len())
            .filter(|&c| self.clients[c].radio.may_hear(channel, now, arrival))
            .filter(|&c| self.in_earshot(c, ap, now))
            .collect();
        if audience.is_empty() {
            self.aps[ap].mac.skip_beacon();
        } else {
            let frame = self.aps[ap].mac.beacon(now);
            let event = AirEvent::Broadcast {
                audience,
                ap,
                frame,
            };
            sched.at(arrival, event);
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
