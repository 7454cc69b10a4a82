//! Access-point MAC: the infrastructure side of the join and data paths.
//!
//! [`ApMac`] answers probes, authenticates and associates stations, and —
//! crucially for virtualized Wi-Fi — honours the **power-save mode** fiction
//! every multi-AP client relies on: when a station's last frame carried the
//! power-management bit, downlink traffic is buffered instead of
//! transmitted, and released when the station returns (null frame with the
//! bit clear).
//!
//! Management responses carry a small *processing delay* drawn per response;
//! the dominant component of the paper's `β` (join response time) is the
//! DHCP server, modelled separately in the `dhcp` crate.

use std::collections::{BTreeMap, VecDeque};

use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use sim_engine::wire::Bytes;

use crate::addr::MacAddr;
use crate::channel::Channel;
use crate::frame::{
    Frame, FrameBody, Payload, Ssid, REASON_INACTIVITY, STATUS_AP_FULL, STATUS_SUCCESS,
};

/// AP parameters.
#[derive(Debug, Clone)]
pub struct ApConfig {
    /// Network name.
    pub ssid: Ssid,
    /// BSSID (the AP's MAC address).
    pub bssid: MacAddr,
    /// Operating channel.
    pub channel: Channel,
    /// Maximum concurrent associations.
    pub capacity: usize,
    /// Management response processing delay, lower bound.
    pub proc_delay_min: Duration,
    /// Management response processing delay, upper bound (exclusive).
    pub proc_delay_max: Duration,
    /// PSM buffer capacity per station, frames. Overflow drops the newest
    /// frame (drop-tail), as consumer APs do. 2011-era consumer APs held
    /// on the order of 64 packets per power-save queue — the bound that
    /// makes long off-channel absences expensive for TCP (§2.2.2).
    pub psm_buffer_frames: usize,
    /// Power-save-buffered frames older than this are aged out instead of
    /// delivered. Consumer APs hold PS frames for only a couple of beacon
    /// intervals; this is what makes long off-channel absences lossy for
    /// TCP (and why fast FatVAP-style schedules survive where the paper's
    /// 600 ms multi-channel schedule suffers).
    pub psm_frame_max_age: Duration,
    /// Associations idle longer than this are expired (deauthenticated).
    pub idle_timeout: Duration,
    /// Beacon interval (the classic 100 TU ≈ 102.4 ms).
    pub beacon_interval: Duration,
}

impl ApConfig {
    /// A typical open AP with the given identity and channel.
    pub fn open(id: u32, ssid: &str, channel: Channel) -> ApConfig {
        ApConfig {
            ssid: Ssid::new(ssid),
            bssid: MacAddr::ap(id),
            channel,
            capacity: 32,
            proc_delay_min: Duration::from_millis(1),
            proc_delay_max: Duration::from_millis(5),
            psm_buffer_frames: 64,
            psm_frame_max_age: Duration::from_micros(256_000), // 2.5 beacons
            idle_timeout: Duration::from_secs(60),
            beacon_interval: Duration::from_micros(102_400),
        }
    }
}

/// Per-station association state.
#[derive(Debug, Clone)]
struct StationEntry<P> {
    aid: u16,
    /// Station announced power-save mode; buffer downlink frames.
    psm: bool,
    /// `(enqueued_at, payload)` pairs awaiting delivery.
    buffer: VecDeque<(Instant, P)>,
    /// Insertion point for rebuffered in-flight frames, so a run of them
    /// keeps its original order ahead of backhaul-buffered frames.
    rebuffer_cursor: usize,
    last_seen: Instant,
}

/// Output of the AP machine; `P` is the data payload (see [`Payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApAction<P = Bytes> {
    /// Transmit `frame` after `delay` (management processing time; zero for
    /// data-path frames).
    Send {
        /// Processing delay before the frame hits the air.
        delay: Duration,
        /// The frame to transmit.
        frame: Frame<P>,
    },
    /// An uplink payload from an associated station, for the backhaul.
    ToUplink {
        /// Originating station.
        from: MacAddr,
        /// The payload (an IP packet in this workspace).
        payload: P,
    },
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApCounters {
    /// Downlink frames buffered due to PSM.
    pub psm_buffered: u64,
    /// Downlink frames dropped on PSM buffer overflow.
    pub psm_dropped: u64,
    /// Downlink frames aged out of the PSM buffer before delivery.
    pub psm_expired: u64,
    /// Downlink frames dropped because the station was not associated.
    pub unassociated_drops: u64,
    /// Associations granted.
    pub assocs_granted: u64,
    /// Associations refused (capacity).
    pub assocs_refused: u64,
}

/// The access-point MAC state machine, buffering and forwarding data
/// payloads of type `P` (see [`Payload`]).
#[derive(Debug, Clone)]
pub struct ApMac<P = Bytes> {
    config: ApConfig,
    stations: BTreeMap<MacAddr, StationEntry<P>>,
    next_aid: u16,
    seq: u16,
    counters: ApCounters,
}

impl<P: Payload> ApMac<P> {
    /// A new AP with no associated stations.
    pub fn new(config: ApConfig) -> ApMac<P> {
        ApMac {
            config,
            stations: BTreeMap::new(),
            next_aid: 1,
            seq: 0,
            counters: ApCounters::default(),
        }
    }

    /// AP configuration.
    pub fn config(&self) -> &ApConfig {
        &self.config
    }

    /// The BSSID.
    pub fn bssid(&self) -> MacAddr {
        self.config.bssid
    }

    /// The operating channel.
    pub fn channel(&self) -> Channel {
        self.config.channel
    }

    /// Experiment counters.
    pub fn counters(&self) -> ApCounters {
        self.counters
    }

    /// Number of associated stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// True if `station` is associated.
    pub fn is_associated(&self, station: MacAddr) -> bool {
        self.stations.contains_key(&station)
    }

    /// Frames currently PSM-buffered for `station`.
    pub fn buffered_for(&self, station: MacAddr) -> usize {
        self.stations.get(&station).map_or(0, |s| s.buffer.len())
    }

    /// True if `station` is in power-save mode.
    pub fn in_psm(&self, station: MacAddr) -> bool {
        self.stations.get(&station).is_some_and(|s| s.psm)
    }

    fn next_seq(&mut self) -> u16 {
        self.seq = (self.seq + 1) & 0x0FFF;
        self.seq
    }

    fn proc_delay(&self, rng: &mut Rng) -> Duration {
        rng.duration_between(self.config.proc_delay_min, self.config.proc_delay_max)
    }

    fn send_mgmt(&mut self, mut frame: Frame<P>, rng: &mut Rng) -> ApAction<P> {
        frame.seq = self.next_seq();
        ApAction::Send {
            delay: self.proc_delay(rng),
            frame,
        }
    }

    fn send_data(&mut self, mut frame: Frame<P>) -> ApAction<P> {
        frame.seq = self.next_seq();
        ApAction::Send {
            delay: Duration::ZERO,
            frame,
        }
    }

    /// Put one beacon on the air: consume its sequence number. A beacon
    /// is never built as a frame; its listeners need only the AP's
    /// identity and channel, and its airtime only [`ApMac::beacon_len`].
    /// Callers send one every `config.beacon_interval`.
    pub fn send_beacon(&mut self) {
        self.next_seq();
    }

    /// The wire length of this AP's beacons.
    pub fn beacon_len(&self) -> usize {
        Frame::beacon_len(&self.config.ssid)
    }

    /// Process a received frame at `now`. Frames not addressed to this BSS
    /// produce no actions.
    pub fn on_frame(&mut self, frame: &Frame<P>, now: Instant, rng: &mut Rng) -> Vec<ApAction<P>> {
        let mut out = Vec::new();
        self.on_frame_into(frame, now, rng, &mut out);
        out
    }

    /// [`Self::on_frame`], pushing actions into a caller-owned buffer so
    /// the per-event hot path reuses one allocation across frames.
    pub fn on_frame_into(
        &mut self,
        frame: &Frame<P>,
        now: Instant,
        rng: &mut Rng,
        out: &mut Vec<ApAction<P>>,
    ) {
        let me = self.config.bssid;
        // Every frame the AP answers must address it.
        let directed = frame.addr1 == me;
        let station = frame.addr2;
        if let Some(entry) = self.stations.get_mut(&station) {
            entry.last_seen = now;
        }
        match &frame.body {
            FrameBody::ProbeReq { ssid } if directed && *ssid == self.config.ssid => {
                let resp = Frame::probe_response(
                    me,
                    station,
                    self.config.ssid.clone(),
                    self.config.channel,
                    now.as_micros(),
                );
                out.push(self.send_mgmt(resp, rng));
            }
            FrameBody::Auth(auth) if directed && auth.transaction == 1 => {
                // Open-system auth: always accept.
                let resp = Frame::auth_response(me, station, STATUS_SUCCESS);
                out.push(self.send_mgmt(resp, rng));
            }
            FrameBody::AssocReq(req) if directed => {
                if req.ssid != self.config.ssid {
                    return;
                }
                if let Some(entry) = self.stations.get(&station) {
                    // Re-association refreshes the existing entry.
                    let aid = entry.aid;
                    let resp = Frame::assoc_response(me, station, STATUS_SUCCESS, aid);
                    out.push(self.send_mgmt(resp, rng));
                    return;
                }
                if self.stations.len() >= self.config.capacity {
                    self.counters.assocs_refused += 1;
                    let resp = Frame::assoc_response(me, station, STATUS_AP_FULL, 0);
                    out.push(self.send_mgmt(resp, rng));
                    return;
                }
                let aid = self.next_aid;
                self.next_aid += 1;
                self.stations.insert(
                    station,
                    StationEntry {
                        aid,
                        psm: false,
                        buffer: VecDeque::new(),
                        rebuffer_cursor: 0,
                        last_seen: now,
                    },
                );
                self.counters.assocs_granted += 1;
                let resp = Frame::assoc_response(me, station, STATUS_SUCCESS, aid);
                out.push(self.send_mgmt(resp, rng));
            }
            FrameBody::Null if directed => {
                if let Some(entry) = self.stations.get_mut(&station) {
                    if frame.power_mgmt {
                        entry.psm = true;
                        entry.rebuffer_cursor = 0;
                    } else {
                        entry.psm = false;
                        self.flush_buffer_into(station, now, out);
                    }
                }
            }
            // Class-3 frames from unassociated stations fall through to
            // the catch-all and produce nothing.
            FrameBody::Data(payload)
                if directed && frame.to_ds && self.stations.contains_key(&station) =>
            {
                out.push(ApAction::ToUplink {
                    from: station,
                    payload: payload.clone(),
                });
            }
            _ => {}
        }
    }

    fn flush_buffer_into(&mut self, station: MacAddr, now: Instant, out: &mut Vec<ApAction<P>>) {
        let max_age = self.config.psm_frame_max_age;
        let Some(entry) = self.stations.get_mut(&station) else {
            return;
        };
        entry.rebuffer_cursor = 0;
        let mut drained: Vec<P> = Vec::with_capacity(entry.buffer.len());
        for (at, payload) in entry.buffer.drain(..) {
            if now.saturating_since(at) > max_age {
                self.counters.psm_expired += 1;
            } else {
                drained.push(payload);
            }
        }
        let n = drained.len();
        let me = self.config.bssid;
        for (i, payload) in drained.into_iter().enumerate() {
            let mut f = Frame::data_from_ap(me, station, payload);
            f.more_data = i + 1 < n;
            let action = self.send_data(f);
            out.push(action);
        }
    }

    /// Return an undeliverable in-flight frame to the front of `station`'s
    /// power-save buffer. This models the MAC path where a frame handed to
    /// the radio fails its retries because the station just left the
    /// channel, and the PM bit routes it back to the PS queue instead of
    /// the floor. Returns `false` (frame dropped) if the station is not
    /// associated, not in PSM, or the buffer is full.
    pub fn rebuffer_front(&mut self, station: MacAddr, payload: P, now: Instant) -> bool {
        let cap = self.config.psm_buffer_frames;
        let Some(entry) = self.stations.get_mut(&station) else {
            self.counters.unassociated_drops += 1;
            return false;
        };
        if !entry.psm || entry.buffer.len() >= cap {
            self.counters.psm_dropped += 1;
            return false;
        }
        let at = entry.rebuffer_cursor.min(entry.buffer.len());
        entry.buffer.insert(at, (now, payload));
        entry.rebuffer_cursor = at + 1;
        self.counters.psm_buffered += 1;
        true
    }

    /// Deliver a downlink payload arriving from the backhaul for `station`.
    /// Buffered if the station is in PSM; dropped (and counted) if the
    /// station is not associated.
    pub fn deliver_downlink(
        &mut self,
        station: MacAddr,
        payload: P,
        now: Instant,
    ) -> Vec<ApAction<P>> {
        let mut out = Vec::new();
        self.deliver_downlink_into(station, payload, now, &mut out);
        out
    }

    /// [`Self::deliver_downlink`], pushing into a caller-owned buffer
    /// (see [`Self::on_frame_into`]).
    pub fn deliver_downlink_into(
        &mut self,
        station: MacAddr,
        payload: P,
        now: Instant,
        out: &mut Vec<ApAction<P>>,
    ) {
        let psm_cap = self.config.psm_buffer_frames;
        let me = self.config.bssid;
        let Some(entry) = self.stations.get_mut(&station) else {
            self.counters.unassociated_drops += 1;
            return;
        };
        if entry.psm {
            if entry.buffer.len() >= psm_cap {
                self.counters.psm_dropped += 1;
            } else {
                entry.buffer.push_back((now, payload));
                self.counters.psm_buffered += 1;
            }
        } else {
            let f = Frame::data_from_ap(me, station, payload);
            let action = self.send_data(f);
            out.push(action);
        }
    }

    /// Expire associations idle past `idle_timeout`; returns deauth frames
    /// to transmit (which mostly won't reach a long-gone vehicle, but keep
    /// the table tidy).
    pub fn expire_idle(&mut self, now: Instant) -> Vec<ApAction<P>> {
        let timeout = self.config.idle_timeout;
        // `stations` is a BTreeMap, so this iteration — and therefore the
        // downstream deauth event order — is already sorted by MacAddr; the
        // defensive sort that papered over hash-map order is gone.
        let expired: Vec<MacAddr> = self
            .stations
            .iter()
            .filter(|(_, e)| now.saturating_since(e.last_seen) > timeout)
            .map(|(m, _)| *m)
            .collect();
        let me = self.config.bssid;
        expired
            .into_iter()
            .map(|station| {
                self.stations.remove(&station);
                let f = Frame::new(
                    station,
                    me,
                    me,
                    FrameBody::Deauth {
                        reason: REASON_INACTIVITY,
                    },
                );
                self.send_data(f)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta(i: u32) -> MacAddr {
        MacAddr::local(i)
    }

    fn ap() -> ApMac {
        ApMac::new(ApConfig::open(1, "open", Channel::CH6))
    }

    fn rng() -> Rng {
        Rng::new(7)
    }

    /// Associate `station`, returning its AID.
    fn associate(mac: &mut ApMac, station: MacAddr, now: Instant, rng: &mut Rng) -> u16 {
        let auth = Frame::auth_request(station, mac.bssid());
        let acts = mac.on_frame(&auth, now, rng);
        assert_eq!(acts.len(), 1);
        let req = Frame::assoc_request(station, mac.bssid(), Ssid::new("open"));
        let acts = mac.on_frame(&req, now, rng);
        match &acts[0] {
            ApAction::Send { frame, .. } => match &frame.body {
                FrameBody::AssocResp(r) => {
                    assert_eq!(r.status, STATUS_SUCCESS);
                    r.aid
                }
                other => panic!("expected assoc resp, got {other:?}"),
            },
            other => panic!("expected Send, got {other:?}"),
        }
    }

    #[test]
    fn probe_gets_response_with_processing_delay() {
        let mut mac = ap();
        let mut r = rng();
        let probe = Frame::probe_request(sta(1), mac.bssid(), Ssid::new("open"));
        let acts = mac.on_frame(&probe, Instant::ZERO, &mut r);
        match &acts[0] {
            ApAction::Send { delay, frame } => {
                assert!(*delay >= Duration::from_millis(1));
                assert!(*delay < Duration::from_millis(5));
                assert_eq!(frame.body.kind(), "probe-resp");
                assert_eq!(frame.addr1, sta(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_for_other_ssid_ignored() {
        let mut mac = ap();
        let mut r = rng();
        let probe = Frame::probe_request(sta(1), mac.bssid(), Ssid::new("someone-else"));
        assert!(mac.on_frame(&probe, Instant::ZERO, &mut r).is_empty());
        let probe = Frame::probe_request(sta(1), MacAddr::ap(2), Ssid::new("open"));
        assert!(mac.on_frame(&probe, Instant::ZERO, &mut r).is_empty());
    }

    #[test]
    fn full_join_assigns_distinct_aids() {
        let mut mac = ap();
        let mut r = rng();
        let a = associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        let b = associate(&mut mac, sta(2), Instant::ZERO, &mut r);
        assert_ne!(a, b);
        assert_eq!(mac.station_count(), 2);
        assert_eq!(mac.counters().assocs_granted, 2);
    }

    #[test]
    fn reassociation_keeps_aid() {
        let mut mac = ap();
        let mut r = rng();
        let a1 = associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        let a2 = associate(&mut mac, sta(1), Instant::from_secs(1), &mut r);
        assert_eq!(a1, a2);
        assert_eq!(mac.station_count(), 1);
    }

    #[test]
    fn capacity_refusal() {
        let mut cfg = ApConfig::open(1, "open", Channel::CH6);
        cfg.capacity = 1;
        let mut mac = ApMac::new(cfg);
        let mut r = rng();
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        let req = Frame::assoc_request(sta(2), mac.bssid(), Ssid::new("open"));
        let acts = mac.on_frame(&req, Instant::ZERO, &mut r);
        match &acts[0] {
            ApAction::Send { frame, .. } => match &frame.body {
                FrameBody::AssocResp(resp) => assert_eq!(resp.status, STATUS_AP_FULL),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert_eq!(mac.counters().assocs_refused, 1);
    }

    #[test]
    fn psm_buffers_and_null_wakeup_flushes_in_order() {
        let mut mac = ap();
        let mut r = rng();
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        // Enter PSM.
        let psm = Frame::psm_enter(sta(1), mac.bssid());
        assert!(mac.on_frame(&psm, Instant::ZERO, &mut r).is_empty());
        assert!(mac.in_psm(sta(1)));
        // Downlink traffic buffers.
        for i in 0..3u8 {
            let acts = mac.deliver_downlink(sta(1), Bytes::from(vec![i]), Instant::ZERO);
            assert!(acts.is_empty());
        }
        assert_eq!(mac.buffered_for(sta(1)), 3);
        assert_eq!(mac.counters().psm_buffered, 3);
        // Wake up: everything flushes, in order, with more_data set on all
        // but the last.
        let wake = Frame::psm_exit(sta(1), mac.bssid());
        let acts = mac.on_frame(&wake, Instant::ZERO, &mut r);
        assert_eq!(acts.len(), 3);
        for (i, act) in acts.iter().enumerate() {
            match act {
                ApAction::Send { delay, frame } => {
                    assert_eq!(*delay, Duration::ZERO);
                    assert_eq!(frame.more_data, i < 2);
                    assert_eq!(frame.body, FrameBody::Data(Bytes::from(vec![i as u8])));
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(mac.buffered_for(sta(1)), 0);
    }

    #[test]
    fn psm_buffer_overflow_drops_tail() {
        let mut cfg = ApConfig::open(1, "open", Channel::CH6);
        cfg.psm_buffer_frames = 2;
        let mut mac = ApMac::new(cfg);
        let mut r = rng();
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        mac.on_frame(
            &Frame::psm_enter(sta(1), mac.bssid()),
            Instant::ZERO,
            &mut r,
        );
        for i in 0..5u8 {
            mac.deliver_downlink(sta(1), Bytes::from(vec![i]), Instant::ZERO);
        }
        assert_eq!(mac.buffered_for(sta(1)), 2);
        assert_eq!(mac.counters().psm_dropped, 3);
    }

    #[test]
    fn downlink_for_unassociated_station_dropped_and_counted() {
        let mut mac = ap();
        let acts = mac.deliver_downlink(sta(9), Bytes::from_static(b"z"), Instant::ZERO);
        assert!(acts.is_empty());
        assert_eq!(mac.counters().unassociated_drops, 1);
    }

    #[test]
    fn uplink_data_forwarded_only_when_associated() {
        let mut mac = ap();
        let mut r = rng();
        let data = Frame::data_to_ap(sta(1), mac.bssid(), Bytes::from_static(b"up"));
        assert!(mac.on_frame(&data, Instant::ZERO, &mut r).is_empty());
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        let acts = mac.on_frame(&data, Instant::ZERO, &mut r);
        assert_eq!(
            acts,
            vec![ApAction::ToUplink {
                from: sta(1),
                payload: Bytes::from_static(b"up")
            }]
        );
    }

    #[test]
    fn idle_expiry_deauthenticates() {
        let mut mac = ap();
        let mut r = rng();
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        // Just under the timeout: kept.
        let acts = mac.expire_idle(Instant::from_secs(59));
        assert!(acts.is_empty());
        // Past it: expired with a deauth frame.
        let acts = mac.expire_idle(Instant::from_secs(61));
        assert_eq!(acts.len(), 1);
        assert!(!mac.is_associated(sta(1)));
    }

    #[test]
    fn activity_refreshes_idle_timer() {
        let mut mac = ap();
        let mut r = rng();
        associate(&mut mac, sta(1), Instant::ZERO, &mut r);
        // Touch at t = 50 s…
        let data = Frame::data_to_ap(sta(1), mac.bssid(), Bytes::from_static(b"k"));
        mac.on_frame(&data, Instant::from_secs(50), &mut r);
        // …so t = 100 s (< 50 + 60) does not expire it.
        assert!(mac.expire_idle(Instant::from_secs(100)).is_empty());
        assert!(mac.is_associated(sta(1)));
    }

    #[test]
    fn sent_beacon_takes_a_sequence_number_and_its_length_is_known() {
        let mut mac = ap();
        let mut r = rng();
        let probe = Frame::probe_request(sta(1), mac.bssid(), Ssid::new("open"));
        let resp_seq = |acts: Vec<ApAction>| match &acts[0] {
            ApAction::Send { frame, .. } => frame.seq,
            other => panic!("{other:?}"),
        };
        let first = resp_seq(mac.on_frame(&probe, Instant::ZERO, &mut r));
        mac.send_beacon();
        let after = resp_seq(mac.on_frame(&probe, Instant::ZERO, &mut r));
        assert_eq!(after, first + 2, "a beacon shares the AP's sequence space");
        let built = Frame::beacon(mac.bssid(), Ssid::new("open"), Channel::CH6, 0);
        assert_eq!(mac.beacon_len(), built.wire_len());
    }
}
