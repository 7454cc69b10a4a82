//! Channel scheduling: the configured [`SchedulePolicy`] driving each
//! client's radio — multi-channel schedule slices, the PSM-announced
//! channel switch, and the adaptive policy's reconsideration (§4.8).

use sim_engine::time::Duration;
use wifi_mac::addr::MacAddr;
use wifi_mac::channel::Channel;
use wifi_mac::frame::Frame;

use crate::config::SchedulePolicy;
use crate::packet::Packet;

use super::join::IfaceState;
use super::{Sched, World};

/// Events of the channel-scheduling layer.
#[derive(Debug)]
pub(super) enum ChannelEvent {
    /// Move client `client` to schedule slice `idx`.
    Slice { client: usize, idx: usize },
    /// PSM announcements have drained; begin the hardware retune.
    SwitchBegin { client: usize, target: Channel },
    /// The client's radio finished retuning.
    SwitchDone { client: usize },
    /// Adaptive-channel policy: reconsider which channel to dwell on.
    Reconsider { client: usize },
}

impl World {
    pub(super) fn handle_channel(&mut self, event: ChannelEvent, sched: &mut Sched) {
        match event {
            ChannelEvent::Slice { client, idx } => self.schedule_slice(client, idx, sched),
            ChannelEvent::SwitchBegin { client, target } => {
                self.on_switch_begin(client, target, sched)
            }
            ChannelEvent::SwitchDone { client } => self.on_switch_done(client, sched),
            ChannelEvent::Reconsider { client } => self.reconsider(client, sched),
        }
    }

    /// Send `announce(station, bssid)` to every AP on `channel` that one
    /// of the client's interfaces is connected to. Returns how many.
    fn announce_psm(
        &mut self,
        client: usize,
        channel: Channel,
        announce: fn(MacAddr, MacAddr) -> Frame<Packet>,
        sched: &mut Sched,
    ) -> usize {
        let targets: Vec<(usize, Frame<Packet>)> = self.clients[client]
            .ifaces
            .iter()
            .filter(|i| i.state == IfaceState::Connected)
            .filter_map(|i| i.ap.map(|a| (a, i.addr)))
            .filter(|&(a, _)| self.aps[a].site.channel == channel)
            .map(|(a, station)| (a, announce(station, self.aps[a].mac.bssid())))
            .collect();
        let count = targets.len();
        for (ap, frame) in targets {
            self.client_send(client, ap, frame, sched);
        }
        count
    }

    /// Multi-channel schedule: enter PSM on the old channel, retune, wake
    /// interfaces on the new channel. Each client runs its own slice
    /// cursor (fleet members need not be slice-synchronized).
    fn schedule_slice(&mut self, client: usize, idx: usize, sched: &mut Sched) {
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
            let connected = self.announce_psm(client, old, Frame::psm_enter, sched);
            let grace =
                Duration::from_micros(3_700) + Duration::from_micros(300) * connected as u64;
            sched.after(grace, ChannelEvent::SwitchBegin { client, target });
        }
        let next = ChannelEvent::Slice {
            client,
            idx: idx + 1,
        };
        sched.after(slice_len, next);
    }

    fn on_switch_begin(&mut self, client: usize, target: Channel, sched: &mut Sched) {
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
            .switch_to(target, sched.now, connected, &mut node.rng_radio);
        self.metrics.switch_latencies.record_duration(latency);
        sched.after(latency, ChannelEvent::SwitchDone { client });
    }

    fn on_switch_done(&mut self, client: usize, sched: &mut Sched) {
        // Wake every associated AP on the (new) current channel, then send
        // what waited for this channel.
        let channel = self.clients[client].radio.channel();
        self.announce_psm(client, channel, Frame::psm_exit, sched);
        self.flush_tx_queue(client, channel, sched);
        // Freshly on-channel with a whole slice ahead: the best moment to
        // start joins (this is Spider's "parallel per-channel association").
        self.try_start_joins(client, sched);
    }

    /// The §4.8 extension: periodically dwell on whichever orthogonal
    /// channel offers the best-scoring fresh candidates. A switch tears
    /// down current associations (we will not be coming back for their
    /// PSM buffers), so the bar for moving is a strict improvement.
    fn reconsider(&mut self, client: usize, sched: &mut Sched) {
        let now = sched.now;
        let SchedulePolicy::AdaptiveChannel { reconsider, .. } = self.cfg.spider.schedule else {
            return;
        };
        let freshness = Duration::from_secs(3);
        // The heard set iterates in MacAddr-rank order, so this
        // floating-point sum always adds candidates in the same order;
        // the 3 s freshness filter is inside the heard set's 5 s prune, so
        // no fresh candidate is missing from it.
        let node = &self.clients[client];
        let score_of = |ch: Channel| {
            node.heard
                .iter()
                .filter_map(|id| node.scan[id].as_ref())
                .filter(|c| c.channel == ch)
                .filter(|c| now.saturating_since(c.last_heard) <= freshness)
                .map(|c| node.history.score(c.bssid, now))
                .sum::<f64>()
        };
        let current = node.radio.channel();
        let current_score = score_of(current);
        let mut best = (current, current_score);
        for ch in wifi_mac::ORTHOGONAL {
            let s = score_of(ch);
            if s > best.1 {
                best = (ch, s);
            }
        }
        // Move only on a clear win: switching abandons live associations.
        if best.0 != current && best.1 > current_score * 1.25 + 0.25 {
            for idx in 0..self.clients[client].ifaces.len() {
                if self.clients[client].ifaces[idx].state != IfaceState::Idle {
                    self.teardown_iface(client, idx, sched);
                }
            }
            let node = &mut self.clients[client];
            let latency = node.radio.switch_to(best.0, now, 0, &mut node.rng_radio);
            self.metrics.switch_latencies.record_duration(latency);
            sched.after(latency, ChannelEvent::SwitchDone { client });
        }
        sched.after(reconsider, ChannelEvent::Reconsider { client });
    }
}
