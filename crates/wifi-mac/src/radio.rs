//! The radio hardware model: one physical card, one channel at a time.
//!
//! Spider virtualizes a single card among channels; what the hardware
//! charges for that is the **channel switch latency**: sending a PSM frame
//! to each associated AP on the old channel, a hardware reset to retune, and
//! a PS-Poll to each associated AP on the new channel. Table 1 of the paper
//! measures this at 4.9–5.9 ms on an Atheros card, growing with the number
//! of connected interfaces. [`RadioConfig`] reproduces that cost model.

use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};

use crate::channel::Channel;

/// Switch-cost parameters, calibrated to Table 1 of the paper.
#[derive(Debug, Clone)]
pub struct RadioConfig {
    /// Hardware reset (retune) time: the latency with zero connected
    /// interfaces. Paper: mean 4.942 ms, σ 0.009 ms.
    pub reset: Duration,
    /// Jitter (σ) on the reset when no interfaces are connected.
    pub reset_jitter: Duration,
    /// Extra cost per connected interface: one PSM null frame on the old
    /// channel plus one PS-Poll on the new one (≈ 0.25 ms at 11 Mb/s with
    /// preamble and channel access).
    pub per_iface: Duration,
    /// Jitter (σ) per connected interface — contention makes the PSM frames
    /// increasingly variable (Table 1's σ grows to ≈ 1 ms).
    pub per_iface_jitter: Duration,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            reset: Duration::from_micros(4_942),
            reset_jitter: Duration::from_micros(9),
            per_iface: Duration::from_micros(250),
            per_iface_jitter: Duration::from_micros(280),
        }
    }
}

impl RadioConfig {
    /// The shortest switch latency [`RadioConfig::switch_latency`] ever
    /// draws: 90% of the hardware reset, whatever the jitter.
    pub fn min_switch_latency(&self) -> Duration {
        Duration::from_secs_f64(self.reset.as_secs_f64() * 0.9)
    }

    /// Draw one switch latency given `connected` associated interfaces.
    pub fn switch_latency(&self, connected: usize, rng: &mut Rng) -> Duration {
        let mean = self.reset.as_secs_f64() + connected as f64 * self.per_iface.as_secs_f64();
        let sigma = self.reset_jitter.as_secs_f64()
            + connected as f64 * self.per_iface_jitter.as_secs_f64();
        // Truncated normal: latency cannot undercut the hardware reset.
        // Rounding to nanoseconds is monotone, so clamping after the
        // conversion gives the same Duration as clamping the seconds.
        let drawn = rng.normal(mean, sigma);
        Duration::from_secs_f64(drawn.max(0.0)).max(self.min_switch_latency())
    }
}

/// The state of the physical radio.
#[derive(Debug, Clone)]
pub struct Radio {
    config: RadioConfig,
    /// `config.min_switch_latency()`, computed once: [`Radio::may_hear`]
    /// runs for every listener of every beacon.
    min_switch: Duration,
    channel: Channel,
    /// The radio neither transmits nor receives until this instant
    /// (mid-switch).
    busy_until: Instant,
    switches: u64,
    total_switch_time: Duration,
}

impl Radio {
    /// A radio parked on `initial` channel.
    pub fn new(config: RadioConfig, initial: Channel) -> Radio {
        Radio {
            min_switch: config.min_switch_latency(),
            config,
            channel: initial,
            busy_until: Instant::ZERO,
            switches: 0,
            total_switch_time: Duration::ZERO,
        }
    }

    /// The channel the radio is (or will be, if mid-switch) tuned to.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// True if the radio is mid-switch and deaf at `now`.
    pub fn is_busy(&self, now: Instant) -> bool {
        now < self.busy_until
    }

    /// True if the radio can exchange frames on `ch` at `now`.
    pub fn can_hear(&self, ch: Channel, now: Instant) -> bool {
        !self.is_busy(now) && self.channel == ch
    }

    /// Whether the radio, as it stands at `now`, might still hear `ch` at
    /// `at >= now`. False means [`Radio::can_hear`]`(ch, at)` is false
    /// whatever switches happen in `[now, at]`:
    ///
    /// * with no switch in between, the radio hears `ch` at `at` only if
    ///   it is tuned there and done switching by then;
    /// * [`Radio::switch_to`] is the only mutator, and a switch that
    ///   changes the channel at some `t >= now` leaves the radio deaf
    ///   until at least `t + min_switch_latency`, so after any switch it
    ///   hears nothing before `now + min_switch_latency`.
    pub fn may_hear(&self, ch: Channel, now: Instant, at: Instant) -> bool {
        (self.channel == ch && at >= self.busy_until) || at >= now + self.min_switch
    }

    /// Begin a switch to `to` at `now` with `connected` associated
    /// interfaces. Returns the drawn latency; the radio is deaf until
    /// `now + latency`. Switching to the current channel is free.
    pub fn switch_to(
        &mut self,
        to: Channel,
        now: Instant,
        connected: usize,
        rng: &mut Rng,
    ) -> Duration {
        if to == self.channel {
            return Duration::ZERO;
        }
        let latency = self.config.switch_latency(connected, rng);
        self.channel = to;
        self.busy_until = now + latency;
        self.switches += 1;
        self.total_switch_time += latency;
        latency
    }

    /// Number of completed channel switches.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Cumulative time spent deaf in switches.
    pub fn switch_overhead(&self) -> Duration {
        self.total_switch_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::stats::Summary;

    #[test]
    fn switch_latency_matches_table1_shape() {
        // Reproduce Table 1's trend: mean grows with connected interfaces,
        // staying in the 4.9–6 ms band for 0–4 interfaces.
        let cfg = RadioConfig::default();
        let mut rng = Rng::new(42);
        let mut prev_mean = 0.0;
        for connected in 0..=4 {
            let mut s = Summary::new();
            for _ in 0..2_000 {
                s.record(cfg.switch_latency(connected, &mut rng).as_secs_f64() * 1e3);
            }
            assert!(
                s.mean() > prev_mean,
                "mean latency must grow with connected ifaces"
            );
            assert!(
                (4.4..6.5).contains(&s.mean()),
                "mean {} ms out of Table 1 band for {} ifaces",
                s.mean(),
                connected
            );
            prev_mean = s.mean();
        }
    }

    #[test]
    fn switch_latency_never_undercuts_the_floor() {
        // A jitter ten times the mean puts about half the raw draws below
        // the floor and many below zero.
        let cfg = RadioConfig {
            reset_jitter: Duration::from_millis(50),
            per_iface_jitter: Duration::from_millis(80),
            ..RadioConfig::default()
        };
        let floor = cfg.min_switch_latency();
        assert_eq!(floor, Duration::from_nanos(4_447_800));
        let mut rng = Rng::new(7);
        let mut at_floor = 0;
        for i in 0..5_000 {
            let latency = cfg.switch_latency(i % 5, &mut rng);
            assert!(latency >= floor, "{latency} below the {floor} floor");
            at_floor += usize::from(latency == floor);
        }
        assert!(at_floor > 1_000, "the clamp should bind often: {at_floor}");
    }

    #[test]
    fn same_channel_switch_is_free() {
        let mut rng = Rng::new(1);
        let mut radio = Radio::new(RadioConfig::default(), Channel::CH6);
        let d = radio.switch_to(Channel::CH6, Instant::from_secs(1), 3, &mut rng);
        assert_eq!(d, Duration::ZERO);
        assert_eq!(radio.switch_count(), 0);
        assert!(!radio.is_busy(Instant::from_secs(1)));
    }

    #[test]
    fn switch_makes_radio_deaf_until_done() {
        let mut rng = Rng::new(2);
        let mut radio = Radio::new(RadioConfig::default(), Channel::CH1);
        let t0 = Instant::from_secs(10);
        let latency = radio.switch_to(Channel::CH11, t0, 0, &mut rng);
        assert!(latency > Duration::ZERO);
        assert_eq!(radio.channel(), Channel::CH11);
        assert!(radio.is_busy(t0));
        assert!(radio.is_busy(t0 + latency - Duration::from_nanos(1)));
        assert!(!radio.is_busy(t0 + latency));
        assert!(radio.can_hear(Channel::CH11, t0 + latency));
        assert!(!radio.can_hear(Channel::CH1, t0 + latency));
    }

    #[test]
    fn overhead_accumulates() {
        let mut rng = Rng::new(3);
        let mut radio = Radio::new(RadioConfig::default(), Channel::CH1);
        let mut now;
        let mut sum = Duration::ZERO;
        for (i, ch) in [Channel::CH6, Channel::CH11, Channel::CH1]
            .iter()
            .enumerate()
        {
            now = Instant::from_secs(i as u64 + 1);
            sum += radio.switch_to(*ch, now, i, &mut rng);
        }
        assert_eq!(radio.switch_count(), 3);
        assert_eq!(radio.switch_overhead(), sum);
    }
}
