//! Backhaul links and traffic shaping.
//!
//! The paper's Fig. 9 micro-benchmark used "a traffic shaper … to adjust
//! the backhaul bandwidth available through each AP", and its §4.3
//! observation that urban backhaul is rarely faster than the wireless link
//! is why multi-AP aggregation pays at all. [`SerialLink`] models a
//! store-and-forward backhaul pipe (rate + propagation delay, FIFO).

use sim_engine::time::{Duration, Instant};

/// A FIFO serializing link: bytes occupy the pipe at `rate_bps` and then
/// propagate for `latency`. The standard model for a DSL/cable backhaul.
///
/// The queue is **bounded**: when the backlog exceeds `max_backlog` of
/// queueing delay, new packets are dropped (drop-tail), as any real shaper
/// or modem does — an unbounded queue would let TCP inflate the RTT
/// without bound instead of finding its rate through loss.
#[derive(Debug, Clone)]
pub struct SerialLink {
    rate_bps: u64,
    latency: Duration,
    max_backlog: Duration,
    /// The instant the transmitter becomes free.
    next_free: Instant,
    bytes_carried: u64,
    drops: u64,
}

impl SerialLink {
    /// Default queue bound: 200 ms of queueing delay at line rate.
    pub const DEFAULT_BACKLOG: Duration = Duration::from_millis(200);

    /// A link of `rate_bps` with one-way propagation `latency` and the
    /// default queue bound.
    ///
    /// # Panics
    /// Panics on a zero rate.
    pub fn new(rate_bps: u64, latency: Duration) -> SerialLink {
        SerialLink::with_backlog(rate_bps, latency, Self::DEFAULT_BACKLOG)
    }

    /// A link with an explicit queue bound.
    pub fn with_backlog(rate_bps: u64, latency: Duration, max_backlog: Duration) -> SerialLink {
        assert!(rate_bps > 0, "SerialLink: zero rate");
        SerialLink {
            rate_bps,
            latency,
            max_backlog,
            next_free: Instant::ZERO,
            bytes_carried: 0,
            drops: 0,
        }
    }

    /// Link rate, bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Serialization time of `bytes` at the link rate.
    pub fn serialization(&self, bytes: usize) -> Duration {
        Duration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.rate_bps)
    }

    /// Number of packets a drop-tail queue holds regardless of rate (the
    /// classic 64-packet modem ring); on slow links this dominates the
    /// time-based bound, exactly the way real DSL gear bufferbloats.
    const MIN_QUEUE_PACKETS: u64 = 64;

    /// Enqueue `bytes` at `now`; returns the instant the last bit arrives
    /// at the far end, or `None` if the bounded queue drops the packet.
    /// FIFO: a busy pipe delays later arrivals.
    pub fn transmit(&mut self, now: Instant, bytes: usize) -> Option<Instant> {
        let packet_bound = self
            .serialization(bytes.max(1))
            .checked_mul(Self::MIN_QUEUE_PACKETS)
            .unwrap_or(Duration::MAX);
        if self.backlog(now) > self.max_backlog.max(packet_bound) {
            self.drops += 1;
            return None;
        }
        let start = now.max(self.next_free);
        let done = start + self.serialization(bytes);
        self.next_free = done;
        self.bytes_carried += bytes as u64;
        Some(done + self.latency)
    }

    /// Total bytes pushed through.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Packets dropped at the queue bound.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Queue backlog at `now` (how long until the pipe frees).
    pub fn backlog(&self, now: Instant) -> Duration {
        self.next_free.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_is_rate_accurate() {
        let link = SerialLink::new(1_000_000, Duration::ZERO); // 1 Mb/s
        assert_eq!(link.serialization(125_000), Duration::from_secs(1));
        assert_eq!(link.serialization(1_250), Duration::from_millis(10));
    }

    #[test]
    fn fifo_backpressure_delays_later_packets() {
        let mut link =
            SerialLink::with_backlog(1_000_000, Duration::from_millis(5), Duration::from_secs(10));
        let t0 = Instant::ZERO;
        let a = link.transmit(t0, 125_000).unwrap(); // 1 s + 5 ms
        let b = link.transmit(t0, 125_000).unwrap(); // queued behind a
        assert_eq!(a, Instant::from_millis(1_005));
        assert_eq!(b, Instant::from_millis(2_005));
        assert_eq!(link.bytes_carried(), 250_000);
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut link = SerialLink::new(8_000_000, Duration::from_millis(20));
        let arrive = link.transmit(Instant::from_secs(10), 1_000).unwrap();
        // 1000 B at 8 Mb/s = 1 ms, plus 20 ms propagation.
        assert_eq!(arrive, Instant::from_secs(10) + Duration::from_millis(21));
        assert_eq!(
            link.backlog(Instant::from_secs(10) + Duration::from_millis(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn bounded_queue_drops_when_backlogged() {
        // 1 Mb/s link: the 64-packet floor dominates the 200 ms bound
        // (64 × 12 ms = 768 ms of queue).
        let mut link = SerialLink::new(1_000_000, Duration::ZERO);
        let t0 = Instant::ZERO;
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..200 {
            match link.transmit(t0, 1_500) {
                Some(_) => delivered += 1,
                None => dropped += 1,
            }
        }
        assert!(dropped > 0, "bounded queue must drop under overload");
        assert!((60..70).contains(&delivered), "delivered {delivered}");
        assert_eq!(link.drops(), dropped);
        // Once the queue drains, transmission works again.
        let later = Instant::from_secs(10);
        assert!(link.transmit(later, 1_500).is_some());
    }

    #[test]
    fn fast_links_use_time_bound() {
        // 100 Mb/s link: 200 ms = 1667 packets, far above the 64-packet
        // floor; the time bound governs.
        let mut link = SerialLink::new(100_000_000, Duration::ZERO);
        let t0 = Instant::ZERO;
        let mut delivered = 0;
        for _ in 0..3_000 {
            if link.transmit(t0, 1_500).is_some() {
                delivered += 1;
            }
        }
        assert!((1_500..1_800).contains(&delivered), "delivered {delivered}");
    }
}
