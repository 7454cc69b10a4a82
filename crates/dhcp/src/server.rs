//! DHCP server: the AP-side lease machinery and — critically — its
//! **response delay**.
//!
//! The paper's join model abstracts the AP's end-to-end responsiveness as
//! `β ∈ [βmin, βmax]` (500 ms to 5–10 s in its parameterization): "the time
//! to complete the dhcp process is controlled by the AP rather than the
//! client". Consumer APs run DHCP on slow SoCs, often relaying to an ISP
//! backend, so multi-second worst cases are realistic. [`DhcpServerConfig`]
//! models that as a uniform per-response delay, giving experiments direct
//! control of the paper's key parameter.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};

use crate::message::{DhcpMessage, MessageType};

/// Server parameters.
#[derive(Debug, Clone)]
pub struct DhcpServerConfig {
    /// The server's own address (also handed out as the router).
    pub server_ip: Ipv4Addr,
    /// First assignable host address. Addresses are handed out sequentially
    /// from here within the /24 of `server_ip`.
    pub pool_start: u8,
    /// Number of assignable addresses.
    pub pool_size: usize,
    /// Lease duration granted.
    pub lease: Duration,
    /// Minimum per-response processing delay (β floor).
    pub delay_min: Duration,
    /// Maximum per-response processing delay (β ceiling, exclusive).
    pub delay_max: Duration,
    /// Probability the server silently ignores a request (overloaded relay,
    /// rate limiting). 0 by default.
    pub ignore_prob: f64,
}

impl DhcpServerConfig {
    /// A typical AP-embedded server for AP number `id`: /24 pool, 1-hour
    /// leases, response delay `[delay_min, delay_max)`.
    pub fn for_ap(id: u32, delay_min: Duration, delay_max: Duration) -> DhcpServerConfig {
        DhcpServerConfig {
            // Each AP gets its own 10.x.y.1 subnet; x.y from the id.
            server_ip: Ipv4Addr::new(10, (id >> 8) as u8, id as u8, 1),
            pool_start: 100,
            pool_size: 100,
            lease: Duration::from_secs(3600),
            delay_min,
            delay_max,
            ignore_prob: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LeaseEntry {
    ip: Ipv4Addr,
    expires: Instant,
}

/// Server-side counters for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// OFFERs sent.
    pub offers: u64,
    /// ACKs sent.
    pub acks: u64,
    /// NAKs sent.
    pub naks: u64,
    /// Requests silently ignored (by `ignore_prob` or pool exhaustion).
    pub ignored: u64,
}

/// The DHCP server embedded in one AP.
#[derive(Debug, Clone)]
pub struct DhcpServer {
    config: DhcpServerConfig,
    leases: BTreeMap<[u8; 6], LeaseEntry>,
    next_offset: usize,
    counters: ServerCounters,
}

impl DhcpServer {
    /// A fresh server with an empty lease table.
    pub fn new(config: DhcpServerConfig) -> DhcpServer {
        DhcpServer {
            config,
            leases: BTreeMap::new(),
            next_offset: 0,
            counters: ServerCounters::default(),
        }
    }

    /// Counters.
    pub fn counters(&self) -> ServerCounters {
        self.counters
    }

    /// Number of live leases at `now`.
    pub fn live_leases(&self, now: Instant) -> usize {
        self.leases.values().filter(|l| l.expires > now).count()
    }

    fn addr_at(&self, offset: usize) -> Ipv4Addr {
        let base = self.config.server_ip.octets();
        Ipv4Addr::new(
            base[0],
            base[1],
            base[2],
            self.config.pool_start.wrapping_add(offset as u8),
        )
    }

    /// Find (or allocate) the address for `chaddr`. Stable: a returning
    /// client gets its previous address while the lease lives, which is
    /// what makes the client-side lease cache effective.
    fn allocate(&mut self, chaddr: [u8; 6], now: Instant) -> Option<Ipv4Addr> {
        if let Some(entry) = self.leases.get(&chaddr) {
            if entry.expires > now {
                return Some(entry.ip);
            }
        }
        // Reclaim expired entries lazily.
        self.leases.retain(|_, l| l.expires > now);
        if self.leases.len() >= self.config.pool_size {
            return None;
        }
        // Next free offset (linear probe; pool is small).
        for _ in 0..self.config.pool_size {
            let candidate = self.addr_at(self.next_offset % self.config.pool_size);
            self.next_offset += 1;
            if !self.leases.values().any(|l| l.ip == candidate) {
                return Some(candidate);
            }
        }
        None
    }

    fn delay(&self, rng: &mut Rng) -> Duration {
        if self.config.delay_max <= self.config.delay_min {
            self.config.delay_min
        } else {
            rng.duration_between(self.config.delay_min, self.config.delay_max)
        }
    }

    /// Process a client message at `now`. Returns the reply and the delay
    /// after which it leaves the server, or `None` when the server stays
    /// silent (ignored, pool exhausted).
    pub fn on_message(
        &mut self,
        msg: &DhcpMessage,
        now: Instant,
        rng: &mut Rng,
    ) -> Option<(Duration, DhcpMessage)> {
        match msg.msg_type {
            MessageType::Discover => {
                if rng.chance(self.config.ignore_prob) {
                    self.counters.ignored += 1;
                    return None;
                }
                let Some(ip) = self.allocate(msg.chaddr, now) else {
                    self.counters.ignored += 1;
                    return None;
                };
                // The offer provisionally reserves the address.
                self.leases.insert(
                    msg.chaddr,
                    LeaseEntry {
                        ip,
                        expires: now + Duration::from_secs(30),
                    },
                );
                self.counters.offers += 1;
                let reply = DhcpMessage::offer(
                    msg.xid,
                    msg.chaddr,
                    ip,
                    self.config.server_ip,
                    self.config.lease.as_secs() as u32,
                );
                Some((self.delay(rng), reply))
            }
            MessageType::Request => {
                if rng.chance(self.config.ignore_prob) {
                    self.counters.ignored += 1;
                    return None;
                }
                // A REQUEST selecting another server: forget any reservation.
                if let Some(server) = msg.server_id {
                    if server != self.config.server_ip {
                        self.leases.remove(&msg.chaddr);
                        return None;
                    }
                }
                let Some(requested) = msg.requested_ip else {
                    let reply = DhcpMessage::nak(msg.xid, msg.chaddr, self.config.server_ip);
                    self.counters.naks += 1;
                    return Some((self.delay(rng), reply));
                };
                let honour = match self.leases.get(&msg.chaddr) {
                    // Known client: honour iff it asks for its address.
                    Some(entry) => entry.ip == requested,
                    // INIT-REBOOT from an unknown client (e.g. the server
                    // rebooted or the reservation expired): honour iff the
                    // address is in our pool and free.
                    None => {
                        let in_pool = {
                            let base = self.config.server_ip.octets();
                            let o = requested.octets();
                            o[0] == base[0]
                                && o[1] == base[1]
                                && o[2] == base[2]
                                && o[3] >= self.config.pool_start
                                && (o[3] as usize)
                                    < self.config.pool_start as usize + self.config.pool_size
                        };
                        in_pool
                            && !self
                                .leases
                                .values()
                                .any(|l| l.ip == requested && l.expires > now)
                    }
                };
                if honour {
                    self.leases.insert(
                        msg.chaddr,
                        LeaseEntry {
                            ip: requested,
                            expires: now + self.config.lease,
                        },
                    );
                    self.counters.acks += 1;
                    let reply = DhcpMessage::ack(
                        msg.xid,
                        msg.chaddr,
                        requested,
                        self.config.server_ip,
                        self.config.lease.as_secs() as u32,
                    );
                    Some((self.delay(rng), reply))
                } else {
                    self.counters.naks += 1;
                    let reply = DhcpMessage::nak(msg.xid, msg.chaddr, self.config.server_ip);
                    Some((self.delay(rng), reply))
                }
            }
            // Server ignores server-originated types echoed back.
            MessageType::Offer | MessageType::Ack | MessageType::Nak => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH1: [u8; 6] = [2, 0, 0, 0, 0, 1];
    const CH2: [u8; 6] = [2, 0, 0, 0, 0, 2];

    fn server(delay_ms: (u64, u64)) -> DhcpServer {
        DhcpServer::new(DhcpServerConfig::for_ap(
            5,
            Duration::from_millis(delay_ms.0),
            Duration::from_millis(delay_ms.1),
        ))
    }

    #[test]
    fn discover_offer_request_ack_flow() {
        let mut s = server((100, 500));
        let mut rng = Rng::new(1);
        let now = Instant::ZERO;
        let (d1, offer) = s
            .on_message(&DhcpMessage::discover(1, CH1), now, &mut rng)
            .unwrap();
        assert!(d1 >= Duration::from_millis(100) && d1 < Duration::from_millis(500));
        assert_eq!(offer.msg_type, MessageType::Offer);
        let ip = offer.yiaddr;
        assert_eq!(ip.octets()[3], 100);

        let req = DhcpMessage::request(1, CH1, ip, offer.server_id.unwrap());
        let (_, ack) = s.on_message(&req, now + d1, &mut rng).unwrap();
        assert_eq!(ack.msg_type, MessageType::Ack);
        assert_eq!(ack.yiaddr, ip);
        assert_eq!(s.live_leases(now + d1), 1);
        assert_eq!(s.counters().acks, 1);
    }

    #[test]
    fn same_client_reoffered_same_address() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(2);
        let (_, o1) = s
            .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .unwrap();
        let (_, o2) = s
            .on_message(
                &DhcpMessage::discover(2, CH1),
                Instant::from_secs(1),
                &mut rng,
            )
            .unwrap();
        assert_eq!(o1.yiaddr, o2.yiaddr);
    }

    #[test]
    fn distinct_clients_distinct_addresses() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(3);
        let (_, o1) = s
            .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .unwrap();
        let (_, o2) = s
            .on_message(&DhcpMessage::discover(1, CH2), Instant::ZERO, &mut rng)
            .unwrap();
        assert_ne!(o1.yiaddr, o2.yiaddr);
    }

    #[test]
    fn request_for_wrong_address_nakked() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(4);
        let (_, offer) = s
            .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .unwrap();
        let wrong = Ipv4Addr::new(10, 0, 5, 250);
        let req = DhcpMessage::request(1, CH1, wrong, offer.server_id.unwrap());
        let (_, reply) = s.on_message(&req, Instant::ZERO, &mut rng).unwrap();
        assert_eq!(reply.msg_type, MessageType::Nak);
    }

    #[test]
    fn init_reboot_honoured_for_free_pool_address() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(5);
        // Unknown client asks for a pool address directly (cached lease).
        let ip = Ipv4Addr::new(10, 0, 5, 120);
        let mut req = DhcpMessage::request(9, CH1, ip, Ipv4Addr::new(10, 0, 5, 1));
        req.server_id = None;
        let (_, reply) = s.on_message(&req, Instant::ZERO, &mut rng).unwrap();
        assert_eq!(reply.msg_type, MessageType::Ack);
        assert_eq!(reply.yiaddr, ip);
    }

    #[test]
    fn init_reboot_for_foreign_subnet_nakked() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(6);
        let mut req =
            DhcpMessage::request(9, CH1, Ipv4Addr::new(192, 168, 1, 5), Ipv4Addr::UNSPECIFIED);
        req.server_id = None;
        let (_, reply) = s.on_message(&req, Instant::ZERO, &mut rng).unwrap();
        assert_eq!(reply.msg_type, MessageType::Nak);
    }

    #[test]
    fn request_selecting_other_server_is_silent() {
        let mut s = server((1, 2));
        let mut rng = Rng::new(7);
        s.on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .unwrap();
        let req = DhcpMessage::request(
            1,
            CH1,
            Ipv4Addr::new(10, 9, 9, 5),
            Ipv4Addr::new(10, 9, 9, 1),
        );
        assert!(s.on_message(&req, Instant::ZERO, &mut rng).is_none());
        // The provisional reservation was dropped.
        assert_eq!(s.live_leases(Instant::ZERO), 0);
    }

    #[test]
    fn pool_exhaustion_goes_silent() {
        let mut cfg =
            DhcpServerConfig::for_ap(1, Duration::from_millis(1), Duration::from_millis(2));
        cfg.pool_size = 2;
        let mut s = DhcpServer::new(cfg);
        let mut rng = Rng::new(8);
        for i in 0..2u8 {
            let ch = [2, 0, 0, 0, 1, i];
            assert!(s
                .on_message(&DhcpMessage::discover(1, ch), Instant::ZERO, &mut rng)
                .is_some());
        }
        let ch3 = [2, 0, 0, 0, 1, 9];
        assert!(s
            .on_message(&DhcpMessage::discover(1, ch3), Instant::ZERO, &mut rng)
            .is_none());
        assert_eq!(s.counters().ignored, 1);
    }

    #[test]
    fn expired_leases_reclaimed() {
        let mut cfg =
            DhcpServerConfig::for_ap(1, Duration::from_millis(1), Duration::from_millis(2));
        cfg.pool_size = 1;
        cfg.lease = Duration::from_secs(10);
        let mut s = DhcpServer::new(cfg);
        let mut rng = Rng::new(9);
        let (_, offer) = s
            .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .unwrap();
        let req = DhcpMessage::request(1, CH1, offer.yiaddr, offer.server_id.unwrap());
        s.on_message(&req, Instant::ZERO, &mut rng).unwrap();
        // Other client blocked while the lease lives…
        assert!(s
            .on_message(
                &DhcpMessage::discover(1, CH2),
                Instant::from_secs(5),
                &mut rng
            )
            .is_none());
        // …and served after expiry.
        let got = s.on_message(
            &DhcpMessage::discover(2, CH2),
            Instant::from_secs(11),
            &mut rng,
        );
        assert!(got.is_some());
    }

    #[test]
    fn ignore_prob_one_never_answers() {
        let mut cfg =
            DhcpServerConfig::for_ap(1, Duration::from_millis(1), Duration::from_millis(2));
        cfg.ignore_prob = 1.0;
        let mut s = DhcpServer::new(cfg);
        let mut rng = Rng::new(11);
        assert!(s
            .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
            .is_none());
        assert_eq!(s.counters().ignored, 1);
    }

    #[test]
    fn delay_spans_configured_interval() {
        let mut rng = Rng::new(12);
        let mut lo = Duration::MAX;
        let mut hi = Duration::ZERO;
        for _ in 0..200 {
            // A fresh server per draw, so the pool never exhausts.
            let mut s = server((500, 5000)); // the paper's βmin..βmax flavour
            let (d, _) = s
                .on_message(&DhcpMessage::discover(1, CH1), Instant::ZERO, &mut rng)
                .unwrap();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        assert!(lo >= Duration::from_millis(500));
        assert!(hi < Duration::from_millis(5000));
        assert!(
            hi > Duration::from_millis(2500),
            "should explore the upper half"
        );
    }
}
