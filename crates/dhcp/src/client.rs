//! DHCP client state machine.
//!
//! This is the protocol the paper singles out as the obstacle to virtualized
//! Wi-Fi on the move: the join "cannot be buffered using a PSM request", so
//! every DISCOVER/OFFER/REQUEST/ACK message that lands while the radio is
//! off-channel is simply lost, and recovery is governed by *timers the
//! client controls* (retransmit) and *delays the server controls* (the
//! paper's `β`).
//!
//! Timer policy follows §2.2.1 and §4.5:
//!
//! * **Default** stock behaviour: 1 s per-message retransmit, try for 3 s,
//!   then go idle for 60 s ("the client attempts to acquire a lease for 3
//!   seconds, and it is idle for 60 seconds if it fails").
//! * **Reduced** timeouts à la Cabernet: 100–600 ms retransmit, no idle
//!   penalty — faster joins, but Table 3 shows the failure rate roughly
//!   doubles.
//!
//! The client also supports Spider's **lease cache** shortcut: rejoining an
//! AP whose lease is still valid skips DISCOVER/OFFER and goes straight to
//! REQUEST (INIT-REBOOT), halving the message count.

use std::net::Ipv4Addr;

use sim_engine::time::{Duration, Instant};

use crate::message::{DhcpMessage, MessageType};

/// Client timer policy.
#[derive(Debug, Clone)]
pub struct DhcpClientConfig {
    /// Per-message retransmission timeout.
    pub retx_timeout: Duration,
    /// Total time budget for one acquisition attempt.
    pub attempt_budget: Duration,
    /// Cooldown after a failed attempt before the next may start.
    pub idle_after_fail: Duration,
}

impl Default for DhcpClientConfig {
    /// The stock configuration the paper calls "default timers".
    fn default() -> Self {
        DhcpClientConfig {
            retx_timeout: Duration::from_secs(1),
            attempt_budget: Duration::from_secs(3),
            idle_after_fail: Duration::from_secs(60),
        }
    }
}

impl DhcpClientConfig {
    /// A reduced-timeout configuration (paper studies 100–600 ms per
    /// message). The 3 s acquisition window stays; what the reduction
    /// removes is the per-message dwell and the 60 s idle-on-fail penalty.
    pub fn reduced(retx: Duration) -> Self {
        DhcpClientConfig {
            retx_timeout: retx,
            attempt_budget: Duration::from_secs(3),
            idle_after_fail: Duration::ZERO,
        }
    }
}

/// A granted (or cached) lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The address granted to this client.
    pub ip: Ipv4Addr,
    /// The granting server.
    pub server: Ipv4Addr,
    /// Expiry instant.
    pub expires: Instant,
}

impl Lease {
    /// True if the lease is still valid at `now`.
    pub fn is_valid(&self, now: Instant) -> bool {
        now < self.expires
    }
}

/// Output of the client machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpAction {
    /// Transmit this message toward the AP's DHCP server.
    Send(DhcpMessage),
    /// Arm the retransmit timer: call [`DhcpClient::handle_timer`] once
    /// `after` elapses. The caller keeps at most one expiry queued per
    /// machine, and a re-arm replaces it; an expiry while no acquisition
    /// is in flight is ignored.
    ArmTimer {
        /// Delay until expiry.
        after: Duration,
    },
    /// Acquisition succeeded.
    Bound(Lease),
    /// Acquisition failed (budget exhausted or NAK); the machine is idle
    /// until [`DhcpClient::earliest_restart`].
    Failed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// DISCOVER sent, waiting for OFFER.
    Selecting,
    /// REQUEST sent for a fresh offer, waiting for ACK.
    Requesting {
        ip: Ipv4Addr,
        server: Ipv4Addr,
    },
    /// INIT-REBOOT REQUEST sent from a cached lease, waiting for ACK.
    Rebooting {
        ip: Ipv4Addr,
        server: Ipv4Addr,
    },
    Bound,
    Failed,
}

/// The DHCP client for one virtual interface.
#[derive(Debug, Clone)]
pub struct DhcpClient {
    config: DhcpClientConfig,
    chaddr: [u8; 6],
    state: State,
    xid: u32,
    attempt_started: Option<Instant>,
    cooldown_until: Instant,
    lease: Option<Lease>,
}

impl DhcpClient {
    /// New idle client for the interface with hardware address `chaddr`.
    /// `xid_seed` makes transaction ids deterministic per interface.
    pub fn new(config: DhcpClientConfig, chaddr: [u8; 6], xid_seed: u32) -> DhcpClient {
        DhcpClient {
            config,
            chaddr,
            state: State::Idle,
            xid: xid_seed,
            attempt_started: None,
            cooldown_until: Instant::ZERO,
            lease: None,
        }
    }

    /// The active lease, if bound.
    pub fn lease(&self) -> Option<Lease> {
        if self.is_bound() {
            self.lease
        } else {
            None
        }
    }

    /// True once bound.
    pub fn is_bound(&self) -> bool {
        self.state == State::Bound
    }

    /// True while an acquisition is in flight.
    pub fn is_acquiring(&self) -> bool {
        matches!(
            self.state,
            State::Selecting | State::Requesting { .. } | State::Rebooting { .. }
        )
    }

    /// Earliest instant a new attempt may start (cooldown after failure).
    pub fn earliest_restart(&self) -> Instant {
        self.cooldown_until
    }

    /// When the in-flight attempt started (for join-time measurement).
    pub fn attempt_started_at(&self) -> Option<Instant> {
        self.attempt_started
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    fn arm(&self) -> DhcpAction {
        DhcpAction::ArmTimer {
            after: self.config.retx_timeout,
        }
    }

    fn secs_elapsed(&self, now: Instant) -> u16 {
        self.attempt_started
            .map(|t| now.saturating_since(t).as_secs().min(u16::MAX as u64) as u16)
            .unwrap_or(0)
    }

    /// Begin an acquisition at `now`. If `cached` holds a still-valid lease
    /// for this AP, the client skips to INIT-REBOOT.
    ///
    /// # Panics
    /// Panics if called while bound or mid-acquisition, or during cooldown.
    pub fn start(&mut self, now: Instant, cached: Option<Lease>) -> Vec<DhcpAction> {
        assert!(
            matches!(self.state, State::Idle | State::Failed),
            "DhcpClient::start in state {:?}",
            self.state
        );
        assert!(
            now >= self.cooldown_until,
            "DhcpClient::start during cooldown (until {})",
            self.cooldown_until
        );
        self.attempt_started = Some(now);
        let xid = self.next_xid();
        match cached.filter(|l| l.is_valid(now)) {
            Some(lease) => {
                self.state = State::Rebooting {
                    ip: lease.ip,
                    server: lease.server,
                };
                let mut req = DhcpMessage::request(xid, self.chaddr, lease.ip, lease.server);
                req.server_id = None; // INIT-REBOOT carries no server id
                vec![DhcpAction::Send(req), self.arm()]
            }
            None => {
                self.state = State::Selecting;
                let d = DhcpMessage::discover(xid, self.chaddr);
                vec![DhcpAction::Send(d), self.arm()]
            }
        }
    }

    /// Release the bound lease (when leaving an AP gracefully). Returns the
    /// RELEASE message to transmit, if there was a lease.
    pub fn release(&mut self) -> Vec<DhcpAction> {
        let out = match (self.state, self.lease) {
            (State::Bound, Some(lease)) => {
                let xid = self.next_xid();
                vec![DhcpAction::Send(DhcpMessage::release(
                    xid,
                    self.chaddr,
                    lease.ip,
                    lease.server,
                ))]
            }
            _ => Vec::new(),
        };
        self.state = State::Idle;
        self.attempt_started = None;
        out
    }

    /// Feed a received DHCP message at `now`.
    pub fn handle_message(&mut self, msg: &DhcpMessage, now: Instant) -> Vec<DhcpAction> {
        if msg.chaddr != self.chaddr || msg.xid != self.xid {
            return Vec::new();
        }
        match (self.state, msg.msg_type) {
            (State::Selecting, MessageType::Offer) => {
                let Some(server) = msg.server_id else {
                    return Vec::new();
                };
                let ip = msg.yiaddr;
                self.state = State::Requesting { ip, server };
                // Same transaction: REQUEST reuses the xid per RFC 2131.
                let req = DhcpMessage::request(self.xid, self.chaddr, ip, server);
                vec![DhcpAction::Send(req), self.arm()]
            }
            (State::Requesting { ip, server }, MessageType::Ack)
            | (State::Rebooting { ip, server }, MessageType::Ack) => {
                let lease_secs = msg.lease_secs.unwrap_or(3600);
                let lease = Lease {
                    ip,
                    server,
                    expires: now + Duration::from_secs(lease_secs as u64),
                };
                self.lease = Some(lease);
                self.state = State::Bound;
                vec![DhcpAction::Bound(lease)]
            }
            (State::Rebooting { .. }, MessageType::Nak) => {
                // Cached lease no longer honoured: fall back to a full
                // acquisition within the same attempt budget.
                self.state = State::Selecting;
                let xid = self.next_xid();
                let d = DhcpMessage::discover(xid, self.chaddr);
                vec![DhcpAction::Send(d), self.arm()]
            }
            (State::Requesting { .. }, MessageType::Nak) => self.fail(now),
            _ => Vec::new(),
        }
    }

    /// Feed the expiry, at `now`, of the timer last armed. Ignored unless
    /// an acquisition is in flight.
    pub fn handle_timer(&mut self, now: Instant) -> Vec<DhcpAction> {
        if !self.is_acquiring() {
            return Vec::new();
        }
        // `is_acquiring()` implies an attempt start was recorded; if the
        // state machine ever breaks that, ignore the expiry.
        let Some(started) = self.attempt_started else {
            return Vec::new();
        };
        if now.saturating_since(started) >= self.config.attempt_budget {
            return self.fail(now);
        }
        // Retransmit the message for the current phase.
        let mut msg = match self.state {
            State::Selecting => DhcpMessage::discover(self.xid, self.chaddr),
            State::Requesting { ip, server } => {
                DhcpMessage::request(self.xid, self.chaddr, ip, server)
            }
            State::Rebooting { ip, server } => {
                let mut m = DhcpMessage::request(self.xid, self.chaddr, ip, server);
                m.server_id = None;
                m
            }
            _ => unreachable!("is_acquiring checked above"),
        };
        msg.secs = self.secs_elapsed(now);
        vec![DhcpAction::Send(msg), self.arm()]
    }

    fn fail(&mut self, now: Instant) -> Vec<DhcpAction> {
        self.state = State::Failed;
        self.attempt_started = None;
        self.cooldown_until = now + self.config.idle_after_fail;
        vec![DhcpAction::Failed]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH: [u8; 6] = [2, 0, 0, 0, 0, 9];
    const SRV: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);
    const IP: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 77);

    fn client(cfg: DhcpClientConfig) -> DhcpClient {
        DhcpClient::new(cfg, CH, 100)
    }

    fn sent_xid(actions: &[DhcpAction]) -> u32 {
        match &actions[0] {
            DhcpAction::Send(m) => m.xid,
            other => panic!("expected Send, got {other:?}"),
        }
    }

    #[test]
    fn full_acquisition_happy_path() {
        let mut c = client(DhcpClientConfig::default());
        let t0 = Instant::ZERO;
        let acts = c.start(t0, None);
        let xid = sent_xid(&acts);
        assert!(matches!(&acts[0], DhcpAction::Send(m) if m.msg_type == MessageType::Discover));

        let offer = DhcpMessage::offer(xid, CH, IP, SRV, 600);
        let acts = c.handle_message(&offer, t0 + Duration::from_millis(200));
        assert!(matches!(&acts[0], DhcpAction::Send(m) if m.msg_type == MessageType::Request));
        assert_eq!(sent_xid(&acts), xid, "REQUEST reuses the transaction id");

        let ack = DhcpMessage::ack(xid, CH, IP, SRV, 600);
        let t_ack = t0 + Duration::from_millis(400);
        let acts = c.handle_message(&ack, t_ack);
        match &acts[0] {
            DhcpAction::Bound(lease) => {
                assert_eq!(lease.ip, IP);
                assert_eq!(lease.server, SRV);
                assert_eq!(lease.expires, t_ack + Duration::from_secs(600));
            }
            other => panic!("{other:?}"),
        }
        assert!(c.is_bound());
        assert_eq!(c.lease().unwrap().ip, IP);
    }

    #[test]
    fn cached_lease_goes_straight_to_request() {
        let mut c = client(DhcpClientConfig::default());
        let lease = Lease {
            ip: IP,
            server: SRV,
            expires: Instant::from_secs(100),
        };
        let acts = c.start(Instant::ZERO, Some(lease));
        match &acts[0] {
            DhcpAction::Send(m) => {
                assert_eq!(m.msg_type, MessageType::Request);
                assert_eq!(m.requested_ip, Some(IP));
                assert_eq!(m.server_id, None, "INIT-REBOOT carries no server id");
            }
            other => panic!("{other:?}"),
        }
        // ACK binds directly.
        let xid = sent_xid(&acts);
        let ack = DhcpMessage::ack(xid, CH, IP, SRV, 600);
        let acts = c.handle_message(&ack, Instant::from_millis(100));
        assert!(matches!(acts[0], DhcpAction::Bound(_)));
    }

    #[test]
    fn expired_cache_ignored() {
        let mut c = client(DhcpClientConfig::default());
        let stale = Lease {
            ip: IP,
            server: SRV,
            expires: Instant::from_secs(1),
        };
        let acts = c.start(Instant::from_secs(5), Some(stale));
        assert!(matches!(&acts[0], DhcpAction::Send(m) if m.msg_type == MessageType::Discover));
    }

    #[test]
    fn nak_on_reboot_falls_back_to_discover() {
        let mut c = client(DhcpClientConfig::default());
        let lease = Lease {
            ip: IP,
            server: SRV,
            expires: Instant::from_secs(100),
        };
        let acts = c.start(Instant::ZERO, Some(lease));
        let xid = sent_xid(&acts);
        let nak = DhcpMessage::nak(xid, CH, SRV);
        let acts = c.handle_message(&nak, Instant::from_millis(50));
        assert!(matches!(&acts[0], DhcpAction::Send(m) if m.msg_type == MessageType::Discover));
        assert!(c.is_acquiring());
    }

    #[test]
    fn retransmits_until_budget_then_fails_with_cooldown() {
        let cfg = DhcpClientConfig::default(); // 1 s retx, 3 s budget, 60 s idle
        let mut c = client(cfg);
        let t0 = Instant::ZERO;
        let acts = c.start(t0, None);
        assert!(matches!(acts[1], DhcpAction::ArmTimer { .. }));
        let mut now = t0;
        let mut retransmits = 0;
        loop {
            now += Duration::from_secs(1);
            let acts = c.handle_timer(now);
            match &acts[0] {
                DhcpAction::Send(m) => {
                    assert_eq!(m.msg_type, MessageType::Discover);
                    assert_eq!(m.secs as u64, now.as_nanos() / 1_000_000_000);
                    retransmits += 1;
                    assert!(matches!(acts[1], DhcpAction::ArmTimer { .. }));
                }
                DhcpAction::Failed => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(retransmits, 2, "1 s and 2 s retransmit; 3 s expiry fails");
        assert_eq!(c.earliest_restart(), now + Duration::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "during cooldown")]
    fn restart_during_cooldown_panics() {
        let mut c = client(DhcpClientConfig::default());
        c.start(Instant::ZERO, None);
        // Force failure via timer expiries.
        let mut now = Instant::ZERO;
        for _ in 1..=3 {
            now += Duration::from_secs(1);
            c.handle_timer(now);
        }
        c.start(now + Duration::from_secs(1), None); // < 60 s cooldown
    }

    #[test]
    fn reduced_config_has_no_cooldown() {
        let mut c = client(DhcpClientConfig::reduced(Duration::from_millis(100)));
        c.start(Instant::ZERO, None);
        let mut now = Instant::ZERO;
        loop {
            now += Duration::from_millis(100);
            let acts = c.handle_timer(now);
            if matches!(acts.first(), Some(DhcpAction::Failed)) {
                break;
            }
            assert!(
                matches!(acts.get(1), Some(DhcpAction::ArmTimer { .. })),
                "expected rearm"
            );
        }
        // May restart immediately.
        let acts = c.start(now, None);
        assert!(!acts.is_empty());
    }

    #[test]
    fn stale_timer_ignored_after_bind() {
        let mut c = client(DhcpClientConfig::default());
        let acts = c.start(Instant::ZERO, None);
        let xid = sent_xid(&acts);
        let offer = DhcpMessage::offer(xid, CH, IP, SRV, 60);
        c.handle_message(&offer, Instant::from_millis(10));
        let ack = DhcpMessage::ack(xid, CH, IP, SRV, 60);
        c.handle_message(&ack, Instant::from_millis(20));
        // Original discover timer fires late: nothing happens.
        assert!(c.handle_timer(Instant::from_secs(1)).is_empty());
        assert!(c.is_bound());
    }

    #[test]
    fn wrong_xid_or_chaddr_ignored() {
        let mut c = client(DhcpClientConfig::default());
        let acts = c.start(Instant::ZERO, None);
        let xid = sent_xid(&acts);
        let wrong_xid = DhcpMessage::offer(xid + 1, CH, IP, SRV, 60);
        assert!(c.handle_message(&wrong_xid, Instant::ZERO).is_empty());
        let mut wrong_ch = DhcpMessage::offer(xid, CH, IP, SRV, 60);
        wrong_ch.chaddr = [9; 6];
        assert!(c.handle_message(&wrong_ch, Instant::ZERO).is_empty());
        assert!(c.is_acquiring());
    }

    #[test]
    fn release_emits_message_and_resets() {
        let mut c = client(DhcpClientConfig::default());
        let acts = c.start(Instant::ZERO, None);
        let xid = sent_xid(&acts);
        c.handle_message(&DhcpMessage::offer(xid, CH, IP, SRV, 60), Instant::ZERO);
        c.handle_message(&DhcpMessage::ack(xid, CH, IP, SRV, 60), Instant::ZERO);
        let acts = c.release();
        assert!(matches!(&acts[0], DhcpAction::Send(m) if m.msg_type == MessageType::Release));
        assert!(!c.is_bound());
        assert!(c.lease().is_none());
    }

    #[test]
    fn duplicate_offer_after_request_ignored() {
        let mut c = client(DhcpClientConfig::default());
        let acts = c.start(Instant::ZERO, None);
        let xid = sent_xid(&acts);
        let offer = DhcpMessage::offer(xid, CH, IP, SRV, 60);
        c.handle_message(&offer, Instant::ZERO);
        assert!(c.handle_message(&offer, Instant::ZERO).is_empty());
    }
}
