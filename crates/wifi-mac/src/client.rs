//! Client-side 802.11 join state machine.
//!
//! One [`ClientMac`] instance manages the link-layer join of one virtual
//! interface to one AP: (probe →) authenticate → associate. The machine is
//! pure and event-driven: callers feed it frames and timer expiries and it
//! returns [`Action`]s (frames to transmit, timers to arm, outcome
//! notifications). This makes it trivially testable and reusable by both
//! Spider and the stock-driver baseline.
//!
//! Timing is the whole game in the paper: each outstanding request is
//! guarded by the **link-layer timeout** (default 1 s; Eriksson et al.'s
//! Cabernet reduced it to 100 ms, which the paper studies in Figs. 5–6 and
//! Table 3). The timeout applies *per message* of the multi-step handshake,
//! not to the whole join — see the paper's footnote 1.

use sim_engine::time::{Duration, Instant};
use sim_engine::wire::Bytes;

use crate::addr::MacAddr;
use crate::frame::{Frame, FrameBody, Ssid, STATUS_SUCCESS};

/// Join-procedure parameters.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Send a directed probe before authenticating. Skipped when the AP was
    /// just heard from (opportunistic scanning already proved presence).
    pub use_probe: bool,
    /// Per-message response timeout (the "link-layer timeout").
    /// Stock drivers: 1 s. Reduced configuration: 100 ms.
    pub link_layer_timeout: Duration,
    /// Transmission attempts per handshake phase before the join fails.
    pub attempts_per_phase: u32,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            use_probe: true,
            link_layer_timeout: Duration::from_secs(1),
            attempts_per_phase: 3,
        }
    }
}

impl JoinConfig {
    /// The reduced-timeout configuration studied in the paper (100 ms).
    pub fn reduced() -> Self {
        JoinConfig {
            link_layer_timeout: Duration::from_millis(100),
            ..Self::default()
        }
    }
}

/// Handshake phases (for diagnostics and failure attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPhase {
    /// Waiting for a probe response.
    Probe,
    /// Waiting for an authentication response.
    Auth,
    /// Waiting for an association response.
    Assoc,
}

/// Why a join attempt ended unsuccessfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinFailure {
    /// Ran out of attempts in the given phase.
    Timeout(JoinPhase),
    /// The AP refused with the given status code.
    Refused(u16),
}

/// Output of the state machine: things the caller must do. `P` is the
/// data payload type of the frames it sends (which are all management
/// frames; see [`crate::frame::Payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<P = Bytes> {
    /// Transmit this frame (subject to the radio being on-channel).
    Send(Frame<P>),
    /// Arm the response timer: call [`ClientMac::handle_timer`] once
    /// `after` elapses. The caller keeps at most one expiry queued per
    /// machine, and a re-arm replaces it; an expiry in a state that awaits
    /// none is ignored.
    ArmTimer {
        /// Delay until expiry.
        after: Duration,
    },
    /// The join completed; the interface holds association id `aid`.
    Joined {
        /// Association id assigned by the AP.
        aid: u16,
    },
    /// The join failed.
    Failed(JoinFailure),
}

/// Link-layer join state for one (station, AP) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Probing { attempt: u32 },
    Authenticating { attempt: u32 },
    Associating { attempt: u32 },
    Associated { aid: u16 },
    Failed,
}

/// The client-side join machine. See the module docs. It sends and
/// reads only management frames, so each method that takes or returns
/// frames works with frames of any data payload type `P`.
#[derive(Debug, Clone)]
pub struct ClientMac {
    station: MacAddr,
    bssid: MacAddr,
    ssid: Ssid,
    config: JoinConfig,
    state: State,
    seq: u16,
    /// When the current join attempt started (for join-time measurement).
    started_at: Option<Instant>,
}

impl ClientMac {
    /// New machine for `station` targeting AP `bssid` / `ssid`.
    pub fn new(station: MacAddr, bssid: MacAddr, ssid: Ssid, config: JoinConfig) -> ClientMac {
        ClientMac {
            station,
            bssid,
            ssid,
            config,
            state: State::Idle,
            seq: 0,
            started_at: None,
        }
    }

    /// The AP this machine targets.
    pub fn bssid(&self) -> MacAddr {
        self.bssid
    }

    /// The station address.
    pub fn station(&self) -> MacAddr {
        self.station
    }

    /// True once associated.
    pub fn is_associated(&self) -> bool {
        matches!(self.state, State::Associated { .. })
    }

    /// True if a join is in flight (started, not yet succeeded or failed).
    pub fn is_joining(&self) -> bool {
        matches!(
            self.state,
            State::Probing { .. } | State::Authenticating { .. } | State::Associating { .. }
        )
    }

    /// True after a terminal failure (restart with [`ClientMac::start`]).
    pub fn has_failed(&self) -> bool {
        self.state == State::Failed
    }

    /// The association id, if associated.
    pub fn aid(&self) -> Option<u16> {
        match self.state {
            State::Associated { aid } => Some(aid),
            _ => None,
        }
    }

    /// When the in-flight (or completed) join attempt began.
    pub fn join_started_at(&self) -> Option<Instant> {
        self.started_at
    }

    fn next_seq(&mut self) -> u16 {
        self.seq = (self.seq + 1) & 0x0FFF;
        self.seq
    }

    fn arm<P>(&self) -> Action<P> {
        Action::ArmTimer {
            after: self.config.link_layer_timeout,
        }
    }

    fn send<P>(&mut self, mut frame: Frame<P>) -> Action<P> {
        frame.seq = self.next_seq();
        Action::Send(frame)
    }

    /// Begin (or restart) the join at time `now`.
    ///
    /// # Panics
    /// Panics if already associated; disassociate first.
    pub fn start<P>(&mut self, now: Instant) -> Vec<Action<P>> {
        assert!(
            !self.is_associated(),
            "ClientMac::start while associated to {}",
            self.bssid
        );
        self.started_at = Some(now);
        if self.config.use_probe {
            self.state = State::Probing { attempt: 1 };
            let mut probe = Frame::probe_request(self.station);
            // Directed probe: ask this SSID specifically.
            probe.addr1 = self.bssid;
            probe.addr3 = self.bssid;
            probe.body = FrameBody::ProbeReq {
                ssid: self.ssid.clone(),
            };
            vec![self.send(probe), self.arm()]
        } else {
            self.state = State::Authenticating { attempt: 1 };
            let auth = Frame::auth_request(self.station, self.bssid);
            vec![self.send(auth), self.arm()]
        }
    }

    /// Tear down the association (or abandon the join). Returns the
    /// disassociation frame to transmit when previously associated.
    pub fn disassociate<P>(&mut self) -> Vec<Action<P>> {
        let was_associated = self.is_associated();
        self.state = State::Idle;
        self.started_at = None;
        if was_associated {
            let f = Frame::new(
                self.bssid,
                self.station,
                self.bssid,
                FrameBody::Disassoc {
                    reason: crate::frame::REASON_LEAVING,
                },
            );
            vec![self.send(f)]
        } else {
            Vec::new()
        }
    }

    /// Feed a received frame. Frames not from our AP or not addressed to us
    /// are ignored (return no actions).
    pub fn handle_frame<P>(&mut self, frame: &Frame<P>) -> Vec<Action<P>> {
        if frame.addr2 != self.bssid || !frame.is_for(self.station) {
            return Vec::new();
        }
        match (&self.state, &frame.body) {
            (State::Probing { .. }, FrameBody::ProbeResp(_)) => {
                self.state = State::Authenticating { attempt: 1 };
                let auth = Frame::auth_request(self.station, self.bssid);
                vec![self.send(auth), self.arm()]
            }
            (State::Authenticating { .. }, FrameBody::Auth(auth)) if auth.transaction == 2 => {
                if auth.status == STATUS_SUCCESS {
                    self.state = State::Associating { attempt: 1 };
                    let req = Frame::assoc_request(self.station, self.bssid, self.ssid.clone());
                    vec![self.send(req), self.arm()]
                } else {
                    self.state = State::Failed;
                    vec![Action::Failed(JoinFailure::Refused(auth.status))]
                }
            }
            (State::Associating { .. }, FrameBody::AssocResp(resp)) => {
                if resp.status == STATUS_SUCCESS {
                    self.state = State::Associated { aid: resp.aid };
                    vec![Action::Joined { aid: resp.aid }]
                } else {
                    self.state = State::Failed;
                    vec![Action::Failed(JoinFailure::Refused(resp.status))]
                }
            }
            (State::Associated { .. }, FrameBody::Deauth { .. })
            | (State::Associated { .. }, FrameBody::Disassoc { .. }) => {
                // Kicked by the AP; drop to idle so the driver can rejoin.
                self.state = State::Idle;
                self.started_at = None;
                vec![Action::Failed(JoinFailure::Refused(
                    crate::frame::STATUS_FAILURE,
                ))]
            }
            _ => Vec::new(),
        }
    }

    /// Feed the expiry of the timer last armed. Ignored unless a
    /// handshake phase is waiting for a response.
    pub fn handle_timer<P>(&mut self) -> Vec<Action<P>> {
        let max = self.config.attempts_per_phase;
        match self.state {
            State::Probing { attempt } => {
                if attempt >= max {
                    self.fail(JoinPhase::Probe)
                } else {
                    self.state = State::Probing {
                        attempt: attempt + 1,
                    };
                    let mut probe = Frame::probe_request(self.station);
                    probe.addr1 = self.bssid;
                    probe.addr3 = self.bssid;
                    probe.body = FrameBody::ProbeReq {
                        ssid: self.ssid.clone(),
                    };
                    probe.retry = true;
                    vec![self.send(probe), self.arm()]
                }
            }
            State::Authenticating { attempt } => {
                if attempt >= max {
                    self.fail(JoinPhase::Auth)
                } else {
                    self.state = State::Authenticating {
                        attempt: attempt + 1,
                    };
                    let mut auth = Frame::auth_request(self.station, self.bssid);
                    auth.retry = true;
                    vec![self.send(auth), self.arm()]
                }
            }
            State::Associating { attempt } => {
                if attempt >= max {
                    self.fail(JoinPhase::Assoc)
                } else {
                    self.state = State::Associating {
                        attempt: attempt + 1,
                    };
                    let mut req = Frame::assoc_request(self.station, self.bssid, self.ssid.clone());
                    req.retry = true;
                    vec![self.send(req), self.arm()]
                }
            }
            State::Idle | State::Associated { .. } | State::Failed => Vec::new(),
        }
    }

    fn fail<P>(&mut self, phase: JoinPhase) -> Vec<Action<P>> {
        self.state = State::Failed;
        vec![Action::Failed(JoinFailure::Timeout(phase))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    fn sta() -> MacAddr {
        MacAddr::local(1)
    }
    fn ap() -> MacAddr {
        MacAddr::ap(1)
    }
    fn ssid() -> Ssid {
        Ssid::new("open")
    }

    fn machine(cfg: JoinConfig) -> ClientMac {
        ClientMac::new(sta(), ap(), ssid(), cfg)
    }

    /// Walk a machine through the full successful handshake; returns the AID.
    fn complete_join(m: &mut ClientMac) -> u16 {
        let t0 = Instant::ZERO;
        let acts: Vec<Action> = m.start(t0);
        assert!(matches!(acts[0], Action::Send(_)));
        if m.config.use_probe {
            let resp: Frame = Frame::probe_response(ap(), sta(), ssid(), Channel::CH1, 0);
            let acts = m.handle_frame(&resp);
            assert!(matches!(&acts[0], Action::Send(f) if f.body.kind() == "auth-req"));
        }
        let auth: Frame = Frame::auth_response(ap(), sta(), STATUS_SUCCESS);
        let acts = m.handle_frame(&auth);
        assert!(matches!(&acts[0], Action::Send(f) if f.body.kind() == "assoc-req"));
        let assoc: Frame = Frame::assoc_response(ap(), sta(), STATUS_SUCCESS, 7);
        let acts = m.handle_frame(&assoc);
        assert_eq!(acts, vec![Action::Joined { aid: 7 }]);
        7
    }

    #[test]
    fn happy_path_with_probe() {
        let mut m = machine(JoinConfig::default());
        let aid = complete_join(&mut m);
        assert!(m.is_associated());
        assert_eq!(m.aid(), Some(aid));
    }

    #[test]
    fn happy_path_without_probe() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        complete_join(&mut m);
        assert!(m.is_associated());
    }

    #[test]
    fn start_sends_directed_probe() {
        let mut m = machine(JoinConfig::default());
        let acts: Vec<Action> = m.start(Instant::ZERO);
        match &acts[0] {
            Action::Send(f) => {
                assert_eq!(f.addr1, ap());
                assert!(matches!(&f.body, FrameBody::ProbeReq { ssid } if !ssid.is_wildcard()));
            }
            other => panic!("expected Send, got {other:?}"),
        }
        assert!(matches!(acts[1], Action::ArmTimer { .. }));
    }

    #[test]
    fn timer_retries_then_fails() {
        let mut m = machine(JoinConfig {
            attempts_per_phase: 3,
            ..JoinConfig::default()
        });
        let acts: Vec<Action> = m.start(Instant::ZERO);
        assert!(matches!(acts[1], Action::ArmTimer { .. }), "no timer armed");
        // Two retries…
        for _ in 0..2 {
            let acts: Vec<Action> = m.handle_timer();
            assert!(matches!(&acts[0], Action::Send(f) if f.retry));
            assert!(
                matches!(acts[1], Action::ArmTimer { .. }),
                "no timer rearmed"
            );
        }
        // …third expiry exhausts the budget.
        let acts: Vec<Action> = m.handle_timer();
        assert_eq!(
            acts,
            vec![Action::Failed(JoinFailure::Timeout(JoinPhase::Probe))]
        );
        assert!(m.has_failed());
    }

    #[test]
    fn timer_ignored_unless_waiting() {
        let mut m = machine(JoinConfig::default());
        assert!(m.handle_timer::<Bytes>().is_empty(), "idle");
        complete_join(&mut m);
        assert!(m.handle_timer::<Bytes>().is_empty(), "associated");
        assert!(m.is_associated());
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        m.start::<Bytes>(Instant::ZERO);
        m.handle_frame(&Frame::<Bytes>::auth_response(
            ap(),
            sta(),
            crate::frame::STATUS_FAILURE,
        ));
        assert!(m.handle_timer::<Bytes>().is_empty(), "failed");
        assert!(m.has_failed());
    }

    #[test]
    fn refusal_fails_immediately() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        m.start::<Bytes>(Instant::ZERO);
        let refusal: Frame = Frame::auth_response(ap(), sta(), crate::frame::STATUS_FAILURE);
        let acts = m.handle_frame(&refusal);
        assert_eq!(
            acts,
            vec![Action::Failed(JoinFailure::Refused(
                crate::frame::STATUS_FAILURE
            ))]
        );
    }

    #[test]
    fn assoc_refusal_when_ap_full() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        m.start::<Bytes>(Instant::ZERO);
        m.handle_frame(&Frame::<Bytes>::auth_response(ap(), sta(), STATUS_SUCCESS));
        let resp: Frame = Frame::assoc_response(ap(), sta(), crate::frame::STATUS_AP_FULL, 0);
        let acts = m.handle_frame(&resp);
        assert_eq!(
            acts,
            vec![Action::Failed(JoinFailure::Refused(
                crate::frame::STATUS_AP_FULL
            ))]
        );
    }

    #[test]
    fn frames_from_other_aps_ignored() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        m.start::<Bytes>(Instant::ZERO);
        let other: Frame = Frame::auth_response(MacAddr::ap(99), sta(), STATUS_SUCCESS);
        assert!(m.handle_frame(&other).is_empty());
        assert!(m.is_joining());
    }

    #[test]
    fn frames_for_other_stations_ignored() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        m.start::<Bytes>(Instant::ZERO);
        let other: Frame = Frame::auth_response(ap(), MacAddr::local(99), STATUS_SUCCESS);
        assert!(m.handle_frame(&other).is_empty());
    }

    #[test]
    fn disassociate_sends_notice_and_resets() {
        let mut m = machine(JoinConfig::default());
        complete_join(&mut m);
        let acts: Vec<Action> = m.disassociate();
        assert!(matches!(&acts[0], Action::Send(f) if f.body.kind() == "disassoc"));
        assert!(!m.is_associated());
        // Restartable.
        let acts: Vec<Action> = m.start(Instant::from_secs(1));
        assert!(!acts.is_empty());
    }

    #[test]
    fn deauth_from_ap_drops_association() {
        let mut m = machine(JoinConfig::default());
        complete_join(&mut m);
        let deauth: Frame = Frame::new(
            sta(),
            ap(),
            ap(),
            FrameBody::Deauth {
                reason: crate::frame::REASON_INACTIVITY,
            },
        );
        let acts = m.handle_frame(&deauth);
        assert!(matches!(acts[0], Action::Failed(_)));
        assert!(!m.is_associated());
    }

    #[test]
    fn duplicate_assoc_resp_is_ignored_when_associated() {
        let mut m = machine(JoinConfig::default());
        complete_join(&mut m);
        let dup: Frame = Frame::assoc_response(ap(), sta(), STATUS_SUCCESS, 7);
        assert!(m.handle_frame(&dup).is_empty());
    }

    #[test]
    #[should_panic(expected = "while associated")]
    fn start_while_associated_panics() {
        let mut m = machine(JoinConfig::default());
        complete_join(&mut m);
        m.start::<Bytes>(Instant::from_secs(2));
    }

    #[test]
    fn join_started_at_tracked() {
        let mut m = machine(JoinConfig::default());
        let t = Instant::from_millis(1234);
        m.start::<Bytes>(t);
        assert_eq!(m.join_started_at(), Some(t));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut m = machine(JoinConfig {
            use_probe: false,
            ..JoinConfig::default()
        });
        let a1: Vec<Action> = m.start(Instant::ZERO);
        let s1 = match &a1[0] {
            Action::Send(f) => f.seq,
            _ => panic!(),
        };
        let a2 = m.handle_frame(&Frame::<Bytes>::auth_response(ap(), sta(), STATUS_SUCCESS));
        let s2 = match &a2[0] {
            Action::Send(f) => f.seq,
            _ => panic!(),
        };
        assert!(s2 > s1);
    }
}
