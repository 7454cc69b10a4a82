//! TCP connection state machines: a bulk-transfer sender and its receiver.
//!
//! The paper's traffic is downlink bulk HTTP ("downloading large files over
//! HTTP"), so the substrate provides exactly that shape: [`BulkSender`]
//! lives at the wired content server and pushes `total_bytes` toward the
//! vehicle; [`BulkReceiver`] lives on the client, delivers in-order bytes
//! to the metrics layer, and generates the cumulative/duplicate ACKs that
//! drive the sender's Reno machinery.
//!
//! Both machines are pure (segments/timers in, actions out) like the MAC
//! and DHCP layers. Simplifications (documented in DESIGN.md): immediate
//! ACKs (no delayed-ACK timer), no SACK — loss recovery is Reno fast
//! retransmit plus RTO, which is the mechanism the paper's Figs. 7–8
//! exercise.

use sim_engine::time::{Duration, Instant};

use crate::congestion::{CcAction, Reno};
use crate::rtt::RttEstimator;
use crate::segment::Segment;
use crate::seq::SeqNum;

/// Connection parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size, bytes.
    pub mss: u32,
    /// Receiver window advertised to the peer, bytes.
    pub rwnd: u64,
    /// RTO floor.
    pub min_rto: Duration,
    /// RTO ceiling.
    pub max_rto: Duration,
    /// Consecutive RTOs before the connection is declared dead.
    pub max_timeouts: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            rwnd: 256 * 1024,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            max_timeouts: 15,
        }
    }
}

/// Sender outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Put this segment on the wire toward the receiver.
    Transmit(Segment),
    /// Arm the retransmission timer: call [`BulkSender::on_timer`] once
    /// `after` elapses. The caller keeps at most one expiry queued per
    /// machine, and a re-arm replaces it; an expiry before the start or
    /// after the end of the connection is ignored.
    ArmTimer {
        /// Delay until expiry.
        after: Duration,
    },
    /// The handshake completed.
    Connected,
    /// All payload bytes were acknowledged (and the FIN followed).
    Complete,
    /// Too many consecutive timeouts; the connection is abandoned.
    Aborted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderState {
    Closed,
    SynSent,
    Established,
    FinSent,
    Done,
    Aborted,
}

/// The bulk-data sender (server side).
#[derive(Debug, Clone)]
pub struct BulkSender {
    config: TcpConfig,
    conn: u64,
    cc: Reno,
    rtt: RttEstimator,
    state: SenderState,
    isn: SeqNum,
    /// First unacknowledged sequence number.
    snd_una: SeqNum,
    /// Next sequence number to transmit.
    snd_nxt: SeqNum,
    /// Sequence number just past the final payload byte.
    data_end: SeqNum,
    total_bytes: u64,
    timeouts_in_a_row: u32,
    total_timeouts: u64,
    fast_retransmits: u64,
    /// NewReno recovery point: `snd_nxt` when fast recovery was entered.
    recover: SeqNum,
    /// Eifel/F-RTO state: `(pre-timeout snd_nxt, cwnd, ssthresh,
    /// retransmission send time µs)` saved at an RTO so a spurious timeout
    /// can be detected (RFC 3522: the next ACK echoes a timestamp *older*
    /// than the retransmission) and undone.
    frto: Option<(SeqNum, u64, u64, u64)>,
    /// SACK scoreboard: disjoint `(start, end)` runs the receiver reported
    /// holding, sorted ascending, all above `snd_una`.
    sacked: Vec<(SeqNum, SeqNum)>,
    /// Holes already retransmitted in the current recovery episode.
    holes_retransmitted: Vec<SeqNum>,
    /// Duplicate ACKs seen since recovery last made forward progress; used
    /// to detect a *lost retransmission* and re-send the front hole.
    stalled_dup_acks: u32,
}

impl BulkSender {
    /// A sender for connection `conn` that will push `total_bytes`.
    /// `isn_seed` keeps initial sequence numbers deterministic per flow.
    pub fn new(config: TcpConfig, conn: u64, total_bytes: u64, isn_seed: u32) -> BulkSender {
        let isn = SeqNum::new(isn_seed);
        BulkSender {
            config,
            conn,
            cc: Reno::new(1),
            rtt: RttEstimator::default(),
            state: SenderState::Closed,
            isn,
            snd_una: isn,
            snd_nxt: isn,
            data_end: isn + 1 + (total_bytes.min(u32::MAX as u64 / 2) as u32),
            total_bytes,
            timeouts_in_a_row: 0,
            total_timeouts: 0,
            fast_retransmits: 0,
            recover: isn,
            frto: None,
            sacked: Vec::new(),
            holes_retransmitted: Vec::new(),
            stalled_dup_acks: 0,
        }
    }

    /// Bytes of payload acknowledged so far.
    pub fn bytes_acked(&self) -> u64 {
        // Subtract the SYN once it is acknowledged.
        let acked_seq = self.snd_una - self.isn;
        (acked_seq as u64).saturating_sub(1).min(self.total_bytes)
    }

    /// True after every byte (and the FIN) is acknowledged.
    pub fn is_complete(&self) -> bool {
        self.state == SenderState::Done
    }

    /// True if the connection was abandoned after repeated timeouts.
    pub fn is_aborted(&self) -> bool {
        self.state == SenderState::Aborted
    }

    /// Congestion window (diagnostics).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Smoothed RTT (diagnostics).
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Total RTO events (diagnostics; Fig. 8's mechanism).
    pub fn timeout_count(&self) -> u64 {
        self.total_timeouts
    }

    /// Total fast retransmits (diagnostics).
    pub fn fast_retransmit_count(&self) -> u64 {
        self.fast_retransmits
    }

    fn flight(&self) -> u64 {
        (self.snd_nxt - self.snd_una) as u64
    }

    /// Bytes currently unacknowledged (diagnostics).
    pub fn flight_bytes(&self) -> u64 {
        self.flight()
    }

    fn arm(&self) -> SenderAction {
        SenderAction::ArmTimer {
            after: self.rtt.rto(),
        }
    }

    /// Open the connection: transmit SYN.
    ///
    /// # Panics
    /// Panics unless the sender is freshly constructed.
    pub fn start(&mut self, now: Instant) -> Vec<SenderAction> {
        assert_eq!(
            self.state,
            SenderState::Closed,
            "BulkSender::start: already started"
        );
        self.state = SenderState::SynSent;
        self.cc = Reno::new(self.config.mss);
        let mut syn = Segment::data(self.conn, self.isn, 0);
        syn.syn = true;
        syn.ts_us = now.as_micros();
        self.snd_nxt = self.isn + 1;
        vec![SenderAction::Transmit(syn), self.arm()]
    }

    /// Fill the window with new data segments, pushing into `out`.
    fn pump_into(&mut self, now: Instant, out: &mut Vec<SenderAction>) {
        if self.state != SenderState::Established {
            return;
        }
        let wnd = self.cc.cwnd().min(self.config.rwnd);
        while self.flight() < wnd && self.snd_nxt != self.data_end {
            // Never resend runs the receiver already holds (post-RTO
            // go-back-N with a surviving SACK scoreboard).
            if let Some(&(_, run_end)) = self
                .sacked
                .iter()
                .find(|&&(st, e)| self.snd_nxt.within(st, e - st))
            {
                self.snd_nxt = run_end;
                continue;
            }
            let remaining = self.data_end - self.snd_nxt;
            let available = (wnd - self.flight()).min(remaining as u64) as u32;
            if available == 0 {
                break;
            }
            // Nagle for bulk data: while more payload remains, wait for a
            // full MSS of window instead of dribbling tiny segments whose
            // per-frame overhead would swamp the air.
            if available < self.config.mss && remaining as u64 > available as u64 {
                break;
            }
            let len = available.min(self.config.mss);
            let mut seg = Segment::data(self.conn, self.snd_nxt, len);
            seg.ts_us = now.as_micros();
            self.snd_nxt = seg.seq_end();
            out.push(SenderAction::Transmit(seg));
        }
        // All payload sent: follow with FIN.
        if self.snd_nxt == self.data_end && self.flight() < wnd {
            self.state = SenderState::FinSent;
            let mut fin = Segment::data(self.conn, self.snd_nxt, 0);
            fin.fin = true;
            fin.ts_us = now.as_micros();
            self.snd_nxt = self.snd_nxt + 1;
            out.push(SenderAction::Transmit(fin));
        }
    }

    /// Merge the segment's SACK blocks into the scoreboard.
    fn absorb_sack(&mut self, seg: &Segment) {
        for &(start, len) in seg.sack.iter().flatten() {
            if len == 0 {
                continue;
            }
            let end = start + len;
            if end.distance(self.snd_una) <= 0 {
                continue; // entirely below the cumulative ACK
            }
            let start = if start.distance(self.snd_una) < 0 {
                self.snd_una
            } else {
                start
            };
            self.sacked.push((start, end));
        }
        // Normalize: clamp below snd_una, sort, merge overlaps.
        for r in &mut self.sacked {
            if r.0.distance(self.snd_una) < 0 {
                r.0 = self.snd_una;
            }
        }
        self.sacked
            .retain(|&(st, e)| e.distance(st) > 0 && e.distance(self.snd_una) > 0);
        self.sacked.sort_by_key(|r| r.0);
        let mut merged: Vec<(SeqNum, SeqNum)> = Vec::with_capacity(self.sacked.len());
        for &(st, e) in &self.sacked {
            match merged.last_mut() {
                Some(last) if st.distance(last.1) <= 0 => last.1 = last.1.max(e),
                _ => merged.push((st, e)),
            }
        }
        self.sacked = merged;
    }

    /// True if `seq` is covered by a SACKed run.
    fn is_sacked(&self, seq: SeqNum) -> bool {
        self.sacked.iter().any(|&(st, e)| seq.within(st, e - st))
    }

    /// Retransmit up to `budget` un-retransmitted MSS-sized chunks from the
    /// holes below the highest SACKed byte (the core of RFC 6675 loss
    /// recovery: repair a whole burst within about one RTT instead of one
    /// hole per RTT).
    fn sack_retransmits_into(&mut self, now: Instant, budget: usize, out: &mut Vec<SenderAction>) {
        let Some(&(_, highest)) = self.sacked.last() else {
            return;
        };
        let mss = self.config.mss;
        let mut chunk = self.snd_una;
        let mut emitted = 0usize;
        while emitted < budget && chunk.distance(highest) < 0 {
            if self.is_sacked(chunk) {
                // Jump to the end of the covering run.
                let run_end = self
                    .sacked
                    .iter()
                    .find(|&&(st, e)| chunk.within(st, e - st))
                    .map(|&(_, e)| e)
                    // simlint: allow(panic-path) — SACK scoreboard invariant: is_sacked(chunk) means some run covers it; a miss is scoreboard corruption that must be loud
                    .expect("is_sacked implies a covering run");
                chunk = run_end;
                continue;
            }
            // Hole length: up to one MSS, clipped at the next SACKed run
            // and the end of payload.
            let mut len = mss;
            for &(st, _) in &self.sacked {
                if chunk.distance(st) < 0 {
                    len = len.min(st - chunk);
                    break;
                }
            }
            if chunk.distance(self.data_end) >= 0 {
                break; // only the FIN remains; the RTO path handles it
            }
            len = len.min(self.data_end - chunk);
            if len == 0 {
                break;
            }
            if !self.holes_retransmitted.contains(&chunk) {
                let mut seg = Segment::data(self.conn, chunk, len);
                seg.ts_us = now.as_micros();
                self.holes_retransmitted.push(chunk);
                out.push(SenderAction::Transmit(seg));
                emitted += 1;
            }
            chunk = chunk + len;
        }
    }

    /// Retransmit the earliest unacknowledged segment.
    fn retransmit_front(&mut self, now: Instant) -> SenderAction {
        let mut seg = if self.snd_una == self.isn {
            // SYN never acknowledged.
            let mut s = Segment::data(self.conn, self.isn, 0);
            s.syn = true;
            s
        } else if self.snd_una == self.data_end {
            // Only the FIN is outstanding.
            let mut s = Segment::data(self.conn, self.snd_una, 0);
            s.fin = true;
            s
        } else {
            let remaining = self.data_end - self.snd_una;
            let len = remaining.min(self.config.mss);
            Segment::data(self.conn, self.snd_una, len)
        };
        seg.ts_us = now.as_micros();
        SenderAction::Transmit(seg)
    }

    /// Feed an incoming segment (an ACK from the receiver).
    pub fn on_segment(&mut self, seg: &Segment, now: Instant) -> Vec<SenderAction> {
        let mut out = Vec::new();
        self.on_segment_into(seg, now, &mut out);
        out
    }

    /// [`Self::on_segment`], pushing actions into a caller-owned buffer so
    /// the per-event hot path reuses one allocation across segments.
    pub fn on_segment_into(&mut self, seg: &Segment, now: Instant, out: &mut Vec<SenderAction>) {
        if seg.conn != self.conn {
            return;
        }
        let Some(ack) = seg.ack else {
            return;
        };
        if matches!(self.state, SenderState::Established | SenderState::FinSent) {
            self.absorb_sack(seg);
        }
        match self.state {
            SenderState::SynSent if seg.syn && ack == self.isn + 1 => {
                self.snd_una = ack;
                if let Some(echo) = seg.ts_echo_us {
                    self.rtt
                        .sample(now.saturating_since(Instant::from_micros(echo)));
                }
                self.state = SenderState::Established;
                self.timeouts_in_a_row = 0;
                out.push(SenderAction::Connected);
                // ACK the SYN-ACK so the receiver also establishes.
                out.push(SenderAction::Transmit(Segment::ack_only(
                    self.conn,
                    self.snd_nxt,
                    seg.seq_end(),
                )));
                self.pump_into(now, out);
                out.push(self.arm());
            }
            SenderState::SynSent => {}
            SenderState::Established | SenderState::FinSent => {
                if ack.distance(self.snd_una) > 0 {
                    // New cumulative ACK.
                    let acked = (ack - self.snd_una) as u64;
                    self.snd_una = ack;
                    // A post-RTO snd_nxt can sit below a jumping cumulative
                    // ACK (the receiver reassembled past it); never let the
                    // send point fall behind the ACK point.
                    self.snd_nxt = self.snd_nxt.max(self.snd_una);
                    self.timeouts_in_a_row = 0;
                    self.stalled_dup_acks = 0;
                    if let Some((prev_nxt, prev_cwnd, prev_ssthresh, retx_ts)) = self.frto {
                        match seg.ts_echo_us {
                            // The ACK was triggered by a segment sent before
                            // the RTO retransmission: the timeout was
                            // spurious. Undo the collapse and resume where
                            // the original flight left off (RFC 3522).
                            Some(echo) if echo < retx_ts => {
                                self.frto = None;
                                self.cc.undo_timeout(prev_cwnd, prev_ssthresh);
                                self.snd_nxt = self.snd_nxt.max(prev_nxt);
                                self.recover = self.snd_una;
                            }
                            // Triggered by the retransmission itself: the
                            // timeout was genuine; proceed normally.
                            Some(_) => self.frto = None,
                            None => {}
                        }
                    }
                    // RTT from the timestamp echo (RFC 7323): accurate even
                    // across retransmissions and cumulative-ACK jumps.
                    if let Some(echo) = seg.ts_echo_us {
                        self.rtt
                            .sample(now.saturating_since(Instant::from_micros(echo)));
                    }
                    let in_recovery = self.cc.phase() == crate::congestion::Phase::FastRecovery;
                    if in_recovery && ack.distance(self.recover) < 0 {
                        // NewReno partial ACK: another hole in the pre-loss
                        // window. Retransmit it now; stay in recovery.
                        self.cc.on_partial_ack(acked);
                        out.push(self.retransmit_front(now));
                        out.push(self.arm());
                        return;
                    }
                    if ack.distance(self.recover) >= 0 {
                        self.holes_retransmitted.clear();
                    }
                    self.cc.on_new_ack(acked);
                    if self.snd_una == self.data_end + 1 {
                        // FIN acknowledged: everything delivered.
                        self.state = SenderState::Done;
                        out.push(SenderAction::Complete);
                        return;
                    }
                    self.pump_into(now, out);
                    out.push(self.arm());
                } else if ack == self.snd_una && self.flight() > 0 {
                    // Duplicate ACK.
                    match self.cc.on_dup_ack(self.flight()) {
                        CcAction::FastRetransmit => {
                            self.fast_retransmits += 1;
                            self.frto = None;
                            self.recover = self.snd_nxt;
                            self.holes_retransmitted.clear();
                            let mark = out.len();
                            self.sack_retransmits_into(now, 2, out);
                            if out.len() == mark {
                                out.push(self.retransmit_front(now));
                            }
                            out.push(self.arm());
                        }
                        CcAction::None => {
                            // Inside recovery, each dup ACK may license the
                            // repair of a further SACK hole.
                            if self.cc.phase() == crate::congestion::Phase::FastRecovery {
                                self.stalled_dup_acks += 1;
                                if self.stalled_dup_acks >= 8 {
                                    // The cumulative ACK hasn't moved across
                                    // many dup ACKs: the front hole's
                                    // retransmission was itself lost. Clear
                                    // its mark so it goes out again.
                                    self.stalled_dup_acks = 0;
                                    let front = self.snd_una;
                                    self.holes_retransmitted.retain(|&h| h != front);
                                }
                                self.sack_retransmits_into(now, 1, out);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Feed the expiry, at `now`, of the retransmission timer last armed.
    /// Ignored before the start and after the end of the connection.
    pub fn on_timer(&mut self, now: Instant) -> Vec<SenderAction> {
        let mut out = Vec::new();
        self.on_timer_into(now, &mut out);
        out
    }

    /// [`Self::on_timer`], pushing actions into a caller-owned buffer
    /// (see [`Self::on_segment_into`]).
    pub fn on_timer_into(&mut self, now: Instant, out: &mut Vec<SenderAction>) {
        if matches!(
            self.state,
            SenderState::Closed | SenderState::Done | SenderState::Aborted
        ) {
            return;
        }
        if self.flight() == 0 {
            // Nothing outstanding (idle window); keep the timer parked.
            out.push(self.arm());
            return;
        }
        self.timeouts_in_a_row += 1;
        self.total_timeouts += 1;
        if self.timeouts_in_a_row > self.config.max_timeouts {
            self.state = SenderState::Aborted;
            out.push(SenderAction::Aborted);
            return;
        }
        self.rtt.on_timeout();
        // Keep the SACK scoreboard (RFC 6675): the receiver still holds
        // those runs, and pump() skips them on the go-back-N resend.
        self.holes_retransmitted.clear();
        let saved = (self.snd_nxt, self.cc.cwnd(), self.cc.ssthresh());
        self.cc.on_timeout(self.flight());
        self.recover = self.snd_nxt;
        // Go-back-N restart: pull snd_nxt back to snd_una.
        if self.state == SenderState::FinSent && self.snd_una != self.data_end {
            self.state = SenderState::Established;
        }
        self.snd_nxt = self.snd_una;
        let mark = out.len();
        out.push(self.retransmit_front(now));
        self.snd_nxt = self.snd_una.max(out_seq_end(&out[mark]));
        // Eifel detection: if the next advancing ACK echoes a timestamp
        // taken before this retransmission, the original flight was still
        // delivering and the timeout was spurious (e.g. the receiver was
        // briefly off-channel in power-save); remember enough to undo.
        self.frto = Some((saved.0, saved.1, saved.2, now.as_micros()));
        out.push(self.arm());
    }
}

fn out_seq_end(action: &SenderAction) -> SeqNum {
    match action {
        SenderAction::Transmit(s) => s.seq_end(),
        _ => unreachable!("retransmit_front returns Transmit"),
    }
}

/// Receiver outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverAction {
    /// Put this (ACK) segment on the wire toward the sender.
    Transmit(Segment),
    /// `bytes` fresh in-order payload bytes became available to the
    /// application — the throughput metric hooks here.
    Deliver {
        /// Fresh in-order bytes.
        bytes: u64,
    },
    /// The sender's FIN arrived; the stream is complete.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverState {
    Listen,
    Established,
    Finished,
}

/// The bulk-data receiver (client side).
#[derive(Debug, Clone)]
pub struct BulkReceiver {
    conn: u64,
    state: ReceiverState,
    /// Our (arbitrary, unused-for-data) sequence number.
    local_seq: SeqNum,
    /// Next expected sequence number from the sender.
    rcv_nxt: SeqNum,
    /// Out-of-order runs `(start, len)`, disjoint, sorted by start.
    ooo: Vec<(SeqNum, u32)>,
    total_delivered: u64,
    dup_acks_sent: u64,
    fin_seen: bool,
    /// Sequence number just past the sender's FIN, once seen (in or out of
    /// order); the FIN occupies sequence space but carries no payload.
    fin_at: Option<SeqNum>,
    /// Most recent TSval seen from the sender (echoed in ACKs).
    ts_recent: Option<u64>,
}

impl BulkReceiver {
    /// A receiver for connection `conn`.
    pub fn new(conn: u64) -> BulkReceiver {
        BulkReceiver {
            conn,
            state: ReceiverState::Listen,
            local_seq: SeqNum::new(1),
            rcv_nxt: SeqNum::new(0),
            ooo: Vec::new(),
            total_delivered: 0,
            dup_acks_sent: 0,
            fin_seen: false,
            fin_at: None,
            ts_recent: None,
        }
    }

    /// Total in-order payload delivered.
    pub fn delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Duplicate ACKs generated (diagnostics).
    pub fn dup_acks_sent(&self) -> u64 {
        self.dup_acks_sent
    }

    /// True once the FIN was delivered in order.
    pub fn is_finished(&self) -> bool {
        self.state == ReceiverState::Finished
    }

    fn ack_now(&self) -> Segment {
        let mut seg = Segment::ack_only(self.conn, self.local_seq, self.rcv_nxt);
        // Advertise up to three out-of-order runs (RFC 2018).
        for (slot, &(start, len)) in seg.sack.iter_mut().zip(self.ooo.iter()) {
            *slot = Some((start, len));
        }
        seg.ts_echo_us = self.ts_recent;
        seg
    }

    /// Feed an incoming segment from the sender.
    pub fn on_segment(&mut self, seg: &Segment, now: Instant) -> Vec<ReceiverAction> {
        let mut out = Vec::new();
        self.on_segment_into(seg, now, &mut out);
        out
    }

    /// [`Self::on_segment`], pushing actions into a caller-owned buffer so
    /// the per-event hot path reuses one allocation across segments.
    pub fn on_segment_into(&mut self, seg: &Segment, _now: Instant, out: &mut Vec<ReceiverAction>) {
        if seg.conn != self.conn {
            return;
        }
        if seg.ts_us != 0 {
            self.ts_recent = Some(seg.ts_us);
        }
        match self.state {
            ReceiverState::Listen => {
                if seg.syn {
                    self.rcv_nxt = seg.seq_end();
                    self.state = ReceiverState::Established;
                    let mut synack = Segment::data(self.conn, self.local_seq, 0);
                    synack.syn = true;
                    synack.ack = Some(self.rcv_nxt);
                    synack.ts_echo_us = self.ts_recent;
                    self.local_seq = self.local_seq + 1;
                    out.push(ReceiverAction::Transmit(synack));
                }
            }
            ReceiverState::Established => {
                if seg.syn {
                    // Retransmitted SYN: re-acknowledge.
                    let mut synack = Segment::data(self.conn, self.local_seq + u32::MAX, 0);
                    synack.syn = true;
                    synack.ack = Some(self.rcv_nxt);
                    synack.ts_echo_us = self.ts_recent;
                    out.push(ReceiverAction::Transmit(synack));
                    return;
                }
                if seg.seq_len() == 0 {
                    // Pure ACK from the sender's handshake; nothing to do.
                    return;
                }
                if seg.fin {
                    // The FIN occupies one unit of sequence space but no
                    // payload; remember where it sits so reassembly does
                    // not count it as a byte.
                    self.fin_at = Some(seg.seq_end());
                }
                let delta = seg.seq.distance(self.rcv_nxt);
                if delta > 0 {
                    // A hole: stash and duplicate-ACK.
                    self.stash(seg);
                    self.dup_acks_sent += 1;
                    out.push(ReceiverAction::Transmit(self.ack_now()));
                } else if seg.seq_end().distance(self.rcv_nxt) <= 0 {
                    // Entirely old: re-ACK.
                    self.dup_acks_sent += 1;
                    out.push(ReceiverAction::Transmit(self.ack_now()));
                } else {
                    // In-order (possibly overlapping the front). Fresh bytes
                    // = total sequence advance (segment + drained OOO runs)
                    // minus the FIN's phantom unit if it was consumed.
                    let pre = self.rcv_nxt;
                    self.rcv_nxt = seg.seq_end();
                    self.drain_ooo();
                    let mut fresh = (self.rcv_nxt - pre) as u64;
                    if self.fin_at == Some(self.rcv_nxt) {
                        self.fin_seen = true;
                        fresh -= 1;
                    }
                    if fresh > 0 {
                        self.total_delivered += fresh;
                        out.push(ReceiverAction::Deliver { bytes: fresh });
                    }
                    out.push(ReceiverAction::Transmit(self.ack_now()));
                    if self.fin_seen {
                        self.state = ReceiverState::Finished;
                        out.push(ReceiverAction::Finished);
                    }
                }
            }
            ReceiverState::Finished => {
                // Re-ACK anything (e.g. retransmitted FIN).
                out.push(ReceiverAction::Transmit(self.ack_now()));
            }
        }
    }

    fn stash(&mut self, seg: &Segment) {
        let start = seg.seq;
        let len = seg.seq_len();
        // Insert keeping order; merge exact/overlapping duplicates crudely
        // (windows are small; clarity over micro-optimization).
        if self
            .ooo
            .iter()
            .any(|&(s, l)| start.within(s, l) && seg.seq_end().distance(s + l) <= 0)
        {
            return; // fully covered already
        }
        self.ooo.push((start, len));
        self.ooo.sort_by_key(|r| r.0);
    }

    /// Pull contiguous runs out of the OOO store, advancing `rcv_nxt`.
    /// Callers compute delivered bytes from the sequence advance (and
    /// subtract the FIN's phantom unit via `fin_at`).
    fn drain_ooo(&mut self) {
        loop {
            let mut advanced = false;
            let rcv_nxt = &mut self.rcv_nxt;
            self.ooo.retain(|&(start, len)| {
                if start.distance(*rcv_nxt) <= 0 {
                    let end = start + len;
                    if end.distance(*rcv_nxt) > 0 {
                        *rcv_nxt = end;
                    }
                    false
                } else {
                    true
                }
            });
            for &(start, _) in &self.ooo {
                if start == self.rcv_nxt {
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn pipe(sender: &mut BulkSender, receiver: &mut BulkReceiver, now: Instant) -> (u64, bool) {
        // Run the two machines against each other with a lossless,
        // zero-latency pipe until quiescence. Returns (delivered, complete).
        let mut to_recv: VecDeque<Segment> = VecDeque::new();
        let mut to_send: VecDeque<Segment> = VecDeque::new();
        for a in sender.start(now) {
            if let SenderAction::Transmit(s) = a {
                to_recv.push_back(s);
            }
        }
        let mut guard = 0;
        while !to_recv.is_empty() || !to_send.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000, "pipe did not quiesce");
            if let Some(s) = to_recv.pop_front() {
                for a in receiver.on_segment(&s, now) {
                    if let ReceiverAction::Transmit(seg) = a {
                        to_send.push_back(seg);
                    }
                }
            }
            if let Some(s) = to_send.pop_front() {
                for a in sender.on_segment(&s, now) {
                    if let SenderAction::Transmit(seg) = a {
                        to_recv.push_back(seg);
                    }
                }
            }
        }
        (receiver.delivered(), sender.is_complete())
    }

    #[test]
    fn lossless_transfer_completes_exactly() {
        let total = 1_000_000;
        let mut s = BulkSender::new(TcpConfig::default(), 1, total, 5000);
        let mut r = BulkReceiver::new(1);
        let (delivered, complete) = pipe(&mut s, &mut r, Instant::ZERO);
        assert_eq!(delivered, total);
        assert!(complete);
        assert!(r.is_finished());
        assert_eq!(s.bytes_acked(), total);
        assert_eq!(s.timeout_count(), 0);
    }

    #[test]
    fn tiny_transfer_completes() {
        let mut s = BulkSender::new(TcpConfig::default(), 2, 100, 1);
        let mut r = BulkReceiver::new(2);
        let (delivered, complete) = pipe(&mut s, &mut r, Instant::ZERO);
        assert_eq!(delivered, 100);
        assert!(complete);
    }

    #[test]
    fn zero_byte_transfer_completes() {
        let mut s = BulkSender::new(TcpConfig::default(), 3, 0, 1);
        let mut r = BulkReceiver::new(3);
        let (delivered, complete) = pipe(&mut s, &mut r, Instant::ZERO);
        assert_eq!(delivered, 0);
        assert!(complete);
    }

    #[test]
    fn syn_timeout_retransmits_syn() {
        let mut s = BulkSender::new(TcpConfig::default(), 1, 1000, 1);
        let acts = s.start(Instant::ZERO);
        assert!(matches!(acts[1], SenderAction::ArmTimer { .. }));
        let acts = s.on_timer(Instant::from_secs(1));
        match &acts[0] {
            SenderAction::Transmit(seg) => assert!(seg.syn),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.timeout_count(), 1);
    }

    #[test]
    fn rto_collapses_window_and_retransmits_una() {
        let mut s = BulkSender::new(TcpConfig::default(), 1, 1_000_000, 1);
        let mut r = BulkReceiver::new(1);
        // Handshake.
        let now = Instant::ZERO;
        let syn = match &s.start(now)[0] {
            SenderAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let synack = match &r.on_segment(&syn, now)[0] {
            ReceiverAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let acts = s.on_segment(&synack, now);
        let data: Vec<Segment> = acts
            .iter()
            .filter_map(|a| match a {
                SenderAction::Transmit(seg) if seg.len > 0 => Some(*seg),
                _ => None,
            })
            .collect();
        assert!(!data.is_empty());
        let cwnd_before = s.cwnd();
        assert!(acts
            .iter()
            .any(|a| matches!(a, SenderAction::ArmTimer { .. })));
        // Lose everything; fire the RTO.
        let acts = s.on_timer(Instant::from_secs(2));
        match &acts[0] {
            SenderAction::Transmit(seg) => {
                assert_eq!(seg.seq, data[0].seq, "retransmits from snd_una");
            }
            other => panic!("{other:?}"),
        }
        assert!(s.cwnd() < cwnd_before);
        assert_eq!(s.cwnd(), 1460);
    }

    #[test]
    fn abort_after_max_timeouts() {
        let cfg = TcpConfig {
            max_timeouts: 3,
            ..TcpConfig::default()
        };
        let mut s = BulkSender::new(cfg, 1, 1000, 1);
        let acts = s.start(Instant::ZERO);
        assert!(matches!(acts[1], SenderAction::ArmTimer { .. }));
        let mut now = Instant::ZERO;
        let mut aborted = false;
        for _ in 0..10 {
            now += Duration::from_secs(5);
            let acts = s.on_timer(now);
            if acts.iter().any(|a| matches!(a, SenderAction::Aborted)) {
                aborted = true;
                break;
            }
            assert!(acts
                .iter()
                .any(|a| matches!(a, SenderAction::ArmTimer { .. })));
        }
        assert!(aborted);
        assert!(s.is_aborted());
    }

    #[test]
    fn receiver_dup_acks_on_hole_and_reassembles() {
        let mut r = BulkReceiver::new(9);
        let now = Instant::ZERO;
        // Handshake.
        let syn = {
            let mut s = Segment::data(9, SeqNum::new(100), 0);
            s.syn = true;
            s
        };
        r.on_segment(&syn, now);
        // Segment 2 arrives before segment 1.
        let seg1 = Segment::data(9, SeqNum::new(101), 1000);
        let seg2 = Segment::data(9, SeqNum::new(1101), 1000);
        let acts = r.on_segment(&seg2, now);
        match &acts[0] {
            ReceiverAction::Transmit(a) => assert_eq!(a.ack, Some(SeqNum::new(101))),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.dup_acks_sent(), 1);
        assert_eq!(r.delivered(), 0);
        // The hole fills: both deliver at once.
        let acts = r.on_segment(&seg1, now);
        match &acts[0] {
            ReceiverAction::Deliver { bytes } => assert_eq!(*bytes, 2000),
            other => panic!("{other:?}"),
        }
        match &acts[1] {
            ReceiverAction::Transmit(a) => assert_eq!(a.ack, Some(SeqNum::new(2101))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn receiver_ignores_duplicate_data() {
        let mut r = BulkReceiver::new(9);
        let now = Instant::ZERO;
        let syn = {
            let mut s = Segment::data(9, SeqNum::new(0), 0);
            s.syn = true;
            s
        };
        r.on_segment(&syn, now);
        let seg = Segment::data(9, SeqNum::new(1), 500);
        r.on_segment(&seg, now);
        let acts = r.on_segment(&seg, now);
        assert!(
            acts.iter()
                .all(|a| !matches!(a, ReceiverAction::Deliver { .. })),
            "duplicate must not deliver"
        );
        assert_eq!(r.delivered(), 500);
    }

    /// Establish a sender with `n` full segments in flight; returns the
    /// data segments and the receiver.
    fn established_with_flight(total: u64) -> (BulkSender, BulkReceiver, Vec<Segment>) {
        let mut s = BulkSender::new(TcpConfig::default(), 1, total, 1);
        let mut r = BulkReceiver::new(1);
        // Non-zero epoch so every segment carries a real timestamp.
        let now = Instant::from_secs(1);
        let syn = match &s.start(now)[0] {
            SenderAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let synack = match &r.on_segment(&syn, now)[0] {
            ReceiverAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let mut data = Vec::new();
        for a in s.on_segment(&synack, now) {
            if let SenderAction::Transmit(seg) = a {
                if seg.len > 0 {
                    data.push(seg);
                }
            }
        }
        // Grow the window by ACKing the first few in order.
        let mut delivered = 0;
        while data.len() - delivered < 8 && delivered < data.len() {
            let seg = data[delivered];
            delivered += 1;
            for a in r.on_segment(&seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    for sa in s.on_segment(&ack, now) {
                        if let SenderAction::Transmit(new_seg) = sa {
                            if new_seg.len > 0 {
                                data.push(new_seg);
                            }
                        }
                    }
                }
            }
        }
        (s, r, data[delivered..].to_vec())
    }

    #[test]
    fn sack_recovery_repairs_a_burst_within_the_dup_ack_train() {
        // Drop the first TWO in-flight segments; deliver the rest. SACK
        // must retransmit both holes without waiting for an RTO.
        let (mut s, mut r, flight) = established_with_flight(1_000_000);
        assert!(
            flight.len() >= 6,
            "need a deep flight, have {}",
            flight.len()
        );
        let now = Instant::from_secs(1);
        let mut retransmitted = Vec::new();
        for seg in &flight[2..] {
            for a in r.on_segment(seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    assert!(
                        ack.sack.iter().flatten().count() > 0,
                        "dup ACKs above a hole must carry SACK blocks"
                    );
                    for sa in s.on_segment(&ack, now) {
                        if let SenderAction::Transmit(rt) = sa {
                            retransmitted.push(rt.seq);
                        }
                    }
                }
            }
        }
        assert!(
            retransmitted.contains(&flight[0].seq),
            "first hole must be retransmitted"
        );
        assert!(
            retransmitted.contains(&flight[1].seq),
            "second hole must be retransmitted in the same recovery"
        );
        assert_eq!(s.timeout_count(), 0, "no RTO needed");
    }

    #[test]
    fn eifel_undoes_a_spurious_timeout() {
        // Stall the ACKs (receiver briefly deaf), fire the RTO, then let
        // the ORIGINAL flight's ACKs arrive: their timestamp echoes predate
        // the retransmission, so the collapse must be undone.
        let (mut s, mut r, flight) = established_with_flight(1_000_000);
        let cwnd_before = s.cwnd();
        let rto_at = Instant::from_secs(3);
        let fired = s.on_timer(rto_at);
        assert!(
            fired.iter().any(|a| matches!(a, SenderAction::Transmit(_))),
            "RTO must retransmit"
        );
        assert_eq!(s.cwnd(), 1460, "collapsed");
        // Original flight now delivers; its ACKs echo pre-RTO timestamps.
        let now = rto_at + Duration::from_millis(10);
        let mut undone = false;
        for seg in &flight {
            for a in r.on_segment(seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    s.on_segment(&ack, now);
                    if s.cwnd() >= cwnd_before {
                        undone = true;
                    }
                }
            }
            if undone {
                break;
            }
        }
        assert!(undone, "spurious RTO must be undone (cwnd restored)");
    }

    #[test]
    fn nagle_pump_emits_full_mss_segments_midstream() {
        let (mut s, mut r, flight) = established_with_flight(10_000_000);
        let now = Instant::from_secs(1);
        // Deliver everything in order and collect what the sender emits.
        let mut emitted = Vec::new();
        for seg in &flight {
            for a in r.on_segment(seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    for sa in s.on_segment(&ack, now) {
                        if let SenderAction::Transmit(new_seg) = sa {
                            emitted.push(new_seg);
                        }
                    }
                }
            }
        }
        assert!(!emitted.is_empty());
        for seg in &emitted {
            assert_eq!(
                seg.len, 1460,
                "mid-stream bulk segments must be full-MSS (Nagle), got {}",
                seg.len
            );
        }
    }

    #[test]
    fn fast_retransmit_fires_on_triple_dup() {
        let mut s = BulkSender::new(TcpConfig::default(), 1, 1_000_000, 1);
        let mut r = BulkReceiver::new(1);
        let now = Instant::ZERO;
        let syn = match &s.start(now)[0] {
            SenderAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let synack = match &r.on_segment(&syn, now)[0] {
            ReceiverAction::Transmit(seg) => *seg,
            _ => panic!(),
        };
        let acts = s.on_segment(&synack, now);
        let data: Vec<Segment> = acts
            .iter()
            .filter_map(|a| match a {
                SenderAction::Transmit(seg) if seg.len > 0 => Some(*seg),
                _ => None,
            })
            .collect();
        // Grow the window first so 5+ segments are in flight: ACK the first
        // two in-order segments, each releasing more.
        let mut all = data;
        let mut delivered = 0;
        while all.len() < 6 && delivered < 2 {
            let seg = all[delivered];
            delivered += 1;
            for a in r.on_segment(&seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    for sa in s.on_segment(&ack, now) {
                        if let SenderAction::Transmit(new_seg) = sa {
                            all.push(new_seg);
                        }
                    }
                }
            }
        }
        assert!(
            all.len() >= 6,
            "need at least 6 segments released, have {}",
            all.len()
        );
        let hole = delivered; // drop all[hole]; feed the rest for dup ACKs.
        let mut retransmitted = false;
        let hole_seq = all[hole].seq;
        let followers: Vec<Segment> = all[hole + 1..].to_vec();
        for seg in &followers {
            for a in r.on_segment(seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    for sa in s.on_segment(&ack, now) {
                        if let SenderAction::Transmit(rt) = sa {
                            if rt.seq == hole_seq {
                                retransmitted = true;
                            }
                        }
                    }
                }
            }
            if retransmitted {
                break;
            }
        }
        assert!(
            retransmitted,
            "triple dup ACK must fast-retransmit the hole"
        );
        assert_eq!(s.fast_retransmit_count(), 1);
    }
}
