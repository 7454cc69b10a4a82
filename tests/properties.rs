//! Property-based tests on the workspace's core invariants — wire-format
//! round-trips, sequence arithmetic, statistics estimators, geometry, and
//! protocol state machines under arbitrary inputs — driven by the in-tree
//! `sim_engine::check` harness (seeded generation, shrink-by-halving,
//! `SPIDER_PROP_REPLAY` for failure replay).

use sim_engine::check::{check, check_with, Config, Gen};
use sim_engine::{prop_assert, prop_assert_eq};

use spider_repro::dhcp::{DhcpMessage, MessageType};
use spider_repro::engine::{Duration, Instant, Rng, Samples, Summary};
use spider_repro::mobility::{Point, Route};
use spider_repro::model::JoinModelParams;
use spider_repro::tcp::{segment::Segment, seq::SeqNum};
use spider_repro::wifi::frame::{Frame, FrameBody, Ssid};
use spider_repro::wifi::{Channel, MacAddr, PhyConfig};

// ---------------------------------------------------------------- frames

fn gen_mac(g: &mut Gen) -> MacAddr {
    let mut octets = [0u8; 6];
    g.fill(&mut octets);
    MacAddr(octets)
}

fn gen_ssid(g: &mut Gen) -> Ssid {
    Ssid::from_bytes(&g.bytes(0, 33)).expect("≤32 bytes")
}

fn gen_channel(g: &mut Gen) -> Channel {
    Channel::from_number(g.u32_in(1, 15) as u8)
}

#[test]
fn beacon_frames_roundtrip() {
    check("beacon_frames_roundtrip", |g| {
        let mut f = Frame::beacon(gen_mac(g), gen_ssid(g), gen_channel(g), g.u64());
        f.seq = g.u32_in(0, 0x0FFF) as u16;
        prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        Ok(())
    });
}

#[test]
fn data_frames_roundtrip() {
    check("data_frames_roundtrip", |g| {
        let mut f = Frame::data_to_ap(gen_mac(g), gen_mac(g), g.bytes(0, 512).into());
        f.power_mgmt = g.bool();
        f.more_data = g.bool();
        prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        Ok(())
    });
}

#[test]
fn frame_decode_never_panics() {
    check("frame_decode_never_panics", |g| {
        let bytes = g.bytes(0, 256);
        let _ = Frame::decode(&bytes); // may Err, must not panic
        Ok(())
    });
}

#[test]
fn frame_decode_survives_truncation() {
    check("frame_decode_survives_truncation", |g| {
        let mut f = Frame::beacon(gen_mac(g), gen_ssid(g), gen_channel(g), g.u64());
        f.seq = g.u32_in(0, 0x0FFF) as u16;
        let encoded = f.encode();
        // Every strict prefix must decode to an error, never panic or
        // yield a frame that round-trips differently.
        let cut = g.usize_in(0, encoded.len());
        prop_assert!(
            Frame::decode(&encoded[..cut]).is_err(),
            "truncated beacon at {cut}/{} decoded",
            encoded.len()
        );
        Ok(())
    });
}

#[test]
fn psm_control_frames_roundtrip() {
    check("psm_control_frames_roundtrip", |g| {
        let (sta, bssid) = (gen_mac(g), gen_mac(g));
        let aid = g.u32_in(0, 0x3FFF) as u16;
        let enter = Frame::psm_enter(sta, bssid);
        prop_assert_eq!(Frame::decode(&enter.encode()).unwrap(), enter);
        let poll: Frame = Frame::ps_poll(sta, bssid, aid);
        let decoded = Frame::decode(&poll.encode()).unwrap();
        prop_assert_eq!(decoded.body, FrameBody::PsPoll { aid });
        Ok(())
    });
}

// ---------------------------------------------------------------- dhcp

#[test]
fn dhcp_messages_roundtrip() {
    check("dhcp_messages_roundtrip", |g| {
        let xid = g.u32();
        let mut chaddr = [0u8; 6];
        g.fill(&mut chaddr);
        let ip = std::net::Ipv4Addr::from(g.u32().to_be_bytes());
        let server = std::net::Ipv4Addr::from(g.u32().to_be_bytes());
        let lease = g.u32_in(1, 86_400);
        let msg = match g.usize_in(0, 4) {
            0 => DhcpMessage::discover(xid, chaddr),
            1 => DhcpMessage::offer(xid, chaddr, ip, server, lease),
            2 => DhcpMessage::request(xid, chaddr, ip, server),
            _ => DhcpMessage::ack(xid, chaddr, ip, server, lease),
        };
        let decoded = DhcpMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
        Ok(())
    });
}

#[test]
fn dhcp_decode_never_panics() {
    check("dhcp_decode_never_panics", |g| {
        let bytes = g.bytes(0, 512);
        let _ = DhcpMessage::decode(&bytes);
        Ok(())
    });
}

#[test]
fn dhcp_decode_survives_truncation() {
    check("dhcp_decode_survives_truncation", |g| {
        let mut chaddr = [0u8; 6];
        g.fill(&mut chaddr);
        let ip = std::net::Ipv4Addr::new(10, 0, 0, 50);
        let srv = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let encoded = DhcpMessage::offer(g.u32(), chaddr, ip, srv, 3600).encode();
        // Truncation may still parse (e.g. only trailing pad/END options are
        // cut), but it must never panic, and whatever parses must be
        // self-consistent: re-encoding it round-trips.
        let cut = g.usize_in(0, encoded.len());
        if let Ok(m) = DhcpMessage::decode(&encoded[..cut]) {
            prop_assert_eq!(DhcpMessage::decode(&m.encode()).unwrap(), m);
        }
        // Cutting inside the fixed BOOTP header always fails.
        let header_cut = g.usize_in(0, 236);
        prop_assert!(
            DhcpMessage::decode(&encoded[..header_cut]).is_err(),
            "header truncated at {header_cut} decoded"
        );
        Ok(())
    });
}

#[test]
fn dhcp_type_is_preserved() {
    check("dhcp_type_is_preserved", |g| {
        let mut chaddr = [0u8; 6];
        g.fill(&mut chaddr);
        let d = DhcpMessage::discover(g.u32(), chaddr);
        prop_assert_eq!(
            DhcpMessage::decode(&d.encode()).unwrap().msg_type,
            MessageType::Discover
        );
        Ok(())
    });
}

// ---------------------------------------------------------------- tcp

#[test]
fn seqnum_ordering_is_antisymmetric() {
    check("seqnum_ordering_is_antisymmetric", |g| {
        let x = SeqNum::new(g.u32());
        let delta = g.u32_in(1, 1 << 30);
        let y = x + delta;
        prop_assert!(x < y);
        prop_assert!(y > x);
        prop_assert_eq!(y - x, delta);
        Ok(())
    });
}

#[test]
fn seqnum_within_respects_bounds() {
    check("seqnum_within_respects_bounds", |g| {
        let s = SeqNum::new(g.u32());
        let len = g.u32_in(1, 1 << 20);
        let off = g.u32_in(0, 1 << 20);
        let p = s + off;
        prop_assert_eq!(p.within(s, len), off < len);
        Ok(())
    });
}

#[test]
fn segments_roundtrip() {
    check("segments_roundtrip", |g| {
        let mut seg = Segment::data(g.u64(), SeqNum::new(g.u32()), g.u32_in(0, 65_536));
        seg.ts_us = g.u64();
        prop_assert_eq!(Segment::decode(&seg.encode()), Some(seg));
        Ok(())
    });
}

#[test]
fn segments_with_sack_roundtrip() {
    check("segments_with_sack_roundtrip", |g| {
        let mut seg = Segment::ack_only(g.u64(), SeqNum::new(1), SeqNum::new(g.u32()));
        let blocks = g.vec(0, 4, |g| (SeqNum::new(g.u32()), g.u32_in(1, 100_000)));
        for (slot, block) in seg.sack.iter_mut().zip(blocks) {
            *slot = Some(block);
        }
        seg.ts_echo_us = g.option(|g| g.u64());
        prop_assert_eq!(Segment::decode(&seg.encode()), Some(seg));
        Ok(())
    });
}

#[test]
fn segment_decode_never_panics() {
    check("segment_decode_never_panics", |g| {
        let bytes = g.bytes(0, 128);
        let _ = Segment::decode(&bytes);
        Ok(())
    });
}

#[test]
fn segment_decode_survives_truncation() {
    check("segment_decode_survives_truncation", |g| {
        let mut seg = Segment::data(g.u64(), SeqNum::new(g.u32()), g.u32_in(0, 65_536));
        seg.ts_echo_us = g.option(|g| g.u64());
        let encoded = seg.encode();
        let cut = g.usize_in(0, encoded.len());
        prop_assert_eq!(Segment::decode(&encoded[..cut]), None);
        Ok(())
    });
}

// ---------------------------------------------------------------- engine

#[test]
fn summary_mean_is_bounded_by_extremes() {
    check("summary_mean_is_bounded_by_extremes", |g| {
        let values = g.vec(1, 200, |g| g.f64_in(-1e6, 1e6));
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
        Ok(())
    });
}

#[test]
fn quantiles_are_monotone() {
    check("quantiles_are_monotone", |g| {
        let values = g.vec(2, 200, |g| g.f64_in(-1e6, 1e6));
        let mut s = Samples::new();
        for &v in &values {
            s.record(v);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = s.quantile(i as f64 / 10.0);
            prop_assert!(q >= last - 1e-9, "quantiles must be monotone");
            last = q;
        }
        Ok(())
    });
}

#[test]
fn rng_below_is_always_in_range() {
    check("rng_below_is_always_in_range", |g| {
        let mut rng = Rng::new(g.u64());
        let n = g.u64_in(1, 1_000_000);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
        Ok(())
    });
}

#[test]
fn duration_roundtrip_secs() {
    check("duration_roundtrip_secs", |g| {
        let d = Duration::from_millis(g.u64_in(0, 10_000_000));
        let back = Duration::from_secs_f64(d.as_secs_f64());
        // Round-trip through f64 is exact at millisecond granularity here.
        prop_assert_eq!(back, d);
        Ok(())
    });
}

// ---------------------------------------------------------------- mobility

#[test]
fn route_positions_lie_on_or_near_route() {
    check("route_positions_lie_on_or_near_route", |g| {
        let w = g.f64_in(50.0, 2_000.0);
        let h = g.f64_in(50.0, 2_000.0);
        let d = g.f64_in(0.0, 50_000.0);
        let r = Route::rectangle(w, h);
        let p = r.position_at_distance(d);
        // Every point on the rectangle has x ∈ [0, w], y ∈ [0, h].
        prop_assert!((-1e-6..=w + 1e-6).contains(&p.x));
        prop_assert!((-1e-6..=h + 1e-6).contains(&p.y));
        Ok(())
    });
}

#[test]
fn route_distance_is_periodic() {
    check("route_distance_is_periodic", |g| {
        let w = g.f64_in(50.0, 500.0);
        let h = g.f64_in(50.0, 500.0);
        let d = g.f64_in(0.0, 5_000.0);
        let r = Route::rectangle(w, h);
        let a = r.position_at_distance(d);
        let b = r.position_at_distance(d + r.length());
        prop_assert!(a.distance(b) < 1e-6);
        Ok(())
    });
}

#[test]
fn point_distance_is_a_metric() {
    check("point_distance_is_a_metric", |g| {
        let coord = |g: &mut Gen| g.f64_in(-1e4, 1e4);
        let a = Point::new(coord(g), coord(g));
        let b = Point::new(coord(g), coord(g));
        let c = Point::new(coord(g), coord(g));
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
        prop_assert!(a.distance(a) < 1e-12);
        Ok(())
    });
}

// ---------------------------------------------------------------- models

#[test]
fn join_probability_is_a_probability() {
    check("join_probability_is_a_probability", |g| {
        let f = g.f64_in(0.0, 1.0);
        let beta_max = g.f64_in(0.6, 12.0);
        let t = g.f64_in(0.0, 20.0);
        let p = JoinModelParams::figure2(f, beta_max).p_join(t);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        Ok(())
    });
}

#[test]
fn phy_delivery_probabilities_valid() {
    check("phy_delivery_probabilities_valid", |g| {
        let d = g.f64_in(0.0, 2_000.0);
        let len = g.usize_in(1, 3_000);
        let phy = PhyConfig::default();
        let m = phy.mgmt_delivery_prob(d, len);
        let dd = phy.data_delivery_prob(d, len);
        prop_assert!((0.0..=1.0).contains(&m));
        prop_assert!((0.0..=1.0).contains(&dd));
        prop_assert!(dd >= m - 1e-12, "ARQ can only help");
        Ok(())
    });
}

#[test]
fn phy_airtime_monotone_in_length() {
    check("phy_airtime_monotone_in_length", |g| {
        let d = g.f64_in(1.0, 300.0);
        let len = g.usize_in(1, 1_400);
        let phy = PhyConfig::default();
        prop_assert!(phy.airtime(len + 100) > phy.airtime(len));
        prop_assert!(phy.expected_data_airtime(d, len) >= phy.airtime(len));
        Ok(())
    });
}

// ---------------------------------------------------------------- reports

fn gen_report_f64(g: &mut Gen) -> f64 {
    // Mix magnitudes: zeros, subnormal-adjacent, huge, and everyday values
    // all must survive the lossless record round-trip.
    match g.usize_in(0, 5) {
        0 => 0.0,
        1 => g.f64_in(-1.0, 1.0) * 1e-300,
        2 => g.f64_in(-1e18, 1e18),
        _ => g.f64_in(-1e6, 1e6),
    }
}

fn gen_samples(g: &mut Gen) -> Samples {
    let mut s = Samples::new();
    for _ in 0..g.usize_in(0, 20) {
        s.record(gen_report_f64(g));
    }
    s
}

fn gen_run_result(g: &mut Gen) -> spider_repro::spider::RunResult {
    spider_repro::spider::RunResult {
        duration: Duration::from_nanos(g.u64()),
        total_bytes: g.u64(),
        avg_throughput_bps: gen_report_f64(g),
        connectivity: g.f64_in(0.0, 1.0),
        connection_durations: gen_samples(g),
        disruption_durations: gen_samples(g),
        instantaneous_bandwidth: gen_samples(g),
        assoc_times: gen_samples(g),
        join_times: gen_samples(g),
        switch_latencies: gen_samples(g),
        dhcp_attempts: g.u64(),
        dhcp_failures: g.u64(),
        assoc_attempts: g.u64(),
        assoc_failures: g.u64(),
        switch_count: g.u64(),
        max_concurrent_aps: g.usize_in(0, 64),
        concurrency_seconds: g.vec(0, 8, |g| g.f64_in(0.0, 1e5)),
        tcp_rtos: g.u64(),
        backhaul_drops: g.u64(),
        psm_drops: g.u64(),
        unassociated_drops: g.u64(),
        air_drops: g.u64(),
        per_client: g.vec(1, 4, |g| spider_repro::spider::ClientCounters {
            joins: g.u64(),
            bytes: g.u64(),
            cell_crossings: g.u64(),
        }),
    }
}

/// The campaign cache's contract: a `RunRecord` round-trip is lossless —
/// serializing the reconstructed run reproduces the exact same bytes.
#[test]
fn run_records_roundtrip_losslessly() {
    use spider_repro::spider::RunRecord;
    check("run_records_roundtrip_losslessly", |g| {
        let result = gen_run_result(g);
        let json = RunRecord::to_json(&result).expect("finite by construction");
        let back = RunRecord::from_json(&json).map_err(|e| format!("parse: {e}"))?;
        prop_assert_eq!(RunRecord::to_json(&back).unwrap(), json);
        prop_assert_eq!(back.total_bytes, result.total_bytes);
        prop_assert_eq!(back.duration, result.duration);
        prop_assert_eq!(back.join_times.values(), result.join_times.values());
        Ok(())
    });
}

/// Any strict prefix of a record is rejected (the parser never panics and
/// never accepts a torn cache file as a complete run).
#[test]
fn run_record_parser_rejects_truncation() {
    use spider_repro::spider::RunRecord;
    check("run_record_parser_rejects_truncation", |g| {
        let json = RunRecord::to_json(&gen_run_result(g)).unwrap();
        let cut = g.usize_in(0, json.len() - 1);
        prop_assert!(
            RunRecord::from_json(&json[..cut]).is_err(),
            "truncated record at {cut}/{} parsed",
            json.len()
        );
        Ok(())
    });
}

/// Mutating any numeric field of a serialized record into an overflowing
/// token is rejected with the typed non-finite error.
#[test]
fn serialized_reports_reject_nonfinite_mutations() {
    use spider_repro::spider::{ReportParseError, RunRecord};
    check("serialized_reports_reject_nonfinite_mutations", |g| {
        let result = gen_run_result(g);
        let json = RunRecord::to_json(&result).unwrap();
        // Pick one "key": position and replace its numeric value in place.
        let colons: Vec<usize> = json
            .char_indices()
            .filter(|&(i, c)| {
                c == ':' && json[i + 1..].starts_with(|c: char| c == '-' || c.is_ascii_digit())
            })
            .map(|(i, _)| i + 1)
            .collect();
        prop_assert!(!colons.is_empty());
        let start = colons[g.usize_in(0, colons.len() - 1)];
        let end = start
            + json[start..]
                .find([',', '}', ']'])
                .expect("number is followed by a delimiter");
        let mutated = format!("{}1e999{}", &json[..start], &json[end..]);
        prop_assert!(matches!(
            RunRecord::from_json(&mutated),
            Err(ReportParseError::NonFinite)
        ));
        Ok(())
    });
}

// ------------------------------------------------- protocol state machines

/// The DHCP client survives arbitrary (well-formed) message storms without
/// panicking and without binding to mismatched transactions.
#[test]
fn dhcp_client_is_storm_proof() {
    check("dhcp_client_is_storm_proof", |g| {
        use spider_repro::dhcp::{DhcpClient, DhcpClientConfig};
        let mut c = DhcpClient::new(DhcpClientConfig::default(), [2, 0, 0, 0, 0, 1], 1);
        c.start(Instant::ZERO, None);
        let ip = std::net::Ipv4Addr::new(10, 0, 0, 50);
        let srv = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let mut now = Instant::ZERO;
        let msgs = g.vec(0, 60, |g| {
            let mut chaddr = [0u8; 6];
            g.fill(&mut chaddr);
            (g.usize_in(0, 5), g.u32(), chaddr)
        });
        for (kind, xid, chaddr) in msgs {
            now += Duration::from_millis(10);
            let m = match kind {
                0 => DhcpMessage::offer(xid, chaddr, ip, srv, 60),
                1 => DhcpMessage::ack(xid, chaddr, ip, srv, 60),
                2 => DhcpMessage::nak(xid, chaddr, srv),
                3 => DhcpMessage::discover(xid, chaddr),
                _ => DhcpMessage::request(xid, chaddr, ip, srv),
            };
            let _ = c.handle_message(&m, now);
        }
        // If it bound, the lease must be internally consistent.
        if let Some(lease) = c.lease() {
            prop_assert_eq!(lease.ip, ip);
            prop_assert!(lease.expires > now);
        }
        Ok(())
    });
}

// ------------------------------------------------ stateful model checks

/// The event queue agrees with a sorted-vector reference model under
/// arbitrary interleavings of pushes, pops, and cancellations.
#[test]
fn event_queue_matches_reference_model() {
    check("event_queue_matches_reference_model", |g| {
        use spider_repro::engine::EventQueue;
        let ops = g.vec(1, 200, |g| (g.usize_in(0, 4), g.u64_in(0, 1_000)));
        let mut q: EventQueue<u64> = EventQueue::new();
        // Reference: Vec of (time_ms, insertion_seq, value, cancelled).
        let mut model: Vec<(u64, u64, u64, bool)> = Vec::new();
        let mut ids = Vec::new();
        // Handles whose events already fired or were cancelled: cancelling
        // one must be a no-op even after its slot has been recycled by a
        // later push (the generation tag defeats ABA aliasing).
        let mut stale_ids = Vec::new();
        let mut seq = 0u64;
        let mut now_ms = 0u64;
        for (op, arg) in ops {
            match op {
                0 => {
                    // Push at now + arg.
                    let t = now_ms + arg;
                    let id = q.push(Instant::from_millis(t), seq);
                    ids.push((id, seq));
                    model.push((t, seq, seq, false));
                    seq += 1;
                }
                1 => {
                    // Cancel a random-ish live id.
                    if !ids.is_empty() {
                        let (id, s) = ids.swap_remove((arg as usize) % ids.len());
                        q.cancel(id);
                        stale_ids.push(id);
                        if let Some(e) = model.iter_mut().find(|e| e.1 == s) {
                            e.3 = true;
                        }
                    }
                }
                2 => {
                    // Re-cancel a stale id: its event popped or was already
                    // cancelled, and its slot may since have been recycled
                    // for a live event above. Nothing may change.
                    if !stale_ids.is_empty() {
                        q.cancel(stale_ids[(arg as usize) % stale_ids.len()]);
                    }
                }
                _ => {
                    // Pop once; must match the earliest live model entry.
                    let expected = model
                        .iter()
                        .filter(|e| !e.3)
                        .min_by_key(|e| (e.0, e.1))
                        .cloned();
                    let got = q.pop();
                    match (expected, got) {
                        (None, None) => {}
                        (Some(e), Some((at, v))) => {
                            prop_assert_eq!(at, Instant::from_millis(e.0));
                            prop_assert_eq!(v, e.2);
                            now_ms = e.0;
                            model.retain(|m| m.1 != e.1);
                            ids.retain(|(_, s)| *s != e.1);
                            // The popped handle is now stale too.
                            // (Finding it costs nothing the model didn't
                            // already pay.)
                        }
                        (e, got) => return Err(format!("model {e:?} vs queue {got:?}")),
                    }
                }
            }
            // After every op the queue's live count and non-draining peek
            // must agree with the model exactly.
            let live: Vec<&(u64, u64, u64, bool)> = model.iter().filter(|e| !e.3).collect();
            prop_assert_eq!(q.live_len(), live.len());
            let next = live.iter().map(|e| e.0).min().map(Instant::from_millis);
            prop_assert_eq!(q.next_live_time(), next);
        }
        Ok(())
    });
}

/// `reschedule` agrees with an eager model of timer re-arming: the
/// reference pushes one event per arm and skips, at pop, every event a
/// later arm or a disarm superseded. Times fall on a coarse 10 ms grid, so
/// same-instant ties between timers and plain events are common: a
/// re-armed timer must take exactly the place a fresh push would.
#[test]
fn event_queue_reschedule_matches_eager_rearm_model() {
    check("event_queue_reschedule_matches_eager_rearm_model", |g| {
        use spider_repro::engine::{EventId, EventQueue};
        const TIMERS: usize = 3;
        let ops = g.vec(1, 300, |g| {
            (g.usize_in(0, 5), g.usize_in(0, TIMERS), g.u64_in(0, 4))
        });
        let mut q: EventQueue<u64> = EventQueue::new();
        // Each timer's one queued event. The handle is kept after the event
        // fires or is cancelled, so re-arming then goes through a stale
        // handle, whose slot may since hold another event.
        let mut timers: [Option<EventId>; TIMERS] = [None; TIMERS];
        let mut plain: Vec<(EventId, u64)> = Vec::new();
        // Reference: (time_ms, push order, payload, arm). Timer `k` has
        // payload `k` and is current only while `arm` is its latest arm;
        // plain events have payloads from `TIMERS` up and arm 0.
        let mut model: Vec<(u64, u64, u64, u64)> = Vec::new();
        let mut latest = [0u64; TIMERS]; // 0 = disarmed
        let current = |e: &(u64, u64, u64, u64), latest: &[u64; TIMERS]| {
            e.3 == 0 || latest[e.2 as usize] == e.3
        };
        let mut now_ms = 0u64;
        for (seq, (op, k, slots)) in (0u64..).zip(ops) {
            let at_ms = now_ms + 10 * slots;
            let at = Instant::from_millis(at_ms);
            match op {
                0 => {
                    let payload = TIMERS as u64 + seq;
                    plain.push((q.push(at, payload), payload));
                    model.push((at_ms, seq, payload, 0));
                }
                1 => {
                    let moved = timers[k].and_then(|id| q.reschedule(id, at));
                    timers[k] = Some(moved.unwrap_or_else(|| q.push(at, k as u64)));
                    latest[k] = seq + 1;
                    model.push((at_ms, seq, k as u64, seq + 1));
                }
                2 => {
                    if let Some(id) = timers[k] {
                        q.cancel(id);
                    }
                    latest[k] = 0;
                }
                3 => {
                    if !plain.is_empty() {
                        let (id, payload) = plain.swap_remove(k % plain.len());
                        q.cancel(id);
                        model.retain(|e| e.2 != payload);
                    }
                }
                _ => {
                    let expected = model
                        .iter()
                        .filter(|e| current(e, &latest))
                        .min_by_key(|e| (e.0, e.1))
                        .copied();
                    match (expected, q.pop()) {
                        (None, None) => {}
                        (Some(e), Some((at, payload))) => {
                            prop_assert_eq!((at, payload), (Instant::from_millis(e.0), e.2));
                            now_ms = e.0;
                            model.retain(|m| m.1 != e.1);
                            if e.3 == 0 {
                                plain.retain(|&(_, p)| p != e.2);
                            } else {
                                latest[e.2 as usize] = 0;
                            }
                        }
                        (e, got) => return Err(format!("model {e:?} vs queue {got:?}")),
                    }
                }
            }
            model.retain(|e| current(e, &latest));
            prop_assert_eq!(q.live_len(), model.len());
            let next = model.iter().map(|e| e.0).min().map(Instant::from_millis);
            prop_assert_eq!(q.next_live_time(), next);
        }
        Ok(())
    });
}

/// FIFO lanes never change the pop order. Delays are drawn from a set
/// that mixes the lane delays with arbitrary ones, so pushes and
/// reschedules land in delay lanes and in the heap, and same-instant ties
/// between the two are common. Pushes onto three named lanes are mostly
/// at or after the lane's latest instant, so they join it, and otherwise
/// arbitrary, so they fall back to the heap. Every pop must match a
/// sorted `(at, seq)` reference, where a reschedule takes a fresh
/// sequence number as a push does, and the live count and non-draining
/// peek must agree after every operation.
#[test]
fn event_queue_lanes_match_sorted_reference() {
    check_with(
        "event_queue_lanes_match_sorted_reference",
        Config::cases(512),
        |g| {
            use spider_repro::engine::{EventId, EventQueue};
            const LANES_MS: [u64; 3] = [10, 30, 100];
            const NAMED: usize = 3;
            let ops = g.vec(1, 300, |g| {
                let delay = if g.bool() {
                    LANES_MS[g.usize_in(0, LANES_MS.len())]
                } else {
                    g.u64_in(0, 120)
                };
                (g.usize_in(0, 9), g.usize_in(0, 64), delay)
            });
            let mut q: EventQueue<u64> = EventQueue::new();
            for ms in LANES_MS {
                q.add_lane(Duration::from_millis(ms));
            }
            let named: Vec<_> = (0..NAMED).map(|_| q.add_named_lane()).collect();
            let mut named_latest = [0u64; NAMED];
            // Reference: live events as (time_ms, seq, payload, handle).
            let mut model: Vec<(u64, u64, u64, EventId)> = Vec::new();
            let mut seq = 0u64;
            let mut now_ms = 0u64;
            for (op, raw_pick, delay) in ops {
                let pick = raw_pick % model.len().max(1);
                match op {
                    0 | 1 => {
                        let at_ms = now_ms + delay;
                        let id = q.push(Instant::from_millis(at_ms), seq);
                        model.push((at_ms, seq, seq, id));
                        seq += 1;
                    }
                    5 | 6 => {
                        let lane = raw_pick % NAMED;
                        let at_ms = if raw_pick % 4 == 0 {
                            now_ms + delay
                        } else {
                            named_latest[lane].max(now_ms) + delay % 20
                        };
                        named_latest[lane] = named_latest[lane].max(at_ms);
                        let id = q.push_on(named[lane], Instant::from_millis(at_ms), seq);
                        model.push((at_ms, seq, seq, id));
                        seq += 1;
                    }
                    2 if !model.is_empty() => {
                        q.cancel(model.swap_remove(pick).3);
                    }
                    3 | 4 if !model.is_empty() => {
                        // 3: to `now + delay`, earlier or later; 4: always later.
                        let e = &mut model[pick];
                        let at_ms = if op == 3 { now_ms + delay } else { e.0 + delay };
                        let moved = q.reschedule(e.3, Instant::from_millis(at_ms));
                        prop_assert!(moved.is_some(), "a live event must move");
                        *e = (at_ms, seq, e.2, moved.unwrap_or(e.3));
                        seq += 1;
                    }
                    _ => {
                        let expected = model
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| (e.0, e.1))
                            .map(|(i, e)| (i, *e));
                        match (expected, q.pop()) {
                            (None, None) => {}
                            (Some((i, e)), Some((at, payload))) => {
                                prop_assert_eq!((at, payload), (Instant::from_millis(e.0), e.2));
                                now_ms = e.0;
                                model.swap_remove(i);
                            }
                            (e, got) => return Err(format!("model {e:?} vs queue {got:?}")),
                        }
                    }
                }
                prop_assert_eq!(q.live_len(), model.len());
                let next = model.iter().map(|e| e.0).min().map(Instant::from_millis);
                prop_assert_eq!(q.next_live_time(), next);
            }
            Ok(())
        },
    );
}

/// `Radio::may_hear` is sound: when it says a radio cannot hear `ch` at
/// `at`, no sequence of switches in `[now, at]` makes `can_hear(ch, at)`
/// true. The world relies on this to drop beacon listeners before queueing
/// the beacon. Radio configs, channel histories and switch times are all
/// random. The tightest case is a switch at `now` whose latency clamps to
/// the floor, so `at` often lands on or within a millisecond of
/// `now + min_switch_latency` and the first switch often starts at `now`.
#[test]
fn radio_may_hear_is_sound() {
    check_with("radio_may_hear_is_sound", Config::cases(1024), |g| {
        use spider_repro::wifi::{Radio, RadioConfig};
        const CHANNELS: [Channel; 3] = [Channel::CH1, Channel::CH6, Channel::CH11];
        let micros = |g: &mut Gen, hi: u64| Duration::from_micros(g.u64_in(0, hi));
        let config = RadioConfig {
            reset: micros(g, 10_000),
            reset_jitter: micros(g, 5_000),
            per_iface: micros(g, 1_000),
            per_iface_jitter: micros(g, 3_000),
        };
        let floor = config.min_switch_latency();
        let mut rng = Rng::new(g.u64());
        let mut radio = Radio::new(config, CHANNELS[g.usize_in(0, 3)]);
        // A history of switches up to `now` leaves the radio on some
        // channel, possibly still mid-switch.
        let mut now = Instant::ZERO;
        for _ in 0..g.usize_in(0, 4) {
            now += micros(g, 8_000);
            let to = CHANNELS[g.usize_in(0, 3)];
            radio.switch_to(to, now, g.usize_in(0, 4), &mut rng);
        }
        now += micros(g, 8_000);
        let ch = CHANNELS[g.usize_in(0, 3)];
        let at = now
            + match g.usize_in(0, 4) {
                0 => floor + Duration::from_nanos(g.u64_in(0, 2)),
                1 => floor + micros(g, 1_000),
                2 => floor.saturating_sub(micros(g, 1_000)),
                _ => micros(g, 20_000),
            };
        let may = radio.may_hear(ch, now, at);
        // Switches at ascending times in [now, at].
        let mut t = now;
        for _ in 0..g.usize_in(0, 4) {
            if g.bool() {
                t += Duration::from_micros(g.u64_in(0, at.since(t).as_micros() + 1));
            }
            let to = CHANNELS[g.usize_in(0, 3)];
            radio.switch_to(to, t, g.usize_in(0, 4), &mut rng);
        }
        if !may {
            prop_assert!(
                !radio.can_hear(ch, at),
                "may_hear said no, but {ch:?} is heard at {at} (now {now})"
            );
        }
        Ok(())
    });
}

/// TCP end-to-end over a pipe with random loss, reordering, and delay: the
/// receiver must deliver every payload byte exactly once (no gaps, no
/// duplicates reach the application), and the transfer completes.
#[test]
fn tcp_survives_lossy_reordering_pipe() {
    check_with(
        "tcp_survives_lossy_reordering_pipe",
        Config::cases(32),
        |g| {
            use spider_repro::tcp::Segment;
            use spider_repro::tcp::{
                BulkReceiver, BulkSender, ReceiverAction, SenderAction, TcpConfig,
            };

            let seed = g.u64();
            let total = g.u64_in(1, 200_000);
            let loss_pct = g.u32_in(0, 30);

            let cfg = TcpConfig {
                max_timeouts: 200,
                ..TcpConfig::default()
            };
            let mut sender = BulkSender::new(cfg, 1, total, seed as u32);
            let mut receiver = BulkReceiver::new(1);
            let mut rng = Rng::new(seed);

            // A tiny deterministic event loop: segments in flight with delivery
            // times; timers for the sender.
            let mut now = Instant::ZERO;
            let mut flights: Vec<(Instant, bool, Segment)> = Vec::new(); // (arrival, to_receiver, seg)
            let mut timer: Option<Instant> = None;
            let mut delivered = 0u64;

            let push_sender_actions = |acts: Vec<SenderAction>,
                                       now: Instant,
                                       rng: &mut Rng,
                                       flights: &mut Vec<(Instant, bool, Segment)>,
                                       timer: &mut Option<Instant>|
             -> bool {
                let mut complete = false;
                for a in acts {
                    match a {
                        SenderAction::Transmit(seg) if !rng.chance(loss_pct as f64 / 100.0) => {
                            let delay = Duration::from_millis(rng.range_u64(10, 80));
                            flights.push((now + delay, true, seg));
                        }
                        SenderAction::Transmit(_) => {} // lost
                        SenderAction::ArmTimer { after } => *timer = Some(now + after),
                        SenderAction::Complete => complete = true,
                        _ => {}
                    }
                }
                complete
            };

            let acts = sender.start(now);
            let mut complete = push_sender_actions(acts, now, &mut rng, &mut flights, &mut timer);

            let mut steps = 0u32;
            while !complete {
                steps += 1;
                prop_assert!(steps < 60_000, "transfer did not converge");
                // Next event: earliest flight or timer.
                let next_flight_at = flights.iter().map(|f| f.0).min();
                prop_assert!(
                    next_flight_at.is_some() || timer.is_some(),
                    "deadlock: no events"
                );
                let take_timer = match (next_flight_at, timer) {
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (Some(f), Some(t)) => t <= f,
                    (None, None) => unreachable!("asserted above"),
                };
                if take_timer {
                    let t = timer.take().expect("checked");
                    now = now.max(t);
                    let acts = sender.on_timer(now);
                    prop_assert!(!sender.is_aborted(), "sender aborted at {loss_pct}% loss");
                    complete = push_sender_actions(acts, now, &mut rng, &mut flights, &mut timer)
                        || complete;
                } else {
                    let target = next_flight_at.expect("checked");
                    let idx = flights
                        .iter()
                        .position(|f| f.0 == target)
                        .expect("min exists");
                    let (at, to_receiver, seg) = flights.swap_remove(idx);
                    now = now.max(at);
                    if to_receiver {
                        for a in receiver.on_segment(&seg, now) {
                            match a {
                                ReceiverAction::Transmit(ack) => {
                                    if !rng.chance(loss_pct as f64 / 100.0) {
                                        let delay = Duration::from_millis(rng.range_u64(10, 80));
                                        flights.push((now + delay, false, ack));
                                    }
                                }
                                ReceiverAction::Deliver { bytes } => delivered += bytes,
                                ReceiverAction::Finished => {}
                            }
                        }
                    } else {
                        let acts = sender.on_segment(&seg, now);
                        complete =
                            push_sender_actions(acts, now, &mut rng, &mut flights, &mut timer)
                                || complete;
                    }
                }
            }
            // Exactly-once delivery of the whole stream.
            prop_assert_eq!(delivered, total, "delivered bytes mismatch");
            prop_assert_eq!(receiver.delivered(), total);
            prop_assert!(receiver.is_finished());
            Ok(())
        },
    );
}

// ------------------------------------------------- wire_len vs encoding

/// A frame of any shape, carrying `data(g)` if it is a data frame, with
/// random header fields.
fn gen_frame<P>(g: &mut Gen, data: impl FnOnce(&mut Gen) -> P) -> Frame<P> {
    use spider_repro::wifi::frame::{AssocReqBody, AssocRespBody, AuthBody, BeaconBody};

    let a = gen_mac(g);
    let b = gen_mac(g);
    let body = match g.usize_in(0, 11) {
        0 => FrameBody::Beacon(BeaconBody::advertising(
            gen_ssid(g),
            gen_channel(g),
            g.u64(),
        )),
        1 => FrameBody::ProbeReq { ssid: gen_ssid(g) },
        2 => FrameBody::ProbeResp(BeaconBody::advertising(
            gen_ssid(g),
            gen_channel(g),
            g.u64(),
        )),
        3 => FrameBody::Auth(AuthBody {
            algorithm: g.u32_in(0, 3) as u16,
            transaction: g.u32_in(1, 2) as u16,
            status: g.u32_in(0, 60) as u16,
        }),
        4 => FrameBody::AssocReq(AssocReqBody {
            capability: g.u32() as u16,
            listen_interval: g.u32() as u16,
            ssid: gen_ssid(g),
        }),
        5 => FrameBody::AssocResp(AssocRespBody {
            capability: g.u32() as u16,
            status: g.u32_in(0, 60) as u16,
            aid: g.u32_in(0, 2007) as u16,
        }),
        6 => FrameBody::Disassoc {
            reason: g.u32_in(0, 99) as u16,
        },
        7 => FrameBody::Deauth {
            reason: g.u32_in(0, 99) as u16,
        },
        8 => FrameBody::Data(data(g)),
        9 => FrameBody::Null,
        10 => FrameBody::PsPoll {
            aid: g.u32_in(0, 2007) as u16,
        },
        _ => FrameBody::Ack,
    };
    let mut f = Frame::new(a, b, gen_mac(g), body);
    f.seq = g.u32_in(0, 0x0FFF) as u16;
    f.duration = g.u32() as u16;
    f.power_mgmt = g.bool();
    f.more_data = g.bool();
    f.retry = g.bool();
    f.to_ds = g.bool();
    f.from_ds = g.bool();
    f
}

/// A DHCP message of any type the client and server exchange.
fn gen_dhcp_message(g: &mut Gen) -> DhcpMessage {
    let xid = g.u32();
    let mut chaddr = [0u8; 6];
    g.fill(&mut chaddr);
    let ip = std::net::Ipv4Addr::from(g.u32().to_be_bytes());
    let server = std::net::Ipv4Addr::from(g.u32().to_be_bytes());
    let lease = g.u32_in(1, 86_400);
    match g.usize_in(0, 4) {
        0 => DhcpMessage::discover(xid, chaddr),
        1 => DhcpMessage::offer(xid, chaddr, ip, server, lease),
        2 => DhcpMessage::request(xid, chaddr, ip, server),
        3 => DhcpMessage::nak(xid, chaddr, server),
        _ => DhcpMessage::ack(xid, chaddr, ip, server, lease),
    }
}

/// A TCP segment with arbitrary fields and up to three SACK blocks, filled
/// from the front as the receiver fills them.
fn gen_segment(g: &mut Gen) -> Segment {
    let mut sack = [None; 3];
    for slot in sack.iter_mut().take(g.usize_in(0, 3)) {
        *slot = Some((SeqNum::new(g.u32()), g.u32_in(1, 65_535)));
    }
    Segment {
        conn: g.u64(),
        seq: SeqNum::new(g.u32()),
        ack: g.bool().then(|| SeqNum::new(g.u32())),
        len: g.u32_in(0, 65_535),
        syn: g.bool(),
        fin: g.bool(),
        sack,
        ts_us: g.u64(),
        ts_echo_us: g.bool().then(|| g.u64()),
    }
}

/// `wire_len` must agree with the encoder for every frame shape: the hot
/// path sizes airtime and backhaul transmissions arithmetically, without
/// serializing, so a drift between the two silently changes event timing.
#[test]
fn frame_wire_len_matches_encoding() {
    use spider_repro::engine::wire::Bytes;

    check("frame_wire_len_matches_encoding", |g| {
        let f = gen_frame(g, |g| Bytes::copy_from_slice(&g.bytes(0, 1500)));
        prop_assert_eq!(f.wire_len(), f.encode().len());
        Ok(())
    });
}

/// The same contract for the typed payload the world's data frames carry,
/// for both kinds of packet. A packet's wire length is its 1-byte protocol
/// number plus the message's encoding, its byte form decodes back to the
/// packet, and a frame carrying it survives the byte codec: the frame's
/// bytes decode to a byte frame that encodes to the same bytes, with a
/// payload that decodes to the packet.
#[test]
fn packet_frame_wire_len_matches_encoding() {
    use spider_repro::engine::wire::Writer;
    use spider_repro::spider::Packet;
    use spider_repro::wifi::frame::Payload;

    check("packet_frame_wire_len_matches_encoding", |g| {
        let packet = if g.bool() {
            Packet::Dhcp(gen_dhcp_message(g))
        } else {
            Packet::Tcp(gen_segment(g))
        };
        let encoded_len = match &packet {
            Packet::Dhcp(msg) => msg.encode().len(),
            Packet::Tcp(seg) => seg.encode().len(),
        };
        prop_assert_eq!(packet.wire_len(), 1 + encoded_len);
        let mut bytes = Writer::new();
        packet.encode_into(&mut bytes);
        prop_assert_eq!(bytes.len(), packet.wire_len());
        prop_assert_eq!(Packet::decode(bytes.as_slice()), Some(packet.clone()));

        let f = gen_frame(g, |_| packet);
        let encoded = f.encode();
        prop_assert_eq!(f.wire_len(), encoded.len());
        let decoded = Frame::decode(&encoded).map_err(|e| e.to_string())?;
        prop_assert_eq!(decoded.encode(), encoded);
        if let (FrameBody::Data(raw), FrameBody::Data(packet)) = (&decoded.body, &f.body) {
            prop_assert_eq!(Packet::decode(raw), Some(packet.clone()));
        }
        Ok(())
    });
}

/// Same contract for DHCP: the join pipeline budgets airtime from
/// `wire_len` and only serializes when a frame actually departs.
#[test]
fn dhcp_wire_len_matches_encoding() {
    check("dhcp_wire_len_matches_encoding", |g| {
        let msg = gen_dhcp_message(g);
        prop_assert_eq!(msg.wire_len(), msg.encode().len());
        Ok(())
    });
}

/// TCP segments carry a *virtual* payload: `wire_len` models link
/// occupancy (header overhead + payload length) while `encode` emits a
/// compact control record without payload bytes. The invariant the pipes
/// depend on is that `wire_len` survives the encode/decode round-trip —
/// both ends of a backhaul link must charge the same occupancy — and
/// that the header overhead is a constant independent of segment shape.
/// `encoded_len`, which the air and the uplink charge, must equal the
/// encoding's length.
#[test]
fn segment_wire_len_survives_roundtrip() {
    check("segment_wire_len_survives_roundtrip", |g| {
        let seg = gen_segment(g);
        let decoded = Segment::decode(&seg.encode()).unwrap();
        prop_assert_eq!(decoded.wire_len(), seg.wire_len());
        prop_assert_eq!(
            seg.wire_len() - seg.len,
            spider_repro::tcp::segment::HEADER_OVERHEAD
        );
        prop_assert_eq!(seg.encoded_len(), seg.encode().len());
        Ok(())
    });
}

// ---------------------------------------------------- world-config codec

use spider_repro::mobility::{ApSite, SpeedProfile, Vehicle};
use spider_repro::spider::codec::{decode_world, encode_world};
use spider_repro::spider::world::{MAX_DATA_RETRIES, MAX_TIMER};
use spider_repro::spider::{
    run, ClientMotion, SchedulePolicy, SelectionPolicy, SpiderConfig, WorldConfig,
};
use spider_repro::traffic::DownloadPlan;

fn gen_site(g: &mut Gen, id: u32) -> ApSite {
    ApSite {
        id,
        position: Point::new(g.f64_in(-500.0, 500.0), g.f64_in(-500.0, 500.0)),
        channel: gen_channel(g),
        backhaul_bps: g.u64_in(100_000, 20_000_000),
        dhcp_delay_min: Duration::from_millis(g.u64_in(1, 100)),
        dhcp_delay_max: Duration::from_millis(g.u64_in(100, 400)),
    }
}

fn gen_motion(g: &mut Gen) -> ClientMotion {
    if g.bool() {
        return ClientMotion::Fixed(Point::new(g.f64_in(-100.0, 100.0), g.f64_in(-100.0, 100.0)));
    }
    let route = if g.bool() {
        Route::rectangle(g.f64_in(100.0, 1_000.0), g.f64_in(100.0, 600.0))
    } else {
        // The x-range keeps the route length strictly positive.
        Route::straight(
            Point::new(0.0, 0.0),
            Point::new(g.f64_in(10.0, 2_000.0), g.f64_in(-50.0, 50.0)),
        )
    };
    let departed = Instant::from_nanos(g.u64_in(0, 1_000_000_000));
    let vehicle = if g.bool() {
        Vehicle::new(route, g.f64_in(1.0, 30.0), departed)
    } else {
        Vehicle::with_profile(
            route,
            SpeedProfile::StopAndGo {
                cruise: g.f64_in(1.0, 30.0),
                stop_every: g.f64_in(50.0, 500.0),
                stop_for: g.f64_in(0.0, 30.0),
            },
            departed,
        )
    };
    ClientMotion::Route(vehicle)
}

fn gen_spider(g: &mut Gen) -> SpiderConfig {
    // One preset per schedule variant, then mutate the scalar knobs.
    let mut s = match g.u32_in(0, 4) {
        0 => SpiderConfig::single_channel_multi_ap(gen_channel(g)),
        1 => SpiderConfig::multi_channel_multi_ap(Duration::from_millis(g.u64_in(50, 500))),
        2 => SpiderConfig::stock_madwifi(),
        _ => SpiderConfig::adaptive_channel(),
    };
    s.max_ifaces = g.usize_in(1, 5);
    s.single_ap = g.bool();
    s.lease_cache = g.bool();
    s.selection = if g.bool() {
        SelectionPolicy::JoinHistory
    } else {
        SelectionPolicy::BestRssi
    };
    s.min_join_rssi_dbm = g.f64_in(-95.0, -60.0);
    s.ap_loss_timeout = Duration::from_millis(g.u64_in(100, 5_000));
    s.join_setup_delay = Duration::from_millis(g.u64_in(0, 200));
    s
}

/// A rate or count at the edges: zero, one, or the type's maximum.
fn edge_count(g: &mut Gen) -> u64 {
    [0, 1, u64::MAX][g.usize_in(0, 3)]
}

/// A timer at the edges of what `WorldConfig::validate` accepts: zero,
/// exactly `MAX_TIMER`, or the largest representable span.
fn edge_timer(g: &mut Gen) -> Duration {
    [Duration::ZERO, MAX_TIMER, Duration::from_nanos(u64::MAX)][g.usize_in(0, 3)]
}

/// A world config; with `hostile`, one to three of the fields
/// `WorldConfig::validate` checks are then overwritten with values at or
/// past the edge of what it accepts. The non-hostile draws are the same
/// either way.
fn gen_world(g: &mut Gen, hostile: bool) -> WorldConfig {
    let sites = (0..g.len_in(1, 6))
        .map(|i| gen_site(g, i as u32 + 1))
        .collect();
    let mut w = WorldConfig::new(
        g.u64(),
        sites,
        gen_motion(g),
        gen_spider(g),
        Duration::from_secs(g.u64_in(5, 120)),
    );
    w.backhaul_latency = Duration::from_millis(g.u64_in(0, 300));
    w.bytes_per_connection = g.u64_in(1, 1 << 24);
    w.phy.data_retries = g.u32_in(0, 8);
    w.tcp.mss = g.u32_in(500, 1_500);
    if g.bool() {
        w.plan = DownloadPlan::Segmented {
            object_bytes: g.u64_in(1, 1 << 22),
            think: Duration::from_millis(g.u64_in(0, 2_000)),
        };
    }
    if hostile {
        // An AP beside the client on a channel it visits, so that even a
        // short run joins and moves data through the hostile settings.
        w.sites[0].position = match &w.motion {
            ClientMotion::Fixed(p) => *p,
            ClientMotion::Route(v) => v.position_at(Instant::ZERO),
        };
        w.sites[0].channel = w.spider.schedule.channels()[0];
    }
    for _ in 0..if hostile { g.usize_in(1, 4) } else { 0 } {
        match g.usize_in(0, 10) {
            0 => w.phy.bitrate_bps = edge_count(g),
            1 => {
                w.phy.data_retries =
                    [0, MAX_DATA_RETRIES, MAX_DATA_RETRIES + 1, u32::MAX][g.usize_in(0, 4)]
            }
            2 => w.tcp.mss = edge_count(g) as u32,
            3 => {
                let i = g.usize_in(0, w.sites.len());
                w.sites[i].backhaul_bps = edge_count(g);
            }
            4 => w.spider.max_ifaces = [0, 254, 255, usize::MAX][g.usize_in(0, 4)],
            5 => {
                let slice = edge_timer(g);
                match &mut w.spider.schedule {
                    SchedulePolicy::MultiChannel { slices } if !slices.is_empty() && g.bool() => {
                        let i = g.usize_in(0, slices.len());
                        slices[i].1 = slice;
                    }
                    SchedulePolicy::MultiChannel { slices } => slices.clear(),
                    other => {
                        *other = SchedulePolicy::MultiChannel {
                            slices: vec![(gen_channel(g), slice)],
                        }
                    }
                }
            }
            6 => {
                w.spider.schedule = SchedulePolicy::AdaptiveChannel {
                    reconsider: edge_timer(g),
                    scan_dwell: edge_timer(g),
                }
            }
            7 => w.spider.evaluate_every = edge_timer(g),
            8 => w.spider.dhcp.retx_timeout = edge_timer(g),
            _ => {
                let t = edge_timer(g);
                match g.usize_in(0, 8) {
                    0 => w.phy.mean_backoff = t,
                    1 => w.radio.reset = t,
                    2 => w.spider.join.link_layer_timeout = t,
                    3 => w.spider.join_setup_delay = t,
                    4 => w.tcp.min_rto = t,
                    5 => w.tcp.max_rto = t,
                    6 => w.backhaul_latency = t,
                    _ => w.sites[0].dhcp_delay_min = t,
                }
            }
        }
    }
    w
}

/// The fleet protocol ships `WorldConfig`s to worker processes, and the
/// campaign cache keys shards by the same encoded bytes — so a round trip
/// must reproduce the config's `Debug` rendering (the check that the
/// codec carries every field: a dropped field would let two configs share
/// a cache key) and re-encode to identical bytes.
#[test]
fn world_codec_roundtrips_bit_exactly() {
    check("world_codec_roundtrips_bit_exactly", |g| {
        let world = gen_world(g, false);
        let bytes = encode_world(&world);
        let decoded = decode_world(&bytes).expect("decode");
        prop_assert_eq!(format!("{decoded:?}"), format!("{world:?}"));
        prop_assert_eq!(encode_world(&decoded), bytes);
        Ok(())
    });
}

#[test]
fn world_codec_rejects_every_strict_prefix() {
    check("world_codec_rejects_every_strict_prefix", |g| {
        let bytes = encode_world(&gen_world(g, false));
        let cut = g.usize_in(0, bytes.len());
        prop_assert!(
            decode_world(&bytes[..cut]).is_err(),
            "strict prefix {cut}/{} decoded",
            bytes.len()
        );
        Ok(())
    });
}

/// Decoding is the gate for configs from outside the process: a hostile
/// config either fails to decode, or decodes to one that passes
/// `validate` and runs to completion without panicking. Half the routed
/// cases also get a zero, NaN, infinite, negative or huge speed written
/// straight into the encoded bytes, where no constructor checked it.
#[test]
fn hostile_worlds_fail_to_decode_or_run_to_completion() {
    // Each case runs at most a 5 s world in a few ms, so the property
    // affords ten times the default case count.
    let cfg = Config::cases(1024);
    check_with(
        "hostile_worlds_fail_to_decode_or_run_to_completion",
        cfg,
        |g| {
            let mut world = gen_world(g, true);
            world.duration = Duration::from_secs(g.u64_in(1, 6));
            let mut bytes = encode_world(&world);
            if let (ClientMotion::Route(vehicle), true) = (&world.motion, g.bool()) {
                let speed = match *vehicle.profile() {
                    SpeedProfile::Constant(v) => v,
                    SpeedProfile::StopAndGo { cruise, .. } => cruise,
                };
                let edge = [0.0, f64::NAN, f64::INFINITY, -1.0, 1e300][g.usize_in(0, 5)];
                let at = bytes
                    .windows(8)
                    .position(|w| w == speed.to_bits().to_be_bytes())
                    .expect("speed in the encoding");
                bytes[at..at + 8].copy_from_slice(&edge.to_bits().to_be_bytes());
            }
            let Ok(decoded) = decode_world(&bytes) else {
                return Ok(());
            };
            prop_assert!(
                decoded.validate().is_ok(),
                "decoded a config validate rejects"
            );
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(decoded)));
            prop_assert!(outcome.is_ok(), "run panicked on a decoded config");
            Ok(())
        },
    );
}

// ---------------------------------------------------- metro deployments

use spider_repro::mobility::deployment::ChannelMix;
use spider_repro::mobility::{metro_deployment, metro_route, MetroChannelPlan, MetroConfig};

fn gen_metro_plan(g: &mut Gen) -> MetroChannelPlan {
    match g.u32_in(0, 3) {
        0 => MetroChannelPlan::Single(gen_channel(g)),
        1 => MetroChannelPlan::RoundRobin,
        2 => MetroChannelPlan::GridColor,
        _ => MetroChannelPlan::Mix(ChannelMix::amherst()),
    }
}

fn gen_metro_config(g: &mut Gen) -> MetroConfig {
    // `metro_route` laps the interior rectangle, which needs ≥ 3 blocks
    // per axis; the generator stays above that floor so every config it
    // produces supports both the deployment and the drive.
    MetroConfig {
        blocks_x: g.u32_in(3, 8),
        blocks_y: g.u32_in(3, 8),
        block_m: g.f64_in(40.0, 120.0),
        aps_per_block: g.u32_in(1, 4),
        jitter_m: g.f64_in(0.0, 10.0),
        plan: gen_metro_plan(g),
        ..MetroConfig::downtown()
    }
}

/// Same config + same seed → the same deployment, draw for draw; and
/// every AP lands inside the street grid's jitter-padded bounding box
/// with ids monotone from 0.
#[test]
fn metro_deployment_is_deterministic_and_in_bounds() {
    check("metro_deployment_is_deterministic_and_in_bounds", |g| {
        let cfg = gen_metro_config(g);
        let seed = g.u64();
        let a = metro_deployment(&cfg, &mut Rng::new(seed));
        let b = metro_deployment(&cfg, &mut Rng::new(seed));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(a.len(), cfg.ap_count());
        let (w, h) = (
            cfg.blocks_x as f64 * cfg.block_m,
            cfg.blocks_y as f64 * cfg.block_m,
        );
        for (i, site) in a.iter().enumerate() {
            prop_assert_eq!(site.id as usize, i);
            prop_assert!(
                site.position.x >= -cfg.jitter_m
                    && site.position.x <= w + cfg.jitter_m
                    && site.position.y >= -cfg.jitter_m
                    && site.position.y <= h + cfg.jitter_m,
                "AP {i} at {:?} escapes the {w}x{h} grid (+{} m jitter)",
                site.position,
                cfg.jitter_m
            );
            prop_assert!(site.dhcp_delay_min < site.dhcp_delay_max);
            prop_assert!((cfg.backhaul_bps_min..cfg.backhaul_bps_max).contains(&site.backhaul_bps));
        }
        Ok(())
    });
}

/// The RNG-fork contract: two configs that differ only in channel plan
/// place the same APs with the same backhaul and DHCP draws — policy
/// sweeps measure the plan, never placement noise.
#[test]
fn metro_placement_is_invariant_under_channel_plan() {
    check("metro_placement_is_invariant_under_channel_plan", |g| {
        let cfg = gen_metro_config(g);
        let seed = g.u64();
        let a = metro_deployment(&cfg, &mut Rng::new(seed));
        let b = metro_deployment(
            &cfg.clone().with_plan(gen_metro_plan(g)),
            &mut Rng::new(seed),
        );
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.position, y.position);
            prop_assert_eq!(x.backhaul_bps, y.backhaul_bps);
            prop_assert_eq!(x.dhcp_delay_min, y.dhcp_delay_min);
            prop_assert_eq!(x.dhcp_delay_max, y.dhcp_delay_max);
        }
        Ok(())
    });
}

/// Metro worlds ride the same fleet/cache rails as every other shard, so
/// a full metro `WorldConfig` (grid deployment + interior drive) must
/// round-trip the world codec bit-exactly, re-encoded bytes included.
#[test]
fn metro_worlds_roundtrip_the_world_codec() {
    check("metro_worlds_roundtrip_the_world_codec", |g| {
        let cfg = gen_metro_config(g);
        let sites = metro_deployment(&cfg, &mut Rng::new(g.u64()));
        let vehicle = Vehicle::new(
            metro_route(&cfg),
            g.f64_in(1.0, 30.0),
            Instant::from_nanos(g.u64_in(0, 1_000_000_000)),
        );
        let world = WorldConfig::new(
            g.u64(),
            sites,
            ClientMotion::Route(vehicle),
            gen_spider(g),
            Duration::from_secs(g.u64_in(5, 120)),
        );
        let bytes = encode_world(&world);
        let decoded = decode_world(&bytes).expect("decode");
        prop_assert_eq!(format!("{decoded:?}"), format!("{world:?}"));
        prop_assert_eq!(encode_world(&decoded), bytes);
        Ok(())
    });
}
