//! The bench suites themselves, registered by name.
//!
//! Each suite is a plain `fn(&mut Harness)` so the same bodies run under
//! two entry points: the `harness = false` cargo bench targets in
//! `benches/` (thin wrappers around [`crate::bench_target_main`]) and
//! the `bench` binary that ci.sh drives directly. The binary matters for
//! gating: `cargo bench` swallows a bench target's exit status behind
//! its own, so a regression gate has to run the suite as a first-class
//! process whose exit code (0 / 2 / 3, see [`crate::timer`]) reaches the
//! shell.

use std::hint::black_box;

use crate::timer::Harness;
use crate::{bench_lab, bench_vehicular};
use dhcp::message::DhcpMessage;
use sim_engine::queue::EventQueue;
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::config::{SchedulePolicy, SpiderConfig};
use spider_core::world::{run, run_with_diagnostics, WorldConfig};
use spider_core::MacIntern;
use tcp_lite::connection::{BulkReceiver, BulkSender, ReceiverAction, SenderAction, TcpConfig};
use wifi_mac::addr::MacAddr;
use wifi_mac::channel::Channel;
use wifi_mac::frame::{Frame, Ssid};
use wifi_mac::phy::PhyConfig;

/// A suite body: registers its benches against the harness.
pub type SuiteFn = fn(&mut Harness);

/// Every suite the `bench` bin can run, by name. The names match the
/// cargo bench targets in `benches/`.
pub const SUITES: &[(&str, SuiteFn)] = &[
    ("substrates", substrates),
    ("des_core", des_core),
    ("des_metro", des_metro),
    ("des_fleet", des_fleet),
    ("model_figures", model_figures),
    ("system_figures", system_figures),
    ("gate_selfcheck", gate_selfcheck),
];

/// Look a suite up by name.
pub fn find(name: &str) -> Option<SuiteFn> {
    SUITES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// A deterministic integer spin workload (an LCG fold): pure CPU, no
/// allocation, timing proportional to `iters`. The self-check suites
/// bench this because its cost is knowable — scaling `iters` by x% *is*
/// an x% slowdown, which is exactly what a gate self-test must detect.
pub fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc ^= x.rotate_left((i & 63) as u32);
    }
    acc
}

/// Baseline iteration count for the self-check spin workload: ~10 µs a
/// call on the reference container, comfortably above timer resolution.
pub const GATE_SPIN_ITERS: u64 = 20_000;

/// The capture→compare self-check workload. `SPIDER_GATE_INJECT_PCT=10`
/// makes each call do 10 % more spin iterations — a real, measured
/// slowdown (not a mocked number) that `bench compare` against an
/// uninjected capture must flag as a regression for the gate to count
/// as working.
pub fn gate_selfcheck(h: &mut Harness) {
    let inject_pct = std::env::var("SPIDER_GATE_INJECT_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let iters = (GATE_SPIN_ITERS as f64 * (1.0 + inject_pct / 100.0)) as u64;
    if inject_pct != 0.0 {
        println!("  gate_selfcheck: injecting {inject_pct:+.1}% extra work per call");
    }
    h.bench("gate_spin_workload", move || spin(iters));
}

/// Micro-benchmarks of the substrate hot paths: the costs every
/// experiment pays millions of times.
pub fn substrates(h: &mut Harness) {
    h.bench("event_queue_push_pop_10k", || {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(1);
        for i in 0..10_000u64 {
            q.push(Instant::from_micros(rng.range_u64(0, 1_000_000)), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    let mut rng = Rng::new(7);
    h.bench("rng_next_u64_x1M", move || {
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });
    let mut rng = Rng::new(7);
    h.bench("rng_normal_x100k", move || {
        let mut acc = 0.0;
        for _ in 0..100_000 {
            acc += rng.normal(0.0, 1.0);
        }
        acc
    });

    let beacon = Frame::beacon(MacAddr::ap(1), Ssid::new("open-net"), Channel::CH6, 12345);
    let encoded = beacon.encode();
    h.bench("frame_encode_beacon", || beacon.encode());
    h.bench("frame_decode_beacon", || Frame::decode(&encoded).unwrap());

    let msg = DhcpMessage::ack(
        7,
        [2, 0, 0, 0, 0, 1],
        std::net::Ipv4Addr::new(10, 0, 0, 50),
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        3600,
    );
    let dhcp_encoded = msg.encode();
    h.bench("dhcp_encode_ack", || msg.encode());
    h.bench("dhcp_decode_ack", || {
        DhcpMessage::decode(&dhcp_encoded).unwrap()
    });

    let phy = PhyConfig::default();
    h.bench("phy_delivery_curve_x10k", || {
        let mut acc = 0.0;
        for i in 0..10_000 {
            acc += phy.data_delivery_prob(black_box(i as f64 / 50.0), 1500);
        }
        acc
    });

    h.bench("tcp_lossless_1MB_transfer", tcp_lossless_transfer);
    h.bench("mac_join_handshake", mac_join_handshake);

    // Campaign orchestrator hot paths: the per-shard costs a cached sweep
    // pays instead of re-simulating.
    let world = bench_lab(
        7,
        SpiderConfig::single_channel_multi_ap(Channel::CH1),
        10,
        2_000_000,
    );
    h.bench("campaign_shard_hash", || campaign::hash::shard_hash(&world));
    let blob = vec![0xA5u8; 4096];
    h.bench("campaign_content_hash_4k", || {
        campaign::hash::content_hash(&blob)
    });
    let result = run(world.clone());
    let record = spider_core::report::RunRecord::to_json(&result).unwrap();
    h.bench("run_record_to_json", || {
        spider_core::report::RunRecord::to_json(&result).unwrap()
    });
    h.bench("run_record_from_json", || {
        spider_core::report::RunRecord::from_json(&record).unwrap()
    });
    let entry = campaign::manifest::ManifestEntry {
        shard: "(1) Channel 1, Multi-AP".to_string(),
        hash: campaign::hash::shard_hash(&world),
        wall_ms: 412,
        cache_hit: false,
        path: "reports/abc.json".to_string(),
    };
    let line = entry.to_line();
    h.bench("manifest_line_roundtrip", || {
        campaign::manifest::ManifestEntry::parse_line(black_box(&line)).unwrap()
    });
}

fn tcp_lossless_transfer() -> u64 {
    let mut sender = BulkSender::new(TcpConfig::default(), 1, 1_000_000, 42);
    let mut receiver = BulkReceiver::new(1);
    let now = Instant::ZERO;
    let mut to_recv: Vec<_> = sender
        .start(now)
        .into_iter()
        .filter_map(|a| match a {
            SenderAction::Transmit(s) => Some(s),
            _ => None,
        })
        .collect();
    let mut delivered = 0u64;
    let mut guard = 0u32;
    while !to_recv.is_empty() {
        guard += 1;
        assert!(guard < 100_000);
        let mut to_send = Vec::new();
        for seg in to_recv.drain(..) {
            for a in receiver.on_segment(&seg, now) {
                match a {
                    ReceiverAction::Transmit(ack) => to_send.push(ack),
                    ReceiverAction::Deliver { bytes } => delivered += bytes,
                    ReceiverAction::Finished => {}
                }
            }
        }
        for ack in to_send {
            for a in sender.on_segment(&ack, now) {
                if let SenderAction::Transmit(seg) = a {
                    to_recv.push(seg);
                }
            }
        }
    }
    delivered
}

fn mac_join_handshake() -> Option<u16> {
    use wifi_mac::ap::{ApConfig, ApMac};
    use wifi_mac::client::{Action, ClientMac, JoinConfig};
    let mut ap = ApMac::new(ApConfig::open(1, "open", Channel::CH1));
    let mut client = ClientMac::new(
        MacAddr::local(1),
        ap.bssid(),
        Ssid::new("open"),
        JoinConfig {
            use_probe: false,
            ..JoinConfig::reduced()
        },
    );
    let mut rng = Rng::new(1);
    let now = Instant::ZERO;
    let mut to_ap: Vec<Frame> = client
        .start(now)
        .into_iter()
        .filter_map(|a| match a {
            Action::Send(f) => Some(f),
            _ => None,
        })
        .collect();
    let mut guard = 0;
    while !client.is_associated() {
        guard += 1;
        assert!(guard < 100, "handshake did not converge");
        let mut to_client = Vec::new();
        for f in to_ap.drain(..) {
            for act in ap.on_frame(&f, now, &mut rng) {
                if let wifi_mac::ap::ApAction::Send { frame, .. } = act {
                    to_client.push(frame);
                }
            }
        }
        for f in to_client {
            for act in client.handle_frame(&f) {
                if let Action::Send(out) = act {
                    to_ap.push(out);
                }
            }
        }
    }
    client.aid()
}

/// The Fig. 5 join-measurement drive, exactly as `system_figures`
/// benches it: multi-channel Spider over the three orthogonal channels,
/// vehicular motion along an Amherst-like deployment, 60 s simulated.
fn fig5_world() -> WorldConfig {
    let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
    spider.schedule = SchedulePolicy::MultiChannel {
        slices: vec![
            (Channel::CH6, Duration::from_millis(200)),
            (Channel::CH1, Duration::from_millis(100)),
            (Channel::CH11, Duration::from_millis(100)),
        ],
    };
    bench_vehicular(11, spider, 60)
}

/// The DES hot-path suite: raw engine events/sec on a fig5-scale world,
/// plus microbenches of the two structures the allocation-free hot path
/// rests on (the slot-cancelling event queue and the interned MacAddr
/// table). The headline `events_per_sec` annotation is derived from the
/// median iteration time and the run's deterministic event counter.
pub fn des_core(h: &mut Harness) {
    // One untimed run pins the deterministic per-run counters.
    let (_, probe) = run_with_diagnostics(fig5_world());

    h.bench("fig5_scale_world_60s", || {
        let (result, diag) = run_with_diagnostics(fig5_world());
        (result.total_bytes, diag.events_delivered)
    });
    if let Some(median_ns) = h.last_median_ns() {
        let eps = probe.events_delivered as f64 * 1e9 / median_ns;
        println!(
            "des_core: {} events per run, peak queue depth {}, {:.0} events/sec (median)",
            probe.events_delivered, probe.peak_queue_depth, eps
        );
        h.annotate("scenario", "\"fig5_scale_world_60s\"");
        h.annotate("events_delivered", format!("{}", probe.events_delivered));
        h.annotate("peak_queue_depth", format!("{}", probe.peak_queue_depth));
        h.annotate("events_per_sec", format!("{eps:.1}"));
        // Events/sec of the pre-rework engine (the commit before the
        // slot-queue + interning change), measured on the machine running
        // the bench. Machine dependent, so there is no built-in default:
        // without the variable the artifact carries no baseline/speedup
        // fields rather than a speedup against different hardware.
        let baseline = std::env::var("SPIDER_BENCH_BASELINE_EPS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok());
        if let Some(base) = baseline {
            println!(
                "des_core: baseline {base:.0} events/sec, speedup {:.2}x",
                eps / base
            );
            h.annotate("baseline_events_per_sec", format!("{base:.1}"));
            h.annotate("speedup_vs_baseline", format!("{:.3}", eps / base));
        }
    }

    // Steady-state heap churn: a queue holding ~1024 timers where every
    // pop schedules a successor — the sim's dominant queue access
    // pattern. No cancellations; measures pure push/pop + slot recycling.
    h.bench("queue_churn_1024_timers", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut t = 0u64;
        for i in 0..1024u32 {
            t = t
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(Instant::from_micros(t % 10_000), i);
        }
        let mut acc = 0u64;
        for _ in 0..4096 {
            let (at, v) = q.pop().expect("queue stays full");
            acc = acc.wrapping_add(v as u64);
            t = t
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(at + Duration::from_micros(1 + t % 1_000), v);
        }
        acc
    });

    // Cancel-heavy churn: half of every generation of timers is
    // cancelled before it fires (retransmission timers behave like
    // this). Exercises O(1) slot cancellation plus dead-entry skipping.
    h.bench("queue_cancel_heavy_churn_1024", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut t = 0u64;
        let mut ids = Vec::with_capacity(1024);
        let mut acc = 0u64;
        for round in 0..4u64 {
            ids.clear();
            for i in 0..1024u32 {
                t = t
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ids.push(q.push(Instant::from_micros(round * 20_000 + t % 10_000), i));
            }
            for id in ids.iter().skip(1).step_by(2) {
                q.cancel(*id);
            }
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v as u64);
            }
        }
        acc
    });

    // BSSID resolution against a deployment-sized interned table: the
    // per-beacon lookup the world does instead of a BTreeMap walk.
    let table = MacIntern::build((0..64).map(MacAddr::ap));
    let addrs: Vec<MacAddr> = (0..64).rev().map(MacAddr::ap).collect();
    h.bench("intern_lookup_64_bssids", move || {
        let mut acc = 0usize;
        for &a in &addrs {
            acc += table.get(a).expect("interned at build");
        }
        acc
    });
}

/// The metro-scale suite: does the spatial grid actually pay for itself
/// at 1024 APs? The headline is an interleaved A/B — linear scan over
/// every AP versus [`geo::GridIndex::count_in_disc`] — whose
/// bootstrap-CI verdict ci.sh greps for "improvement" (bench_pair
/// verdicts never feed the exit code). Alongside it, an end-to-end
/// 1024-AP world run pins metro events/sec and the grid-fed diagnostics.
pub fn des_metro(h: &mut Harness) {
    use geo::GridIndex;
    use mobility::geometry::Point;
    use mobility::metro::{metro_deployment, metro_route, MetroConfig};
    use mobility::route::Vehicle;
    use spider_core::world::ClientMotion;

    let cfg = MetroConfig::downtown();
    let mut rng = Rng::new(20111206);
    let sites = metro_deployment(&cfg, &mut rng);
    let positions: Vec<Point> = sites.iter().map(|s| s.position).collect();
    let grid = GridIndex::build(&positions, 200.0);
    // Query points spread over the deployment the way the client moves
    // through it: along the metro route, one every ~25 m.
    let route = metro_route(&cfg);
    let vehicle = Vehicle::new(route, 13.0, Instant::ZERO);
    let queries: Vec<Point> = (0..256)
        .map(|i| vehicle.position_at(Instant::ZERO + Duration::from_secs(2 * i)))
        .collect();
    // The co-channel interference radius `geo::contention` queries at.
    // (At the world's 400 m diagnostic radius the disc covers a third of
    // the whole downtown and a contiguous linear scan wins — the grid
    // pays for itself where queries are selective, which is where the
    // contention subsystem lives.)
    const RADIUS_M: f64 = 150.0;

    let scan_positions = positions.clone();
    let scan_queries = queries.clone();
    let grid_queries = queries.clone();
    h.bench_pair(
        "inrange_1024aps_linear_scan_vs_grid_x256",
        move || {
            let mut acc = 0usize;
            for &q in &scan_queries {
                acc += scan_positions
                    .iter()
                    .filter(|p| p.distance_sq(q) <= RADIUS_M * RADIUS_M)
                    .count();
            }
            acc
        },
        move || {
            let mut acc = 0usize;
            for &q in &grid_queries {
                acc += grid.count_in_disc(q, RADIUS_M);
            }
            acc
        },
    );
    h.annotate("metro_aps", format!("{}", positions.len()));
    h.annotate("inrange_radius_m", format!("{RADIUS_M:.1}"));

    // End-to-end: the full DES over the downtown world, the unit the
    // channel-assignment experiment sweeps per plan.
    let metro_world = || {
        let cfg = MetroConfig::downtown();
        let mut rng = Rng::new(20111206);
        let sites = metro_deployment(&cfg, &mut rng);
        let vehicle = Vehicle::new(metro_route(&cfg), 13.0, Instant::ZERO);
        WorldConfig::new(
            20111206,
            sites,
            ClientMotion::Route(vehicle),
            SpiderConfig::adaptive_channel(),
            Duration::from_secs(30),
        )
    };
    let (_, probe) = run_with_diagnostics(metro_world());
    h.bench("metro_world_1024aps_30s", move || {
        let (result, diag) = run_with_diagnostics(metro_world());
        (result.total_bytes, diag.events_delivered)
    });
    if let Some(median_ns) = h.last_median_ns() {
        let eps = probe.events_delivered as f64 * 1e9 / median_ns;
        println!(
            "des_metro: {} events per run, peak in-range APs {}, {} cell crossings, \
             {eps:.0} events/sec (median)",
            probe.events_delivered, probe.peak_inrange_aps, probe.client_cell_crossings
        );
        h.annotate("scenario", "\"metro_world_1024aps_30s\"");
        h.annotate("events_delivered", format!("{}", probe.events_delivered));
        h.annotate("events_per_sec", format!("{eps:.1}"));
        h.annotate("peak_inrange_aps", format!("{}", probe.peak_inrange_aps));
        h.annotate(
            "client_cell_crossings",
            format!("{}", probe.client_cell_crossings),
        );
    }
}

/// The client-fleet suite: what does a second (…eighth) Spider client in
/// the *same* world cost, compared to replicating the whole world once
/// per client? The headline is an interleaved A/B — one 8-client fleet
/// world versus the naive 8× single-client replication a pre-fleet user
/// would run — whose bootstrap-CI verdict ci.sh greps for "improvement"
/// (bench_pair verdicts never feed the exit code). A fleet world shares
/// the deployment, the AP/beacon timers, and one event queue across all
/// clients, and endogenous contention bounds total traffic by the shared
/// medium rather than N times the solo volume, so per-client cost must
/// come out sublinear. A 1→64-client scaling sweep lands per-client
/// wall-clock in the trajectory artifact.
pub fn des_fleet(h: &mut Harness) {
    use spider_core::fleet::convoy;

    // The fig5-shape drive with `n` clients platooned 2 s apart.
    let fleet_world = |n: usize, secs: u64| {
        let mut cfg = fig5_world();
        cfg.duration = Duration::from_secs(secs);
        let lead = cfg.motion.clone();
        cfg.fleet = convoy(&lead, n - 1, Duration::from_secs(2));
        cfg
    };
    const FLEET_N: usize = 8;
    // The replication baseline varies the seed per copy the way a naive
    // sweep would, so neither side benefits from duplicate-world caching
    // effects.
    h.bench_pair(
        "fleet8_one_world_vs_8x_replication",
        move || {
            let mut acc = 0u64;
            for k in 0..FLEET_N as u64 {
                let mut cfg = fig5_world();
                cfg.duration = Duration::from_secs(15);
                cfg.seed ^= k;
                acc = acc.wrapping_add(run(cfg).total_bytes);
            }
            acc
        },
        move || run(fleet_world(FLEET_N, 15)).total_bytes,
    );
    h.annotate("fleet_ab_clients", format!("{FLEET_N}"));

    // Scaling sweep: per-client wall-clock as the fleet grows 1 → 64.
    let mut per_client_ns = Vec::new();
    for n in [1usize, 4, 16, 64] {
        let (_, probe) = run_with_diagnostics(fleet_world(n, 15));
        h.bench(&format!("fleet_world_n{n}_15s"), move || {
            run(fleet_world(n, 15)).total_bytes
        });
        if let Some(median_ns) = h.last_median_ns() {
            let per_client = median_ns / n as f64;
            per_client_ns.push((n, per_client));
            h.annotate(
                &format!("fleet_n{n}_events"),
                format!("{}", probe.events_delivered),
            );
            h.annotate(
                &format!("fleet_n{n}_per_client_ns"),
                format!("{per_client:.0}"),
            );
        }
    }
    if let (Some(&(_, solo)), Some(&(n, crowd))) = (per_client_ns.first(), per_client_ns.last()) {
        let ratio = crowd / solo;
        println!(
            "des_fleet: per-client cost at n={n} is {ratio:.2}x the solo world \
             ({crowd:.0} ns vs {solo:.0} ns per client)"
        );
        h.annotate("per_client_cost_ratio_n64_vs_n1", format!("{ratio:.3}"));
    }
}

/// Benchmarks of the analytical artifacts: regenerating (scaled versions
/// of) Fig. 2, Fig. 3, Fig. 4 and Table 1.
pub fn model_figures(h: &mut Harness) {
    use analytical::join_model::JoinModelParams;
    use analytical::join_sim::simulate_join_probability;
    use analytical::optimizer::{figure4_inputs, solve};
    use sim_engine::stats::Summary;
    use wifi_mac::radio::RadioConfig;

    // Fig. 2 (model side): Eq. 7 across the fraction axis.
    h.bench("fig02_join_model_curve", || {
        let mut acc = 0.0;
        for step in 1..=20 {
            let f = step as f64 / 20.0;
            acc += JoinModelParams::figure2(f, 10.0).p_join(4.0);
        }
        acc
    });

    // Fig. 2 (simulation side): the Monte-Carlo corroborator.
    let params = JoinModelParams::figure2(0.4, 10.0);
    let mut rng = Rng::new(7);
    h.bench("fig02_join_simulation_1k_trials", move || {
        simulate_join_probability(&params, 4.0, 1_000, &mut rng)
    });

    // Fig. 3: the βmax sweep for all six plotted curves.
    h.bench("fig03_beta_sweep", || {
        let mut acc = 0.0;
        for (f, w) in [
            (0.10, 0.0),
            (0.10, 0.007),
            (0.25, 0.007),
            (0.40, 0.007),
            (0.50, 0.007),
            (0.50, 0.0),
        ] {
            let mut beta = 0.6;
            while beta <= 10.0 {
                let p = JoinModelParams {
                    switch_delay: w,
                    ..JoinModelParams::figure2(f, beta)
                };
                acc += p.p_join(4.0);
                beta += 0.8;
            }
        }
        acc
    });

    // Fig. 4: one full optimizer solve (the unit the speed sweep repeats).
    h.bench("fig04_optimizer_solve", || {
        solve(&figure4_inputs(0.25, 5.0, 10.0))
    });

    // Table 1: the switch-latency distribution (mean ± σ, 0–4 interfaces).
    let cfg = RadioConfig::default();
    let mut rng = Rng::new(42);
    h.bench("table1_switch_latency_model", move || {
        let mut out = Vec::with_capacity(5);
        for connected in 0..=4usize {
            let mut s = Summary::new();
            for _ in 0..1_000 {
                s.record(cfg.switch_latency(connected, &mut rng).as_secs_f64());
            }
            out.push((s.mean(), s.std_dev()));
        }
        out
    });
}

/// Benchmarks of scaled-down full-system runs — one per evaluation
/// experiment family. Each bench is the inner unit the corresponding
/// `experiments` target sweeps: the Fig. 5–6 vehicular drive, the
/// Fig. 7/8 indoor TCP runs, the Fig. 9 two-AP aggregation point, and
/// the Table 2 / Fig. 10 evaluation drives.
pub fn system_figures(h: &mut Harness) {
    h.bench("fig05_06_join_measurement_drive_60s", || {
        let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
        spider.schedule = SchedulePolicy::MultiChannel {
            slices: vec![
                (Channel::CH6, Duration::from_millis(200)),
                (Channel::CH1, Duration::from_millis(100)),
                (Channel::CH11, Duration::from_millis(100)),
            ],
        };
        let result = run(bench_vehicular(11, spider, 60));
        (result.assoc_times.count(), result.join_times.count())
    });

    h.bench("fig07_tcp_fraction_point_30s", || {
        let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        spider.schedule = SchedulePolicy::MultiChannel {
            slices: vec![
                (Channel::CH1, Duration::from_millis(280)),
                (Channel::CH6, Duration::from_millis(60)),
                (Channel::CH11, Duration::from_millis(60)),
            ],
        };
        let result = run(bench_lab(7, spider, 30, 50_000_000));
        result.total_bytes
    });

    h.bench("fig08_tcp_slice_point_30s", || {
        let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        spider.schedule = SchedulePolicy::equal_three(Duration::from_millis(200));
        let result = run(bench_lab(7, spider, 30, 50_000_000));
        (result.total_bytes, result.tcp_rtos)
    });

    h.bench("fig09_two_ap_aggregation_point_20s", || {
        let mut cfg = bench_lab(
            9,
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            20,
            2_000_000,
        );
        // Second AP on the same channel, like Fig. 9's (100,0,0) row.
        let mut second = cfg.sites[0].clone();
        second.id = 2;
        second.position = mobility::geometry::Point::new(8.0, 0.0);
        cfg.sites.push(second);
        let result = run(cfg);
        result.total_bytes
    });

    for (label, spider) in [
        (
            "single_channel_multi_ap",
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
        ),
        (
            "multi_channel_multi_ap",
            SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        ),
        ("stock_madwifi", SpiderConfig::stock_madwifi()),
    ] {
        h.bench(&format!("table2_fig10/{label}"), || {
            let result = run(bench_vehicular(42, spider.clone(), 120));
            (result.total_bytes, result.connectivity)
        });
    }
}
