//! The shapes of the lab micro-benchmarks behind Figs. 7, 8 and 9,
//! pinned at a reduced run length. The worlds are the ones the
//! `experiments` binary builds for `fig7`, `fig8` and `fig9` (one
//! stationary client 10 m from
//! lab APs, 90 ms backhaul latency, the default seed); only the run
//! length is shorter. The assertions are the orderings EXPERIMENTS.md
//! states, not absolute values.

use spider_repro::engine::Duration;
use spider_repro::mobility::{ApSite, Point};
use spider_repro::spider::{
    run, ClientMotion, RunResult, SchedulePolicy, SpiderConfig, WorldConfig,
};
use spider_repro::wifi::Channel;

/// The `experiments` default seed.
const SEED: u64 = 20111206;

/// A lab AP: fast, predictable DHCP.
fn lab_site(id: u32, x: f64, channel: Channel, backhaul_bps: u64) -> ApSite {
    ApSite {
        id,
        position: Point::new(x, 0.0),
        channel,
        backhaul_bps,
        dhcp_delay_min: Duration::from_millis(50),
        dhcp_delay_max: Duration::from_millis(200),
    }
}

fn lab_run(sites: Vec<ApSite>, spider: SpiderConfig, secs: u64) -> RunResult {
    let mut cfg = WorldConfig::new(
        SEED,
        sites,
        ClientMotion::Fixed(Point::new(0.0, 10.0)),
        spider,
        Duration::from_secs(secs),
    );
    cfg.backhaul_latency = Duration::from_millis(90);
    run(cfg)
}

/// Fig. 7's schedule: share `f` of a 400 ms cycle on channel 1, the rest
/// split evenly over channels 6 and 11.
fn fig7_run(f: f64) -> RunResult {
    let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
    if f < 1.0 {
        let cycle = Duration::from_millis(400);
        let away = cycle.mul_f64((1.0 - f) / 2.0);
        spider.schedule = SchedulePolicy::MultiChannel {
            slices: vec![
                (Channel::CH1, cycle.mul_f64(f)),
                (Channel::CH6, away),
                (Channel::CH11, away),
            ],
        };
    }
    lab_run(
        vec![lab_site(1, 0.0, Channel::CH1, 100_000_000)],
        spider,
        20,
    )
}

/// Fig. 7: 10 % on the AP's channel delivers nothing (no DHCP
/// acquisition completes). From 20 % to 50 % a slice (80–200 ms) is
/// shorter than the 180 ms wired round trip or barely longer, so TCP
/// moves about one window per cycle: a plateau. From 60 % up the ACK
/// clock turns within a slice, so every 10 % step delivers more, and
/// every share from 60 % up beats every plateau share. Timeouts play no
/// part: no share takes more than one RTO.
#[test]
fn fig7_plateau_then_knee_at_sixty_percent() {
    let runs: Vec<RunResult> = (1..=10).map(|i| fig7_run(i as f64 / 10.0)).collect();
    let at = |pct: usize| &runs[pct / 10 - 1];
    let tput = |pct: usize| at(pct).avg_throughput_bps;
    assert_eq!(at(10).total_bytes, 0, "10 % delivered bytes");
    assert!(
        at(10).dhcp_attempts > 0 && at(10).join_times.is_empty(),
        "10 %: {} of {} DHCP acquisitions completed",
        at(10).join_times.count(),
        at(10).dhcp_attempts
    );
    let plateau_max = [20, 30, 40, 50].map(tput).into_iter().fold(0.0, f64::max);
    for pct in [60, 70, 80, 90, 100] {
        assert!(
            tput(pct) > plateau_max,
            "{pct} %: {:.0} B/s, not above the 20–50 % plateau's best {plateau_max:.0}",
            tput(pct)
        );
        assert!(
            tput(pct) > tput(pct - 10),
            "{pct} %: {:.0} B/s, not above {} %'s {:.0}",
            tput(pct),
            pct - 10,
            tput(pct - 10)
        );
    }
    for (i, r) in runs.iter().enumerate() {
        assert!(r.tcp_rtos <= 1, "{} %: {} RTOs", 10 * (i + 1), r.tcp_rtos);
    }
}

/// Fig. 8: under an equal three-channel schedule, long slices strangle
/// TCP. 33 ms beats 133 ms, which beats 266 ms, and every slice of
/// 266 ms or more delivers under a tenth of the 33 ms throughput.
#[test]
fn fig8_long_slices_collapse_tcp_throughput() {
    let tput = |slice_ms: u64| {
        let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        spider.schedule = SchedulePolicy::equal_three(Duration::from_millis(slice_ms));
        lab_run(
            vec![lab_site(1, 0.0, Channel::CH1, 100_000_000)],
            spider,
            20,
        )
        .avg_throughput_bps
    };
    let (t33, t133, t266) = (tput(33), tput(133), tput(266));
    assert!(
        t33 > t133 && t133 > t266,
        "33 ms {t33:.0} > 133 ms {t133:.0} > 266 ms {t266:.0} B/s must hold"
    );
    for (slice_ms, t) in [(266, t266), (333, tput(333)), (400, tput(400))] {
        assert!(
            t < t33 / 10.0,
            "{slice_ms} ms slices deliver {t:.0} B/s, not under a tenth of 33 ms's {t33:.0}"
        );
    }
}

/// Fig. 9: one stock card rises with backhaul, and Spider(100,0,0) (two
/// APs on one channel) stays at least 1.8× one stock card at every
/// backhaul: the same-channel-equals-two-cards headline.
#[test]
fn fig9_same_channel_spider_doubles_one_stock_card() {
    let mut previous = 0.0;
    for mbps in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0] {
        let bps = (mbps * 1_000_000.0) as u64;
        let one_stock = lab_run(
            vec![lab_site(1, 0.0, Channel::CH1, bps)],
            SpiderConfig::single_channel_single_ap(Channel::CH1),
            20,
        )
        .avg_throughput_kbps();
        let same_channel = lab_run(
            vec![
                lab_site(1, 0.0, Channel::CH1, bps),
                lab_site(2, 8.0, Channel::CH1, bps),
            ],
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            20,
        )
        .avg_throughput_kbps();
        assert!(
            one_stock > previous,
            "one stock card at {mbps} Mb/s: {one_stock:.0} KB/s, not above {previous:.0}"
        );
        assert!(
            same_channel >= 1.8 * one_stock,
            "Spider(100,0,0) at {mbps} Mb/s: {same_channel:.0} KB/s vs one stock {one_stock:.0}"
        );
        previous = one_stock;
    }
}
