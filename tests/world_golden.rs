//! Byte-identity oracle for the world simulator. Each test runs one short
//! world and pins three things: the content hash of its `RunRecord` JSON
//! (the campaign cache's bytes) and the queue's delivered-event count and
//! peak depth. Any change to event order, RNG draw order or record
//! serialization moves at least one of them.
//!
//! The worlds cover every `SchedulePolicy`, a segmented download plan and
//! a three-client fleet. The pins are deliberate: a refactor must leave
//! them alone, and a behaviour change must say why it moves them.

use spider_repro::campaign::hash::content_hash;
use spider_repro::dhcp::DhcpClientConfig;
use spider_repro::engine::{Duration, Instant, Rng};
use spider_repro::mobility::{deploy_along, ApSite, DeploymentConfig, Point, Route, Vehicle};
use spider_repro::spider::fleet::convoy;
use spider_repro::spider::{
    run_with_diagnostics, ClientMotion, RunRecord, SchedulePolicy, SpiderConfig, WorldConfig,
};
use spider_repro::traffic::DownloadPlan;
use spider_repro::wifi::{Channel, JoinConfig};

/// The `experiments` default seed.
const SEED: u64 = 20111206;

/// Run `cfg` and compare (record hash, events delivered, peak queue
/// depth) against the pinned values.
fn pin(cfg: WorldConfig, want: (&str, u64, usize)) {
    let (result, diagnostics) = run_with_diagnostics(cfg);
    let json = RunRecord::to_json(&result).expect("a finite record");
    let hash = content_hash(json.as_bytes());
    let got = (
        hash.as_str(),
        diagnostics.events_delivered,
        diagnostics.peak_queue_depth,
    );
    assert_eq!(got, want, "world output moved");
}

/// A drive around the Amherst-like loop through its AP deployment.
fn drive(spider: SpiderConfig, secs: u64) -> WorldConfig {
    let route = Route::rectangle(1_000.0, 500.0);
    let sites = deploy_along(
        &route,
        &DeploymentConfig::amherst(),
        &mut Rng::new(SEED ^ 0xA4E),
    );
    WorldConfig::new(
        SEED,
        sites,
        ClientMotion::Route(Vehicle::new(route, 10.0, Instant::ZERO)),
        spider,
        Duration::from_secs(secs),
    )
}

/// A stationary client 10 m from APs spaced 5 m apart along the x axis.
fn lab(channels: &[Channel], spider: SpiderConfig, secs: u64) -> WorldConfig {
    let sites = channels
        .iter()
        .enumerate()
        .map(|(i, &channel)| ApSite {
            id: i as u32 + 1,
            position: Point::new(5.0 * i as f64, 0.0),
            channel,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(400),
        })
        .collect();
    WorldConfig::new(
        SEED,
        sites,
        ClientMotion::Fixed(Point::new(0.0, 10.0)),
        spider,
        Duration::from_secs(secs),
    )
}

#[test]
fn single_channel_drive() {
    pin(
        drive(SpiderConfig::single_channel_multi_ap(Channel::CH1), 120),
        ("d7356ae86260bcada24327ef89a54f84", 67684, 332),
    );
}

#[test]
fn multi_channel_drive() {
    pin(
        drive(
            SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
            120,
        ),
        ("ac4ff6b54e17832374c3cfc3f525074c", 21766, 57),
    );
}

/// A quarter of each 400 ms period on channel 6 with 100 ms link-layer
/// and DHCP timers (the Fig. 5 f = 0.25 driver): joins time out, fail and
/// retry.
#[test]
fn quarter_fraction_drive() {
    let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
    spider.schedule = SchedulePolicy::MultiChannel {
        slices: vec![
            (Channel::CH6, Duration::from_millis(100)),
            (Channel::CH1, Duration::from_millis(150)),
            (Channel::CH11, Duration::from_millis(150)),
        ],
    };
    spider.join = JoinConfig::reduced();
    spider.dhcp = DhcpClientConfig::reduced(Duration::from_millis(100));
    pin(
        drive(spider, 300),
        ("f47e7b2ae4ea3a6797b6dd10e3b18627", 71860, 205),
    );
}

/// An AP at the edge of range with the RSSI join floor removed: most
/// handshakes are lost, so joins fail and the AP's history backs off.
#[test]
fn edge_of_range_lab() {
    let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
    spider.min_join_rssi_dbm = -200.0;
    let mut cfg = lab(&[Channel::CH1], spider, 60);
    cfg.sites[0].position = Point::new(0.0, 190.0);
    pin(cfg, ("8439b8bc049c473fb949187258c8f54e", 2713, 64));
}

/// The stock driver: idle channel scanning and its 10 s join setup delay.
#[test]
fn scan_when_idle_lab() {
    pin(
        lab(
            &[Channel::CH6, Channel::CH11],
            SpiderConfig::stock_madwifi(),
            40,
        ),
        ("0537d72dabeccd23c38d02644efc0dd0", 23457, 179),
    );
}

#[test]
fn scan_when_idle_drive() {
    pin(
        drive(SpiderConfig::stock_madwifi(), 120),
        ("e4f8c0e5d52f377bd2d6159d833b1289", 27164, 209),
    );
}

#[test]
fn adaptive_channel_lab() {
    pin(
        lab(
            &[Channel::CH11, Channel::CH11, Channel::CH6],
            SpiderConfig::adaptive_channel(),
            40,
        ),
        ("bb949ffefdb4f93bb4fece25127038d4", 34294, 181),
    );
}

/// Objects with think time between them: every connection completes and
/// the next one opens after the pause.
#[test]
fn segmented_plan_lab() {
    let mut cfg = lab(
        &[Channel::CH1, Channel::CH1],
        SpiderConfig::single_channel_multi_ap(Channel::CH1),
        30,
    );
    cfg.plan = DownloadPlan::Segmented {
        object_bytes: 300_000,
        think: Duration::from_secs(2),
    };
    pin(cfg, ("fdddf26044dcd94fefe1c720c2434680", 18021, 238));
}

/// Three clients in convoy on the multi-channel schedule: shared medium,
/// shared AP station tables, per-client streams.
#[test]
fn multi_channel_fleet_of_three() {
    let mut cfg = drive(
        SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        90,
    );
    cfg.fleet = convoy(&cfg.motion, 2, Duration::from_secs(5));
    pin(cfg, ("f3cc94177d02cb079750bb1245283083", 24380, 76));
}
