//! The shapes of four vehicular results, Table 4 and Figs. 5, 6 and 14,
//! pinned at a reduced run length. The worlds are the ones the
//! `experiments` binary builds for `table4`, `fig5`, `fig6` and `fig14`
//! (the Amherst-like loop and deployment, driven at 10 m/s, the default
//! seed); only the run length is shorter. The assertions are the
//! orderings EXPERIMENTS.md states, not absolute values.

use spider_repro::dhcp::DhcpClientConfig;
use spider_repro::engine::{Duration, Instant, Rng};
use spider_repro::mobility::{deploy_along, DeploymentConfig, Route, Vehicle};
use spider_repro::spider::{
    run, ClientMotion, RunRecord, RunResult, SchedulePolicy, SpiderConfig, WorldConfig,
};
use spider_repro::traffic::{mesh, MeshWorkloadParams};
use spider_repro::wifi::{Channel, JoinConfig};

/// The `experiments` default seed.
const SEED: u64 = 20111206;

/// A drive around the Amherst-like loop through its AP deployment.
fn amherst_drive(spider: SpiderConfig, secs: u64) -> RunResult {
    let route = Route::rectangle(1_000.0, 500.0);
    let sites = deploy_along(
        &route,
        &DeploymentConfig::amherst(),
        &mut Rng::new(SEED ^ 0xA4E),
    );
    run(WorldConfig::new(
        SEED,
        sites,
        ClientMotion::Route(Vehicle::new(route, 10.0, Instant::ZERO)),
        spider,
        Duration::from_secs(secs),
    ))
}

/// Table 4 (a third of the experiment's 1800 s): throughput is highest
/// on one channel and connectivity highest on three.
#[test]
fn table4_one_channel_wins_throughput_three_win_connectivity() {
    let drive = |schedule: SchedulePolicy| {
        let mut spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        spider.schedule = schedule;
        amherst_drive(spider, 600)
    };
    let one = drive(SchedulePolicy::SingleChannel(Channel::CH1));
    let three = drive(SchedulePolicy::equal_three(Duration::from_millis(200)));
    assert!(
        one.avg_throughput_bps > three.avg_throughput_bps,
        "throughput: 1 channel {:.0} B/s must beat 3 channels {:.0} B/s",
        one.avg_throughput_bps,
        three.avg_throughput_bps
    );
    assert!(
        three.connectivity > one.connectivity,
        "connectivity: 3 channels {:.3} must beat 1 channel {:.3}",
        three.connectivity,
        one.connectivity
    );
}

/// Fig. 6 (half the experiment's 600 s), 100 ms DHCP timers: spending
/// half of each 400 ms period off channel 6 makes DHCP fail more often
/// and joins take longer than parking on channel 6.
#[test]
fn fig6_half_the_time_on_channel_fails_dhcp_and_slows_joins() {
    let drive = |schedule: SchedulePolicy| {
        let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
        spider.schedule = schedule;
        spider.dhcp = DhcpClientConfig::reduced(Duration::from_millis(100));
        amherst_drive(spider, 300)
    };
    // The §2.2 split at f = 0.5: 200 ms on channel 6, 100 ms each on 1
    // and 11; f = 1 is channel 6 alone.
    let mut half = drive(SchedulePolicy::MultiChannel {
        slices: vec![
            (Channel::CH6, Duration::from_millis(200)),
            (Channel::CH1, Duration::from_millis(100)),
            (Channel::CH11, Duration::from_millis(100)),
        ],
    });
    let mut full = drive(SchedulePolicy::SingleChannel(Channel::CH6));
    assert!(
        half.dhcp_failure_rate() > full.dhcp_failure_rate(),
        "DHCP failures: f = 0.5 {:.3} must exceed f = 1 {:.3}",
        half.dhcp_failure_rate(),
        full.dhcp_failure_rate()
    );
    let (half_median, full_median) = (half.join_times.median(), full.join_times.median());
    assert!(
        full_median < half_median,
        "median join: f = 1 {full_median:.2} s must beat f = 0.5 {half_median:.2} s"
    );
}

/// Fig. 5 (half the experiment's 600 s), the §2.2 driver: fraction `f` of
/// each 400 ms period on channel 6, the rest split over 1 and 11, with
/// 100 ms link-layer and DHCP timers. Association completes within 0.4 s
/// at every fraction, and only f = 0.25 grows a tail past 0.2 s.
#[test]
fn fig5_association_is_robust_to_switching_with_a_tail_at_a_quarter() {
    let drive = |f6_ms: u64| {
        let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
        let other = Duration::from_millis((400 - f6_ms) / 2);
        spider.schedule = if f6_ms == 400 {
            SchedulePolicy::SingleChannel(Channel::CH6)
        } else {
            SchedulePolicy::MultiChannel {
                slices: vec![
                    (Channel::CH6, Duration::from_millis(f6_ms)),
                    (Channel::CH1, other),
                    (Channel::CH11, other),
                ],
            }
        };
        spider.join = JoinConfig::reduced();
        spider.dhcp = DhcpClientConfig::reduced(Duration::from_millis(100));
        amherst_drive(spider, 300).assoc_times
    };
    let mut within_02 = Vec::new();
    for f6_ms in [100, 200, 300, 400] {
        let mut assoc = drive(f6_ms);
        assert!(assoc.count() > 0, "f6 = {f6_ms}/400 ms never associated");
        let slowest = assoc.quantile(1.0);
        assert!(
            slowest <= 0.4,
            "f6 = {f6_ms}/400 ms: slowest association {slowest:.3} s exceeds 0.4 s"
        );
        within_02.push(assoc.cdf_at(0.2));
    }
    let (quarter, full) = (within_02[0], within_02[3]);
    assert!(
        quarter < full,
        "share within 0.2 s: f = 0.25 {quarter:.2} must be below f = 1 {full:.2}"
    );
}

/// Spider's configurations use the reduced 100 ms link-layer timeout;
/// the "default timers" of Fig. 6 and Table 3 are DHCP's. On
/// one channel, and in `tests/world_golden.rs`'s 120 s multi-channel
/// drive, that timeout never fires: no handshake frame is lost, so the
/// stock 1 s timeout gives the same record byte for byte.
#[test]
fn stock_link_layer_timeout_leaves_single_and_short_multi_channel_drives_unchanged() {
    let record = |spider: &SpiderConfig, join: JoinConfig| {
        let spider = SpiderConfig {
            join,
            ..spider.clone()
        };
        RunRecord::to_json(&amherst_drive(spider, 120)).expect("a finite record")
    };
    for spider in [
        SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        SpiderConfig::single_channel_multi_ap(Channel::CH1),
    ] {
        assert_eq!(spider.join.link_layer_timeout, Duration::from_millis(100));
        assert!(
            record(&spider, JoinConfig::default()) == record(&spider, JoinConfig::reduced()),
            "the stock link-layer timeout moved the record of {:?}",
            spider.schedule
        );
    }
}

/// Fig. 14 (a third of the experiment's 1800 s), Table 2 configurations
/// (1) and (3): the multi-channel configuration's disruptions are at
/// least as short as the synthetic mesh users' inter-connection gaps
/// (EXPERIMENTS.md: 96 % vs 69 % within 30 s), and shorter than channel
/// 1's (Fig. 10's ordering).
#[test]
fn fig14_multi_channel_disruptions_are_no_longer_than_user_gaps() {
    // The users' curve exactly as `experiments fig14` draws it: flow
    // durations first, then gaps, from one stream.
    let mut rng = Rng::new(SEED ^ 0x47);
    let params = MeshWorkloadParams::default();
    let _ = mesh::duration_samples(&params, 20_000, &mut rng);
    let users = mesh::gap_samples(&params, 20_000, &mut rng).cdf_at(30.0);
    let within_30 =
        |spider: SpiderConfig| amherst_drive(spider, 600).disruption_durations.cdf_at(30.0);
    let one = within_30(SpiderConfig::single_channel_multi_ap(Channel::CH1));
    let three = within_30(SpiderConfig::multi_channel_multi_ap(Duration::from_millis(
        200,
    )));
    assert!(
        three >= users,
        "within 30 s: multi-channel disruptions {three:.2} must be at or above user gaps {users:.2}"
    );
    assert!(
        three > one,
        "within 30 s: multi-channel disruptions {three:.2} must beat channel 1's {one:.2}"
    );
}
