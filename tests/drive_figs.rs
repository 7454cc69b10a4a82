//! The shapes of two vehicular results, Table 4 and Fig. 6, pinned at a
//! reduced run length. The worlds are the ones the `experiments` binary
//! builds for `table4` and `fig6` (the Amherst-like loop and deployment,
//! driven at 10 m/s, the default seed); only the run length is shorter.
//! The assertions are the orderings EXPERIMENTS.md states, not absolute
//! values.

use spider_repro::dhcp::DhcpClientConfig;
use spider_repro::engine::{Duration, Instant, Rng};
use spider_repro::mobility::{deploy_along, DeploymentConfig, Route, Vehicle};
use spider_repro::spider::{
    run, ClientMotion, RunResult, SchedulePolicy, SpiderConfig, WorldConfig,
};
use spider_repro::wifi::Channel;

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
