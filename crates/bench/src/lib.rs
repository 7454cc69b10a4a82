//! # bench
//!
//! Offline benchmarks for the Spider (CoNEXT 2011) reproduction, run on
//! the in-tree std-only [`timer`] harness (`cargo bench` works with an
//! empty registry). The benches live in `benches/`:
//!
//! * `substrates` — micro-benchmarks of the hot paths: event queue, PRNG,
//!   frame and DHCP codecs, TCP lossless transfer, PHY math.
//! * `model_figures` — the analytical artifacts: Fig. 2 (Eq. 7 and its
//!   Monte-Carlo corroborator), Fig. 3 (βmax sweep), Fig. 4 (the Eq. 8–10
//!   optimizer) and Table 1 (switch-latency model).
//! * `system_figures` — scaled-down full-system runs for each evaluation
//!   experiment family: the lab TCP benches behind Figs. 7–9 and the
//!   vehicular drives behind Tables 2–4 / Figs. 5, 6, 10–14.
//!
//! This library crate hosts the harness ([`timer`]), its statistics
//! ([`stats`]: percentile bootstrap CIs, Cliff's delta), the committed
//! baseline format ([`baseline`]), and the suite bodies themselves
//! ([`suites`]) so the bench targets stay thin wrappers. The `bench`
//! binary (`src/bin/bench.rs`) runs the same suites with a regression
//! gate ci.sh can act on: `cargo bench` swallows bench-target exit
//! codes, a dedicated bin does not.

pub mod baseline;
pub mod stats;
pub mod suites;
pub mod timer;
pub mod trajectory;

/// The shared entry point for `harness = false` bench targets: build a
/// harness from the environment/CLI, run the named suite, and exit with
/// the harness verdict. (Under `cargo bench` the exit code is swallowed
/// by cargo; the `bench` bin exists so ci.sh can see it.)
pub fn bench_target_main(target: &str) -> ! {
    let mut h = timer::Harness::from_env(target);
    match suites::find(target) {
        Some(suite) => suite(&mut h),
        None => {
            eprintln!("bench: unknown suite {target:?}");
            std::process::exit(1);
        }
    }
    std::process::exit(h.finish());
}

use mobility::deployment::{deploy_along, ApSite, DeploymentConfig};
use mobility::geometry::Point;
use mobility::route::{Route, Vehicle};
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::config::SpiderConfig;
use spider_core::world::{ClientMotion, WorldConfig};
use wifi_mac::channel::Channel;

/// A small Amherst-like vehicular scenario (scaled for benching).
pub fn bench_vehicular(seed: u64, spider: SpiderConfig, secs: u64) -> WorldConfig {
    let route = Route::rectangle(800.0, 400.0);
    let mut rng = Rng::new(seed);
    let sites = deploy_along(&route, &DeploymentConfig::amherst(), &mut rng);
    let vehicle = Vehicle::new(route, 10.0, Instant::ZERO);
    WorldConfig::new(
        seed,
        sites,
        ClientMotion::Route(vehicle),
        spider,
        Duration::from_secs(secs),
    )
}

/// A one-AP lab scenario (scaled Fig. 7/8 shape).
pub fn bench_lab(seed: u64, spider: SpiderConfig, secs: u64, backhaul_bps: u64) -> WorldConfig {
    let site = ApSite {
        id: 1,
        position: Point::new(0.0, 0.0),
        channel: Channel::CH1,
        backhaul_bps,
        dhcp_delay_min: Duration::from_millis(50),
        dhcp_delay_max: Duration::from_millis(200),
    };
    let mut cfg = WorldConfig::new(
        seed,
        vec![site],
        ClientMotion::Fixed(Point::new(0.0, 10.0)),
        spider,
        Duration::from_secs(secs),
    );
    cfg.backhaul_latency = Duration::from_millis(90);
    cfg
}
