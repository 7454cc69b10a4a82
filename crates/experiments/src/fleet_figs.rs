//! Client-fleet experiments: endogenous contention among many Spider
//! clients sharing one deployment.
//!
//! `fleet-contention` drives a convoy of N ∈ {1, 2, 4, 8} Spider clients
//! around the metro grid (same deployment, same event queue, same shared
//! medium) and tabulates how per-client throughput degrades as the convoy
//! grows. The direction is cross-checked against the offered-load
//! extension of the Bianchi cell model
//! ([`analytical::cell::CellModel::per_station_goodput_bps`]): more
//! co-channel stations in a cell ⇒ less goodput each, saturating at the
//! cell capacity split N ways.
//!
//! `fleet-identity` is the refactor's safety latch: a world built with an
//! explicitly empty fleet must replay the historical single-client world
//! byte-for-byte (compared at `RunRecord` fidelity, the campaign cache's
//! own format). `tests/campaign_cache.rs` runs it in two processes with
//! different environments and compares their stdout byte for byte, and
//! replays `fleet-contention` from one process's cache in another.

use analytical::cell::CellModel;
use mobility::metro::{metro_deployment, metro_route, MetroChannelPlan, MetroConfig};
use mobility::route::Vehicle;
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::config::SpiderConfig;
use spider_core::fleet::convoy;
use spider_core::report::RunRecord;
use spider_core::world::{run, ClientMotion, WorldConfig};
use wifi_mac::channel::Channel;

use crate::common::{header, lab_site, run_all, Scale};

/// Convoy sizes swept by `fleet-contention`.
const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Headway between convoy members. At metro speed (13 m/s) this spaces
/// clients ~40 m apart, so a convoy shares grid cells — and therefore
/// occupancy-scaled airtime — most of the time.
const HEADWAY: Duration = Duration::from_secs(3);

/// Per-client offered load for the analytical cross-check: a saturating
/// bulk download offers (much) more than any cell carries, so the model
/// sits on its `capacity(n)/n` branch.
const OFFERED_BPS: f64 = 10e6;

fn convoy_world(scale: Scale, n: usize) -> (String, WorldConfig) {
    let cfg = MetroConfig::downtown().with_plan(MetroChannelPlan::GridColor);
    let mut rng = Rng::new(scale.seed ^ 0xF1E);
    let sites = metro_deployment(&cfg, &mut rng);
    let lead = Vehicle::new(metro_route(&cfg), 13.0, Instant::ZERO);
    let mut world = WorldConfig::new(
        scale.seed,
        sites,
        ClientMotion::Route(lead.clone()),
        SpiderConfig::adaptive_channel(),
        scale.duration(30),
    );
    world.fleet = convoy(&ClientMotion::Route(lead), n - 1, HEADWAY);
    (format!("fleet-n{n}"), world)
}

/// The `fleet-contention` target.
pub fn fleet_contention(scale: Scale) {
    header("Fleet contention — convoy of N Spider clients, one metro grid");
    let worlds = FLEET_SIZES
        .iter()
        .map(|&n| convoy_world(scale, n))
        .collect();
    let model = CellModel::dsss_11b();

    println!("  Simulated (per-client application goodput over the drive):");
    println!(
        "  {:<10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "world", "clients", "total Mb/s", "mean Mb/s", "min Mb/s", "max Mb/s", "model Mb/s"
    );
    for (label, r) in run_all(worlds) {
        let n = r.per_client.len();
        let secs = r.duration.as_secs_f64();
        let mbps = |bytes: u64| (bytes as f64 * 8.0) / secs / 1e6;
        let per: Vec<f64> = r.per_client.iter().map(|c| mbps(c.bytes)).collect();
        let mean = per.iter().sum::<f64>() / n as f64;
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per.iter().copied().fold(0.0_f64, f64::max);
        // The model's cell holds the convoy plus its serving AP.
        let predicted = model.per_station_goodput_bps(n + 1, OFFERED_BPS) / 1e6;
        println!(
            "  {:<10} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
            label,
            n,
            mbps(r.total_bytes),
            mean,
            min,
            max,
            predicted,
        );
    }
    println!();
    println!("  Model column: offered-load Bianchi cell, capacity(n)/n branch —");
    println!("  the *direction* (monotone decay with fleet size) is the claim;");
    println!("  absolute levels differ because convoy cells also lose airtime");
    println!("  to joins, switching, and backhaul limits the model omits.");
}

/// The `fleet-identity` target: refuses to pass unless an explicit empty
/// fleet replays the historical single-client constructor byte-for-byte.
pub fn fleet_identity(scale: Scale) {
    header("Fleet identity — empty fleet vs the single-client world");
    let sites = || {
        vec![
            lab_site(1, 0.0, Channel::CH1, 2_000_000),
            lab_site(2, 30.0, Channel::CH6, 2_000_000),
        ]
    };
    let single = run(WorldConfig::new(
        scale.seed,
        sites(),
        ClientMotion::Fixed(mobility::geometry::Point::new(0.0, 10.0)),
        SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        scale.duration(20),
    ));
    let mut fleet1 = WorldConfig::new(
        scale.seed,
        sites(),
        ClientMotion::Fixed(mobility::geometry::Point::new(0.0, 10.0)),
        SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
        scale.duration(20),
    );
    fleet1.fleet = Vec::new();
    let a = RunRecord::to_json(&single).expect("serialize single-client record");
    let b = RunRecord::to_json(&run(fleet1)).expect("serialize fleet record");
    if a != b {
        eprintln!("fleet-identity: MISMATCH");
        eprintln!("single: {a}");
        eprintln!("fleet1: {b}");
        std::process::exit(1);
    }
    println!("  identical at RunRecord fidelity ({} bytes)", a.len());
    println!("  {a}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance direction: per-client throughput must degrade as
    /// the fleet grows, in the direction the offered-load cell model
    /// predicts. A stationary pair of 20 Mb/s-backhaul APs isolates the
    /// shared-medium effect from mobility noise.
    #[test]
    fn per_client_throughput_degrades_with_occupancy() {
        let mk = |extra: usize| {
            let spot = mobility::geometry::Point::new(0.0, 10.0);
            let mut world = WorldConfig::new(
                11,
                vec![
                    lab_site(1, 0.0, Channel::CH1, 20_000_000),
                    lab_site(2, 5.0, Channel::CH1, 20_000_000),
                ],
                ClientMotion::Fixed(spot),
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                Duration::from_secs(30),
            );
            world.fleet = vec![ClientMotion::Fixed(spot); extra];
            run(world)
        };
        let alone = mk(0);
        let crowd = mk(3);
        let mean = |r: &spider_core::world::RunResult| {
            r.per_client.iter().map(|c| c.bytes).sum::<u64>() as f64 / r.per_client.len() as f64
        };
        assert!(
            mean(&crowd) < mean(&alone),
            "4 clients must each get less than 1 alone: {} vs {}",
            mean(&crowd),
            mean(&alone)
        );
        // Same direction as the model.
        let model = CellModel::dsss_11b();
        assert!(
            model.per_station_goodput_bps(5, OFFERED_BPS)
                < model.per_station_goodput_bps(2, OFFERED_BPS)
        );
    }

    /// `fleet-identity`'s core claim, kept as a test so `cargo test`
    /// catches a drift without running the binary.
    #[test]
    fn empty_fleet_matches_single_client_constructor() {
        let scale = Scale {
            factor: 1,
            seed: crate::common::DEFAULT_SEED,
        };
        let sites = vec![lab_site(1, 0.0, Channel::CH1, 2_000_000)];
        let single = run(WorldConfig::new(
            scale.seed,
            sites.clone(),
            ClientMotion::Fixed(mobility::geometry::Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(15),
        ));
        let mut fleet1 = WorldConfig::new(
            scale.seed,
            sites,
            ClientMotion::Fixed(mobility::geometry::Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(15),
        );
        fleet1.fleet = Vec::new();
        let fleet1 = run(fleet1);
        assert_eq!(
            RunRecord::to_json(&single).unwrap(),
            RunRecord::to_json(&fleet1).unwrap()
        );
    }
}
