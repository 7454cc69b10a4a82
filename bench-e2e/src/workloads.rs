//! The six named workloads and the inputs each one's ops run on.
//!
//! Every workload is a closed loop in one process: an op starts when the
//! previous one has finished. A *pass* is a fixed list of ops; a run
//! repeats passes until its time is up. Op `k` of a pass simulates with
//! seed `S + k`, where `S` is the run's `--seed`, so the same seed always
//! gives the same inputs and two commits run identical work.
//!
//! The map an op drives through — the AP deployment — is drawn from seed
//! `DEFAULT_SEED + k` whatever `S` is. A drive's cost varies several-fold
//! with how many APs its deployment puts along the route, so a map that
//! moved with `S` would make runs with different seeds measure different
//! amounts of work; with fixed maps, `S` moves only what the world draws
//! as it runs. At the default seed both seeds coincide.

use mobility::metro::{metro_deployment, metro_route, MetroConfig};
use mobility::route::Vehicle;
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::config::{SchedulePolicy, SpiderConfig};
use spider_core::fleet::convoy;
use spider_core::world::{ClientMotion, WorldConfig};
use wifi_mac::channel::Channel;

/// The `experiments` default seed, and the seed the golden digests use.
pub const DEFAULT_SEED: u64 = 20_111_206;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5 join-measurement drive, 384 worlds a pass.
    Fig5Drive,
    /// One stationary client bulk-downloading from one AP, 8 worlds a pass.
    LabTcp,
    /// A 1024-AP downtown, 8 placements a pass.
    Metro1024,
    /// The Fig. 5 drive with 64 clients in a convoy, 24 worlds a pass.
    Fleet64,
    /// `experiments all` into an empty cache; a pass is one campaign.
    CampaignCold,
    /// `experiments all` replayed from a warm cache snapshot.
    CampaignWarm,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 6] = [
    Workload::Fig5Drive,
    Workload::LabTcp,
    Workload::Metro1024,
    Workload::Fleet64,
    Workload::CampaignCold,
    Workload::CampaignWarm,
];

impl Workload {
    /// The workload's name on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Drive => "fig5_drive",
            Workload::LabTcp => "lab_tcp",
            Workload::Metro1024 => "metro_1024",
            Workload::Fleet64 => "fleet_64",
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignWarm => "campaign_warm",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worlds in one pass; 0 for the campaign workloads, whose pass is
    /// one `experiments all` process.
    ///
    /// The drives' cost varies several-fold with the deployment a seed
    /// draws, so their passes hold enough worlds that two seeds' passes
    /// cost about the same: the run-to-run spread across seeds then
    /// stays well inside the bounds `BENCHMARK.json` sets.
    pub fn worlds_per_pass(self) -> u64 {
        match self {
            Workload::Fig5Drive => 384,
            Workload::LabTcp => 8,
            Workload::Metro1024 => 8,
            Workload::Fleet64 => 24,
            Workload::CampaignCold | Workload::CampaignWarm => 0,
        }
    }

    /// The world op `k` of a pass runs, for pass seed `seed`. `None` for
    /// the campaign workloads.
    pub fn world(self, seed: u64, k: u64) -> Option<WorldConfig> {
        let map = DEFAULT_SEED.wrapping_add(k);
        let seed = seed.wrapping_add(k);
        match self {
            Workload::Fig5Drive => Some(fig5_world(map, seed)),
            Workload::LabTcp => Some(bench::bench_lab(
                seed,
                SpiderConfig::single_channel_multi_ap(Channel::CH1),
                30,
                50_000_000,
            )),
            Workload::Metro1024 => Some(metro_world(map, seed)),
            Workload::Fleet64 => {
                let mut cfg = fig5_world(map, seed);
                cfg.fleet = convoy(&cfg.motion, 63, Duration::from_secs(2));
                Some(cfg)
            }
            Workload::CampaignCold | Workload::CampaignWarm => None,
        }
    }
}

/// Clients a world simulates: the lead plus its fleet.
pub fn clients(cfg: &WorldConfig) -> u64 {
    1 + cfg.fleet.len() as u64
}

/// The Fig. 5 drive: multi-channel Spider with 200/100/100 ms slices on
/// channels 6/1/11, an Amherst-like deployment (drawn from `map`) along
/// an 800 × 400 m loop driven at 10 m/s, 60 s simulated.
fn fig5_world(map: u64, seed: u64) -> WorldConfig {
    let mut spider = SpiderConfig::multi_channel_multi_ap(Duration::from_millis(133));
    spider.schedule = SchedulePolicy::MultiChannel {
        slices: vec![
            (Channel::CH6, Duration::from_millis(200)),
            (Channel::CH1, Duration::from_millis(100)),
            (Channel::CH11, Duration::from_millis(100)),
        ],
    };
    let mut cfg = bench::bench_vehicular(map, spider, 60);
    cfg.seed = seed;
    cfg
}

/// The downtown metro world: 1024 APs placed from `map`, adaptive
/// channel selection, the metro route at 13 m/s, 30 s simulated.
fn metro_world(map: u64, seed: u64) -> WorldConfig {
    let cfg = MetroConfig::downtown();
    let sites = metro_deployment(&cfg, &mut Rng::new(map));
    let vehicle = Vehicle::new(metro_route(&cfg), 13.0, Instant::ZERO);
    WorldConfig::new(
        seed,
        sites,
        ClientMotion::Route(vehicle),
        SpiderConfig::adaptive_channel(),
        Duration::from_secs(30),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_world_workloads_have_worlds() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let is_world = w.worlds_per_pass() > 0;
            assert_eq!(w.world(DEFAULT_SEED, 0).is_some(), is_world, "{}", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn op_seeds_step_from_the_pass_seed_over_fixed_maps() {
        let a = Workload::LabTcp.world(5, 1).expect("world");
        let b = Workload::LabTcp.world(6, 0).expect("world");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for w in [Workload::Fig5Drive, Workload::Metro1024, Workload::Fleet64] {
            let (x, y) = (
                w.world(5, 3).expect("world"),
                w.world(900, 3).expect("world"),
            );
            assert_eq!((x.seed, y.seed), (8, 903));
            assert_eq!(
                format!("{:?}", x.sites),
                format!("{:?}", y.sites),
                "{}",
                w.name()
            );
            let other_map = w.world(5, 4).expect("world");
            assert_ne!(format!("{:?}", x.sites), format!("{:?}", other_map.sites));
        }
        let fleet = Workload::Fleet64.world(5, 0).expect("world");
        assert_eq!(clients(&fleet), 64);
    }
}
