//! AP deployment generators: place open APs along a road the way a dense
//! urban area (the paper's Amherst/Boston environments) does.
//!
//! The measured channel distributions the paper reports:
//!
//! * Amherst: 28 % on channel 1, 33 % on channel 6, 34 % on channel 11
//!   (≈ 5 % elsewhere);
//! * Boston (via Cabernet): 83 % on the three orthogonal channels overall,
//!   39 % on channel 6.
//!
//! Backhaul links are drawn per AP; the paper's Fig. 10c observation that
//! "in urban regions the backhaul bandwidth is rarely greater than the
//! wireless bandwidth" motivates the default DSL/cable-like range. DHCP
//! responsiveness also varies per AP, which is exactly why Spider's
//! join-history AP selection has something to learn.

use sim_engine::rng::Rng;
use sim_engine::time::Duration;
use wifi_mac::channel::Channel;

use crate::geometry::Point;
use crate::route::Route;

/// Probability mix over channels for a deployment.
#[derive(Debug, Clone)]
pub struct ChannelMix {
    /// `(channel, weight)` pairs; weights need not sum to 1.
    pub weights: Vec<(Channel, f64)>,
}

impl ChannelMix {
    /// The Amherst mix measured by the paper (§4.1). The ~5 % of APs on
    /// other channels are folded into channel 3 as a representative
    /// non-orthogonal straggler.
    pub fn amherst() -> ChannelMix {
        ChannelMix {
            weights: vec![
                (Channel::CH1, 0.28),
                (Channel::CH6, 0.33),
                (Channel::CH11, 0.34),
                (Channel::from_number(3), 0.05),
            ],
        }
    }

    /// The Boston mix reported by Cabernet: 83 % on 1/6/11 with 39 % on
    /// channel 6.
    pub fn boston() -> ChannelMix {
        ChannelMix {
            weights: vec![
                (Channel::CH1, 0.22),
                (Channel::CH6, 0.39),
                (Channel::CH11, 0.22),
                (Channel::from_number(3), 0.17),
            ],
        }
    }

    /// Everything on a single channel (for controlled micro-benchmarks).
    pub fn single(channel: Channel) -> ChannelMix {
        ChannelMix {
            weights: vec![(channel, 1.0)],
        }
    }

    /// Draw a channel.
    pub fn draw(&self, rng: &mut Rng) -> Channel {
        let ws: Vec<f64> = self.weights.iter().map(|&(_, w)| w).collect();
        self.weights[rng.weighted_index(&ws)].0
    }
}

/// One deployed access point.
#[derive(Debug, Clone)]
pub struct ApSite {
    /// Unique id within the deployment.
    pub id: u32,
    /// Location.
    pub position: Point,
    /// Operating channel.
    pub channel: Channel,
    /// End-to-end backhaul bandwidth, bits/s.
    pub backhaul_bps: u64,
    /// DHCP server response delay floor.
    pub dhcp_delay_min: Duration,
    /// DHCP server response delay ceiling.
    pub dhcp_delay_max: Duration,
}

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Open APs per kilometre of road.
    pub density_per_km: f64,
    /// Maximum lateral offset of an AP from the road centreline, m
    /// (buildings flanking the street).
    pub lateral_offset_max: f64,
    /// Channel assignment mix.
    pub channel_mix: ChannelMix,
    /// Backhaul draw, bits/s, uniform in `[min, max)`.
    pub backhaul_bps_min: u64,
    /// See `backhaul_bps_min`.
    pub backhaul_bps_max: u64,
    /// Per-AP DHCP delay floor, uniform in `[min, max)`.
    pub dhcp_floor_min: Duration,
    /// See `dhcp_floor_min`.
    pub dhcp_floor_max: Duration,
    /// Per-AP DHCP delay ceiling, uniform in `[min, max)`. Heterogeneous
    /// ceilings (some APs answer in under a second, some take many) are
    /// what make join-history AP selection worthwhile.
    pub dhcp_ceiling_min: Duration,
    /// See `dhcp_ceiling_min`.
    pub dhcp_ceiling_max: Duration,
}

impl DeploymentConfig {
    /// An Amherst-like downtown: a modest density of *open* APs (most of
    /// the town's APs are encrypted and invisible to Spider), set back
    /// from the curb — calibrated so encounters match the paper's median
    /// ≈ 8 s / mean ≈ 22 s at 10 m/s and coverage is far from continuous.
    pub fn amherst() -> DeploymentConfig {
        DeploymentConfig {
            density_per_km: 3.5,
            lateral_offset_max: 45.0,
            channel_mix: ChannelMix::amherst(),
            backhaul_bps_min: 512_000,   // DSL-era downlinks
            backhaul_bps_max: 4_000_000, // entry cable
            dhcp_floor_min: Duration::from_millis(100),
            dhcp_floor_max: Duration::from_millis(400),
            dhcp_ceiling_min: Duration::from_millis(400),
            dhcp_ceiling_max: Duration::from_millis(2_200),
        }
    }

    /// A denser Boston-like corridor.
    pub fn boston() -> DeploymentConfig {
        DeploymentConfig {
            density_per_km: 6.0,
            channel_mix: ChannelMix::boston(),
            ..DeploymentConfig::amherst()
        }
    }
}

/// Deploy APs along a route: a Poisson-like process at the configured
/// density, with lateral offsets and per-AP channel/backhaul/DHCP draws.
pub fn deploy_along(route: &Route, config: &DeploymentConfig, rng: &mut Rng) -> Vec<ApSite> {
    assert!(
        config.density_per_km > 0.0,
        "deploy_along: non-positive density"
    );
    let mean_gap_m = 1_000.0 / config.density_per_km;
    let mut sites = Vec::new();
    let mut along = rng.exp(mean_gap_m);
    let mut id = 0u32;
    while along < route.length() {
        let centre = route.position_at_distance(along);
        // Lateral offset perpendicular-ish: a uniform square offset is fine
        // at these scales.
        let dx = rng.range_f64(-config.lateral_offset_max, config.lateral_offset_max);
        let dy = rng.range_f64(-config.lateral_offset_max, config.lateral_offset_max);
        let floor = rng.duration_between(config.dhcp_floor_min, config.dhcp_floor_max);
        let ceiling = rng
            .duration_between(config.dhcp_ceiling_min, config.dhcp_ceiling_max)
            .max(floor + Duration::from_millis(100));
        sites.push(ApSite {
            id,
            position: Point::new(centre.x + dx, centre.y + dy),
            channel: config.channel_mix.draw(rng),
            backhaul_bps: rng.range_u64(config.backhaul_bps_min, config.backhaul_bps_max),
            dhcp_delay_min: floor,
            dhcp_delay_max: ceiling,
        });
        id += 1;
        along += rng.exp(mean_gap_m);
    }
    sites
}

/// Place `n` APs evenly along a route (controlled experiments).
pub fn deploy_evenly(
    route: &Route,
    n: usize,
    config: &DeploymentConfig,
    rng: &mut Rng,
) -> Vec<ApSite> {
    assert!(n > 0, "deploy_evenly: zero APs");
    (0..n)
        .map(|i| {
            let along = route.length() * i as f64 / n as f64;
            let floor = rng.duration_between(config.dhcp_floor_min, config.dhcp_floor_max);
            let ceiling = rng
                .duration_between(config.dhcp_ceiling_min, config.dhcp_ceiling_max)
                .max(floor + Duration::from_millis(100));
            ApSite {
                id: i as u32,
                position: route.position_at_distance(along),
                channel: config.channel_mix.draw(rng),
                backhaul_bps: rng.range_u64(config.backhaul_bps_min, config.backhaul_bps_max),
                dhcp_delay_min: floor,
                dhcp_delay_max: ceiling,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_road() -> Route {
        Route::straight(Point::new(0.0, 0.0), Point::new(10_000.0, 0.0))
    }

    #[test]
    fn density_is_respected() {
        let route = long_road(); // 10 km
        let cfg = DeploymentConfig::amherst(); // 3.5 APs/km → ~35 expected
        let mut rng = Rng::new(42);
        let mut total = 0usize;
        let runs = 40;
        for _ in 0..runs {
            total += deploy_along(&route, &cfg, &mut rng).len();
        }
        let mean = total as f64 / runs as f64;
        assert!(
            (28.0..42.0).contains(&mean),
            "mean APs {mean}, expected ≈ 35"
        );
    }

    #[test]
    fn amherst_channel_mix_matches_paper() {
        let route = long_road();
        let cfg = DeploymentConfig::amherst();
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for _ in 0..50 {
            for site in deploy_along(&route, &cfg, &mut rng) {
                total += 1;
                match site.channel.number() {
                    1 => counts[0] += 1,
                    6 => counts[1] += 1,
                    11 => counts[2] += 1,
                    _ => {}
                }
            }
        }
        let f1 = counts[0] as f64 / total as f64;
        let f6 = counts[1] as f64 / total as f64;
        let f11 = counts[2] as f64 / total as f64;
        assert!((f1 - 0.28).abs() < 0.03, "ch1 fraction {f1}");
        assert!((f6 - 0.33).abs() < 0.03, "ch6 fraction {f6}");
        assert!((f11 - 0.34).abs() < 0.03, "ch11 fraction {f11}");
    }

    #[test]
    fn sites_near_road() {
        let route = long_road();
        let cfg = DeploymentConfig::amherst();
        let mut rng = Rng::new(9);
        for site in deploy_along(&route, &cfg, &mut rng) {
            assert!(site.position.y.abs() <= cfg.lateral_offset_max + 1e-9);
            assert!((-30.0..10_030.0).contains(&site.position.x));
        }
    }

    #[test]
    fn dhcp_delays_well_formed() {
        let route = long_road();
        let cfg = DeploymentConfig::amherst();
        let mut rng = Rng::new(10);
        for site in deploy_along(&route, &cfg, &mut rng) {
            assert!(site.dhcp_delay_min < site.dhcp_delay_max);
            assert!(site.dhcp_delay_min >= cfg.dhcp_floor_min);
        }
    }

    #[test]
    fn backhaul_in_configured_band() {
        let route = long_road();
        let cfg = DeploymentConfig::amherst();
        let mut rng = Rng::new(11);
        for site in deploy_along(&route, &cfg, &mut rng) {
            assert!((cfg.backhaul_bps_min..cfg.backhaul_bps_max).contains(&site.backhaul_bps));
        }
    }

    #[test]
    fn even_deployment_spacing() {
        let route = long_road();
        let cfg = DeploymentConfig {
            channel_mix: ChannelMix::single(Channel::CH1),
            ..DeploymentConfig::amherst()
        };
        let mut rng = Rng::new(12);
        let sites = deploy_evenly(&route, 10, &cfg, &mut rng);
        assert_eq!(sites.len(), 10);
        assert!(sites.iter().all(|s| s.channel == Channel::CH1));
        assert_eq!(sites[0].position.x, 0.0);
        assert_eq!(sites[5].position.x, 5_000.0);
    }

    #[test]
    fn single_mix_draws_only_that_channel() {
        let mix = ChannelMix::single(Channel::CH6);
        let mut rng = Rng::new(13);
        for _ in 0..100 {
            assert_eq!(mix.draw(&mut rng), Channel::CH6);
        }
    }
}
