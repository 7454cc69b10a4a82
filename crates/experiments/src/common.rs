//! Shared scenario builders and output helpers for the experiment harness.

use mobility::deployment::{deploy_along, ApSite, DeploymentConfig};
use mobility::geometry::Point;
use mobility::route::{Route, Vehicle};
use sim_engine::rng::Rng;
use sim_engine::stats::Samples;
use sim_engine::time::{Duration, Instant};
use spider_core::config::{SchedulePolicy, SpiderConfig};
use spider_core::world::{run, ClientMotion, RunResult, WorldConfig};
use wifi_mac::channel::Channel;

/// The default experiment seed; `--seed` overrides.
pub const DEFAULT_SEED: u64 = 20111206; // CoNEXT 2011 opening day

/// Scale factor for run lengths: 1 = quick (default), larger = closer to
/// the paper's 30–60 minute drives.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier applied to run durations.
    pub factor: u64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    pub fn duration(&self, base_secs: u64) -> Duration {
        Duration::from_secs(base_secs * self.factor)
    }
}

/// The Amherst-like downtown loop: a ~3 km rectangular block circuit.
pub fn amherst_route() -> Route {
    Route::rectangle(1_000.0, 500.0)
}

/// Deploy an Amherst-like AP population along the loop.
pub fn amherst_sites(seed: u64) -> Vec<ApSite> {
    let mut rng = Rng::new(seed ^ 0xA4E);
    deploy_along(&amherst_route(), &DeploymentConfig::amherst(), &mut rng)
}

/// Deploy a Boston-like (denser, Cabernet channel mix) population.
pub fn boston_sites(seed: u64) -> Vec<ApSite> {
    let mut rng = Rng::new(seed ^ 0xB05);
    deploy_along(&amherst_route(), &DeploymentConfig::boston(), &mut rng)
}

/// A vehicular world: drive the Amherst loop at `speed` m/s.
pub fn vehicular_world(
    seed: u64,
    sites: Vec<ApSite>,
    spider: SpiderConfig,
    duration: Duration,
    speed: f64,
) -> WorldConfig {
    let vehicle = Vehicle::new(amherst_route(), speed, Instant::ZERO);
    WorldConfig::new(seed, sites, ClientMotion::Route(vehicle), spider, duration)
}

/// A static lab world: the client sits `dist` metres from the APs. The
/// wired path matches the paper's indoor setup ("400 ms ≈ two typical
/// RTTs" puts the server RTT near 200 ms — a 2011 DSL-grade path).
pub fn lab_world(
    seed: u64,
    sites: Vec<ApSite>,
    spider: SpiderConfig,
    duration: Duration,
    dist: f64,
) -> WorldConfig {
    let mut cfg = WorldConfig::new(
        seed,
        sites,
        ClientMotion::Fixed(Point::new(0.0, dist)),
        spider,
        duration,
    );
    cfg.backhaul_latency = Duration::from_millis(90);
    cfg
}

/// A lab AP site at `x` on `channel` with the given backhaul and a fast,
/// predictable DHCP server (lab APs answer quickly).
pub fn lab_site(id: u32, x: f64, channel: Channel, backhaul_bps: u64) -> ApSite {
    ApSite {
        id,
        position: Point::new(x, 0.0),
        channel,
        backhaul_bps,
        dhcp_delay_min: Duration::from_millis(50),
        dhcp_delay_max: Duration::from_millis(200),
    }
}

/// The §2.2 schedule: fraction `f` of `period` on `primary`, the remainder
/// split evenly over the other two orthogonal channels.
pub fn split_schedule(primary: Channel, f: f64, period: Duration) -> SchedulePolicy {
    assert!((0.0..=1.0).contains(&f), "bad fraction {f}");
    if f >= 0.999 {
        return SchedulePolicy::SingleChannel(primary);
    }
    let others: Vec<Channel> = wifi_mac::ORTHOGONAL
        .iter()
        .copied()
        .filter(|c| *c != primary)
        .collect();
    let primary_slice = period.mul_f64(f);
    let other_slice = period.mul_f64((1.0 - f) / 2.0);
    let mut slices = vec![(primary, primary_slice)];
    for c in others {
        slices.push((c, other_slice));
    }
    // Zero-length slices degenerate; drop them.
    slices.retain(|(_, d)| !d.is_zero());
    SchedulePolicy::MultiChannel { slices }
}

/// Where JSON reports are written, when `--json <dir>` was passed.
pub static JSON_DIR: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();

/// Worker-pool width, when `--workers N` was passed (default: all cores).
pub static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Campaign cache override: `Some(dir)` from `--cache-dir`, `None` from
/// `--no-cache`. Unset means the default `target/campaign`.
pub static CACHE_DIR: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();

fn export_json(label: &str, result: &RunResult) {
    let Some(Some(dir)) = JSON_DIR.get().map(|d| d.as_ref()) else {
        return;
    };
    let file = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>();
    let path = dir.join(format!("{file}.json"));
    let report = spider_core::report::Report::from_run(result);
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Run many labelled configurations through the campaign orchestrator:
/// shards already in the content-addressed cache (`target/campaign` by
/// default, `--cache-dir` to move it, `--no-cache` to bypass) replay
/// instantly, the rest fan out over the in-tree worker pool (`--workers N`
/// caps the width). The simulations are pure CPU and independent; each
/// carries its own seed in its `WorldConfig`, so results — cached or
/// fresh — are identical at any worker count. With `--json <dir>`, each
/// result is also written as `<dir>/<label>.json`.
pub fn run_all(configs: Vec<(String, WorldConfig)>) -> Vec<(String, RunResult)> {
    let workers = WORKERS
        .get()
        .copied()
        .unwrap_or_else(sim_engine::par::available_workers);
    let cache_dir = match CACHE_DIR.get() {
        Some(None) => None,
        Some(Some(dir)) => Some(dir.clone()),
        None => Some(std::path::PathBuf::from(campaign::DEFAULT_CACHE_DIR)),
    };
    let results = match cache_dir {
        Some(dir) => match campaign::Campaign::new(&dir)
            .with_workers(workers)
            .run(configs.clone())
        {
            Ok(outcome) => outcome.into_results(),
            // A broken cache directory (permissions, full disk) must not
            // block figure regeneration — warn and run uncached.
            Err(e) => {
                eprintln!(
                    "warning: campaign cache at {} unavailable ({e}); running uncached",
                    dir.display()
                );
                run_uncached(configs, workers)
            }
        },
        None => run_uncached(configs, workers),
    };
    for (label, result) in &results {
        export_json(label, result);
    }
    results
}

fn run_uncached(configs: Vec<(String, WorldConfig)>, workers: usize) -> Vec<(String, RunResult)> {
    sim_engine::par::map_with_workers(configs, workers, |_, (label, cfg)| (label, run(cfg)))
}

/// Print an ECDF as `value cumfrac` rows at the given probe points.
pub fn print_cdf(name: &str, samples: &Samples, probes: &[f64], unit: &str) {
    let mut s = samples.clone();
    if s.is_empty() {
        println!("  {name}: (no samples)");
        return;
    }
    print!("  {name:<42}");
    for &p in probes {
        print!(" {:>5.2}@{p}{unit}", s.cdf_at(p));
    }
    println!("  [n={} med={:.2}{unit}]", s.count(), s.median());
}

/// Print the standard quantile summary of a sample set.
pub fn print_quantiles(name: &str, samples: &Samples, unit: &str) {
    let mut s = samples.clone();
    if s.is_empty() {
        println!("  {name}: (no samples)");
        return;
    }
    println!(
        "  {name:<42} n={:<6} p10={:<8.2} med={:<8.2} p60={:<8.2} p90={:<8.2} max={:<8.2} ({unit})",
        s.count(),
        s.quantile(0.10),
        s.median(),
        s.quantile(0.60),
        s.quantile(0.90),
        s.quantile(1.0),
    );
}

/// Section header.
pub fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::report::Report;

    fn small_batch() -> Vec<(String, WorldConfig)> {
        let spider = SpiderConfig::single_channel_multi_ap(Channel::CH1);
        (0..4)
            .map(|i| {
                let sites = vec![lab_site(1, 0.0, Channel::CH1, 2_000_000)];
                let cfg = lab_world(
                    DEFAULT_SEED + i,
                    sites,
                    spider.clone(),
                    Duration::from_secs(10),
                    10.0,
                );
                (format!("world-{i}"), cfg)
            })
            .collect()
    }

    /// The fan-out must be byte-identical at any worker count: each run's
    /// randomness comes from its own `WorldConfig` seed, never from
    /// scheduling.
    #[test]
    fn fan_out_is_byte_identical_across_worker_counts() {
        let serial: Vec<(String, String)> =
            sim_engine::par::map_with_workers(small_batch(), 1, |_, (label, cfg)| {
                (label, Report::from_run(&run(cfg)).to_json())
            });
        for workers in [2, 4] {
            let parallel: Vec<(String, String)> =
                sim_engine::par::map_with_workers(small_batch(), workers, |_, (label, cfg)| {
                    (label, Report::from_run(&run(cfg)).to_json())
                });
            assert_eq!(parallel, serial, "{workers} workers diverged from serial");
        }
    }
}
