//! # spider-repro
//!
//! A full reproduction of **"Concurrent Wi-Fi for Mobile Users: Analysis
//! and Measurements"** (Soroush, Gilbert, Banerjee, Levine, Corner, Cox —
//! ACM CoNEXT 2011): the Spider virtualized multi-AP Wi-Fi driver, the
//! paper's analytical join/throughput models, and every substrate needed
//! to evaluate them — rebuilt as a deterministic discrete-event simulation
//! in pure Rust.
//!
//! This facade crate re-exports the workspace's public APIs:
//!
//! * [`engine`] — deterministic simulation kernel (virtual time, event
//!   queue, RNG, statistics).
//! * [`wifi`] — the 802.11 substrate: frames, PHY, client/AP MACs, radio.
//! * [`dhcp`] — DHCP wire format, client timers, per-AP servers with the
//!   paper's `β` response-delay model.
//! * [`tcp`] — NewReno + SACK + timestamps TCP, the workload's transport.
//! * [`mobility`] — routes, vehicular motion, AP deployments, encounters.
//! * [`geo`] — spatial indexing for metro-scale worlds: grid/bucket range
//!   queries over deployments, incremental mover membership, per-cell
//!   channel contention.
//! * [`model`] — the paper's Eqs. 1–10: join probability and the
//!   throughput optimizer with its dividing speed.
//! * [`traffic`] — backhaul links, download plans, mesh-user traces.
//! * [`spider`] — the driver itself and the full-world simulation.
//! * [`campaign`] — the resumable, content-addressed experiment-campaign
//!   orchestrator (cached run records + replayable manifest).
//! * [`fleet`] — multi-process campaign execution: a framed worker
//!   protocol over stdin/stdout with crash-retry scheduling.
//!
//! ## Quickstart
//!
//! ```
//! use spider_repro::spider::{run, ClientMotion, SpiderConfig, WorldConfig};
//! use spider_repro::mobility::{deploy_evenly, DeploymentConfig, Route, Vehicle};
//! use spider_repro::engine::{Duration, Instant, Rng};
//! use spider_repro::wifi::Channel;
//!
//! // A 2 km road with APs every 200 m, all on channel 1.
//! let route = Route::straight(
//!     spider_repro::mobility::Point::new(0.0, 0.0),
//!     spider_repro::mobility::Point::new(2_000.0, 0.0),
//! );
//! let mut rng = Rng::new(7);
//! let mut cfg = DeploymentConfig::amherst();
//! cfg.channel_mix = spider_repro::mobility::ChannelMix::single(Channel::CH1);
//! let sites = deploy_evenly(&route, 10, &cfg, &mut rng);
//!
//! // Drive it at 10 m/s with Spider's best configuration.
//! let vehicle = Vehicle::new(route, 10.0, Instant::ZERO);
//! let world = WorldConfig::new(
//!     42,
//!     sites,
//!     ClientMotion::Route(vehicle),
//!     SpiderConfig::single_channel_multi_ap(Channel::CH1),
//!     Duration::from_secs(120),
//! );
//! let result = run(world);
//! assert!(result.join_times.count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic simulation kernel.
pub mod engine {
    pub use sim_engine::*;
}

/// 802.11 substrate.
pub mod wifi {
    pub use wifi_mac::*;
}

/// DHCP substrate.
pub mod dhcp {
    pub use dhcp::*;
}

/// TCP substrate.
pub mod tcp {
    pub use tcp_lite::*;
}

/// Mobility and deployment.
pub mod mobility {
    pub use mobility::*;
}

/// Spatial indexing for metro-scale worlds.
pub mod geo {
    pub use geo::*;
}

/// The paper's analytical framework.
pub mod model {
    pub use analytical::*;
}

/// Traffic workloads.
pub mod traffic {
    pub use workload::*;
}

/// Spider and the full-system simulation.
pub mod spider {
    pub use spider_core::world::{run, ClientMotion, RunResult, WorldConfig};
    pub use spider_core::*;
}

/// Campaign orchestration: content-addressed caching and resumable sweeps.
pub mod campaign {
    pub use campaign::*;
}

/// Multi-process campaign execution: framed worker protocol, crash-retry
/// scheduler, deterministic fault injection.
pub mod fleet {
    pub use fleet::*;
}
