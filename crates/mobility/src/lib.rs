//! # mobility
//!
//! Vehicular mobility and AP deployment for the Spider (CoNEXT 2011)
//! reproduction: the substitute for the paper's five cars driving Amherst
//! and Boston.
//!
//! * [`geometry`] — points, distances, segment–circle intersection.
//! * [`route`] — polyline routes (the paper's repeated fixed loops) and
//!   constant-speed vehicles.
//! * [`deployment`] — open-AP placement with the paper's measured channel
//!   mixes (Amherst 28/33/34 % on 1/6/11; Boston per Cabernet), per-AP
//!   backhaul and DHCP-responsiveness draws.
//! * [`encounter`] — analytic in-range windows; the paper's town yields a
//!   median ≈ 8 s / mean ≈ 22 s encounter, which calibrations target.
//! * [`metro`] — metro-scale street-grid deployments (thousands of APs)
//!   with pluggable channel plans, for the channel-assignment experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod encounter;
pub mod geometry;
pub mod metro;
pub mod route;

pub use deployment::{deploy_along, deploy_evenly, ApSite, ChannelMix, DeploymentConfig};
pub use encounter::{encounters, range_intervals, Encounter, EncounterStats};
pub use geometry::Point;
pub use metro::{metro_deployment, metro_route, MetroChannelPlan, MetroConfig};
pub use route::{Route, SpeedProfile, Vehicle};
