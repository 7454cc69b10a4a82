//! # spider-core
//!
//! Spider — the paper's contribution — and the full-system simulation it is
//! evaluated in.
//!
//! Spider is a client-side virtualized Wi-Fi driver for *mobile* users. In
//! contrast to static multi-AP systems (Virtual Wi-Fi, FatVAP, Juggler)
//! that slice time across individual APs, Spider schedules the physical
//! card among **channels**, keeps one packet queue per channel, and talks
//! to every associated AP on the current channel simultaneously — because
//! §2's analysis shows the DHCP join, whose pacing the AP controls, cannot
//! survive fractional channel schedules at vehicular speed.
//!
//! * [`config`] — the driver's policy knobs and the four §4 evaluation
//!   configurations plus the stock-MadWiFi baseline.
//! * [`fleet`] — client fleets: per-client addressing, counters, convoy
//!   construction, and the fleet determinism contract.
//! * [`history`] — per-AP join history and lease cache.
//! * [`selection`] — multi-AP selection: NP-hardness (knapsack) and the
//!   history-driven greedy heuristic.
//! * [`metrics`] — §4.3's throughput/connectivity/disruption metrics.
//! * [`report`] — flattened, serializable run summaries.
//! * [`world`] — the deterministic event-driven world: radio, MACs, DHCP,
//!   TCP, backhaul, and mobility wired together; [`world::run`] is the
//!   entry point every experiment uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod fleet;
pub mod history;
pub mod intern;
pub mod metrics;
pub mod report;
pub mod selection;
pub mod world;

pub use config::{SchedulePolicy, SelectionPolicy, SpiderConfig};
pub use fleet::ClientCounters;
pub use history::ApHistory;
pub use intern::MacIntern;
pub use metrics::Metrics;
pub use report::{NonFiniteField, Quantiles, Report, ReportParseError, RunRecord};
pub use selection::{select_aps, Candidate};
pub use world::{
    run, run_with_diagnostics, ClientMotion, ConfigError, RunDiagnostics, RunResult, WorldConfig,
};
