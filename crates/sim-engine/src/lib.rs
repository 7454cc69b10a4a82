//! # sim-engine
//!
//! Deterministic discrete-event simulation kernel used by the Spider
//! (CoNEXT 2011) reproduction.
//!
//! The paper's evaluation ran on real cars, radios, and access points; this
//! workspace reproduces it in simulation, so the kernel's job is to make
//! every run an exact, seedable function of its inputs:
//!
//! * [`time`] — integer-nanosecond virtual clock ([`time::Instant`],
//!   [`time::Duration`]).
//! * [`queue`] — future-event list with strict total order, O(1) timer
//!   cancellation, and O(1) FIFO lanes for fixed-period timers.
//! * [`runner`] — the event pump ([`runner::Handler`],
//!   [`runner::run_until`]).
//! * [`rng`] — self-contained xoshiro256** PRNG with forkable streams and
//!   the distributions the paper's models need.
//! * [`stats`] — the estimators behind every reported number: streaming
//!   moments, percentiles and CDFs.
//! * [`wire`] — zero-dependency byte buffers ([`wire::Bytes`],
//!   [`wire::Writer`], [`wire::Reader`]) backing every protocol codec.
//! * [`par`] — a std-only scoped worker pool with deterministic per-task
//!   RNG forking, the experiment harness's fan-out engine.
//! * [`check`](mod@check) — the in-tree property-testing harness
//!   (seeded cases, shrink-by-halving, failure-seed replay).
//! * [`json`] — the workspace's one JSON reader (a [`json::Value`] tree
//!   with u64-exact integers and a depth cap) and string quoter.
//!
//! The kernel is deliberately dependency-free: `cargo build --offline`
//! from an empty registry cache must always succeed (enforced by `ci.sh`).
//!
//! Nothing here knows about Wi-Fi; higher crates (`wifi-mac`, `dhcp`,
//! `tcp-lite`, `spider-core`) compose on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod json;
pub mod par;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod time;
pub mod wire;

pub use check::{check, check_with, CaseResult, Gen};
pub use queue::{EventId, EventQueue};
pub use rng::Rng;
pub use runner::{run_until, Handler};
pub use stats::{Samples, Summary};
pub use time::{Duration, Instant};
pub use wire::{Bytes, Reader, WireError, Writer};
