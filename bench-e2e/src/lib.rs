//! # bench-e2e
//!
//! The end-to-end benchmark of the Spider (CoNEXT 2011) reproduction:
//! six named workloads, each run from one process, each checked against
//! a golden digest, each reporting its end-to-end metrics by name and
//! unit — and, in a separate traced run, per-layer metrics from spans
//! around the benchmark's own calls into each layer. `BENCHMARKS.md`
//! describes the workloads, the metrics and the recorded result sets.
//!
//! * [`workloads`] — the six workloads and the inputs their ops run on.
//! * [`world`] / [`campaign`] — the two kinds of run.
//! * [`run`] — the pass clock, machine canary and outcome they share.
//! * [`trace`] — spans and self time; [`probes`] — per-layer probes.
//! * [`metrics`], [`summary`] — metric names, counts and order statistics.
//! * [`golden`] — the digest oracle; [`compare`] — A/B result sets.
//! * [`hw`] — the hardware header; [`json`] — reading results back.

pub mod campaign;
pub mod compare;
pub mod golden;
pub mod hw;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod summary;
pub mod trace;
pub mod workloads;
pub mod world;
