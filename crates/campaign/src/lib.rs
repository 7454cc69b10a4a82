//! # campaign
//!
//! A resumable, content-addressed experiment-campaign orchestrator.
//!
//! The paper's evaluation (§4, Tables 1–4, Figs. 9–14) is a grid of
//! repeated vehicular runs — scenario × seed × scale × driver
//! configuration. Re-executing that grid from scratch for every figure
//! regeneration wastes exactly the work a deterministic simulator makes
//! cacheable: the same `WorldConfig` always produces the same
//! `RunResult`. This crate turns the grid into a **campaign**:
//!
//! 1. **Shard** — each `(label, WorldConfig)` pair is one shard, keyed by
//!    the content hash of its full input (code fingerprint + every
//!    config field; see [`hash`]).
//! 2. **Cache** — completed shards live as full-fidelity
//!    [`spider_core::report::RunRecord`] JSON under
//!    `<cache-dir>/reports/<hash>.json` ([`cache`]); a hit reconstructs
//!    the `RunResult` bit-exactly, so regenerated figure text is
//!    byte-identical to a fresh run's.
//! 3. **Schedule** — uncached shards fan out over
//!    `sim_engine::par::map_cancellable`: dynamic claiming from a shared
//!    counter, cooperative cancellation, live progress/ETA on stderr
//!    ([`progress`]).
//! 4. **Manifest** — every shard, hit or miss, is appended to
//!    `<cache-dir>/manifest.jsonl` as it finishes ([`manifest`]). The
//!    manifest is an audit log that `run` never reads back: an
//!    interrupted campaign resumes because each finished shard's record
//!    file already exists, so only the shards without one re-run.
//!
//! ```no_run
//! use campaign::Campaign;
//! # fn shards() -> Vec<(String, spider_core::world::WorldConfig)> { vec![] }
//! let outcome = Campaign::new("target/campaign").run(shards()).unwrap();
//! for shard in &outcome.outcomes {
//!     println!("{}: {} KB/s (cached: {})",
//!              shard.label,
//!              shard.result.avg_throughput_kbps(),
//!              shard.cache_hit);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hash;
pub mod manifest;
pub mod progress;

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use sim_engine::par::{self, CancelToken};
use spider_core::world::{run_with_diagnostics, RunResult, WorldConfig};

use cache::RecordCache;
use manifest::{Manifest, ManifestEntry};
use progress::Progress;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "target/campaign";

/// A campaign runner: where to cache, how wide to fan out, how to stop.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Cache directory (records + manifest).
    pub cache_dir: PathBuf,
    /// Worker threads for uncached shards.
    pub workers: usize,
    /// Suppress progress/summary lines (tests).
    pub quiet: bool,
    /// Cooperative cancellation; clone it and call `cancel()` from
    /// anywhere to stop the campaign at the next shard boundary.
    pub cancel: CancelToken,
}

/// One completed shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard's label (the experiment's configuration name).
    pub label: String,
    /// The shard's content hash.
    pub hash: String,
    /// Served from cache?
    pub cache_hit: bool,
    /// Wall-clock milliseconds this shard took (≈0 for hits).
    pub wall_ms: u64,
    /// Where the shard's run record lives.
    pub record_path: PathBuf,
    /// The (fresh or reconstructed) run.
    pub result: RunResult,
}

/// What a campaign did.
#[derive(Debug)]
pub struct CampaignRun {
    /// Completed shards, in the order they were submitted.
    pub outcomes: Vec<ShardOutcome>,
    /// Shards served from cache.
    pub hits: usize,
    /// Shards executed this run.
    pub misses: usize,
    /// Shards skipped because the campaign was cancelled; resume by
    /// running the same campaign again.
    pub cancelled: usize,
}

impl CampaignRun {
    /// The completed shards as `(label, result)` pairs — the shape the
    /// experiment harness consumed before campaigns existed.
    ///
    /// # Panics
    /// Panics if the campaign was cancelled (callers that handle partial
    /// campaigns should read `outcomes` directly).
    pub fn into_results(self) -> Vec<(String, RunResult)> {
        assert!(
            self.cancelled == 0,
            "campaign cancelled with {} shard(s) unfinished",
            self.cancelled
        );
        self.outcomes
            .into_iter()
            .map(|o| (o.label, o.result))
            .collect()
    }
}

impl Campaign {
    /// A campaign over `cache_dir` with default width (all cores) and
    /// progress reporting on.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Campaign {
        Campaign {
            cache_dir: cache_dir.into(),
            workers: par::available_workers(),
            quiet: false,
            cancel: CancelToken::new(),
        }
    }

    /// Override the worker count (1 = sequential).
    pub fn with_workers(mut self, workers: usize) -> Campaign {
        self.workers = workers.max(1);
        self
    }

    /// Suppress stderr progress output.
    pub fn with_quiet(mut self, quiet: bool) -> Campaign {
        self.quiet = quiet;
        self
    }

    /// Run a sweep: serve cached shards, execute the rest, log everything.
    ///
    /// Shard labels must be unique within one call (they are the
    /// human-readable manifest keys); hashes make the actual cache
    /// identity, so duplicate *configurations* under different labels
    /// are fine (the second is a hit).
    pub fn run(&self, shards: Vec<(String, WorldConfig)>) -> io::Result<CampaignRun> {
        let cache = RecordCache::open(&self.cache_dir)?;
        let manifest = Manifest::open(&self.cache_dir)?;
        let progress = Progress::new(shards.len(), self.quiet);

        let mut slots: Vec<Option<ShardOutcome>> = Vec::with_capacity(shards.len());
        slots.resize_with(shards.len(), || None);
        let mut pending: Vec<(usize, String, String, WorldConfig)> = Vec::new();

        for (index, (label, world)) in shards.into_iter().enumerate() {
            let hash = hash::shard_hash(&world);
            // Resume is keyed on record files alone: the record is the
            // artifact, and the manifest is never read back here.
            match cache.load(&hash) {
                Some(result) => {
                    let entry = ManifestEntry {
                        shard: label.clone(),
                        hash: hash.clone(),
                        wall_ms: 0,
                        cache_hit: true,
                        path: record_rel_path(&hash),
                    };
                    manifest.append(&entry)?;
                    progress.shard_done(&label, &hash, true, 0, self.workers, None);
                    slots[index] = Some(ShardOutcome {
                        label,
                        record_path: cache.record_path(&hash),
                        hash,
                        cache_hit: true,
                        wall_ms: 0,
                        result,
                    });
                }
                // Unknown hash — or a corrupt/stale record, which re-runs.
                None => pending.push((index, label, hash, world)),
            }
        }

        let hits = slots.iter().flatten().count();
        let scheduled = pending.len();
        let executed = par::map_cancellable(
            pending,
            self.workers,
            &self.cancel,
            |_, (index, label, hash, world)| {
                let started = Instant::now();
                let (result, diag) = run_with_diagnostics(world);
                let wall_ms = started.elapsed().as_millis() as u64;
                let record_path = cache.store(&hash, &result)?;
                manifest.append(&ManifestEntry {
                    shard: label.clone(),
                    hash: hash.clone(),
                    wall_ms,
                    cache_hit: false,
                    path: record_rel_path(&hash),
                })?;
                progress.shard_done(
                    &label,
                    &hash,
                    false,
                    wall_ms,
                    self.workers,
                    Some((diag.events_delivered, diag.peak_queue_depth)),
                );
                Ok::<_, io::Error>((
                    index,
                    ShardOutcome {
                        label,
                        hash,
                        cache_hit: false,
                        wall_ms,
                        record_path,
                        result,
                    },
                ))
            },
        );

        let mut cancelled = 0usize;
        for slot in executed {
            match slot {
                Some(Ok((index, outcome))) => slots[index] = Some(outcome),
                Some(Err(e)) => return Err(e),
                None => cancelled += 1,
            }
        }
        let misses = scheduled - cancelled;
        progress.summary(hits, misses, cancelled);
        Ok(CampaignRun {
            outcomes: slots.into_iter().flatten().collect(),
            hits,
            misses,
            cancelled,
        })
    }
}

/// A record's path relative to the cache directory (manifest form).
fn record_rel_path(hash: &str) -> String {
    format!("reports/{hash}.json")
}
