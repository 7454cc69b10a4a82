//! Live progress and ETA reporting for a running campaign.
//!
//! Everything goes to **stderr**: stdout belongs to the experiment's
//! figure text, which must stay byte-identical between a fresh run and a
//! fully cached one (`experiments/tests/campaign_cache.rs` asserts
//! this), so the orchestrator never writes a byte there.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-shard engine counters forwarded from
/// `spider_core::world::RunDiagnostics` (kept as a plain pair so this
/// module stays independent of the world's types).
pub type ShardDiagnostics = (u64, usize); // (events_delivered, peak_queue_depth)

/// Shared progress state; every worker calls [`Progress::shard_done`].
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    misses_done: AtomicUsize,
    miss_wall_ms: AtomicU64,
    events_delivered: AtomicU64,
    started: Instant,
    quiet: bool,
}

impl Progress {
    /// A tracker for `total` scheduled shards.
    pub fn new(total: usize, quiet: bool) -> Progress {
        Progress {
            total,
            done: AtomicUsize::new(0),
            misses_done: AtomicUsize::new(0),
            miss_wall_ms: AtomicU64::new(0),
            events_delivered: AtomicU64::new(0),
            started: Instant::now(),
            quiet,
        }
    }

    /// Record one finished shard and print its progress line. `diag` is
    /// `Some` only for freshly executed shards (cache hits replay a stored
    /// record and never touch the event queue, so they carry no counters).
    pub fn shard_done(
        &self,
        label: &str,
        hash: &str,
        cache_hit: bool,
        wall_ms: u64,
        workers: usize,
        diag: Option<ShardDiagnostics>,
    ) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        if !cache_hit {
            self.misses_done.fetch_add(1, Ordering::SeqCst);
            self.miss_wall_ms.fetch_add(wall_ms, Ordering::SeqCst);
        }
        if let Some((events, _)) = diag {
            self.events_delivered.fetch_add(events, Ordering::SeqCst);
        }
        if self.quiet {
            return;
        }
        let eta = self.eta_secs(done, workers);
        let perf = match diag {
            Some((events, peak)) => format!(
                "  {} ev/s (depth {peak})",
                fmt_rate(events_per_sec(events, wall_ms))
            ),
            None => String::new(),
        };
        eprintln!(
            "  [{done:>3}/{:<3}] {} {:>6} ms  eta {:>5}  {}  {label}{perf}",
            self.total,
            if cache_hit { "hit " } else { "miss" },
            wall_ms,
            fmt_eta(eta),
            &hash[..12.min(hash.len())],
        );
    }

    /// Estimated seconds left: mean wall time of completed misses, spread
    /// over the remaining shards and the worker count. `None` until a
    /// first miss has finished (hits are ~free and carry no signal).
    fn eta_secs(&self, done: usize, workers: usize) -> Option<f64> {
        let misses = self.misses_done.load(Ordering::SeqCst);
        if misses == 0 || done >= self.total {
            return if done >= self.total { Some(0.0) } else { None };
        }
        let mean_ms = self.miss_wall_ms.load(Ordering::SeqCst) as f64 / misses as f64;
        let remaining = (self.total - done) as f64;
        Some(mean_ms * remaining / (workers.max(1) as f64) / 1000.0)
    }

    /// Print the campaign summary line (stderr). Stable prefix — the
    /// cache tests parse the `hits`/`misses` counts — so the aggregate
    /// engine throughput is appended *after* the existing suffix, and only
    /// when fresh shards actually ran.
    pub fn summary(&self, hits: usize, misses: usize, cancelled: usize) {
        if self.quiet {
            return;
        }
        let events = self.events_delivered.load(Ordering::SeqCst);
        let miss_ms = self.miss_wall_ms.load(Ordering::SeqCst);
        // Per-worker-second throughput: total events over summed shard
        // wall time (shards run in parallel, so this is the per-core
        // engine rate, not campaign-wall-clock rate).
        let perf = if misses > 0 && events > 0 {
            format!(
                " — {events} events, {} ev/s per worker",
                fmt_rate(events_per_sec(events, miss_ms))
            )
        } else {
            String::new()
        };
        eprintln!(
            "campaign: {} shards — {hits} hits, {misses} misses, {cancelled} cancelled in {:.1}s{perf}",
            self.total,
            self.started.elapsed().as_secs_f64()
        );
    }
}

/// Events per wall-clock second, `None` when the run was too fast to time.
fn events_per_sec(events: u64, wall_ms: u64) -> Option<f64> {
    (wall_ms > 0).then(|| events as f64 * 1000.0 / wall_ms as f64)
}

/// Render an events/sec rate compactly (`--` when untimeable).
fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        None => "--".to_string(),
        Some(r) if r >= 1_000_000.0 => format!("{:.1}M", r / 1_000_000.0),
        Some(r) if r >= 1_000.0 => format!("{:.0}k", r / 1_000.0),
        Some(r) => format!("{r:.0}"),
    }
}

/// Render an ETA compactly (`--` before any signal exists).
fn fmt_eta(eta: Option<f64>) -> String {
    match eta {
        None => "--".to_string(),
        Some(s) if s >= 90.0 => format!("{:.1}m", s / 60.0),
        Some(s) => format!("{s:.0}s"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_needs_a_first_miss() {
        let p = Progress::new(4, true);
        assert_eq!(p.eta_secs(0, 2), None);
        p.shard_done("a", "0123456789abcdef", true, 0, 2, None);
        assert_eq!(p.eta_secs(1, 2), None, "hits carry no ETA signal");
        p.shard_done("b", "0123456789abcdef", false, 1_000, 2, Some((50_000, 12)));
        let eta = p.eta_secs(2, 2).expect("miss seen");
        // Two shards left at ~1s each over 2 workers ≈ 1s.
        assert!((eta - 1.0).abs() < 1e-9, "eta {eta}");
    }

    #[test]
    fn eta_is_zero_when_done() {
        let p = Progress::new(1, true);
        p.shard_done("a", "00", false, 500, 1, Some((1_000, 3)));
        assert_eq!(p.eta_secs(1, 1), Some(0.0));
    }

    #[test]
    fn fmt_eta_units() {
        assert_eq!(fmt_eta(None), "--");
        assert_eq!(fmt_eta(Some(42.0)), "42s");
        assert_eq!(fmt_eta(Some(150.0)), "2.5m");
    }

    #[test]
    fn events_per_sec_handles_zero_wall_time() {
        assert_eq!(events_per_sec(10_000, 0), None);
        assert_eq!(events_per_sec(10_000, 500), Some(20_000.0));
    }

    #[test]
    fn fmt_rate_units() {
        assert_eq!(fmt_rate(None), "--");
        assert_eq!(fmt_rate(Some(950.0)), "950");
        assert_eq!(fmt_rate(Some(20_000.0)), "20k");
        assert_eq!(fmt_rate(Some(2_500_000.0)), "2.5M");
    }

    #[test]
    fn diagnostics_accumulate_into_the_summary_totals() {
        let p = Progress::new(3, true);
        p.shard_done("a", "00", false, 100, 1, Some((1_000, 4)));
        p.shard_done("b", "01", false, 100, 1, Some((2_000, 9)));
        p.shard_done("c", "02", true, 0, 1, None);
        assert_eq!(p.events_delivered.load(Ordering::SeqCst), 3_000);
        assert_eq!(p.miss_wall_ms.load(Ordering::SeqCst), 200);
    }
}
