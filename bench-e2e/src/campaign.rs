//! The campaign workloads: the real user command,
//! `experiments all --seed 20111206 --workers 2 --cache-dir DIR`, run as
//! a child process of this one.
//!
//! The campaign runs at the `experiments` default seed whatever the run's
//! `--seed` is. `experiments` draws every figure's deployment from its
//! seed, and one seed's campaign does up to half again the simulation
//! work of another (3.9 to 6.1 s of shard time per pass over ten seeds);
//! no pass that fits a run averages that out. At the default seed every
//! run also checks the campaign's stdout against `golden.json`.
//!
//! * `campaign_cold` runs it into an empty cache: every pass simulates
//!   every shard, stores every record and writes the manifest.
//! * `campaign_warm` runs it against a fresh copy of a warm snapshot (one
//!   cold campaign plus the manifest lines of 20 warm replays), so every
//!   shard is a hit: manifest replay, shard hashing, record load and
//!   parse. Warm hits append to the manifest and replay slows as it
//!   grows, so restoring the snapshot keeps every pass the same work.
//!
//! Only `--cache-dir` is passed: `--cache-dir` and `--no-cache` are
//! first-wins flags, so adding the other would be silently ignored.
//!
//! An op is one whole campaign, timed around the process. Per-shard times
//! exist only in the manifest, in whole milliseconds, too coarse for an
//! end-to-end percentile; they feed the per-layer `world.run_ms` and
//! `campaign.shard_ms_*` instead.
//!
//! The child's work is measured from outside: wall time around the
//! process, its peak RSS polled from `/proc`, per-shard wall time from
//! the manifest, engine counters from the campaign's progress lines,
//! counts from the records it left in the cache. A traced pass then
//! calls the campaign layer's own functions on those records, each in
//! a span.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use campaign::cache::RecordCache;
use campaign::manifest::{Manifest, ManifestEntry, MANIFEST_FILE};
use spider_core::report::RunRecord;

use crate::golden::{digest, Golden};
use crate::hw;
use crate::metrics::{ratio, Counts, Metric};
use crate::probes::{self, ProbeInputs};
use crate::run::{self, fresh_dir, Outcome, RunConfig, Workbench, SETUP_REPEATS};
use crate::summary;
use crate::trace::{self, Tracer};
use crate::workloads::{Workload, DEFAULT_SEED};

/// Worker processes the campaign runs with: the cores of the machine the
/// benchmark was sized on.
const WORKERS: u32 = 2;

/// Warm replays folded into the warm snapshot's manifest.
const WARM_REPLAYS: usize = 20;

/// A child that runs longer than this is killed and its pass fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// How often a running child is checked for exit; its wall time is
/// this fine.
const POLL: Duration = Duration::from_millis(1);

/// Exit checks per peak-RSS sample: `VmHWM` only grows, so a sample every
/// 10 ms misses at most the last 10 ms of growth.
const RSS_EVERY: u32 = 10;

/// One finished child process.
#[derive(Debug)]
struct Child {
    ok: bool,
    wall_s: f64,
    stdout: Vec<u8>,
    stderr: String,
    peak_rss_mib: f64,
}

/// Run `exe args`, stdout and stderr to files in `io_dir`, polling its
/// peak RSS until it exits. The child is always waited for.
fn run_child(exe: &Path, args: &[String], io_dir: &Path) -> Result<Child, String> {
    let out_path = io_dir.join("child.stdout");
    let err_path = io_dir.join("child.stderr");
    let file = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let (stdout, stderr) = (file(&out_path)?, file(&err_path)?);
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let pid = child.id().to_string();
    let mut peak_rss_mib = 0.0f64;
    let mut polls = 0u32;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                if polls.is_multiple_of(RSS_EVERY) {
                    if let Some(mib) = hw::peak_rss_mib(&pid) {
                        peak_rss_mib = peak_rss_mib.max(mib);
                    }
                }
                polls = polls.wrapping_add(1);
                std::thread::sleep(POLL);
            }
            waited => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match waited {
                    Err(e) => format!("waiting for {}: {e}", exe.display()),
                    _ => format!("{} ran past {CHILD_TIMEOUT:?}", exe.display()),
                });
            }
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Child {
        ok: status.success(),
        wall_s,
        stdout: fs::read(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?,
        stderr: fs::read_to_string(&err_path).unwrap_or_default(),
        peak_rss_mib,
    })
}

/// What one campaign served, read back from its cache directory.
#[derive(Debug, Default)]
struct Served {
    /// The pass's own manifest lines.
    entries: Vec<ManifestEntry>,
    /// Every manifest line, the snapshot's included.
    lines_total: usize,
    /// Record digest of each entry, in order.
    record_digests: Vec<u64>,
    /// Simulated client-seconds of every shard served.
    sim_s: f64,
    counts: Counts,
    /// Manifest wall time of each shard the pass simulated.
    miss_ms: Vec<f64>,
}

/// Read what the campaign in `dir` served after its first `skip` lines.
fn read_served(dir: &Path, skip: usize) -> Result<Served, String> {
    let all = Manifest::replay(dir).map_err(|e| format!("manifest: {e}"))?;
    let mut served = Served {
        lines_total: all.len(),
        ..Served::default()
    };
    for entry in all.into_iter().skip(skip) {
        let path = dir.join(&entry.path);
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result =
            RunRecord::from_json(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        served.sim_s += result.duration.as_secs_f64() * result.per_client.len().max(1) as f64;
        served.counts.add_result(&result, text.len());
        served.record_digests.push(digest(text.as_bytes()));
        if !entry.cache_hit {
            served.miss_ms.push(entry.wall_ms as f64);
        }
        served.entries.push(entry);
    }
    Ok(served)
}

/// Events delivered and the deepest queue, from the campaign's progress
/// lines on stderr (`… — N events, …` summaries, `(depth D)` per shard).
fn progress_counts(stderr: &str) -> (u64, u64) {
    let mut events = 0u64;
    let mut depth = 0u64;
    for line in stderr.lines() {
        if line.starts_with("campaign:") {
            if let Some((head, _)) = line.split_once(" events,") {
                let n = head.rsplit(' ').next().and_then(|n| n.parse::<u64>().ok());
                events += n.unwrap_or(0);
            }
        }
        if let Some((_, tail)) = line.rsplit_once("(depth ") {
            let d = tail.trim_end_matches(')').parse::<u64>().ok();
            depth = depth.max(d.unwrap_or(0));
        }
    }
    (events, depth)
}

/// One timed campaign.
#[derive(Debug)]
struct Pass {
    child: Child,
    stdout_digest: u64,
    served: Served,
    events: u64,
    depth: u64,
}

impl Pass {
    fn new(child: Child, dir: &Path, skip: usize) -> Result<Pass, String> {
        let served = if child.ok {
            read_served(dir, skip)?
        } else {
            Served::default()
        };
        let (events, depth) = progress_counts(&child.stderr);
        Ok(Pass {
            stdout_digest: digest(&child.stdout),
            child,
            served,
            events,
            depth,
        })
    }

    fn sim_rate(&self) -> f64 {
        ratio(self.served.sim_s, self.child.wall_s)
    }

    /// Host ns per event over the shards this pass simulated.
    fn ns_per_event(&self) -> f64 {
        ratio(
            self.served.miss_ms.iter().sum::<f64>() * 1e6,
            self.events as f64,
        )
    }
}

/// The arguments of the measured command.
fn all_args(cache_dir: &Path) -> Vec<String> {
    vec![
        "all".to_string(),
        "--seed".to_string(),
        DEFAULT_SEED.to_string(),
        "--workers".to_string(),
        WORKERS.to_string(),
        "--cache-dir".to_string(),
        cache_dir.display().to_string(),
    ]
}

/// `dir` replaced by a copy of `snapshot` (a manifest and `reports/`).
fn restore(snapshot: &Path, dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("restoring the snapshot: {e}");
    fresh_dir(&dir.join("reports"))?;
    fs::copy(snapshot.join(MANIFEST_FILE), dir.join(MANIFEST_FILE)).map_err(io)?;
    for file in fs::read_dir(snapshot.join("reports")).map_err(io)? {
        let file = file.map_err(io)?;
        fs::copy(file.path(), dir.join("reports").join(file.file_name())).map_err(io)?;
    }
    Ok(())
}

/// Paths a campaign run works in, all under the run's work directory.
struct Dirs {
    exe: PathBuf,
    work: PathBuf,
    cache: PathBuf,
    snapshot: PathBuf,
}

impl Dirs {
    fn campaign(&self, cache_dir: &Path) -> Result<Child, String> {
        run_child(&self.exe, &all_args(cache_dir), &self.work)
    }

    fn analytical(&self, target: &str) -> Result<Child, String> {
        let args = [target.to_string(), "--no-cache".to_string()];
        run_child(&self.exe, &args, &self.work)
    }

    /// Build the warm snapshot: one cold campaign, then the manifest
    /// lines its warm replays would append. Returns the cold campaign.
    fn build_snapshot(&self) -> Result<Pass, String> {
        fresh_dir(&self.snapshot)?;
        let cold = Pass::new(self.campaign(&self.snapshot)?, &self.snapshot, 0)?;
        if !cold.child.ok {
            return Err("the snapshot's cold campaign failed".to_string());
        }
        let manifest = Manifest::open(&self.snapshot).map_err(|e| format!("manifest: {e}"))?;
        for _ in 0..WARM_REPLAYS {
            for entry in &cold.served.entries {
                let hit = ManifestEntry {
                    wall_ms: 0,
                    cache_hit: true,
                    ..entry.clone()
                };
                manifest
                    .append(&hit)
                    .map_err(|e| format!("manifest: {e}"))?;
            }
        }
        Ok(cold)
    }
}

/// The stdout digest of `experiments all`, cold and then warm
/// from the snapshot, for `bless`. Errors if the two differ.
pub fn reference_digest(cfg: &RunConfig) -> Result<u64, String> {
    let dirs = prepare(cfg)?;
    let cold = dirs.build_snapshot()?;
    restore(&dirs.snapshot, &dirs.cache)?;
    let warm = dirs.campaign(&dirs.cache)?;
    let _ = fs::remove_dir_all(&cfg.work_dir);
    if !warm.ok || digest(&warm.stdout) != cold.stdout_digest {
        return Err("warm replay output differs from the cold campaign's".to_string());
    }
    Ok(cold.stdout_digest)
}

fn prepare(cfg: &RunConfig) -> Result<Dirs, String> {
    if !cfg.experiments.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release -p experiments` \
             into the same target directory as bench-e2e",
            cfg.experiments.display()
        ));
    }
    fresh_dir(&cfg.work_dir)?;
    Ok(Dirs {
        exe: cfg.experiments.clone(),
        work: cfg.work_dir.clone(),
        cache: cfg.work_dir.join("cache"),
        snapshot: cfg.work_dir.join("snapshot"),
    })
}

/// The campaign layer's own calls on the records pass `op` served, each
/// in a span: replay the manifest, then load, parse, serialize and store
/// every record. Returns how many records failed to round-trip.
fn layer_spans(t: &mut Tracer, op: u64, dirs: &Dirs, skip: usize) -> Result<u64, String> {
    let cache = RecordCache::open(&dirs.cache).map_err(|e| format!("cache: {e}"))?;
    let scratch_dir = dirs.work.join("scratch");
    fresh_dir(&scratch_dir)?;
    let scratch = RecordCache::open(&scratch_dir).map_err(|e| format!("cache: {e}"))?;
    let entries = t
        .span("campaign.manifest_replay", Some(op), |_| {
            Manifest::replay(&dirs.cache)
        })
        .map_err(|e| format!("manifest: {e}"))?;
    let mut broken = 0;
    for entry in entries.iter().skip(skip) {
        let text = fs::read_to_string(dirs.cache.join(&entry.path)).unwrap_or_default();
        let loaded = t.span("campaign.load", Some(op), |_| cache.load(&entry.hash));
        let parsed = t.span("report.from_json", Some(op), |_| {
            RunRecord::from_json(&text)
        });
        let (Some(_), Ok(result)) = (loaded, parsed) else {
            broken += 1;
            continue;
        };
        let json = t.span("report.to_json", Some(op), |_| RunRecord::to_json(&result));
        let stored = t.span("campaign.store", Some(op), |_| {
            scratch.store(&entry.hash, &result)
        });
        if json.ok().as_deref() != Some(text.as_str()) || stored.is_err() {
            broken += 1;
        }
    }
    Ok(broken)
}

/// A campaign workload's run state.
struct CampaignRun {
    dirs: Dirs,
    warm: bool,
    /// The warm snapshot's cold campaign (warm only).
    snapshot_cold: Option<Pass>,
    /// Manifest lines a restored snapshot starts with.
    snapshot_lines: usize,
    golden: Option<u64>,
    /// What every campaign must print: the snapshot's cold campaign's
    /// stdout (warm) or the first timed campaign's (cold).
    expected_stdout: Option<u64>,
    /// Record digest by shard hash, from the first campaign that served it.
    expected_records: BTreeMap<String, u64>,
    tracer: Tracer,
    out: Outcome,
    plain: Vec<Pass>,
    traced: Vec<Pass>,
}

impl Workbench for CampaignRun {
    /// Cold: an empty cache directory and one untimed `experiments fig4`
    /// (process start and the analytical optimizer). Warm: the snapshot,
    /// and one untimed warm campaign that must print what the cold did.
    fn setup(&mut self) -> Result<(), String> {
        let dirs = &self.dirs;
        if !self.warm {
            fresh_dir(&dirs.cache)?;
            if !dirs.analytical("fig4")?.ok {
                self.out
                    .problems
                    .push("set-up: `experiments fig4` failed".to_string());
            }
            return Ok(());
        }
        let cold = dirs.build_snapshot()?;
        restore(&dirs.snapshot, &dirs.cache)?;
        let warm_up = dirs.campaign(&dirs.cache)?;
        let expected = *self.expected_stdout.get_or_insert(cold.stdout_digest);
        if !warm_up.ok || digest(&warm_up.stdout) != expected || cold.stdout_digest != expected {
            self.out
                .problems
                .push("set-up campaigns disagree".to_string());
        }
        self.snapshot_lines = cold.served.entries.len() * (1 + WARM_REPLAYS);
        self.snapshot_cold.get_or_insert(cold);
        Ok(())
    }

    /// One campaign. It fails if the process does, if its stdout differs
    /// from the expected (or the golden digest), or if any record differs
    /// from the first campaign's record for that shard.
    fn pass(&mut self, traced: bool) -> Result<(), String> {
        let dirs = &self.dirs;
        if self.warm {
            restore(&dirs.snapshot, &dirs.cache)?;
        } else {
            fresh_dir(&dirs.cache)?;
        }
        let skip = self.snapshot_lines;
        let (pass, broken_records) = if traced {
            let op = self.traced.len() as u64;
            self.tracer.span("op", Some(op), |t| {
                let child = t.span("campaign.pass", Some(op), |_| dirs.campaign(&dirs.cache))?;
                let pass = Pass::new(child, &dirs.cache, skip)?;
                let broken = match pass.child.ok {
                    true => layer_spans(t, op, dirs, skip)?,
                    false => 0,
                };
                Ok::<_, String>((pass, broken))
            })?
        } else {
            (
                Pass::new(dirs.campaign(&dirs.cache)?, &dirs.cache, skip)?,
                0,
            )
        };
        let expected = *self.expected_stdout.get_or_insert(pass.stdout_digest);
        let golden_ok = self.golden.is_none_or(|g| g == pass.stdout_digest);
        if !golden_ok {
            self.out.problems.push(format!(
                "stdout digest {:016x} differs from golden.json",
                pass.stdout_digest
            ));
        }
        let records = &mut self.expected_records;
        let records_match = pass
            .served
            .entries
            .iter()
            .zip(&pass.served.record_digests)
            .all(|(entry, &d)| *records.entry(entry.hash.clone()).or_insert(d) == d);
        let ok = pass.child.ok && pass.stdout_digest == expected && records_match && golden_ok;
        self.out.attempted += 1;
        self.out.failed += u64::from(!ok || broken_records > 0);
        match traced {
            true => self.traced.push(pass),
            false => self.plain.push(pass),
        }
        Ok(())
    }
}

/// Run a campaign workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut r = CampaignRun {
        dirs: prepare(cfg)?,
        warm: cfg.workload == Workload::CampaignWarm,
        snapshot_cold: None,
        snapshot_lines: 0,
        golden: Golden::builtin()
            .expected(cfg.workload, DEFAULT_SEED)
            .map(|e| e.output),
        expected_stdout: None,
        expected_records: BTreeMap::new(),
        tracer: Tracer::new(),
        out: Outcome::default(),
        plain: Vec::new(),
        traced: Vec::new(),
    };
    let driven = run::drive(cfg, &mut r);
    let mut out = std::mem::take(&mut r.out);
    let driven = match driven {
        Ok(d) => d,
        Err(e) => {
            let _ = fs::remove_dir_all(&cfg.work_dir);
            return Err(e);
        }
    };
    out.problems.dedup();

    let rates: Vec<f64> = r.plain.iter().map(Pass::sim_rate).collect();
    let op_ms: Vec<Vec<f64>> = r.plain.iter().map(|p| vec![p.child.wall_s * 1e3]).collect();
    let rss: Vec<f64> = r.plain.iter().map(|p| p.child.peak_rss_mib).collect();
    out.samples = vec![
        ("pass_sim_rate", rates.clone()),
        (
            "pass_wall_s",
            r.plain.iter().map(|p| p.child.wall_s).collect(),
        ),
        ("setup_s", driven.setup_s.clone()),
        ("host_spin_ns", driven.spin_ns.clone()),
        ("op_ms", op_ms.concat()),
        ("peak_rss_mib", rss.clone()),
    ];
    if !cfg.trace {
        out.metrics.extend(run::sim_rate_metric(&rates));
        out.metrics.extend(run::op_ms_metrics(&op_ms));
        out.metrics
            .extend(Metric::median_of("setup_s", "s", &driven.setup_s));
        out.metrics
            .extend(Metric::median_of("peak_rss_mb", "MiB", &rss));
        let _ = fs::remove_dir_all(&cfg.work_dir);
        return Ok(out);
    }

    // Per-layer metrics. The world layer's numbers come from the
    // campaign that simulated the shards: the traced passes for cold,
    // the snapshot's cold campaign for warm.
    for (target, span) in [("fig4", "analytical.fig4"), ("fig3", "host.process_start")] {
        for _ in 0..SETUP_REPEATS {
            let child = r.tracer.span(span, None, |_| r.dirs.analytical(target))?;
            if !child.ok {
                out.problems.push(format!("`experiments {target}` failed"));
            }
        }
    }
    let _ = fs::remove_dir_all(&cfg.work_dir);
    let simulating: Vec<&Pass> = match &r.snapshot_cold {
        Some(cold) => vec![cold],
        None => r.traced.iter().collect(),
    };
    let miss_ms: Vec<f64> = simulating
        .iter()
        .flat_map(|p| p.served.miss_ms.clone())
        .collect();
    let first = simulating.first().ok_or("no campaign simulated")?;
    out.metrics
        .extend(Metric::median_of("world.run_ms", "ms", &miss_ms));
    let per_event: Vec<f64> = simulating.iter().map(|p| p.ns_per_event()).collect();
    out.metrics
        .extend(Metric::median_of("world.ns_per_event", "ns", &per_event));
    let groups = trace::self_times_by_name(r.tracer.spans());
    for (span, name, unit, ns) in [
        ("campaign.pass", "campaign.pass_ms", "ms", 1e6),
        ("report.to_json", "report.to_json_us", "us", 1e3),
        ("campaign.store", "campaign.store_us", "us", 1e3),
        ("campaign.load", "campaign.load_us", "us", 1e3),
        ("report.from_json", "report.from_json_us", "us", 1e3),
        (
            "campaign.manifest_replay",
            "campaign.manifest_replay_ms",
            "ms",
            1e6,
        ),
        ("analytical.fig4", "analytical.fig4_ms", "ms", 1e6),
        ("host.process_start", "host.process_start_ms", "ms", 1e6),
    ] {
        out.metrics
            .extend(run::span_metric(&groups, span, name, unit, ns));
    }
    let timed = r.traced.first().ok_or("no traced pass")?;
    let served = &timed.served;
    let mut counts = served.counts;
    counts.events = first.events;
    counts.peak_queue_depth = first.depth;
    out.metrics.extend(counts.metrics());
    let lines = served.lines_total as f64;
    out.metrics
        .push(Metric::exact("campaign.manifest_lines", "count", lines));
    let hits = served.entries.iter().filter(|e| e.cache_hit).count() as f64;
    let hit_ratio = ratio(hits, served.entries.len() as f64);
    out.metrics
        .push(Metric::exact("campaign.hit_ratio", "ratio", hit_ratio));
    let shard_s = first.served.miss_ms.iter().sum::<f64>() / 1e3;
    let efficiency = ratio(shard_s, f64::from(WORKERS) * first.child.wall_s);
    out.metrics.push(Metric::exact(
        "campaign.parallel_efficiency",
        "ratio",
        efficiency,
    ));
    let sorted_ms = summary::sorted(&miss_ms);
    for (name, q) in [
        ("campaign.shard_ms_p50", 0.5),
        ("campaign.shard_ms_p90", 0.9),
    ] {
        if let Some(v) = summary::percentile(&sorted_ms, q) {
            out.metrics.push(Metric::exact(name, "ms", v));
        }
    }
    let fig5 = Workload::Fig5Drive
        .world(DEFAULT_SEED, 0)
        .ok_or("no fig5 world")?;
    let sizes = ProbeInputs::from_world(&fig5, first.depth as usize, &fig5);
    out.metrics.extend(probes::run_all(&sizes));
    out.metrics
        .extend(Metric::median_of("host.spin_ns", "ns", &driven.spin_ns));
    let traced_rates: Vec<f64> = r.traced.iter().map(Pass::sim_rate).collect();
    out.metrics
        .extend(run::overhead_ratio(&traced_rates, &rates));
    out.spans = r.tracer.spans().to_vec();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_lines_give_events_and_depth() {
        let stderr = "\
  [  1/4  ] miss     93 ms  eta    0s  292cad5e0021  fleet-n4  3.2M ev/s (depth 2653)
  [  2/4  ] hit       0 ms  eta    0s  292cad5e0022  fleet-n8
campaign: 4 shards — 0 hits, 4 misses, 0 cancelled in 0.2s — 1139975 events, 3.1M ev/s per worker
  [  1/2  ] miss     12 ms  eta    0s  aaaaaaaaaaaa  lab  2.0M ev/s (depth 3669)
campaign: 2 shards — 2 hits, 0 misses, 0 cancelled in 0.0s
campaign: 2 shards — 0 hits, 2 misses, 0 cancelled in 0.1s — 25 events, 1 ev/s per worker
";
        assert_eq!(progress_counts(stderr), (1_140_000, 3669));
        assert_eq!(progress_counts(""), (0, 0));
    }

    #[test]
    fn missing_experiments_binary_is_an_error_that_says_to_build_it() {
        let cfg = RunConfig {
            workload: Workload::CampaignCold,
            seed: 1,
            seconds: 1.0,
            trace: false,
            work_dir: std::env::temp_dir().join("bench-e2e-missing-exe"),
            experiments: PathBuf::from("/nonexistent/experiments"),
        };
        let err = run(&cfg).expect_err("no binary");
        assert!(
            err.contains("cargo build --release -p experiments"),
            "{err}"
        );
    }
}
