//! The world workloads: `fig5_drive`, `lab_tcp`, `metro_1024` and
//! `fleet_64`. An op is one `spider_core::world::run_with_diagnostics`
//! call on one thread; the clock covers that call and nothing else, and
//! every digest is taken after it stops.
//!
//! A traced pass runs each op through the campaign's shard pipeline —
//! build the config, hash it, encode it, run it, serialize the record,
//! store it, log it, load it back, parse it — each step a span under the
//! op's span, then replays the pass's manifest.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use campaign::cache::RecordCache;
use campaign::hash::shard_hash;
use campaign::manifest::{Manifest, ManifestEntry};
use spider_core::report::RunRecord;
use spider_core::world::{run_with_diagnostics, RunDiagnostics, RunResult, WorldConfig};

use crate::golden::{digest, Fnv, Golden};
use crate::hw;
use crate::metrics::{ratio, Counts, Metric};
use crate::probes::{self, ProbeInputs};
use crate::run::{self, fresh_dir, Outcome, RunConfig, Workbench};
use crate::trace::{self, Tracer};
use crate::workloads::{clients, Workload};

/// One pass's outputs.
#[derive(Debug, Default)]
struct Pass {
    /// Host ns of each op's run.
    op_ns: Vec<u64>,
    /// Digest of each op's record; `None` where the op failed.
    op_digests: Vec<Option<u64>>,
    /// Digest of every record of the pass in order.
    digest: u64,
    /// Simulated client-seconds.
    sim_s: f64,
    counts: Counts,
}

impl Pass {
    fn sim_rate(&self) -> f64 {
        ratio(self.sim_s, self.op_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    fn op_ms(&self) -> Vec<f64> {
        self.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// One op's run and its record.
struct OpResult {
    ns: u64,
    result: RunResult,
    diag: RunDiagnostics,
    json: String,
}

/// Run `cfg` on this thread, timing only the run. A panic is the op's
/// failure.
fn timed_run(cfg: WorldConfig) -> Result<(u64, RunResult, RunDiagnostics), String> {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| run_with_diagnostics(cfg)));
    let ns = t.elapsed().as_nanos() as u64;
    let (result, diag) = out.map_err(|_| "the run panicked".to_string())?;
    Ok((ns, result, diag))
}

/// Serialize a run's record; a result that cannot be is the op's failure.
fn with_record((ns, result, diag): (u64, RunResult, RunDiagnostics)) -> Result<OpResult, String> {
    let json = RunRecord::to_json(&result).map_err(|e| format!("record: {e}"))?;
    Ok(OpResult {
        ns,
        result,
        diag,
        json,
    })
}

/// Does `back` serialize to exactly `json`?
fn same_record(back: Option<RunResult>, json: &str) -> bool {
    back.and_then(|r| RunRecord::to_json(&r).ok()).as_deref() == Some(json)
}

/// Folds ops into a [`Pass`].
#[derive(Default)]
struct PassBuilder {
    pass: Pass,
    all: Fnv,
}

impl PassBuilder {
    fn push(&mut self, op: Result<(f64, OpResult), String>, errors: &mut Vec<String>) {
        match op {
            Ok((sim_s, op)) => {
                self.all.update(op.json.as_bytes());
                self.all.update(b"\n");
                self.pass.op_ns.push(op.ns);
                self.pass.op_digests.push(Some(digest(op.json.as_bytes())));
                self.pass.sim_s += sim_s;
                self.pass.counts.add_result(&op.result, op.json.len());
                self.pass.counts.add_diagnostics(&op.diag);
            }
            Err(e) => {
                self.pass.op_digests.push(None);
                errors.push(e);
            }
        }
    }

    fn finish(mut self) -> Pass {
        self.pass.digest = self.all.finish();
        self.pass
    }
}

fn sim_seconds(cfg: &WorldConfig) -> f64 {
    cfg.duration.as_secs_f64() * clients(cfg) as f64
}

/// One untraced pass over `inputs`; failures are logged, not fatal.
fn plain_pass(inputs: &[WorldConfig], errors: &mut Vec<String>) -> Pass {
    let mut b = PassBuilder::default();
    for cfg in inputs {
        let sim_s = sim_seconds(cfg);
        let op = timed_run(cfg.clone()).and_then(with_record);
        b.push(op.map(|op| (sim_s, op)), errors);
    }
    b.finish()
}

/// Traced pass number `index`: every op through the shard pipeline, in
/// a cache of its own. Op ids continue from the previous traced passes.
fn traced_pass(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    index: u64,
    errors: &mut Vec<String>,
) -> Result<Pass, String> {
    let n = cfg.workload.worlds_per_pass();
    let dir = cfg.work_dir.join("traced-pass");
    fresh_dir(&dir)?;
    let cache = RecordCache::open(&dir).map_err(|e| format!("cache: {e}"))?;
    let manifest = Manifest::open(&dir).map_err(|e| format!("manifest: {e}"))?;
    let mut b = PassBuilder::default();
    for k in 0..n {
        let op = index * n + k;
        let (w, seed) = (cfg.workload, cfg.seed);
        let out = tracer.span("op", Some(op), |t| {
            let cfg = t
                .span("mobility.build", Some(op), |_| w.world(seed, k))
                .ok_or("not a world workload")?;
            let sim_s = sim_seconds(&cfg);
            let hash = t.span("campaign.hash", Some(op), |_| shard_hash(&cfg));
            t.span("spider_core.codec_encode", Some(op), |_| {
                black_box(spider_core::codec::encode_world(&cfg))
            });
            let ran = t.span("world.run", Some(op), |_| timed_run(cfg))?;
            let done = t.span("report.to_json", Some(op), |_| with_record(ran))?;
            t.span("campaign.store", Some(op), |_| {
                cache.store(&hash, &done.result)
            })
            .map_err(|e| format!("store: {e}"))?;
            t.span("campaign.manifest_append", Some(op), |_| {
                manifest.append(&ManifestEntry {
                    shard: format!("op-{op}"),
                    hash: hash.clone(),
                    wall_ms: done.ns / 1_000_000,
                    cache_hit: false,
                    path: format!("reports/{hash}.json"),
                })
            })
            .map_err(|e| format!("manifest: {e}"))?;
            let loaded = t.span("campaign.load", Some(op), |_| cache.load(&hash));
            let parsed = t.span("report.from_json", Some(op), |_| {
                RunRecord::from_json(&done.json)
            });
            if !(same_record(loaded, &done.json) && same_record(parsed.ok(), &done.json)) {
                return Err(format!("op {op}: the cached record does not round-trip"));
            }
            Ok((sim_s, done))
        });
        b.push(out, errors);
    }
    let replayed = tracer
        .span("campaign.manifest_replay", None, |_| Manifest::replay(&dir))
        .map_err(|e| format!("manifest replay: {e}"))?;
    if replayed.len() as u64 != n {
        errors.push(format!("manifest replayed {} of {n} lines", replayed.len()));
    }
    Ok(b.finish())
}

/// The pass digest and op-0 digest at `seed`, for `bless`.
pub fn reference_digests(workload: Workload, seed: u64) -> Result<(u64, u64), String> {
    let inputs = build_inputs(workload, seed)?;
    let mut errors = Vec::new();
    let pass = plain_pass(&inputs, &mut errors);
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    let op0 = pass
        .op_digests
        .first()
        .copied()
        .flatten()
        .ok_or("no op 0")?;
    Ok((pass.digest, op0))
}

fn build_inputs(workload: Workload, seed: u64) -> Result<Vec<WorldConfig>, String> {
    (0..workload.worlds_per_pass())
        .map(|k| {
            workload
                .world(seed, k)
                .ok_or_else(|| "not a world workload".to_string())
        })
        .collect()
}

/// A world workload's run state.
struct WorldRun<'a> {
    cfg: &'a RunConfig,
    inputs: Vec<WorldConfig>,
    /// The first set-up's warm-up pass: the digests every op must match.
    reference: Option<Pass>,
    /// False when the reference pass differs from `golden.json`: every
    /// op then fails, as its output is wrong however repeatable.
    golden_ok: bool,
    out: Outcome,
    errors: Vec<String>,
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    tracer: Tracer,
}

impl Workbench for WorldRun<'_> {
    /// Build the pass's inputs and run one untimed warm-up pass.
    fn setup(&mut self) -> Result<(), String> {
        self.inputs = build_inputs(self.cfg.workload, self.cfg.seed)?;
        let mut errors = Vec::new();
        let warm = plain_pass(&self.inputs, &mut errors);
        let problems = &mut self.out.problems;
        problems.extend(errors.into_iter().map(|e| format!("set-up: {e}")));
        match &self.reference {
            Some(r) if r.digest != warm.digest => {
                problems.push("set-up passes disagree".to_string())
            }
            Some(_) => {}
            None => {
                let golden = Golden::builtin().expected(self.cfg.workload, self.cfg.seed);
                let op0 = warm.op_digests.first().copied().flatten();
                self.golden_ok = !golden.is_some_and(|g| g.output != warm.digest || g.op0 != op0);
                if !self.golden_ok {
                    problems.push(format!(
                        "digest mismatch against golden.json: pass {:016x}, op 0 {:?}",
                        warm.digest,
                        op0.map(|d| format!("{d:016x}"))
                    ));
                }
                self.reference = Some(warm);
            }
        }
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Result<(), String> {
        let n = self.cfg.workload.worlds_per_pass();
        let pass = if traced {
            let index = self.traced.len() as u64;
            traced_pass(self.cfg, &mut self.tracer, index, &mut self.errors)?
        } else {
            plain_pass(&self.inputs, &mut self.errors)
        };
        let want = self.reference.as_ref().map_or(&[][..], |r| &r.op_digests);
        self.out.attempted += n;
        for k in 0..n as usize {
            let got = pass.op_digests.get(k).copied().flatten();
            let wrong = got.is_none() || got != want.get(k).copied().flatten();
            self.out.failed += u64::from(wrong || !self.golden_ok);
        }
        match traced {
            true => self.traced.push(pass),
            false => self.plain.push(pass),
        }
        Ok(())
    }
}

/// Run a world workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut r = WorldRun {
        cfg,
        inputs: Vec::new(),
        reference: None,
        golden_ok: true,
        out: Outcome::default(),
        errors: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(),
    };
    let driven = run::drive(cfg, &mut r)?;
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    for e in r.errors.iter().take(5) {
        eprintln!("bench-e2e: {e}");
    }
    let mut out = r.out;
    let reference = r.reference.ok_or("no set-up pass ran")?;

    let rates: Vec<f64> = r.plain.iter().map(Pass::sim_rate).collect();
    let op_ms: Vec<Vec<f64>> = r.plain.iter().map(Pass::op_ms).collect();
    if let Some(note) = run::tail_note(&op_ms.concat()) {
        eprintln!("bench-e2e: {note}");
    }
    out.samples = vec![
        ("pass_sim_rate", rates.clone()),
        ("setup_s", driven.setup_s.clone()),
        ("host_spin_ns", driven.spin_ns.clone()),
        ("op_ms", op_ms.concat()),
    ];
    if !cfg.trace {
        out.metrics.extend(run::sim_rate_metric(&rates));
        out.metrics.extend(run::op_ms_metrics(&op_ms));
        out.metrics
            .extend(Metric::median_of("setup_s", "s", &driven.setup_s));
        let rss = hw::peak_rss_mib("self");
        out.metrics
            .extend(rss.map(|mib| Metric::exact("peak_rss_mb", "MiB", mib)));
        return Ok(out);
    }

    // Per-layer metrics from the traced passes.
    let groups = trace::self_times_by_name(r.tracer.spans());
    for (span, name, unit, ns) in [
        ("world.run", "world.run_ms", "ms", 1e6),
        ("mobility.build", "mobility.build_ms", "ms", 1e6),
        ("campaign.hash", "campaign.hash_us", "us", 1e3),
        (
            "spider_core.codec_encode",
            "spider_core.codec_encode_us",
            "us",
            1e3,
        ),
        ("report.to_json", "report.to_json_us", "us", 1e3),
        ("campaign.store", "campaign.store_us", "us", 1e3),
        (
            "campaign.manifest_append",
            "campaign.manifest_append_us",
            "us",
            1e3,
        ),
        ("campaign.load", "campaign.load_us", "us", 1e3),
        ("report.from_json", "report.from_json_us", "us", 1e3),
        (
            "campaign.manifest_replay",
            "campaign.manifest_replay_ms",
            "ms",
            1e6,
        ),
    ] {
        out.metrics
            .extend(run::span_metric(&groups, span, name, unit, ns));
    }
    let ns_per_event: Vec<f64> = r
        .traced
        .iter()
        .map(|p| p.op_ns.iter().sum::<u64>() as f64 / p.counts.events.max(1) as f64)
        .collect();
    out.metrics
        .extend(Metric::median_of("world.ns_per_event", "ns", &ns_per_event));
    out.metrics.extend(reference.counts.metrics());
    let n = cfg.workload.worlds_per_pass() as f64;
    out.metrics
        .push(Metric::exact("campaign.manifest_lines", "count", n));
    let inrange = reference.counts.peak_inrange_aps as f64;
    out.metrics
        .push(Metric::exact("geo.peak_inrange_aps", "count", inrange));
    let fallback = Workload::Fig5Drive
        .world(cfg.seed, 0)
        .ok_or("no fig5 world")?;
    let first = r.inputs.first().ok_or("empty pass")?;
    let depth = reference.counts.peak_queue_depth as usize;
    out.metrics.extend(probes::run_all(&ProbeInputs::from_world(
        first, depth, &fallback,
    )));
    out.metrics
        .extend(Metric::median_of("host.spin_ns", "ns", &driven.spin_ns));
    let traced_rates: Vec<f64> = r.traced.iter().map(Pass::sim_rate).collect();
    out.metrics
        .extend(run::overhead_ratio(&traced_rates, &rates));
    out.spans = r.tracer.spans().to_vec();
    Ok(out)
}
