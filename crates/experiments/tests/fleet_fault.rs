//! End-to-end fault injection through the real `experiments` binary:
//! a fig5 campaign in `--exec process` mode survives a worker killed
//! mid-shard and still produces byte-identical figure text, and the
//! threaded campaign's cache survives a second process, a torn manifest
//! and a corrupt record.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn run_fig5(dir: &Path, cache: &str, extra: &[&str], env: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.current_dir(dir)
        .args(["fig5", "--workers", "4", "--cache-dir", cache])
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn experiments")
}

fn report_names(dir: &Path, cache: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join(cache).join("reports"))
        .expect("reports dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn process_exec_survives_a_worker_crash_with_identical_output() {
    let dir = std::env::temp_dir().join(format!("experiments-fleet-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Reference: the same campaign in threads. The order probe gives each
    // process a different irrelevant environment: a cache hit needs
    // byte-identical records, so results must not depend on per-process
    // state (hash-map iteration order, environment contents, ASLR).
    let probe = |v: &str| [("SPIDER_ORDER_PROBE", v.to_string())];
    let inproc = run_fig5(&dir, "cache-inproc", &[], &probe("first-process-aaaa"));
    assert!(inproc.status.success(), "in-process run failed");

    // Process mode with a worker told to exit mid-way through the "50%"
    // shard. The marker file makes the fault fire exactly once, so the
    // retry on the respawned worker completes.
    let marker = dir.join("fault-marker");
    let fault = format!("exit:50%:{}", marker.display());
    let faulty = run_fig5(
        &dir,
        "cache-fleet",
        &["--exec", "process"],
        &[("FLEET_FAULT", fault)],
    );
    assert!(
        faulty.status.success(),
        "process-exec run failed despite retry budget:\n{}",
        String::from_utf8_lossy(&faulty.stderr)
    );
    assert!(marker.exists(), "the injected fault never fired");
    assert_eq!(
        faulty.stdout, inproc.stdout,
        "figure text diverged between exec modes"
    );

    // The crash and the retry are on the forensic record.
    let manifest =
        std::fs::read_to_string(dir.join("cache-fleet/manifest.jsonl")).expect("manifest");
    assert!(
        manifest.contains(r#"{"fleet":"worker-died","shard":"50%""#),
        "missing worker-died note:\n{manifest}"
    );
    assert!(
        manifest.contains(r#"{"fleet":"requeued","shard":"50%","attempt":2}"#),
        "missing requeue note:\n{manifest}"
    );

    // Both modes produced the same content-addressed cache entries.
    assert_eq!(
        report_names(&dir, "cache-fleet"),
        report_names(&dir, "cache-inproc"),
        "cache entries diverged between exec modes"
    );

    // A second process-mode pass replays entirely from cache, still
    // byte-identical on stdout.
    let cached = run_fig5(&dir, "cache-fleet", &["--exec", "process"], &[]);
    assert!(cached.status.success(), "cached re-run failed");
    assert_eq!(cached.stdout, inproc.stdout, "cached replay diverged");
    assert!(
        String::from_utf8_lossy(&cached.stderr).contains("4 hits, 0 misses"),
        "second pass was not fully cached"
    );

    // A second threaded process, in another environment, is served
    // entirely from the first one's cache.
    let rerun = |what: &str, want: &str| {
        let out = run_fig5(
            &dir,
            "cache-inproc",
            &[],
            &probe("second-process-zzzz-longer"),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{what}: run failed:\n{stderr}");
        assert_eq!(out.stdout, inproc.stdout, "{what}: figure text diverged");
        assert!(
            stderr.contains(&format!("campaign: 4 shards — {want}, 0 cancelled")),
            "{what}: want {want}:\n{stderr}"
        );
    };
    rerun("second process", "4 hits, 0 misses");

    // The manifest is an audit log, not the resume index: a torn
    // non-UTF-8 tail (a kill that cut a multi-byte label in half) costs
    // no hits.
    let manifest = dir.join("cache-inproc/manifest.jsonl");
    let mut bytes = std::fs::read(&manifest).expect("manifest");
    bytes.extend_from_slice(b"{\"shard\":\"fig5 \xce");
    std::fs::write(&manifest, bytes).expect("tear the manifest");
    rerun("torn manifest tail", "4 hits, 0 misses");

    // A corrupt record is a miss, not a crash: a record of 200,000 nested
    // objects costs exactly one re-run shard, never a stack overflow.
    let record = dir
        .join("cache-inproc/reports")
        .join(&report_names(&dir, "cache-inproc")[0]);
    std::fs::write(&record, "{\"v\":".repeat(200_000)).expect("corrupt a record");
    rerun("corrupt record", "3 hits, 1 misses");

    let _ = std::fs::remove_dir_all(&dir);
}
