//! End-to-end campaign acceptance tests from the issue:
//!
//! 1. **Cache correctness** — changing any config field or seed misses;
//!    an unchanged shard hits and returns exactly what a fresh run
//!    returns (byte-identical record files).
//! 2. **Interrupt and resume** — a campaign cancelled mid-sweep picks up
//!    from the record files it left, re-runs only the unfinished shards,
//!    and the final merged records are byte-identical to an
//!    uninterrupted run.
//! 3. **The manifest is only a log** — deleting or tearing it costs no
//!    hits; deleting a record the manifest still lists costs one miss.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use campaign::manifest::Manifest;
use campaign::Campaign;
use mobility::deployment::ApSite;
use mobility::geometry::Point;
use sim_engine::time::Duration;
use spider_core::config::SpiderConfig;
use spider_core::report::RunRecord;
use spider_core::world::{run, ClientMotion, WorldConfig};
use wifi_mac::channel::Channel;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "campaign-orchestrator-test-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn world(seed: u64) -> WorldConfig {
    let site = ApSite {
        id: 1,
        position: Point::new(0.0, 0.0),
        channel: Channel::CH1,
        backhaul_bps: 2_000_000,
        dhcp_delay_min: Duration::from_millis(100),
        dhcp_delay_max: Duration::from_millis(300),
    };
    WorldConfig::new(
        seed,
        vec![site],
        ClientMotion::Fixed(Point::new(0.0, 10.0)),
        SpiderConfig::single_channel_multi_ap(Channel::CH1),
        Duration::from_secs(10),
    )
}

fn shards(seeds: &[u64]) -> Vec<(String, WorldConfig)> {
    seeds
        .iter()
        .map(|&s| (format!("seed-{s}"), world(s)))
        .collect()
}

/// Every record file under `<dir>/reports`, name → bytes.
fn record_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir.join("reports")).expect("reports dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, fs::read(entry.path()).expect("record bytes"));
    }
    out
}

#[test]
fn second_run_is_all_hits_with_byte_identical_records() {
    let dir = scratch("all-hits");
    let campaign = Campaign::new(&dir).with_workers(2).with_quiet(true);

    let first = campaign.run(shards(&[5, 6, 7])).expect("first run");
    assert_eq!((first.hits, first.misses, first.cancelled), (0, 3, 0));
    let after_first = record_files(&dir);
    assert_eq!(after_first.len(), 3);

    let second = campaign.run(shards(&[5, 6, 7])).expect("second run");
    assert_eq!((second.hits, second.misses, second.cancelled), (3, 0, 0));
    assert_eq!(
        record_files(&dir),
        after_first,
        "hits must not rewrite records"
    );

    // A cached result is exactly what a fresh simulation produces.
    for (outcome, seed) in second.outcomes.iter().zip([5u64, 6, 7]) {
        assert!(outcome.cache_hit);
        assert_eq!(outcome.label, format!("seed-{seed}"));
        assert_eq!(
            RunRecord::to_json(&outcome.result).unwrap(),
            RunRecord::to_json(&run(world(seed))).unwrap(),
            "cached seed-{seed} diverged from a fresh run"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn any_config_or_seed_change_is_a_miss() {
    let dir = scratch("miss-on-change");
    let campaign = Campaign::new(&dir).with_workers(1).with_quiet(true);
    campaign.run(shards(&[5])).expect("seed run");

    // Different seed: miss.
    let other_seed = campaign.run(shards(&[6])).expect("other seed");
    assert_eq!((other_seed.hits, other_seed.misses), (0, 1));

    // Same seed, one driver-config field tweaked: miss.
    let mut tweaked = world(5);
    tweaked.spider.max_ifaces = 1;
    let cfg_change = campaign
        .run(vec![("tweaked".to_string(), tweaked)])
        .expect("tweaked run");
    assert_eq!((cfg_change.hits, cfg_change.misses), (0, 1));

    // Same seed, one world-level field tweaked: miss.
    let mut longer = world(5);
    longer.duration = Duration::from_secs(11);
    let world_change = campaign
        .run(vec![("longer".to_string(), longer)])
        .expect("longer run");
    assert_eq!((world_change.hits, world_change.misses), (0, 1));

    // The untouched original still hits.
    let replay = campaign.run(shards(&[5])).expect("replay");
    assert_eq!((replay.hits, replay.misses), (1, 0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_campaign_resumes_and_reruns_only_missing_shards() {
    // The deterministic interrupt shape: a campaign that stopped after the
    // first two of four shards (exactly what an interrupt leaves behind,
    // per the manifest/cache atomicity guarantees).
    let interrupted = scratch("resume-interrupted");
    let reference = scratch("resume-reference");
    let all = [11u64, 12, 13, 14];

    let part = Campaign::new(&interrupted).with_workers(2).with_quiet(true);
    let first = part.run(shards(&all[..2])).expect("partial run");
    assert_eq!(first.misses, 2);

    let resumed = part.run(shards(&all)).expect("resumed run");
    assert_eq!(
        (resumed.hits, resumed.misses, resumed.cancelled),
        (2, 2, 0),
        "resume must re-run only the two unfinished shards"
    );

    let uninterrupted = Campaign::new(&reference).with_workers(2).with_quiet(true);
    uninterrupted.run(shards(&all)).expect("reference run");
    assert_eq!(
        record_files(&interrupted),
        record_files(&reference),
        "resumed campaign's records must be byte-identical to an uninterrupted run"
    );
    let _ = fs::remove_dir_all(&interrupted);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn cancelled_mid_sweep_then_resume_matches_uninterrupted_run() {
    let dir = scratch("cancel-mid-sweep");
    let reference = scratch("cancel-reference");
    let all = [21u64, 22, 23, 24];

    // Cancel from a watcher thread as soon as the first shard lands in the
    // manifest. Wherever the cancellation boundary falls, the assertions
    // below must hold.
    let interrupted = Campaign::new(&dir).with_workers(1).with_quiet(true);
    let token = interrupted.cancel.clone();
    let manifest_path = Manifest::path_in(&dir);
    let watcher = std::thread::spawn(move || {
        for _ in 0..10_000 {
            if fs::metadata(&manifest_path)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        token.cancel();
    });
    let first = interrupted.run(shards(&all)).expect("interrupted run");
    watcher.join().expect("watcher");
    assert_eq!(first.misses + first.cancelled, all.len());
    assert_eq!(first.outcomes.len(), first.misses);

    // Resume with a fresh token: exactly the unfinished shards re-run.
    let resumed = Campaign::new(&dir).with_workers(2).with_quiet(true);
    let second = resumed.run(shards(&all)).expect("resumed run");
    assert_eq!(second.cancelled, 0);
    assert_eq!(
        second.hits, first.misses,
        "completed shards must replay as hits"
    );
    assert_eq!(
        second.misses, first.cancelled,
        "only unfinished shards re-run"
    );
    assert_eq!(second.outcomes.len(), all.len());

    let uninterrupted = Campaign::new(&reference).with_workers(2).with_quiet(true);
    uninterrupted.run(shards(&all)).expect("reference run");
    assert_eq!(
        record_files(&dir),
        record_files(&reference),
        "merged records after resume must be byte-identical to an uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn deleted_manifest_still_serves_all_hits() {
    let dir = scratch("deleted-manifest");
    let campaign = Campaign::new(&dir).with_workers(2).with_quiet(true);
    campaign.run(shards(&[41, 42])).expect("first run");
    fs::remove_file(Manifest::path_in(&dir)).expect("delete manifest");

    let second = campaign.run(shards(&[41, 42])).expect("second run");
    assert_eq!((second.hits, second.misses, second.cancelled), (2, 0, 0));
    // The audit log starts over with this run's hits.
    assert_eq!(Manifest::replay(&dir).expect("replay").len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_non_utf8_manifest_tail_still_serves_all_hits() {
    let dir = scratch("torn-manifest");
    let campaign = Campaign::new(&dir).with_workers(2).with_quiet(true);
    campaign.run(shards(&[43, 44])).expect("first run");
    let after_first = record_files(&dir);

    // A kill mid-append that cut a multi-byte label in half.
    let mut log = fs::read(Manifest::path_in(&dir)).expect("manifest bytes");
    log.extend_from_slice(b"{\"shard\":\"fig5 \xce");
    fs::write(Manifest::path_in(&dir), log).expect("tear manifest");

    let second = campaign.run(shards(&[43, 44])).expect("second run");
    assert_eq!((second.hits, second.misses, second.cancelled), (2, 0, 0));
    assert_eq!(
        record_files(&dir),
        after_first,
        "hits must not rewrite records"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifested_shard_without_its_record_reruns_as_one_miss() {
    let dir = scratch("missing-record");
    let campaign = Campaign::new(&dir).with_workers(2).with_quiet(true);
    let first = campaign.run(shards(&[45, 46, 47])).expect("first run");
    let after_first = record_files(&dir);
    let lost = &first.outcomes[1];
    assert!(Manifest::replay(&dir)
        .expect("replay")
        .iter()
        .any(|e| e.hash == lost.hash));
    fs::remove_file(&lost.record_path).expect("delete record");

    let second = campaign.run(shards(&[45, 46, 47])).expect("second run");
    assert_eq!((second.hits, second.misses, second.cancelled), (2, 1, 0));
    assert!(!second.outcomes[1].cache_hit);
    assert_eq!(
        record_files(&dir),
        after_first,
        "the re-run must restore the identical record"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pre_cancelled_campaign_runs_nothing() {
    let dir = scratch("pre-cancelled");
    let campaign = Campaign::new(&dir).with_workers(2).with_quiet(true);
    campaign.cancel.cancel();
    let out = campaign.run(shards(&[31, 32])).expect("cancelled run");
    assert_eq!((out.hits, out.misses, out.cancelled), (0, 0, 2));
    assert!(out.outcomes.is_empty());
    assert!(Manifest::replay(&dir).expect("replay").is_empty());
    let _ = fs::remove_dir_all(&dir);
}
