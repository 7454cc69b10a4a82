//! Cross-process determinism: the content-addressed campaign cache assumes
//! that the same `WorldConfig` produces byte-identical `RunRecord` JSON in
//! *any* process, not just on repeat calls inside one. Per-process state —
//! hash-map iteration order (`RandomState` reseeds per process), ASLR,
//! environment contents — must not leak into results. This test re-executes
//! itself twice as fresh processes (with deliberately different irrelevant
//! environments) and compares the emitted records byte for byte.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use mobility::deployment::ApSite;
use mobility::geometry::Point;
use mobility::route::{Route, Vehicle};
use sim_engine::time::{Duration, Instant};
use spider_core::config::SpiderConfig;
use spider_core::report::RunRecord;
use spider_core::world::{run, ClientMotion, WorldConfig};
use wifi_mac::channel::Channel;

/// Child mode: when set, run the scenario, write the record here, exit.
const EMIT_ENV: &str = "SPIDER_DETERMINISM_EMIT";
/// Irrelevant environment noise; must not affect the record.
const PROBE_ENV: &str = "SPIDER_ORDER_PROBE";

/// A drive past six APs across three channels — enough to exercise the
/// scan table, join history, DHCP lease map, AP station tables, and the
/// per-AP medium map, i.e. every map the determinism policy ordered.
fn record_json() -> String {
    let channels = [Channel::CH1, Channel::CH6, Channel::CH11];
    let sites: Vec<ApSite> = (0..6u32)
        .map(|i| ApSite {
            id: i + 1,
            position: Point::new(60.0 * i as f64, 12.0),
            channel: channels[(i as usize) % channels.len()],
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(400),
        })
        .collect();
    let route = Route::straight(Point::new(0.0, 0.0), Point::new(360.0, 0.0));
    let result = run(WorldConfig::new(
        0xC0FFEE,
        sites,
        ClientMotion::Route(Vehicle::new(route, 12.0, Instant::ZERO)),
        SpiderConfig::multi_channel_multi_ap(Duration::from_millis(100)),
        Duration::from_secs(30),
    ));
    RunRecord::to_json(&result).expect("simulator produced a non-finite field")
}

#[test]
fn cross_process_runs_are_byte_identical() {
    if let Ok(path) = std::env::var(EMIT_ENV) {
        // Child: emit and stop — the assertions live in the parent.
        fs::write(&path, record_json()).expect("child writes its record");
        return;
    }

    let dir = std::env::temp_dir().join(format!("spider-determinism-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    let exe = std::env::current_exe().expect("test binary path");

    let emit = |name: &str, probe: &str| -> PathBuf {
        let out = dir.join(format!("{name}.json"));
        let status = Command::new(&exe)
            .arg("cross_process_runs_are_byte_identical")
            .arg("--exact")
            .env(EMIT_ENV, &out)
            // Distinct irrelevant environments: a process whose results
            // depend on env contents (e.g. via env-seeded hashing) fails.
            .env(PROBE_ENV, probe)
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "child run '{name}' failed");
        out
    };

    let first = emit("first", "aaaaaaaa");
    let second = emit("second", "zzzz-completely-different");
    let a = fs::read(&first).expect("first record");
    let b = fs::read(&second).expect("second record");
    assert!(!a.is_empty(), "child emitted an empty record");
    assert_eq!(
        a, b,
        "two fresh processes produced different RunRecord JSON for the \
         same seed — per-process state is leaking into the simulation"
    );

    // And the record round-trips, so the cache can reconstruct it.
    let text = String::from_utf8(a).expect("record is UTF-8");
    RunRecord::from_json(&text).expect("record parses back");
    fs::remove_dir_all(&dir).ok();
}
