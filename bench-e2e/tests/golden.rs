//! Op 0 of every world workload, at the default seed, must reproduce the
//! record digest committed in `golden.json`.

use bench_e2e::golden::{digest, Golden};
use bench_e2e::workloads::{ALL, DEFAULT_SEED};
use spider_core::report::RunRecord;
use spider_core::world::run;

#[test]
fn op0_of_every_world_workload_matches_golden() {
    let golden = Golden::builtin();
    for w in ALL.into_iter().filter(|w| w.worlds_per_pass() > 0) {
        let cfg = w.world(DEFAULT_SEED, 0).expect("world workload");
        let json = RunRecord::to_json(&run(cfg)).expect("finite record");
        let expected = golden
            .expected(w, DEFAULT_SEED)
            .and_then(|e| e.op0)
            .expect("golden.json has op 0");
        assert_eq!(
            digest(json.as_bytes()),
            expected,
            "{} op 0 no longer matches golden.json; if the change is intended, \
             run `bench-e2e bless`",
            w.name()
        );
    }
}
