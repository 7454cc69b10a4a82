#!/usr/bin/env bash
# Offline CI for the spider-repro workspace.
#
# The workspace's contract is hermeticity: a clean checkout must build and
# test with an EMPTY registry and no network. Every step below therefore
# runs with --offline; if any crate ever grows a registry dependency, the
# build steps and the dependency-freeze check both fail.
#
# Usage: ./ci.sh            (from the repo root)

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "simlint (determinism, panic-path & panic-reach policy)"
# The first gate, before anything else builds: unordered-map state,
# wall-clock reads, float partial_cmp orderings, env reads, ambient
# randomness, unwaived panic paths, transitive panic reachability, and
# unclassified crate dirs all fail CI here. One timed pass over the
# whole tree; the JSON artifact is archived next to the bench artifacts.
cargo build -q --release --offline -p simlint
t0=$(date +%s%N)
./target/release/simlint --json target/SIMLINT.json
t1=$(date +%s%N)
echo "ok: simlint clean in $(( (t1 - t0) / 1000000 ))ms (archived target/SIMLINT.json)"

step "dependency freeze (no registry sources)"
# Path-only dependencies serialize as "source": null in cargo metadata; any
# quoted source string means a registry/git dependency sneaked in.
metadata=$(cargo metadata --offline --format-version 1)
if printf '%s' "$metadata" | grep -Eo '"source":"[^"]+"' | sort -u | grep .; then
    echo "error: non-path dependency sources found (listed above)." >&2
    echo "This workspace must stay registry-free; see Cargo.toml." >&2
    exit 1
fi
echo "ok: every package source is null (path-only workspace)"

step "cargo build --release --offline"
cargo build --release --offline --workspace --all-targets

step "cargo test --offline"
cargo test -q --offline --workspace

step "bench-e2e tests (its own workspace; golden byte-identity digests)"
# bench-e2e is a separate Cargo workspace, so the workspace build and
# test above never compile it. Its golden test pins op 0 of every world
# workload byte-for-byte, so a library change that breaks the benchmark
# or moves its output fails here.
cargo test -q --offline --release --manifest-path bench-e2e/Cargo.toml

step "campaign cache smoke test (fig5 again and after a torn manifest: all hits; after a corrupt record: one miss)"
smoke_dir=$(mktemp -d target/campaign-smoke.XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT
# Two separate OS processes with deliberately different irrelevant
# environments: cache hits require byte-identical records, so this also
# proves results don't depend on per-process state (hash-map iteration
# order, env contents, ASLR).
SPIDER_ORDER_PROBE=first-process-aaaa \
    ./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/first.out" 2>"$smoke_dir/first.err"
SPIDER_ORDER_PROBE=second-process-zzzz-different-length \
    ./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/second.out" 2>"$smoke_dir/second.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/second.out"; then
    echo "error: cached second fig5 run is not byte-identical to the first" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/second.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/second.err"; then
    echo "error: second fig5 run was not served 100% from cache:" >&2
    cat "$smoke_dir/second.err" >&2
    exit 1
fi
# The manifest is an audit log, not the resume index: a torn non-UTF-8
# tail (a kill that cut a multi-byte label in half) must cost no hits.
printf '{"shard":"fig5 \xce' >>"$smoke_dir/cache/manifest.jsonl"
./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/third.out" 2>"$smoke_dir/third.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/third.out"; then
    echo "error: fig5 after a torn manifest tail is not byte-identical to the first run" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/third.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/third.err"; then
    echo "error: fig5 after a torn manifest tail was not served 100% from cache:" >&2
    cat "$smoke_dir/third.err" >&2
    exit 1
fi
# A corrupt record is a miss, not a crash: a record of 200 000 nested
# objects must cost exactly one re-run shard, never a stack overflow.
records=("$smoke_dir"/cache/reports/*.json)
awk 'BEGIN { for (i = 0; i < 200000; i++) printf "{\"v\":" }' >"${records[0]}"
./target/release/experiments fig5 --scale 1 --cache-dir "$smoke_dir/cache" \
    >"$smoke_dir/fourth.out" 2>"$smoke_dir/fourth.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/fourth.out"; then
    echo "error: fig5 after a corrupt record is not byte-identical to the first run" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/fourth.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 1 misses, 0 cancelled' \
    "$smoke_dir/fourth.err"; then
    echo "error: fig5 after a corrupt record did not re-run exactly one shard:" >&2
    cat "$smoke_dir/fourth.err" >&2
    exit 1
fi
echo "ok: second run 100% cache hits, stdout byte-identical; a torn manifest tail costs no hits; a corrupt record costs one miss"

step "fleet smoke test (fig5 --exec process: identical output, then all hits)"
# The same fig5 campaign executed on worker OS processes over the framed
# stdin/stdout protocol must be byte-identical to the threaded run above,
# and a second process-mode pass must be served 100% from its own cache.
./target/release/experiments fig5 --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/fleet-cache" \
    >"$smoke_dir/fleet.out" 2>"$smoke_dir/fleet.err"
if ! cmp -s "$smoke_dir/first.out" "$smoke_dir/fleet.out"; then
    echo "error: --exec process fig5 output differs from the threaded run" >&2
    diff "$smoke_dir/first.out" "$smoke_dir/fleet.out" >&2 || true
    exit 1
fi
./target/release/experiments fig5 --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/fleet-cache" \
    >"$smoke_dir/fleet2.out" 2>"$smoke_dir/fleet2.err"
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/fleet2.err"; then
    echo "error: second --exec process fig5 run was not served 100% from cache:" >&2
    cat "$smoke_dir/fleet2.err" >&2
    exit 1
fi
echo "ok: process-exec output byte-identical to threads, second pass all hits"

step "metro smoke test (channel-assignment twice, byte-identical + all hits)"
# The 1024-AP metro worlds behind the channel-assignment experiment must
# hold the same determinism contract as fig5: two OS processes sharing a
# cache directory produce byte-identical stdout, and the second is served
# entirely from cache (the spatial grid is a query accelerator, not a
# semantics change).
./target/release/experiments channel-assignment --scale 1 \
    --cache-dir "$smoke_dir/metro-cache" \
    >"$smoke_dir/metro1.out" 2>"$smoke_dir/metro1.err"
./target/release/experiments channel-assignment --scale 1 \
    --cache-dir "$smoke_dir/metro-cache" \
    >"$smoke_dir/metro2.out" 2>"$smoke_dir/metro2.err"
if ! cmp -s "$smoke_dir/metro1.out" "$smoke_dir/metro2.out"; then
    echo "error: cached second channel-assignment run is not byte-identical" >&2
    diff "$smoke_dir/metro1.out" "$smoke_dir/metro2.out" >&2 || true
    exit 1
fi
if ! grep -q 'campaign: [0-9]* shards — [0-9]* hits, 0 misses, 0 cancelled' \
    "$smoke_dir/metro2.err"; then
    echo "error: second channel-assignment run was not served 100% from cache:" >&2
    cat "$smoke_dir/metro2.err" >&2
    exit 1
fi
echo "ok: 1024-AP metro campaign byte-identical across processes, second pass all hits"

step "client-fleet smoke test (N=1 identity + 8-client world across exec modes)"
# Two latches on the fleet subsystem. First: a world built with an
# explicitly empty fleet must replay the historical single-client world
# byte-for-byte at RunRecord fidelity — the fleet-identity target exits
# nonzero on any divergence, and two separate processes must print the
# same record. Second: the fleet-contention campaign (convoys up to 8
# clients over the 1024-AP metro grid) must be byte-identical between
# in-process threads and worker OS processes, each on a fresh cache —
# this drives fleet WorldConfigs through the codec-v2 worker protocol.
./target/release/experiments fleet-identity \
    >"$smoke_dir/ident1.out" 2>/dev/null
./target/release/experiments fleet-identity \
    >"$smoke_dir/ident2.out" 2>/dev/null
if ! cmp -s "$smoke_dir/ident1.out" "$smoke_dir/ident2.out"; then
    echo "error: fleet-identity output differs between processes" >&2
    diff "$smoke_dir/ident1.out" "$smoke_dir/ident2.out" >&2 || true
    exit 1
fi
./target/release/experiments fleet-contention --scale 1 \
    --cache-dir "$smoke_dir/convoy-threads" \
    >"$smoke_dir/convoy1.out" 2>"$smoke_dir/convoy1.err"
./target/release/experiments fleet-contention --scale 1 --workers 4 --exec process \
    --cache-dir "$smoke_dir/convoy-procs" \
    >"$smoke_dir/convoy2.out" 2>"$smoke_dir/convoy2.err"
if ! cmp -s "$smoke_dir/convoy1.out" "$smoke_dir/convoy2.out"; then
    echo "error: fleet-contention differs between threads and worker processes" >&2
    diff "$smoke_dir/convoy1.out" "$smoke_dir/convoy2.out" >&2 || true
    exit 1
fi
echo "ok: empty fleet replays the single-client world; 8-client convoy byte-identical across exec modes"

step "committed output (experiments all, byte-identical to experiments_output.txt)"
# experiments_output.txt is the committed record of every table and
# figure. A fresh-cache `experiments all` must reproduce it byte for
# byte, so a change that moves any figure, or adds a section, fails here
# until the file is regenerated alongside it.
./target/release/experiments all --cache-dir "$smoke_dir/all-cache" \
    >"$smoke_dir/all.out" 2>"$smoke_dir/all.err"
if ! cmp -s experiments_output.txt "$smoke_dir/all.out"; then
    echo "error: experiments all output differs from experiments_output.txt" >&2
    diff experiments_output.txt "$smoke_dir/all.out" >&2 || true
    exit 1
fi
echo "ok: experiments all reproduces experiments_output.txt byte for byte"

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "skip: rustfmt not installed"
fi

step "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "skip: clippy not installed"
fi

step "cargo doc -D warnings"
# Broken or ambiguous intra-doc links (a renamed item, a module doc that
# links a private type) fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

step "bench regression check (gating)"
# The gate runs through ./target/release/bench (built above): cargo bench
# swallows bench-target exit codes, a first-class binary does not. Exit
# contract: 0 ok / no regression, 2 regression (fails CI when the machine
# has proven itself), 3 measurement inconclusive (reported, never gates),
# anything else = the harness itself broke (always fails CI).
#
# The ladder, in order:
#   1. selftest            — interleaved A/A must read no-difference and
#                            an injected +10% workload must read
#                            regression, inside one process.
#   2. capture → A/A       — a fresh capture compared against a fresh
#                            re-measurement of the identical closure:
#                            proves back-to-back *cross-run* comparisons
#                            hold still on this machine right now.
#   3. capture → +10%      — the same capture/compare machinery must
#                            flag a deliberately injected slowdown.
#   4. base-commit baseline — the base commit's bench, built from its
#                            tree into target/bench-base before step 1,
#                            and HEAD's bench each capture des_core four
#                            times, in turn (B H, H B, B H, H B), and
#                            `bench diff` judges HEAD's captures against
#                            the base's, pooled, at --min-effect 10. Slow
#                            phases of the host then hit both builds, and
#                            drift between HEAD's first and last two
#                            captures reads inconclusive. The base is the
#                            merge-base with main; on a clean checkout of
#                            a main commit, its parent.
# A regression verdict from step 4 fails CI only when steps 1–3 all
# passed; on a machine that cannot hold still, the verdict is reported
# loudly as inconclusive instead of silently passing or flaking.
BENCH=./target/release/bench
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
trajectory="$PWD/target/BENCH_trajectory.jsonl"
machine_quiet=1

base=$(git merge-base HEAD main 2>/dev/null ||
    git merge-base HEAD origin/main 2>/dev/null || true)
if [ "$base" = "$(git rev-parse HEAD)" ] && [ -z "$(git status --porcelain)" ]; then
    base=$(git rev-parse -q --verify HEAD~1 || true)
fi
if [ -z "$base" ]; then
    echo "error: no base commit to capture des_core from (a shallow clone? fetch the history)" >&2
    exit 1
fi
base_dir=target/bench-base
rm -rf "$base_dir/src"
mkdir -p "$base_dir/src"
git archive "$base" | tar -x -C "$base_dir/src"
cargo build -q --release --offline -p bench --bin bench \
    --manifest-path "$base_dir/src/Cargo.toml" --target-dir "$PWD/$base_dir/target"
BASE_BENCH=$base_dir/target/release/bench

rc=0
"$BENCH" selftest --budget-ms 500 || rc=$?
case $rc in
    0) echo "ok: selftest (A/A quiet, injected slowdown detected)" ;;
    3) echo "report: selftest inconclusive — machine too noisy to gate benches this run"
       machine_quiet=0 ;;
    *) echo "error: bench selftest failed to run (exit $rc)" >&2; exit 1 ;;
esac

rc=0
"$BENCH" gate_selfcheck --budget-ms 500 \
    --capture target/BENCH_gate_baseline.json >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "error: bench gate_selfcheck capture failed (exit $rc)" >&2; exit 1
fi
rc=0
"$BENCH" gate_selfcheck --budget-ms 500 --min-effect 5 \
    --compare target/BENCH_gate_baseline.json >/dev/null || rc=$?
case $rc in
    0) echo "ok: cross-run A/A of the identical closure reads no-difference" ;;
    2|3) echo "report: cross-run A/A unstable (exit $rc) — des_core verdicts demoted to reports"
         machine_quiet=0 ;;
    *) echo "error: bench gate_selfcheck A/A compare failed to run (exit $rc)" >&2; exit 1 ;;
esac
rc=0
SPIDER_GATE_INJECT_PCT=10 "$BENCH" gate_selfcheck --budget-ms 500 --min-effect 5 \
    --compare target/BENCH_gate_baseline.json >/dev/null || rc=$?
case $rc in
    2) echo "ok: injected +10% slowdown flagged as a regression" ;;
    0|3) echo "report: injected slowdown not resolved (exit $rc) — des_core verdicts demoted to reports"
         machine_quiet=0 ;;
    *) echo "error: bench gate_selfcheck injected compare failed to run (exit $rc)" >&2; exit 1 ;;
esac

bases=
heads=
for round in 1 2 3 4; do
    if [ $((round % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        if [ "$side" = base ]; then bin=$BASE_BENCH; else bin=$BENCH; fi
        rc=0
        "$bin" des_core --budget-ms 1000 \
            --capture "target/BENCH_des_${side}_$round.json" >/dev/null || rc=$?
        if [ "$rc" -ne 0 ]; then
            echo "error: des_core capture of $side (round $round) failed (exit $rc)" >&2
            exit 1
        fi
    done
    bases=${bases:+$bases,}target/BENCH_des_base_$round.json
    heads=${heads:+$heads,}target/BENCH_des_head_$round.json
done
rc=0
"$BENCH" diff "$bases" "$heads" --min-effect 10 \
    --json "$PWD/target/BENCH_des.json" \
    --trajectory "$trajectory" --commit "$commit" || rc=$?
case $rc in
    0) echo "ok: des_core within the base commit's captures (target/BENCH_des.json, trajectory appended)" ;;
    2) if [ "$machine_quiet" -eq 1 ]; then
           echo "error: des_core regressed against the base commit" >&2
           exit 1
       fi
       echo "report: des_core regression verdict on a machine that failed its self-check — not gating" ;;
    3) echo "report: des_core measurement inconclusive (machine not stationary) — not gating" ;;
    *) echo "error: bench des_core failed to run (exit $rc)" >&2; exit 1 ;;
esac

step "bench des_metro (grid vs linear scan, verdict greped)"
# The spatial grid must beat the linear scan it replaced on the 1024-AP
# downtown at the contention query radius. bench_pair verdicts never feed
# the exit code (that channel belongs to baseline compares), so
# the gate greps the printed interleaved-A/B verdict instead — demoted to
# a report when the machine failed its own self-check above.
rc=0
"$BENCH" des_metro --budget-ms 1000 \
    --json "$PWD/target/BENCH_metro.json" \
    --trajectory "$trajectory" --commit "$commit" \
    >target/BENCH_metro.out 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    cat target/BENCH_metro.out >&2
    echo "error: bench des_metro failed to run (exit $rc)" >&2; exit 1
fi
if grep -q 'inrange_1024aps_linear_scan_vs_grid_x256.* — improvement ' \
    target/BENCH_metro.out; then
    echo "ok: grid beats linear scan on des_metro (target/BENCH_metro.json)"
elif [ "$machine_quiet" -eq 1 ]; then
    cat target/BENCH_metro.out >&2
    echo "error: grid did not beat the linear scan on a machine that passed its self-check" >&2
    exit 1
else
    echo "report: grid-vs-scan verdict not 'improvement' on a machine that failed its self-check — not gating"
fi

step "bench des_fleet (one fleet world vs N-times replication, verdict greped)"
# One 8-client fleet world must beat running the whole world 8 times —
# the shared deployment, AP timers, and event queue are the point of the
# subsystem. Same grep-the-verdict contract as des_metro: bench_pair
# verdicts never feed the exit code, and the gate demotes to a report
# when the machine failed its self-check. The 1→64 scaling sweep lands
# per-client wall-clock in the trajectory artifact either way.
rc=0
"$BENCH" des_fleet --budget-ms 1000 \
    --json "$PWD/target/BENCH_fleet.json" \
    --trajectory "$trajectory" --commit "$commit" \
    >target/BENCH_fleet.out 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    cat target/BENCH_fleet.out >&2
    echo "error: bench des_fleet failed to run (exit $rc)" >&2; exit 1
fi
if grep -q 'fleet8_one_world_vs_8x_replication.* — improvement ' \
    target/BENCH_fleet.out; then
    echo "ok: one 8-client world beats 8x replication (target/BENCH_fleet.json)"
elif [ "$machine_quiet" -eq 1 ]; then
    cat target/BENCH_fleet.out >&2
    echo "error: fleet world did not beat replication on a machine that passed its self-check" >&2
    exit 1
else
    echo "report: fleet-vs-replication verdict not 'improvement' on a machine that failed its self-check — not gating"
fi

step "bench artifact (campaign substrates)"
# Machine-readable artifact for the campaign hot paths; a bench that
# fails to *run* fails CI — only measurement verdicts are non-gating.
rc=0
"$BENCH" substrates campaign --budget-ms 100 \
    --json "$PWD/target/BENCH_campaign.json" \
    --trajectory "$trajectory" --commit "$commit" >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "error: substrates bench failed to run (exit $rc)" >&2; exit 1
fi
[ -s target/BENCH_campaign.json ] || {
    echo "error: substrates bench wrote no artifact" >&2; exit 1; }
echo "ok: wrote target/BENCH_campaign.json"

step "bench trajectory (cross-commit drift report, non-gating)"
# Joins the append-only per-commit log the gated steps above wrote into
# per-bench tables and flags monotone drifts no single-commit gate can
# see. A reader, not a gate: drift findings are reported, only a broken
# log fails CI.
"$BENCH" trajectory "$trajectory" || {
    echo "error: bench trajectory could not read $trajectory" >&2; exit 1; }

printf '\nCI passed.\n'
