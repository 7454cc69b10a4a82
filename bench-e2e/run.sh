#!/usr/bin/env bash
# Build the end-to-end benchmark and the `experiments` binary its
# campaign workloads drive, into one target directory, then run it:
#
#   bash bench-e2e/run.sh --workload fig5_drive --seed 1 --seconds 12 --trace 0
#   bash bench-e2e/run.sh compare set-a set-b
#
# CARGO_TARGET_DIR defaults to .bench_build at the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path bench-e2e/Cargo.toml >&2
cargo build --release --offline --quiet -p experiments >&2
exec "$CARGO_TARGET_DIR/release/bench-e2e" "$@"
