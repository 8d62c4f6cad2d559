#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash simbench/run.sh --workload <hotspot|uniform|serve|faults> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Build output goes to CARGO_TARGET_DIR
# (default .bench_build) and to standard error, so the last line of standard
# output is the benchmark's JSON result. Without the simulator's sources the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/simbench" "$@"
