#!/usr/bin/env bash
# Runs every workload recorded in BENCHMARK.json once and prints each one's
# metrics, check verdicts and JSON result.
#
#   bash simbench/all.sh [seed] [seconds] [trace]
#
# Defaults: seed 1, 25 seconds per workload, trace 0. Run from the root of
# the checkout; exits non-zero if any run fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in hotspot serve faults; do
  echo "== $w"
  bash "$here/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-25}" --trace "${3:-0}"
done
