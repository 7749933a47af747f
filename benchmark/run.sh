#!/usr/bin/env bash
# One command for a full run set: every workload with tracing off (the
# end-to-end metrics), then once more traced (the per-layer metrics, the
# probes, the checked and parallel legs). Prints every metric by name
# with its unit, checks every output against its oracle, writes the
# run-set file `--compare` reads, and exits non-zero on any mismatch.
#
#   benchmark/run.sh [seed] [out.json]
#
# Each of the ten timed sections measures for run_seconds of
# BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out="${2:-benchmark/out/run-${seed}.json}"
mkdir -p "$(dirname "$out")"
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload all --seed "$seed" \
  --out "$out" --spans "${out%.json}.spans"
