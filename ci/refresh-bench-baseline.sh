#!/usr/bin/env bash
# Refresh the committed benchmark baseline in one command:
#
#   ci/refresh-bench-baseline.sh
#
# Runs the gated benchmark suite with machine-readable output and rewrites
# ci/bench-baseline.json in the canonical (schema-tagged, name-sorted)
# format. Commit the result. CI's bench-regression job compares every run
# against this file with a percentage threshold, so refresh it on a machine
# representative of CI whenever a deliberate performance change lands.
#
# Benches build for the portable baseline target on purpose (same as CI):
# the per-tier benches compare the runtime AVX2 dispatch against the
# portable lanes build, and -C target-cpu=native would hand the portable
# tiers the same instructions, washing out the comparison. Export RUSTFLAGS
# to override.
set -euo pipefail
cd "$(dirname "$0")/.."

json="$(mktemp -t bench-json.XXXXXX)"
rm -f "$json"

BENCH_JSON="$json" cargo bench -p bcpnn-bench --bench backends
# The one-row, cascade and block groups only (the criterion shim takes
# substring filters), so the baseline stays scoped to what CI's
# bench-regression job re-runs.
BENCH_JSON="$json" cargo bench -p bcpnn-bench --bench serving -- serve_single serve_cascade serve_block64
cargo run --release -q -p bcpnn-bench --bin bench_compare -- \
    --current "$json" --write-baseline ci/bench-baseline.json
rm -f "$json"
echo "refreshed ci/bench-baseline.json"
