#!/usr/bin/env bash
# Builds the benchmark, runs every workload untraced and traced for one
# seed, and prints the table.
#
#   benchmark/run.sh [seed] [seconds]
#
# Results land in benchmark/out/run-<seed>.json and
# benchmark/out/trace-<workload>.json. Compare two result files with
#   cargo run --release --manifest-path benchmark/Cargo.toml --target-dir target -- compare a.json b.json
set -euo pipefail

seed="${1:-1}"
seconds="${2:-12}"
cd "$(dirname "$0")/.."

cores="$(nproc)"
if [ "$cores" -lt 2 ]; then
    echo "WARNING: this host reports available_parallelism: $cores." >&2
    echo "WARNING: serve_* runs 2 clients against a daemon and core.detect has a thread pool;" >&2
    echo "WARNING: every thread-sensitive number of this run is void." >&2
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
exec target/release/mcc-benchmark all --seed "$seed" --seconds "$seconds" --traced
