#!/usr/bin/env bash
# Builds the benchmark and runs it. See README.md beside this file.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run of one workload
#   run.sh [--seed N] [--smoke]                            all six workloads, every metric
#   run.sh --selfcheck [--seed N]                          two sets twice, against the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

exec "$target/release/amber-benchmark" --out "$here/out" "$@"
