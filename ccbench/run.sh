#!/usr/bin/env bash
# Builds the cc-simd daemon and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash ccbench/run.sh --workload paper_mix --seed 42 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# messages go to stderr so the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin cc-simd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ccbench" --simd "$CARGO_TARGET_DIR/release/cc-simd" "$@"
