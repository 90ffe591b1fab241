#!/usr/bin/env bash
# Builds nfa-count and the benchmark from this checkout, then runs one
# workload. Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin nfa-count >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --nfa-count "$CARGO_TARGET_DIR/release/nfa-count" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
