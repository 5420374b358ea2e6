#!/usr/bin/env bash
# Build the benchmark and run it. All arguments go to the binary; see
# README.md, or src/main.rs for the three forms (ledger, one workload,
# compare).
#
# The package has its own workspace and lock file and builds offline
# against the crates of the checkout it sits in. Build output goes to
# CARGO_TARGET_DIR when set (relative to the checkout root), else to
# benchmark/target. Cargo's own chatter goes to stderr, so stdout holds
# results only.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/tamp-benchmark" "$@"
