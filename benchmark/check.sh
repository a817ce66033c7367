#!/usr/bin/env bash
# The benchmark's own CI: formatting, lints, self-tests and a smoke run,
# all offline against benchmark/Cargo.lock. Callable from the repo's ci.sh.
set -euo pipefail
cd "$(dirname "$0")"

echo "== benchmark: cargo fmt --check"
cargo fmt --check

echo "== benchmark: cargo clippy -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "== benchmark: self-tests"
cargo test --offline -q

echo "== benchmark: smoke run (scale 0.02, one second per workload)"
cargo run --release --offline -q -- run --seed 42 --scale 0.02 --seconds 1

echo "benchmark checks passed"
