#!/usr/bin/env bash
# Repo CI gate: build, tests, formatting, lints. Everything runs offline
# against the committed Cargo.lock — no network, no new dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, locked, offline) =="
cargo build --release --locked --offline

echo "== tests (wall-clock budget: ${TEST_BUDGET_SECS:=600}s) =="
# Everything is a simulated-clock test; real time only grows if something
# spins or deadlocks. Fail loudly rather than letting CI hang.
test_start=$(date +%s)
cargo test -q
test_elapsed=$(( $(date +%s) - test_start ))
echo "test suite took ${test_elapsed}s"
if [ "$test_elapsed" -gt "$TEST_BUDGET_SECS" ]; then
  echo "FAIL: test suite exceeded its ${TEST_BUDGET_SECS}s wall-clock budget" >&2
  exit 1
fi

echo "== soak gate on the release build =="
# The tests above ran with debug assertions, where every replica probe the
# written mark answers is re-checked against the full read-marshal-compare
# probe. The benchmark times a release build, which trusts the mark: run
# the oracle gate and the seed-42 golden report on that code path too.
cargo test -q --release --locked --offline -p rafda --test soak

echo "== benchmark package (own workspace: fmt, clippy, self-tests, smoke) =="
# benchmark/ is a workspace of its own, so nothing above compiles it: an
# API slip in crates/ that only the benchmark exercises would go unseen.
benchmark/check.sh

echo "== quiescent checks stay O(new spans): soak apply share >= 0.85 =="
# A soak round is op application plus six quiescent checks (phase
# boundaries, finale, finish). With the span-tree monitor's watermark a
# check visits only the spans recorded since the previous one, so op
# application is ~98 % of the round at this scale; any check that goes back
# to walking the whole run's span log drags it to ~57 %. Both numbers come
# from one process's clock, so the ratio does not depend on the host's speed.
apply_share=$(cd benchmark && cargo run --release --offline -q -- \
    --workload soak_day --seed 42 --scale 0.1 --seconds 1 --trace 1 |
  tail -n 1 | grep -oE '"core\.soak\.apply_share":\{"value":[0-9.eE+-]+' | grep -oE '[0-9.eE+-]+$' || true)
echo "core.soak.apply_share = ${apply_share:-missing}"
if ! awk -v share="${apply_share:-0}" 'BEGIN { exit !(share >= 0.85) }'; then
  echo "FAIL: op application is under 0.85 of a soak round — a quiescent check is O(run) again" >&2
  exit 1
fi

echo "== location tables are touched only by the Directory =="
# Where objects live is one type's business (crates/runtime/src/directory.rs).
# A field access on one of its tables anywhere else in the runtime means a
# table has leaked back out. The two gauges a time-series sample reads
# (`lagging`, `members_per_node`) are held to the same rule: they stay exact
# only because the transitions next to the tables are their sole writers.
if grep -rnE '\.(versions|homes|statics_exports|shards|dirty|export_ids|forwards|replicated|synced_versions|call_counts|lagging|members_per_node)\b' \
    crates/runtime/src --exclude=directory.rs; then
  echo "FAIL: location-table access outside directory.rs" >&2
  exit 1
fi

echo "== one frame version per codec, one table per link =="
# Each codec speaks exactly one frame format; a second version constant or
# a per-frame format flag in the wire crate means the fork is back.
if grep -rnE 'VERSION_SIG|MINOR_SIG|sigged|frame_is_sigged' crates/wire/src; then
  echo "FAIL: crates/wire/src has a second frame version again" >&2
  exit 1
fi
# Every frame the runtime writes or reads goes through its directed link's
# signature table (`Shared::with_link_table`): no table-less wrapper, and no
# `None` among the arguments of a table-taking codec call (matched with
# balanced parentheses, so multi-line calls count).
if grep -rnE --exclude=tests.rs '\.(encode_request|decode_request|encode_reply|decode_reply)\(' \
    crates/runtime/src; then
  echo "FAIL: table-less codec call in the runtime" >&2
  exit 1
fi
if grep -rPzoh --exclude=tests.rs \
    '\b(?:encode_request_into|encode_reply_into|decode_reply_with|materialise)(\((?:[^()]++|(?1))*\))' \
    crates/runtime/src | tr '\0' '\n' | grep -w None; then
  echo "FAIL: the runtime passes None as a signature table" >&2
  exit 1
fi

echo "== benches compile (not run) =="
# Criterion benches are exercised manually (EXPERIMENTS.md); CI only
# guarantees they still build against the current API.
cargo bench --no-run --locked --offline --quiet

echo "== e13 wire fast-path bench (smoke) =="
# The one bench CI *runs*: it asserts the zero-copy wire fast path stays
# >= 2x the baseline in frames/sec on the RMI hot path. Smoke mode shrinks
# the iteration count; the assertion is identical to the full run.
E13_SMOKE=1 cargo bench -p rafda-bench --bench e13_wire_throughput --locked --offline --quiet

echo "== e15 sharding + replica-read bench (smoke) =="
# Runs the placement experiment end to end: the sharded + replica-read
# policy must beat the single-owner baseline by >= 30% on wire messages
# and on simulated p95 latency, with identical observable values and all
# four invariant monitors silent. Smoke mode shrinks the Zipf stream; the
# assertions are identical to the full run.
E15_SMOKE=1 cargo bench -p rafda-bench --bench e15_sharding --locked --offline --quiet

echo "== e16 production-day soak (smoke, budget ${SOAK_BUDGET_SECS:=15}s) =="
# The standing "does the whole system survive production traffic" gate:
# a 10⁴-op slice of the seeded churn schedule — sharding, replica reads,
# caching, batching, k=2 crash-stop replication, migrations, adaptation
# and rebalance under a 5% drop rate — must match the single-address-space
# oracle op-for-op with every invariant monitor silent. The wall-clock
# budget doubles as the O(dirty) sweep regression gate: with the
# incremental dirty-replica sweep and the watermarked span-tree check
# (id-indexed `SpanLog::by_id` lookups, no per-check index) the smoke runs
# in well under a second (the budget is mostly cargo overhead); a
# reversion to the full-export-table walk or the O(spans²) monitor scan
# (~24 s combined at this depth, superlinear beyond it) trips the budget
# immediately. A quiescent check that is merely O(run) again is too cheap
# at this depth to trip it — the apply-share gate above catches that.
# Full-depth multi-seed sweeps: SOAK_OPS=100000 SOAK_SEEDS=1,2,3 against
# the same bench; SOAK_OPS=1000000 is the mega tier (~10 s). Each run
# appends ops/s to target/BENCH_e16_soak.json.
soak_start=$(date +%s)
SOAK_SMOKE=1 cargo bench -p rafda-bench --bench e16_soak --locked --offline --quiet
soak_elapsed=$(( $(date +%s) - soak_start ))
echo "soak smoke took ${soak_elapsed}s"
if [ "$soak_elapsed" -gt "$SOAK_BUDGET_SECS" ]; then
  echo "FAIL: soak smoke exceeded its ${SOAK_BUDGET_SECS}s wall-clock budget" >&2
  exit 1
fi

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy -- -D warnings

echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --locked --offline --quiet

echo "== determinism (same-seed run-twice diff) =="
# The full experiment report (covers RPC, retries, migration, adaptation,
# caching, crash-stop failover, batched invocation, telemetry and the E16
# SoakReport text) must be byte-identical across two runs of the same
# build — any hash-order or wall-clock leak shows up as a diff here.
run_report() {
  cargo run -q -p rafda --example experiments_report --release > "$1"
  cp target/e9_trace.json "$1.trace" 2>/dev/null || true
  cp target/e14_metrics.prom "$1.prom" 2>/dev/null || true
  cp target/e14_metrics.jsonl "$1.jsonl" 2>/dev/null || true
}
run_report target/ci_determinism_a.txt
run_report target/ci_determinism_b.txt
diff target/ci_determinism_a.txt target/ci_determinism_b.txt
diff target/ci_determinism_a.txt.trace target/ci_determinism_b.txt.trace
# The observability plane is part of the gate: the Prometheus snapshot and
# the JSON-lines time series must also be byte-identical across runs.
diff target/ci_determinism_a.txt.prom target/ci_determinism_b.txt.prom
diff target/ci_determinism_a.txt.jsonl target/ci_determinism_b.txt.jsonl

echo "== chaos soak, monitor-enabled smoke =="
# The full 24-case soak already ran under `cargo test` above; this repeats
# it at 2 cases purely to exercise the CHAOS_CASES knob the soak exposes
# for quick local iteration (all four watchdogs stay enabled).
CHAOS_CASES=2 cargo test -q -p rafda --test chaos_soak

echo "CI OK"
