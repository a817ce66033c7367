#!/usr/bin/env bash
# Append one benchmark run to the end-to-end ledger (BENCH_e2e.json at the
# repo root: JSON lines, append-only, committed). Reads the benchmark's
# stdout on stdin and keeps its last line (the result) and its `detail`
# line, whose exact per-seed counters `sim_us_per_op`, `wire_msgs_per_op` and
# `wire_bytes_per_op` ride along verbatim when the workload has them (the
# cluster workloads; `local_chain` and `transform_corpus` print none), and so
# do `driver.host_speed` and `driver.round_spread`, which say how fast and how
# steady the host was during the run:
#
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#       --workload W --seed 42 --seconds S --trace 0 | ./ledger.sh W S [commit] [seed]
#
# `commit` defaults to the checked-out HEAD (pass the parent's hash when
# piping a run of the parent's tree), `seed` to 42.
#
# Layers mode, for a `--trace 1` run: `./ledger.sh --layers W S [commit] [seed]`
# appends every metric on the last line, by name, to BENCH_layers.json (same
# shape of file) as {commit, date, workload, seed, seconds, layers: {...}}.
set -euo pipefail
layers=0
if [ "${1:-}" = --layers ]; then layers=1; shift; fi
[ $# -ge 2 ] || { sed -n '2,19p' "$0" >&2; exit 2; }
workload=$1 seconds=$2
commit=${3:-$(git -C "$(dirname "$0")" rev-parse --short HEAD)}
seed=${4:-42}
stdout=$(cat)
line=$(tail -n 1 <<<"$stdout")
detail=$(grep '^detail ' <<<"$stdout" | tail -n 1) || true
if [ "$layers" = 1 ]; then
  pairs=$(grep -oE '"[^"]+":\{"value":[0-9.eE+-]+' <<<"$line" |
    awk '{ sub(/:\{"value"/, ""); printf "%s%s", (NR > 1 ? "," : ""), $0 }') || true
  [ -n "$pairs" ] || { echo "ledger: no metrics on the benchmark's last line" >&2; exit 1; }
  printf '{"commit":"%s","date":"%s","workload":"%s","seed":%s,"seconds":%s,"layers":{%s}}\n' \
    "$commit" "$(date -u +%F)" "$workload" "$seed" "$seconds" "$pairs" \
    >>"$(dirname "$0")/BENCH_layers.json"
  exit 0
fi
metric() { # name, printf format
  local v
  v=$(grep -oE "\"$1\":\{\"value\":[0-9.eE+-]+" <<<"$line" | grep -oE '[0-9.eE+-]+$') ||
    { echo "ledger: no $1 on the benchmark's last line" >&2; exit 1; }
  awk -v v="$v" -v f="$2" 'BEGIN { printf f, v }'
}
count() {
  grep -oE "\"$1\":[0-9]+" <<<"$line" | grep -oE '[0-9]+$' ||
    { echo "ledger: no $1 on the benchmark's last line" >&2; exit 1; }
}
ops=$(metric ops_per_s %.1f)
p50=$(metric op_p50_us %.3f)
rss=$(metric peak_rss_mb %.1f)
setup=$(metric setup_s %.3f)
attempted=$(count attempted)
failed=$(count failed)
copied=
for name in sim_us_per_op wire_msgs_per_op wire_bytes_per_op driver.host_speed driver.round_spread; do
  v=$(grep -oE "\"${name//./\\.}\":\{\"value\":[0-9.eE+-]+" <<<"$detail" | grep -oE '[0-9.eE+-]+$') || continue
  copied="$copied,\"$name\":$v"
done
printf '{"commit":"%s","date":"%s","workload":"%s","seed":%s,"seconds":%s,"ops_per_s":%s,"op_p50_us":%s,"peak_rss_mb":%s,"setup_s":%s,"attempted":%s,"failed":%s%s,"source":"run"}\n' \
  "$commit" "$(date -u +%F)" "$workload" "$seed" "$seconds" \
  "$ops" "$p50" "$rss" "$setup" "$attempted" "$failed" "$copied" >>"$(dirname "$0")/BENCH_e2e.json"
