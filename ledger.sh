#!/usr/bin/env bash
# Append one benchmark run to the end-to-end ledger (BENCH_e2e.json at the
# repo root: JSON lines, append-only, committed). Reads the benchmark's
# stdout on stdin and keeps its last line:
#
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#       --workload W --seed 42 --seconds S --trace 0 | ./ledger.sh W S [commit] [seed]
#
# `commit` defaults to the checked-out HEAD (pass the parent's hash when
# piping a run of the parent's tree), `seed` to 42.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,10p' "$0" >&2; exit 2; }
workload=$1 seconds=$2
commit=${3:-$(git -C "$(dirname "$0")" rev-parse --short HEAD)}
seed=${4:-42}
line=$(tail -n 1)
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
printf '{"commit":"%s","date":"%s","workload":"%s","seed":%s,"seconds":%s,"ops_per_s":%s,"op_p50_us":%s,"peak_rss_mb":%s,"setup_s":%s,"attempted":%s,"failed":%s,"source":"run"}\n' \
  "$commit" "$(date -u +%F)" "$workload" "$seed" "$seconds" \
  "$ops" "$p50" "$rss" "$setup" "$attempted" "$failed" >>"$(dirname "$0")/BENCH_e2e.json"
