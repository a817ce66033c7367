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

echo "== soak gate on the release build (budget ${SOAK_BUDGET_SECS:=15}s) =="
# The tests above ran with debug assertions, where the two gauges a
# time-series sample reads (replica lag, shard balance) are re-counted from
# their tables at every sample, and a quiescent check asserts that its
# mark-everything sweep ships nothing. The benchmark times a release build,
# which reads the gauges as kept: run the oracle gate and the seed-42 golden
# report on that code path too.
# The wall-clock budget on the run (the binary is built first, outside it)
# doubles as the O(dirty) sweep regression gate: the ten tests take well
# under a second; a reversion to the full-export-table walk or the
# O(spans²) monitor scan (~24 s combined at this depth, superlinear beyond
# it) trips it immediately. A quiescent check that is merely O(run) again
# is too cheap at this depth — the apply-share gate below catches that.
# Full-depth sweeps: SOAK_OPS=100000 SOAK_SEEDS=1,2,3 on the same test
# with `-- --nocapture` (prints wall seconds and ops/s per seed).
cargo test -q --release --locked --offline -p rafda --test soak --no-run
soak_start=$(date +%s)
cargo test -q --release --locked --offline -p rafda --test soak
soak_elapsed=$(( $(date +%s) - soak_start ))
echo "release soak took ${soak_elapsed}s"
if [ "$soak_elapsed" -gt "$SOAK_BUDGET_SECS" ]; then
  echo "FAIL: release soak exceeded its ${SOAK_BUDGET_SECS}s wall-clock budget" >&2
  exit 1
fi

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
smoke_line=$(cd benchmark && cargo run --release --offline -q -- \
    --workload soak_day --seed 42 --scale 0.1 --seconds 1 --trace 1 | tail -n 1)
metric_of() { # name regex, benchmark output line
  grep -oE "\"$1\":\{\"value\":[0-9.eE+-]+" <<<"$2" | grep -oE '[0-9.eE+-]+$' || true
}
smoke_metric() { metric_of "$1" "$smoke_line"; }
apply_share=$(smoke_metric 'core\.soak\.apply_share')
echo "core.soak.apply_share = ${apply_share:-missing}"
if ! awk -v share="${apply_share:-0}" 'BEGIN { exit !(share >= 0.85) }'; then
  echo "FAIL: op application is under 0.85 of a soak round — a quiescent check is O(run) again" >&2
  exit 1
fi

echo "== spans stay records: traced soak grows <= 400 B of RSS per op =="
# A traced run's memory is its span log: 5.63 spans per op at this scale,
# each a 48-byte record (id implicit in the slot, name a u16, the rare retry
# link in a side table) naming one shared run in the log's arena, which
# holds each distinct attribute list once (16 bytes per attribute, string
# values interned once per log) — ~364 B per op with everything else a
# deployment retains (the bound is that plus 10 %). At-most-once adds
# one bit per message id and a bounded reply window per caller; the
# `BTreeSet` of every executed (server, caller, id) and the 1,024-entry
# reply FIFO they replaced read ~471 B. The 80-byte span record before
# that read ~645 B (5.63 x 32 B more). Measured on that record, copying
# every span's attributes into the arena again added ~260 B per op, and a
# `Vec` of attributes owned by each span, or a `String` per string
# attribute, ~1,650 B. It is bytes, so it does not depend on the host's
# speed.
rss_per_op=$(smoke_metric 'telemetry\.rss_bytes_per_op')
echo "telemetry.rss_bytes_per_op = ${rss_per_op:-missing}"
if ! awk -v rss="${rss_per_op:-1e9}" 'BEGIN { exit !(rss <= 400) }'; then
  echo "FAIL: a traced soak op retains over 400 B — spans grew, copy their attributes again, or at-most-once keeps history" >&2
  exit 1
fi

echo "== wire fast path: header decode <= 1/4 of an RMI round trip =="
# The serve path's hot cases (a retransmission answered from the reply
# cache, a batch routed by discriminant) need only the borrowed frame
# header. Both codec probes are on the smoke line above, timed in one
# process, so the ratio does not depend on the host's speed: ≈20 ns against
# ≈240–340 ns for a full exchange's codec work today.
header_ns=$(smoke_metric 'wire\.rmi\.header_decode_ns')
roundtrip_ns=$(smoke_metric 'wire\.rmi\.roundtrip_ns')
echo "wire.rmi.header_decode_ns = ${header_ns:-missing}, wire.rmi.roundtrip_ns = ${roundtrip_ns:-missing}"
if ! awk -v h="${header_ns:-0}" -v r="${roundtrip_ns:-0}" 'BEGIN { exit !(h > 0 && 4 * h <= r) }'; then
  echo "FAIL: RMI header decode is over a quarter of a full round trip — the zero-copy fast path regressed" >&2
  exit 1
fi

echo "== SOAP stays cheap on the host: a round trip <= 12 RMI round trips =="
# SOAP is the big, slow codec on the wire and on the simulated clock (400 us
# per message), not in the host's own work: its decoder reads a frame in
# place. Same smoke line, one process, so the ratio does not depend on the
# host's speed: ~4.5x today, 27x with the owned DOM it replaced.
soap_ns=$(smoke_metric 'wire\.soap\.roundtrip_ns')
echo "wire.soap.roundtrip_ns = ${soap_ns:-missing}, wire.rmi.roundtrip_ns = ${roundtrip_ns:-missing}"
if ! awk -v s="${soap_ns:-0}" -v r="${roundtrip_ns:-0}" 'BEGIN { exit !(s > 0 && r > 0 && s <= 12 * r) }'; then
  echo "FAIL: a SOAP round trip costs over 12 RMI round trips of host time" >&2
  exit 1
fi

echo "== ledger smoke: no workload's ops_per_s drops over 20 % against the ledger =="
# One short untraced run per workload (seed 42), held to the last committed
# `"source":"run"` line of the same workload and seed in BENCH_e2e.json.
# `ops_per_s` is reference-speed (the driver divides the host's measured speed
# out), so a slower host is not a regression. A run whose raw round walls
# spread by more than 20 % (`driver.round_spread`: IQR over median) is skipped,
# and says so: the host itself moved by as much as the drop this gate looks
# for, so a failure would not name the code.
ledger=$(git show HEAD:BENCH_e2e.json 2>/dev/null || cat BENCH_e2e.json)
for w in soak_day rpc_steady store_reads store_writes local_chain transform_corpus; do
  base=$(grep -F "\"workload\":\"$w\",\"seed\":42," <<<"$ledger" | grep -F '"source":"run"' |
    tail -n 1 | grep -oE '"ops_per_s":[0-9.]+' | grep -oE '[0-9.]+$' || true)
  out=$(cd benchmark && cargo run --release --offline -q -- \
      --workload "$w" --seed 42 --seconds 1 --trace 0)
  ops=$(metric_of ops_per_s "$(tail -n 1 <<<"$out")")
  spread=$(metric_of 'driver\.round_spread' "$(grep '^detail ' <<<"$out")")
  echo "$w: ops_per_s ${ops:-missing} against ${base:-no ledger line}, round_spread ${spread:-missing}"
  if [ -z "$base" ]; then
    echo "  skipped: no committed run line for $w at seed 42"
  elif awk -v s="${spread:-1}" 'BEGIN { exit !(s > 0.20) }'; then
    echo "  skipped: round_spread over 0.20, the host is too noisy to judge a 20 % drop"
  elif ! awk -v o="${ops:-0}" -v b="$base" 'BEGIN { exit !(o >= 0.8 * b) }'; then
    echo "FAIL: $w ops_per_s dropped over 20 % below its last ledger line" >&2
    exit 1
  fi
done

echo "== location tables are touched only by the Directory =="
# Where objects live is one type's business (crates/runtime/src/directory.rs).
# A field access on one of its tables anywhere else in the runtime means a
# table has leaked back out. The lag gauge a time-series sample reads
# (`lagging`) is held to the same rule: it stays exact only because the
# transitions next to the tables are its sole writers. A replicated export's
# shipment record (`deep`, `owed`) is one entry of `replicated`, and a shard
# member is one entry of `sharded`; the questions about them are named apart
# from the fields.
if grep -rnE '\.(versions|identities|homes|static_by_row|owner_by_shard|sharded|dirty|export_ids|replicated|deep|owed|call_counts|lagging)\b' \
    crates/runtime/src --exclude=directory.rs; then
  echo "FAIL: location-table access outside directory.rs" >&2
  exit 1
fi

echo "== one failure detector: a node asks detector.rs which peers it gave up on =="
# A runtime decision that skips a peer asks `detector::suspects` or
# `detector::cut` and names the node asking. A fault-plan predicate read
# anywhere else in the runtime's product lines is a decision made on facts
# no node could know, out of reach of the detector's one body. The watchdog
# and the stats tables observe and decide nothing, so they may read the plan.
plan_reads=$(for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs \
    ! -name detector.rs ! -name watchdog.rs ! -name stats.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE '\bis_(crashed|partitioned)\(' || true; } | sed "s|^|$f:|"
done)
if [ -n "$plan_reads" ]; then
  echo "$plan_reads" >&2
  echo "FAIL: the runtime reads the fault plan outside detector.rs — ask crate::detector" >&2
  exit 1
fi

echo "== a caller reads a reply in one place =="
# `serve.rs` builds exception and fault replies; `rpc::read_reply` is the one
# caller-side reading of them (a remote exception is thrown again on the
# caller, a fault is its text). A caller that matches them itself decides
# anew what a remote failure means, and a remote factory can then fail
# differently from a local one.
reply_reads=$(for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs \
    ! -name serve.rs ! -name rpc.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE '\bReply::(Exception|Fault)\b' || true; } | sed "s|^|$f:|"
done)
if [ -n "$reply_reads" ]; then
  echo "$reply_reads" >&2
  echo "FAIL: a reply is read outside rpc::read_reply — call it instead" >&2
  exit 1
fi

echo "== runtime spans record resolved attributes: no string-keyed set_attr =="
# Every runtime span takes its keys from the span vocabulary resolved once
# per log and its class names from the rows' interned symbols
# (`SpanLog::set_attrs`). A `set_attr(` in a runtime product line looks a key
# up and hashes a string per attribute again; the string path stays for the
# telemetry crate's own tests and the benchmark's probes.
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF 'set_attr('; then
    echo "FAIL: $f records a span attribute by string key" >&2
    exit 1
  fi
done

echo "== what was written is what is dirty: no frames, one source of bare-mutation marks =="
# Which replicated objects a local call may have mutated is not guessed from
# where application code ran: every write passes `Heap::get_mut`, the heap
# logs it, and the sweep (replicate.rs) alone drains the logs into
# `Directory::mark_written`. A frame type, a getter classifier at an entry
# point or a second drain means the convention is back; re-marking every
# replicated export is for the quiescent check in watchdog.rs (restart does it inside the
# directory).
if grep -rnE 'AppFrame|app_frames|mark_if_framed|entry_is_getter' crates/runtime/src; then
  echo "FAIL: application frames are back in the runtime" >&2
  exit 1
fi
if grep -rn --exclude=watchdog.rs 'mark_all_dirty(' crates/runtime/src | grep -v 'fn mark_all_dirty('; then
  echo "FAIL: mark_all_dirty is called outside the quiescent check" >&2
  exit 1
fi
if grep -rn --exclude=replicate.rs 'take_written(' crates/runtime/src; then
  echo "FAIL: a heap's write log is drained outside the sweep" >&2
  exit 1
fi

echo "== a replica read runs no bytecode =="
# A replica read is one slot read: `Vm::getter_slot` names the field the
# getter reads and only that stored wire value is unmarshalled. A throwaway
# instance (`alloc_raw`), a getter run against it (`call_virtual`) or the
# whole copy unmarshalled (`wire_to_values`) means the read builds an
# object per call again.
replica_read_body=$(sed -n '/^pub(crate) fn replica_read(/,/^}/p' crates/runtime/src/replicate.rs)
if [ -z "$replica_read_body" ]; then
  echo "FAIL: no replica_read in crates/runtime/src/replicate.rs" >&2
  exit 1
fi
if grep -nE 'alloc_raw|call_virtual|wire_to_values' <<<"$replica_read_body"; then
  echo "FAIL: replica_read builds an instance or runs the getter again" >&2
  exit 1
fi

echo "== two halves: rpc.rs is the caller, serve.rs the callee, bytes between =="
# An exchange is cut at the wire: `rpc` frames the request, transmits both
# ways and reads the reply frame; `serve::deliver` turns request bytes into
# reply bytes. Neither names the other half's steps or state, and until a
# second transport exists the seam is `deliver`'s signature, not a trait.
if grep -nE 'decode_request_header|materialise\(|serve_frame|handle_request|reply_cache|encode_reply_into' \
    crates/runtime/src/rpc.rs; then
  echo "FAIL: rpc.rs (the caller half) reaches into the callee half" >&2
  exit 1
fi
if grep -nE 'next_msg_id|rpc_depth|last_exchange_span|\.retry|\.transmit\(|encode_request_into|decode_reply_with' \
    crates/runtime/src/serve.rs; then
  echo "FAIL: serve.rs (the callee half) reaches into the caller half" >&2
  exit 1
fi
if grep -rn 'trait Transport' crates; then
  echo "FAIL: a Transport trait with one implementation — the seam is serve::deliver's signature" >&2
  exit 1
fi

echo "== at-most-once keeps no per-message history: a reply window per caller, a bit per id =="
# A server answers a retransmission from a window of the last
# MAX_RPC_DEPTH replies it sent that caller (serve.rs), and the watchdog
# remembers an executed message id as one bit in a sparse bitmap. A set of
# every executed (server, caller, id) in the watchdog, or a hashed FIFO or
# shared `Rc` reply behind `reply_cache`, means at-most-once costs a
# hashed insert and a growing table per exchange again.
if sed '/^#\[cfg(test)\]/,$d' crates/runtime/src/watchdog.rs | grep -nE '\bBTreeSet\b'; then
  echo "FAIL: the watchdog keeps a set of executed messages again" >&2
  exit 1
fi
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'reply_cache: *(FifoMap|Rc)\b|Rc<\(Reply\b'; then
    echo "FAIL: $f keeps replies in a FIFO map or behind an Rc again" >&2
    exit 1
  fi
done

echo "== policy is read once, as one rule per class: rows everywhere but cluster.rs =="
# Cluster::new resolves every per-class policy decision into one row per
# transformed family; the only live policy call is `instance_node` in
# `make_value`. A `.policy` access in any other runtime module means a
# decision is being re-asked by class name on some path again — and a
# function that needs `too_many_arguments` waived is usually one that is
# being handed a class's name and protocol next to (or instead of) its row.
if grep -rnE --exclude=tests.rs --exclude=cluster.rs '\.policy\b' crates/runtime/src; then
  echo "FAIL: the policy is consulted outside cluster.rs — read the class's row" >&2
  exit 1
fi
if grep -rn 'clippy::too_many_arguments' crates/*/src; then
  echo "FAIL: a too_many_arguments waiver is back" >&2
  exit 1
fi
# The policy answers two questions: `rule` (a class's whole `ClassRule`, at
# deployment) and `instance_node` (at every `make()`). A per-question method
# (`statics_node(&self, class)` …) or a second everything-local policy type
# means the rule is being split up again; the one reader `StaticPolicy`
# keeps for the benchmark is the only exception. A runtime call on a
# `policy` other than those two means a question is asked outside them.
per_question='fn (statics_node|cacheable|batched|shard_spec|reads_from_replicas)\(&self|struct LocalPolicy\b'
kept_reader='^crates/policy/src/lib.rs:[0-9]+:    pub fn cacheable\(&self, class: &str\) -> bool \{$'
if grep -rnE --include='*.rs' "$per_question" crates tests examples | grep -vE "$kept_reader"; then
  echo "FAIL: a per-question policy method or LocalPolicy is back — answer with one ClassRule" >&2
  exit 1
fi
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\bpolicy\.[A-Za-z_]' | grep -vE '\bpolicy\.(rule|instance_node)\('; then
    echo "FAIL: $f asks the policy something other than rule / instance_node" >&2
    exit 1
  fi
done

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

echo "== one counter table: every runtime counter is a registry row =="
# A runtime counter is a `runtime_metrics!` entry, charged where the work
# happens and rendered by the registry's own exporters. A counter re-summed
# from some other table at read time, an export loop appended by hand, or a
# per-link tally that nothing reads means a second table is back.
if grep -rnE 'per_node_wire|wire_rows|WIRE_METRIC_NAMES|reuses_from|allocs_from|LinkStats|busiest_link|pair_bytes|register_gauge|sum_counters' \
    crates examples tests; then
  echo "FAIL: a counter lives outside the metrics registry again" >&2
  exit 1
fi

echo "== one watchdog: five checks in one type, link latency read from spans =="
# The runtime's invariant checks are one concrete `Watchdog`, called where the
# facts are; per-link latency is derived from the `rpc.attempt` spans. An event
# enum, a check trait, a boxed check or a second copy of the attempt durations
# means a check is being plugged in, or a sample stored, a second way again.
if grep -rnE 'trait Monitor|MonitorEvent|standard_monitors|dyn Monitor|link_samples|record_link' \
    crates examples tests; then
  echo "FAIL: a pluggable monitor or a stored link sample is back" >&2
  exit 1
fi

echo "== one error type: a network failure is a NetError from the wire to the caller =="
# A remote operation that gives up carries the net's own `NetError`
# (`VmError::Unreachable(NetFailure)`), and every runtime entry point returns
# `VmError`. A mirror enum, its converter or a runtime-level error wrapper
# means one failure has two types again; a second product file that builds a
# run's `NetworkFailure` ending means two classifiers can disagree on its text.
if grep -rnE 'enum RuntimeError|enum NetFailureKind|fn net_failure_kind' crates/*/src; then
  echo "FAIL: a second error type for a network failure is back" >&2
  exit 1
fi
ending_sites=""
for f in $(find crates/*/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  n=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -c 'TraceEvent::NetworkFailure(' || true)
  if [ "$n" -gt 0 ]; then ending_sites="$ending_sites $f"; fi
done
if [ "$(wc -w <<<"$ending_sites")" -gt 1 ]; then
  echo "FAIL: TraceEvent::NetworkFailure is built in more than one product file:$ending_sites" >&2
  exit 1
fi

echo "== one soak-op generator: draw feeds every schedule, no product crate links proptest =="
# `corpus::ops` turns random numbers into `SoakOp`s in one place, `draw`,
# behind both `OpMix::sample` (the chaos proptests) and `generate_churn` (the
# production day). A proptest strategy in its product lines means ops are
# drawn a second way again; a `proptest` entry under `[dependencies]` in any
# manifest but the shim's own links the test engine into a product crate.
if sed '/^#\[cfg(test)\]/,$d' crates/corpus/src/ops.rs |
    grep -nE 'Union::weighted|BoxedStrategy|prop_oneof|fn strategy'; then
  echo "FAIL: crates/corpus/src/ops.rs draws soak ops a second way" >&2
  exit 1
fi
for m in crates/*/Cargo.toml; do
  [ "$m" = crates/proptest-shim/Cargo.toml ] && continue
  if awk '/^\[/ { deps = ($0 == "[dependencies]") } deps && /^proptest[ =.]/' "$m" | grep .; then
    echo "FAIL: $m lists proptest under [dependencies]" >&2
    exit 1
  fi
done

echo "== one move: a pull is a migration from the live home, no Fetch / Forward =="
# An object moves one way: its owner sends an `Install` to the destination
# (`Cluster::migrate`), and a pull is that migration from the home the
# directory resolves. A second request pair, a tag or SOAP element for it, a
# counter of its serves or a separate pull body in product code means the
# caller-driven protocol, and its pull-through-a-stub defect, is back. The
# names are matched whole.
one_move='Request::(Fetch|Forward)\b|RequestKind::(Fetch|Forward)\b|\bR_(FETCH|FORWARD)\b|rafda:(fetch|forward)\b|\bRpc(Fetches|Forwards)\b|\bpull_inner\b'
for f in $(find crates/*/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$one_move"; then
    echo "FAIL: $f moves objects a second way (Fetch / Forward)" >&2
    exit 1
  fi
done

echo "== no forwarding stubs: a moved object is reached through the recorded moves =="
# A move vacates the old location: its export, export id and counters go,
# and a call addressed there is answered `unknown object`, whose caller is
# redirected once through the directory's recorded moves (`failover`). A
# stub table, a walk over exports and stubs, a closure asking a heap where
# an exported proxy points, or a helper reading it, in product code means a
# second answer to "where does this object live" is back.
no_stubs='\bforwards\b|\btrail_of\b|points_at|proxy_target'
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$no_stubs"; then
    echo "FAIL: $f keeps a forwarding stub" >&2
    exit 1
  fi
done

echo "== one identity per object: every location resolves in one lookup =="
# Every location an object has had maps to its identity (the location it
# was first exported under), every moved identity to its live home, and a
# node's imports are keyed by identity, so a node holds one handle per
# object. A vacated location has no version: absent means uncacheable. A
# version sentinel or a next-hop query in product code means the chain of
# moves is back.
one_identity='VERSION_TOMBSTONE|\brecorded_home\b'
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$one_identity"; then
    echo "FAIL: $f keeps a chain of moves or a version sentinel" >&2
    exit 1
  fi
done

echo "== one hasher: every table an exchange touches hashes with FastState =="
# The runtime's tables, the wire's signature dictionaries and the span log's
# interner are `rafda_telemetry::FastMap` / `FastSet`: an Fx-style hasher
# seeded once per process, so iteration order still differs between runs
# and the run-twice diff below still sees an order leak. The encode-buffer
# pool indexes its per-link slots by node id and hashes nothing. A std
# `HashMap` / `HashSet` in those product lines means SipHash is back on the
# exchange path; a second `Hasher` / `BuildHasher` impl means a second
# hasher to keep seeded and spread-tested.
one_hasher_files=$(find crates/runtime/src crates/wire/src -name '*.rs' ! -name tests.rs | sort)
for f in $one_hasher_files crates/telemetry/src/span.rs crates/net/src/bufpool.rs; do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\bHash(Map|Set)\b'; then
    echo "FAIL: $f names a std HashMap / HashSet — use FastMap / FastSet" >&2
    exit 1
  fi
done
hasher_files=""
for f in $(find crates/*/src -name '*.rs' ! -name tests.rs | sort); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -qE '\bimpl(<[^>]*>)? +([A-Za-z_]+::)*(Build)?Hasher +for\b'; then
    hasher_files="$hasher_files $f"
  fi
done
if [ "$(wc -w <<<"$hasher_files")" -gt 1 ]; then
  echo "FAIL: Hasher / BuildHasher is implemented in more than one product file:$hasher_files" >&2
  exit 1
fi

echo "== SOAP parses in place: no owned DOM, no per-character copy =="
# The SOAP decoder reads names, attribute values and entity-free text as
# slices of the frame. An element tree or a lossy per-scalar copy in its
# product lines means the owned parse is back.
if sed '/^#\[cfg(test)\]/,$d' crates/wire/src/soap.rs | grep -nE 'from_utf8_lossy|struct Element|enum Node'; then
  echo "FAIL: crates/wire/src/soap.rs builds an owned DOM again" >&2
  exit 1
fi

echo "== one SOAP envelope: the decoder reads only the text the encoder writes =="
# Both ends of a link run this encoder, so `encoder_layout` is the one
# envelope reader. A second, lenient reader that steps over header blocks and
# envelope children nobody writes is what these names were.
if sed '/^#\[cfg(test)\]/,$d' crates/wire/src/soap.rs | grep -nwE 'parse_envelope|loose_child|skip_rest|header_fields'; then
  echo "FAIL: crates/wire/src/soap.rs has a second envelope reader again" >&2
  exit 1
fi

echo "== host time stays out of deterministic artefacts =="
# The host-time profile is switched on by `Cluster::enable_host_profile` and
# read by `Cluster::host_profile`, and nothing else carries host time. The
# soak harness opens sections (its oracle step and touch_all) but never
# switches the profile on or reads it, and the experiments report does
# neither, so the run-twice diff below cannot see host time.
if grep -n 'host_profile' examples/experiments_report.rs crates/core/src/soak.rs; then
  echo "FAIL: a deterministic artefact's producer switches on or reads the host profile" >&2
  exit 1
fi

echo "== CHANGES.md cites the ledger: every entry from PR 26 on is <= 1536 bytes =="
# A/B tables live in BENCH_e2e.json. An entry says what changed, which bytes
# moved, which ledger lines hold its runs and what it claims.
if ! LC_ALL=C awk '
    function check() { if (pr >= 26 && bytes > 1536) { print "PR " pr ": " bytes " bytes"; bad = 1 } }
    /^- PR [0-9]+:/ { check(); pr = $3 + 0; bytes = -1 }
    { bytes += length($0) + 1 }
    END { check(); exit bad }' CHANGES.md; then
  echo "FAIL: a CHANGES.md entry is over 1536 bytes — cite the ledger instead" >&2
  exit 1
fi

echo "== one family generator: a side is a value, not a code path =="
# `A_O_*` and `A_C_*` are the same artefacts over a different member list:
# the planner declares a `Half` per side, the generator has one function per
# artefact kind, and the runtime asks `family.half(side)`. A per-side
# function pair, a `static_*`/`has_statics` field or an unwrap of a class-side
# id in product code means the treatment is being written out twice again.
per_side='gen_obj_|gen_cls_|static_getters|static_setters|has_statics|cls_local\.expect|cls_int\.expect|cls_factory\.expect'
for f in $(find crates/transform/src crates/runtime/src -name '*.rs' ! -name tests.rs); do
  # Product lines only: everything before the file's `#[cfg(test)]`.
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$per_side"; then
    echo "FAIL: $f writes the family treatment out per side" >&2
    exit 1
  fi
done
if [ "$(grep -rlE '\benum Side\b' crates | wc -l)" -ne 1 ]; then
  grep -rnE '\benum Side\b' crates >&2 || true
  echo "FAIL: Side is defined once, in rafda-classmodel" >&2
  exit 1
fi

echo "== a generated member's name is its signature's =="
# The planner mints every generated name once, when it interns the
# signature; a generated member takes its name and parameter list from
# `sig_info(sig)`, sharing the table's `Arc`s (the verifier checks it). A
# naming call or a `format!` in the generator's product lines means names
# are being built, and copied, per artefact again.
if sed '/#\[cfg(test)\]/,$d' crates/transform/src/generate.rs |
    grep -nE 'naming::(getter|setter|init_method)\(|format!'; then
  echo "FAIL: crates/transform/src/generate.rs builds a member name instead of taking its signature's" >&2
  exit 1
fi

echo "== one call path in the VM: a frame is a window on one stack =="
# Every call — three entry points, three `step` arms, <clinit> — is
# `Vm::invoke(owner, idx, stack, base)`: the arguments stay where the caller
# left them, `cur_depth` is the only depth counter, and a statics row is
# what "initialised" means. A helper that copies arguments out, a threaded
# `depth`, an init-state map or a second copy of the unresolved-method
# message means a call is being made a second way again.
vm_product=$(sed '/^#\[cfg(test)\]/,$d' crates/vm/src/vm.rs)
if grep -nE 'split_args|InitState|exec_frame|\bdepth: u32' <<<"$vm_product"; then
  echo "FAIL: crates/vm/src/vm.rs has a second call path, depth counter or init table" >&2
  exit 1
fi
# (Matched across lines: rustfmt splits the format! call.)
miss_sites=$(grep -Pzo '"\{\}::\{\}",\s*self\.universe\.class\([^)]*\)\.name,\s*self\.universe\.sig_info\(' \
    <<<"$vm_product" | tr -cd '\0' | wc -c)
if [ "$miss_sites" -ne 1 ]; then
  echo "FAIL: the class::signature UnresolvedMethod message is formatted at $miss_sites sites, not 1" >&2
  exit 1
fi
# No vector is built per call: the only `vec![` on the call path is the
# array `NewArray` allocates.
if sed -n '/^    fn \(on_entry_stack\|construct\|invoke\|step\)\b/,/^    }$/p' <<<"$vm_product" \
    | grep -nE 'Vec::with_capacity|vec!\[|split_off|\.to_vec\(\)' \
    | grep -v 'vec!\[Value::default_for(elem); len as usize\]'; then
  echo "FAIL: the VM's call path builds a vector per call" >&2
  exit 1
fi

echo "== link once: the VM resolves methods, field offsets, statics and hooks per class =="
# `Vm::new` works out each class's field base and zero-value template,
# ClassId-indexed statics and native hooks from its immutable universe, and
# method resolution goes through a direct-mapped cache whose miss asks the
# universe. Each universe query appears once in the VM's product lines, on
# the link or miss path, so the cache never becomes a second definition of
# dispatch; a hashed statics or hook table, or a runtime that lays out an
# instance itself, means per-call lookups are back.
if grep -rnE 'statics: HashMap|HashMap<\(ClassId, SigId\)' crates/vm/src; then
  echo "FAIL: crates/vm/src hashes statics or native hooks again" >&2
  exit 1
fi
vm_link=$(for f in $(find crates/vm/src -name '*.rs' ! -name tests.rs | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f"
done)
for query in 'resolve_virtual(' 'resolve_static(' 'field_base('; do
  n=$(grep -cF "$query" <<<"$vm_link" || true)
  if [ "$n" -ne 1 ]; then
    echo "FAIL: $query appears $n times in the VM's product lines, not once" >&2
    exit 1
  fi
done
if grep -n 'field_layout(' crates/runtime/src/cluster.rs; then
  echo "FAIL: cluster.rs lays out an instance itself — allocate through Vm::alloc_default" >&2
  exit 1
fi

echo "== one accessor recogniser: the dispatch cache marks getters and setters =="
# A generated property accessor is recognised in one place, `Vm::access_of`,
# when a dispatch-cache slot fills: the quickened `Invoke`, `getter_slot` and
# the runtime's "is this call a read?" (owner side and property cache) all
# read that mark. The getter or setter body matched anywhere else in product
# code, or a family's own getter list (`getter_sigs`), means a second answer
# — one that can disagree about an inherited getter — is back.
accessor_shape='(^|[^!])\[Insn::LoadLocal\(0\), Insn::(GetField|LoadLocal\(1\))'
accessor_sites=$(for f in $(find crates -path '*/src/*' -name '*.rs' ! -name tests.rs | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nE "$accessor_shape" || true; } | sed "s|^|$f:|"
done)
in_recogniser=$(sed -n '/^    fn access_of(/,/^    }$/p' crates/vm/src/vm.rs | grep -cE "$accessor_shape" || true)
if [ "$(grep -c . <<<"$accessor_sites")" -ne 2 ] || [ "$in_recogniser" -ne 2 ]; then
  echo "FAIL: the accessor bodies must be matched twice (getter, setter), both in Vm::access_of:" >&2
  echo "$accessor_sites" >&2
  exit 1
fi
if grep -rn 'getter_sigs' crates tests examples; then
  echo "FAIL: a family's getter list is back — ask Vm::getter_slot" >&2
  exit 1
fi

echo "== one harness per question: no bench targets, no criterion =="
# Tables live in experiments_report, bars in tier-1 tests, wall clock in
# benchmark/: a [[bench]] target or a criterion dependency in a workspace
# crate means a second timing harness is back.
if grep -nE '^\[\[bench\]\]|^criterion\b' Cargo.toml crates/*/Cargo.toml; then
  echo "FAIL: a workspace crate declares a bench target or depends on criterion" >&2
  exit 1
fi

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (all targets: tests and examples stay linted) =="
cargo clippy --all-targets -- -D warnings

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
# for quick local iteration (all five invariant checks stay enabled).
CHAOS_CASES=2 cargo test -q -p rafda --test chaos_soak

echo "CI OK"
