//! What the runtime reports about itself: the [`RuntimeStats`] view and
//! per-node summaries, the metric exports, time-series sampling, the
//! quiescent-point invariant checks and the introspection tables.

use crate::batch::flush_outqueues;
use crate::cluster::{is_local_impl, is_proxy, version_of, ClassRow, Cluster, Shared};
use crate::directory::VERSION_TOMBSTONE;
use crate::obs::{Met, RuntimeStats};
use crate::replicate::{mark_node_dirty, sync_dirty_replicas};
use rafda_net::NodeId;
use rafda_telemetry::{standard_monitors, MonitorEvent, SpanOutcome, Violation};
use rafda_vm::Value;
use rafda_wire::WireValue;
use std::fmt;

impl RuntimeStats {
    /// Total finished exchanges recorded in the attempts histogram.
    pub fn exchanges(&self) -> u64 {
        self.attempts.iter().sum()
    }

    /// Mean transmission attempts per finished exchange (1.0 when no
    /// exchange ever retried; 0.0 before any exchange finished).
    pub fn mean_attempts(&self) -> f64 {
        let exchanges = self.exchanges();
        if exchanges == 0 {
            return 0.0;
        }
        let total: u64 = self
            .attempts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        total as f64 / exchanges as f64
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rpc exchanges (mean {:.2} attempts), {} retries, \
             {} retransmits, {} dedup hits, {} net failures, {} faults, \
             property cache {} hits / {} misses / {} invalidations, \
             {} replica syncs / {} promotions / {} failovers, \
             {} batched ops / {} flushes, \
             {} shard placements / {} shard rebalances / {} replica reads",
            self.exchanges(),
            self.mean_attempts(),
            self.retries,
            self.retransmits,
            self.dedup_hits,
            self.net_failures,
            self.faults,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.replica_syncs,
            self.promotions,
            self.failovers,
            self.batched_ops,
            self.flushes,
            self.shard_placements,
            self.shard_rebalances,
            self.replica_reads
        )
    }
}

/// A per-node registry summary returned by [`Cluster::describe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// The node described.
    pub node: NodeId,
    /// Objects this node exports to others.
    pub exports: usize,
    /// Remote objects this node holds proxies for.
    pub imports: usize,
    /// Class singletons resolved on this node (local or proxied).
    pub singletons: Vec<String>,
    /// Live heap entries.
    pub live_objects: usize,
    /// Replies remembered for at-most-once duplicate suppression.
    pub cached_replies: usize,
    /// Whether the node is currently crashed in the fault plan.
    pub crashed: bool,
}

impl fmt::Display for NodeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}: {} exports, {} imports, {} live objects, {} cached replies, singletons: [{}]",
            self.node,
            if self.crashed { " (crashed)" } else { "" },
            self.exports,
            self.imports,
            self.live_objects,
            self.cached_replies,
            self.singletons.join(", ")
        )
    }
}

impl Cluster {
    /// Cluster-wide runtime statistics: the documented merge of every
    /// node's [`Cluster::node_stats`] breakdown via
    /// [`RuntimeStats::merge`]. Each counter is charged to exactly one
    /// node, so per-node sums always equal this view.
    pub fn stats(&self) -> RuntimeStats {
        merged_stats(&self.shared)
    }

    /// One node's runtime statistics breakdown. Counters are charged to
    /// the node that did the work: client-side counters (retries, cache
    /// hits, batched ops, the attempts histogram, wire encode counters) to
    /// the caller, server-side counters (`rpc_*`, faults, dedup hits,
    /// retransmits received, promotions) to the server.
    pub fn node_stats(&self, node: NodeId) -> RuntimeStats {
        self.shared.obs.borrow().snapshot(node.0 as usize)
    }

    /// The metrics registry rendered in Prometheus text exposition format.
    /// Deterministic: same seed, same bytes.
    pub fn prometheus_text(&self) -> String {
        self.shared.obs.borrow().reg.prometheus_text()
    }

    /// The metrics registry and the time-series rings as JSON lines (one
    /// object per line). Deterministic: same seed, same bytes.
    pub fn metrics_json(&self) -> String {
        let obs = self.shared.obs.borrow();
        let mut out = obs.reg.json_lines();
        out.push_str(&obs.recorder.json_lines());
        out
    }

    /// Switch on the four standing invariant monitors (stale-read,
    /// at-most-once, span-tree, replica-divergence). Monitors are pure
    /// consumers of runtime events: enabling them never perturbs the
    /// simulated clock or any observable behaviour.
    pub fn enable_monitors(&self) {
        self.shared.obs.borrow_mut().monitors = Some(standard_monitors());
    }

    /// Violations accumulated by the enabled monitors so far (empty when
    /// monitors are off).
    pub fn monitor_violations(&self) -> Vec<Violation> {
        let obs = self.shared.obs.borrow();
        match &obs.monitors {
            Some(monitors) => monitors
                .iter()
                .flat_map(|m| m.violations().iter().cloned())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Run the quiescent-point checks and return every violation known.
    ///
    /// Flushes pending batches and re-ships drifted replicas first (a
    /// quiescent point must not have deferred operations or unshipped
    /// replicated state in flight), then hands the span log to the
    /// monitors' structural check, probes every replica against its
    /// primary, and sweeps the affinity counters for entries referencing
    /// a moved or dead location (`stale-affinity`). The structural check
    /// visits only the spans recorded since the previous call (every span
    /// is closed at a quiescent point, so the span-tree monitor's verdicts
    /// on them are final), which keeps a check's cost independent of how
    /// long the run has been going. A clean run returns an empty vector;
    /// tests assert exactly that, and on failure each [`Violation`]
    /// identifies the offending span and exchange.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let _ = flush_outqueues(shared);
        // The marks' own sweep first, so that whatever the full sweep below
        // still finds to ship is a hole in the marking.
        sync_dirty_replicas(shared);
        // A quiescent check probes *every* replicated export, not just
        // recently-marked ones — mark everything, then let the sweep's
        // no-op settling clear the set again. This is the full-table
        // behavior the incremental sweep otherwise avoids, and it is what
        // keeps the invariant check independent of marking completeness.
        for n in 0..shared.vms.len() as u32 {
            mark_node_dirty(shared, n);
        }
        let unmarked = sync_dirty_replicas(shared);
        debug_assert_eq!(unmarked, 0, "drifted replicated state nobody marked");
        if shared.obs.borrow().monitors.is_none() {
            return Vec::new();
        }
        {
            // Borrow, don't clone: the log holds the whole run's spans and
            // the monitors read only its tail, so a copy would be the one
            // O(run) step left in a quiescent check. `spans` and `obs` are
            // separate cells, so the shared borrow is safe alongside the
            // obs borrow.
            let log = shared.spans.borrow();
            let mut obs = shared.obs.borrow_mut();
            if let Some(monitors) = obs.monitors.as_mut() {
                for m in monitors.iter_mut() {
                    m.check_span_log(&log);
                }
            }
        }
        for probe in collect_replica_probes(shared) {
            shared.obs.borrow_mut().emit(&probe);
        }
        let mut violations = self.monitor_violations();
        violations.extend(self.stale_affinity_violations());
        violations
    }

    /// Structural quiescent-point sweep over the affinity counters: every
    /// counter on a live node must reference an export that is still
    /// locally implemented there. A counter pointing at a forwarding
    /// proxy (the object moved) or a wiped registry (the node died) would
    /// feed the adaptation loops locations they must never act on —
    /// [`Directory::relocate`] maintains this invariant and the soak gate
    /// checks it at every phase boundary.
    pub(crate) fn stale_affinity_violations(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let mut out = Vec::new();
        let dir = shared.directory.borrow();
        for n in 0..shared.vms.len() as u32 {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                continue;
            }
            for oid in dir.affinity(n).into_iter().map(|a| a.oid) {
                // Whatever the id resolves to — a live export or the stub a
                // move left behind — must be the object itself, not a proxy.
                let what = match dir.lookup((n, oid)) {
                    Some(h) if is_local_impl(shared, n, h) => continue,
                    Some(_) => format!("references moved-away export {oid}"),
                    None => format!("for vanished export {oid}"),
                };
                out.push(Violation {
                    monitor: "stale-affinity",
                    message: format!("node {n}: affinity counter {what}"),
                    span_id: 0,
                    trace_id: 0,
                });
            }
        }
        out
    }

    /// Per-object incoming-call affinity recorded on `node`: `(export id,
    /// total calls)` pairs, sorted by export id. Entries are purged
    /// cluster-wide when their object migrates or is pulled, so the
    /// adaptive loop never acts on traffic observed at a previous home.
    pub fn affinity_snapshot(&self, node: NodeId) -> Vec<(u64, u64)> {
        let dir = self.shared.directory.borrow();
        dir.affinity(node.0)
            .into_iter()
            .map(|a| (a.oid, a.total))
            .collect()
    }

    /// Number of objects node `n` currently exports.
    pub fn export_count(&self, n: NodeId) -> usize {
        self.shared.directory.borrow().live_count(n.0)
    }

    /// Per-node registry summary (for diagnostics and examples).
    pub fn describe(&self) -> Vec<NodeSummary> {
        let nodes = self.shared.nodes.borrow();
        nodes
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let singletons = state
                    .singletons
                    .keys()
                    .map(|&base| self.shared.universe.class(base).name.clone())
                    .collect::<Vec<_>>();
                NodeSummary {
                    node: NodeId(i as u32),
                    exports: self.shared.directory.borrow().live_count(i as u32),
                    imports: state.imports.len(),
                    singletons,
                    live_objects: self.shared.vms[i].stats().heap.live as usize,
                    cached_replies: state.reply_cache.len(),
                    crashed: self
                        .shared
                        .net
                        .fault_plan(|f| f.is_crashed(NodeId(i as u32))),
                }
            })
            .collect()
    }
}

/// Bump one runtime counter, charged to `node`. The single write path for
/// every [`RuntimeStats`] counter.
pub(crate) fn bump(shared: &Shared, node: u32, met: Met) {
    shared.obs.borrow_mut().inc(node, met);
}

/// Whether the invariant monitors are enabled (events are only assembled
/// when someone is listening).
pub(crate) fn monitors_on(shared: &Shared) -> bool {
    shared.obs.borrow().monitors.is_some()
}

/// Record that `node` served a read of the object at `loc` without asking
/// its owner. A zero-duration `rpc.call` span tagged `how` keeps the read
/// visible in traces, and the monitors hear of it: the hit is a stale read
/// when the authoritative object has moved — the export now forwards, or a
/// recorded move re-homed it. A merely *missing* export (restart amnesia)
/// is legitimate: the version survived, the state did not move.
pub(crate) fn record_local_read(
    shared: &Shared,
    node: NodeId,
    loc: (u32, u64),
    row: &ClassRow,
    method: &str,
    how: &'static str,
) {
    let now = shared.net.now().as_ns();
    let ctx = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.call", node.0, now);
        spans.set_attr(h, "class", row.name.as_str());
        spans.set_attr(h, "method", method);
        spans.set_attr(h, "protocol", row.protocol.as_str());
        spans.set_attr(h, "from", node.0);
        spans.set_attr(h, "to", loc.0);
        spans.set_attr(h, how, true);
        spans.end_span(h, now, SpanOutcome::Ok);
        spans.context_of(h)
    };
    if !monitors_on(shared) {
        return;
    }
    let (export, moved) = {
        let dir = shared.directory.borrow();
        (dir.lookup(loc), dir.recorded_home(loc).is_some())
    };
    let forwards = export.is_some_and(|h| is_proxy(shared, loc.0, h));
    shared.obs.borrow_mut().emit(&MonitorEvent::CacheHit {
        node: node.0,
        owner: loc.0,
        oid: loc.1,
        stale_location: forwards || moved,
        span_id: ctx.span_id,
        trace_id: ctx.trace_id,
    });
}

/// The cluster-wide view: every node's breakdown folded with
/// [`RuntimeStats::merge`].
pub(crate) fn merged_stats(shared: &Shared) -> RuntimeStats {
    let obs = shared.obs.borrow();
    let mut total = RuntimeStats::default();
    for node in 0..shared.vms.len() {
        total.merge(&obs.snapshot(node));
    }
    total
}

/// Sample the time-series rings if the simulated clock has crossed a
/// sampling grid point. Called at the head of every top-level exchange,
/// *before* the outcall queues flush, so queue-depth readings see the
/// pending work. Pure read of runtime state — never advances the clock or
/// mutates anything the application can observe.
pub(crate) fn maybe_sample(shared: &Shared) {
    let now = shared.net.now().as_ns();
    let Some(stamp) = shared.obs.borrow().recorder.due(now) else {
        return;
    };
    let (depth, inflight) = {
        let queues = shared.outqueues.borrow();
        let ops: usize = queues.values().map(|p| p.ops.len()).sum();
        (queues.len() as f64, ops as f64)
    };
    let (lag, balance, dirty_depth) = {
        let dir = shared.directory.borrow();
        (
            dir.replica_lag() as f64,
            dir.shard_balance(),
            dir.dirty_depth() as f64,
        )
    };
    let mut obs = shared.obs.borrow_mut();
    let hits = obs.sum(Met::CacheHits);
    let misses = obs.sum(Met::CacheMisses);
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    obs.recorder.advance(stamp);
    let (q, i, c, r, s, d) = (
        obs.ts_queue_depth,
        obs.ts_inflight_ops,
        obs.ts_cache_hit_rate,
        obs.ts_replica_lag,
        obs.ts_shard_balance,
        obs.ts_dirty_set_depth,
    );
    obs.recorder.record(q, stamp, depth);
    obs.recorder.record(i, stamp, inflight);
    obs.recorder.record(c, stamp, hit_rate);
    obs.recorder.record(r, stamp, lag);
    obs.recorder.record(s, stamp, balance);
    obs.recorder.record(d, stamp, dirty_depth);
}

/// Compare every backup's stored replica against its primary's live state
/// at a quiescent point, yielding one [`MonitorEvent::ReplicaProbe`] per
/// comparable pair. Read-only: the probe never marshals (marshalling a
/// reference would create exports) — reference-typed fields are skipped
/// and only primitive state is deep-compared.
fn collect_replica_probes(shared: &Shared) -> Vec<MonitorEvent> {
    let mut probes = Vec::new();
    let nodes = shared.nodes.borrow();
    for (backup, state) in nodes.iter().enumerate() {
        let mut keys: Vec<(u32, u64)> = state.replica_store.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (backup_version, class_name, fields) = &state.replica_store[&key];
            let (owner, oid) = key;
            let owner_version = version_of(shared, owner, oid);
            if owner_version == VERSION_TOMBSTONE {
                // The object migrated away; the replica describes a dead
                // location and will be superseded by the new home's syncs.
                continue;
            }
            let Some(h) = shared.directory.borrow().live_export((owner, oid)) else {
                // Owner restarted with amnesia; nothing to compare until
                // the next sync re-seeds the backup.
                continue;
            };
            let vm = &shared.vms[owner as usize];
            let Some((class, values)) = vm.read_object(h) else {
                continue;
            };
            // The export forwards (or is untransformed): the primary's
            // authoritative copy lives elsewhere now.
            if !is_local_impl(shared, owner, h) {
                continue;
            }
            let state_matches = if *backup_version == owner_version {
                *class_name == shared.universe.class(class).name
                    && wire_state_matches(&values, fields)
            } else {
                // Different versions are never comparable — the version
                // relation itself is judged by the monitor.
                true
            };
            probes.push(MonitorEvent::ReplicaProbe {
                owner,
                oid,
                backup: backup as u32,
                owner_version,
                backup_version: *backup_version,
                state_matches,
            });
        }
    }
    probes
}

/// The policy table as served by `rafda.Introspection`: one line per
/// substitutable class, sorted by name, with every policy decision the
/// runtime resolved for it at deployment.
pub(crate) fn policy_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for row in &shared.rows {
        let shard = row
            .shard_spec
            .as_ref()
            .map(|s| format!("{} mod {}", s.key_getter, s.modulo))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{}: protocol={} statics=node{} cacheable={} replicas={} batched={} shard={} replica_reads={}",
            row.name,
            row.protocol,
            row.statics_node.0,
            row.cacheable,
            row.replicas,
            row.batched,
            shard,
            row.reads_from_replicas
        );
    }
    out
}

/// The placement map as served by `rafda.Introspection`: each node's
/// exports (sorted by id) with the implementation class currently behind
/// them — forwarding proxies included, so a migration's trail is visible.
pub(crate) fn placement_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let dir = shared.directory.borrow();
    for i in 0..shared.vms.len() {
        let entries: Vec<String> = dir
            .trail_of(i as u32)
            .into_iter()
            .map(|(oid, h)| {
                let class = shared.vms[i]
                    .class_of(h)
                    .map(|c| shared.universe.class(c).name.clone())
                    .unwrap_or_else(|| "?".to_owned());
                format!("{oid}:{class}")
            })
            .collect();
        let _ = writeln!(out, "node{i}: [{}]", entries.join(", "));
    }
    out
}

/// The failover-homes map as served by `rafda.Introspection`: recorded
/// promotions `(old home) -> (new home)`, sorted by old location.
pub(crate) fn homes_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ((on, oo), (nn, no)) in shared.directory.borrow().recorded_homes() {
        let _ = writeln!(out, "node{on}#{oo} -> node{nn}#{no}");
    }
    out
}

/// Field-wise comparison of live values against marshalled replica state.
/// Primitives compare exactly (floats bit-wise); reference-typed fields
/// are not comparable without marshalling side effects and pass.
fn wire_state_matches(values: &[Value], wire: &[WireValue]) -> bool {
    values.len() == wire.len()
        && values.iter().zip(wire).all(|(v, w)| match (v, w) {
            (Value::Bool(a), WireValue::Bool(b)) => a == b,
            (Value::Int(a), WireValue::Int(b)) => a == b,
            (Value::Long(a), WireValue::Long(b)) => a == b,
            (Value::Float(a), WireValue::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Double(a), WireValue::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), WireValue::Str(b)) => a.as_ref() == b.as_str(),
            (Value::Null, WireValue::Null) => true,
            _ => true,
        })
}
