//! What the runtime reports about itself: the [`RuntimeStats`] view and
//! per-node summaries, the metric exports, time-series sampling and the
//! introspection tables.

use crate::cluster::{ClassRow, Cluster, Shared};
use crate::obs::{Met, RuntimeStats};
use crate::profile::Section;
use rafda_net::NodeId;
use rafda_telemetry::SpanOutcome;
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
                    .map(|&base| String::from(&*self.shared.universe.class(base).name))
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
    let _s = shared.prof.section(Section::MetricWrite);
    shared.obs.borrow_mut().inc(node, met);
}

/// Record that `node` served a read of the object at `loc` without asking
/// its owner. A zero-duration `rpc.call` span tagged `how` keeps the read
/// visible in traces, and the watchdog hears of it: the hit is a stale read
/// when a recorded move re-homed the authoritative object. A merely
/// *missing* export (restart amnesia) is legitimate: the version survived,
/// the state did not move.
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
        let _s = shared.prof.section(Section::SpanRecord);
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.call", node.0, now);
        spans.set_attr(h, "class", row.name.as_str());
        spans.set_attr(h, "method", method);
        spans.set_attr(h, "protocol", row.rule.protocol.as_str());
        spans.set_attr(h, "from", node.0);
        spans.set_attr(h, "to", loc.0);
        spans.set_attr(h, how, true);
        spans.end_span(h, now, SpanOutcome::Ok);
        spans.context_of(h)
    };
    let mut obs = shared.obs.borrow_mut();
    let Some(dog) = obs.watchdog.as_mut() else {
        return;
    };
    let _s = shared.prof.section(Section::WatchdogCall);
    // A live export is its own home: only a vacated location can have moved.
    let dir = shared.directory.borrow();
    let moved = dir.live_export(loc).is_none() && dir.resolve(loc) != loc;
    dog.cache_hit(node.0, loc, moved, ctx);
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
    let _s = shared.prof.section(Section::Sample);
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

/// The policy table as served by `rafda.Introspection`: one line per
/// substitutable class, sorted by name, with every policy decision the
/// runtime resolved for it at deployment.
pub(crate) fn policy_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for row in &shared.rows {
        let rule = &row.rule;
        let shard = rule
            .shard
            .as_ref()
            .map(|s| format!("{} mod {}", s.key_getter, s.modulo))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{}: protocol={} statics=node{} cacheable={} replicas={} batched={} shard={} replica_reads={}",
            row.name,
            rule.protocol,
            rule.statics.0,
            rule.cache,
            rule.replicas,
            rule.batch,
            shard,
            rule.replica_reads
        );
    }
    out
}

/// The placement map as served by `rafda.Introspection`: each node's
/// live exports (sorted by id) with the implementation class behind them;
/// where moved objects went is [`homes_table`]'s business.
pub(crate) fn placement_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let dir = shared.directory.borrow();
    for i in 0..shared.vms.len() {
        let entries: Vec<String> = dir
            .exports_of(i as u32)
            .into_iter()
            .map(|(oid, h)| {
                let class = shared.vms[i]
                    .class_of(h)
                    .map(|c| String::from(&*shared.universe.class(c).name))
                    .unwrap_or_else(|| "?".to_owned());
                format!("{oid}:{class}")
            })
            .collect();
        let _ = writeln!(out, "node{i}: [{}]", entries.join(", "));
    }
    out
}

/// The homes map as served by `rafda.Introspection`: one line per moved
/// object, `identity -> live home`, sorted by identity.
pub(crate) fn homes_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ((on, oo), (nn, no)) in shared.directory.borrow().recorded_homes() {
        let _ = writeln!(out, "node{on}#{oo} -> node{nn}#{no}");
    }
    out
}
