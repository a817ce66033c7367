//! The distributed runtime proper: nodes, registries, factory & proxy
//! hooks, RPC dispatch, migration and adaptation.

use crate::directory::{Directory, Drift, Why, VERSION_TOMBSTONE};
use crate::error::RuntimeError;
use crate::introspect;
use crate::marshal;
pub use crate::obs::RuntimeStats;
use crate::obs::{Met, Obs};
use rafda_classmodel::{ClassId, ClassUniverse, SigId, Ty};
use rafda_net::{BufPool, NetError, Network, NodeId, SimTime};
use rafda_policy::{AffinityConfig, DistributionPolicy};
use rafda_telemetry::{
    standard_monitors, MonitorEvent, SpanLog, SpanOutcome, TraceContext, Violation,
};
use rafda_transform::TransformPlan;
use rafda_vm::{Handle, NetFailure, NetFailureKind, Trace, TraceEvent, Value, Vm, VmError};
use rafda_wire::{
    FrameHeader, Protocol, ProtocolKind, Reply, Request, RequestKind, SigTable, WireValue,
};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::{Rc, Weak};
use std::sync::Arc;

/// Which half of an artefact family a generated class belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Instance members (`_O_` family).
    Obj,
    /// Static members (`_C_` family).
    Cls,
}

/// What the runtime knows about a generated implementation class.
#[derive(Debug, Clone)]
pub(crate) struct GenInfo {
    pub base: ClassId,
    pub side: Side,
    /// `Some(protocol)` for proxy classes, `None` for `*_Local`.
    pub proto: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SingletonState {
    InProgress(Handle),
    Ready(Handle),
}

impl SingletonState {
    pub(crate) fn handle(self) -> Handle {
        match self {
            SingletonState::InProgress(h) | SingletonState::Ready(h) => h,
        }
    }
}

/// How many served replies each node remembers for duplicate suppression.
/// Bounded FIFO: old entries are evicted once the cache is full, which is
/// safe because a client only retransmits while its call is still open —
/// ids far in the past can no longer be retried.
const REPLY_CACHE_CAP: usize = 1024;

/// How many property values each node's proxy-side cache holds. Bounded
/// FIFO like the reply cache; a modest cap keeps the per-node footprint
/// proportional to its working set of remote reads.
const PROP_CACHE_CAP: usize = 1024;

/// Per-node volatile caches. Where objects live is the
/// [`Directory`]'s business; what is kept here is what a node remembers
/// for itself, and a restart wipes all of it.
#[derive(Debug, Default)]
pub(crate) struct NodeState {
    /// Proxies this node holds for remote objects, by the location they
    /// were materialised for.
    pub(crate) imports: HashMap<(u32, u64), Handle>,
    pub(crate) singletons: HashMap<ClassId, SingletonState>,
    /// Host-pinned GC roots (references held outside the simulation, e.g.
    /// by embedding Rust code).
    pub(crate) pins: std::collections::HashSet<Handle>,
    /// At-most-once reply cache: replies already sent, keyed by
    /// `(caller node, message id)`, each paired with the addressed export's
    /// property version **at serve time**. A retransmitted request is
    /// answered from here instead of re-running the method, and it replays
    /// the stored version too: the reply describes the state the method ran
    /// against, and recomputing the version at retransmit time would let a
    /// dedup hit validate a cache entry against state the original
    /// execution never saw.
    pub(crate) reply_cache: HashMap<(u32, u64), (Reply, u64)>,
    /// Insertion order of `reply_cache` keys, for FIFO eviction.
    pub(crate) reply_cache_order: VecDeque<(u32, u64)>,
    /// Proxy-side property cache: values returned by remote `get_f` calls,
    /// keyed `(owner node, export id, getter sig)` and tagged with the
    /// owner's property version at reply time. An entry is served only
    /// while its tag still equals the owner's current version. Values are
    /// kept in wire form so each hit re-materialises exactly like a fresh
    /// reply (arrays copy by value, references resolve via the import
    /// cache — and hold no GC-visible handles).
    pub(crate) prop_cache: HashMap<(u32, u64, SigId), (u64, WireValue)>,
    /// Insertion order of `prop_cache` keys, for FIFO eviction.
    pub(crate) prop_cache_order: VecDeque<(u32, u64, SigId)>,
    /// Backup copies of replicated exports owned by *other* nodes, keyed by
    /// the primary's location `(owner node, export id)`. The value is the
    /// owner's property version plus the object's class name and marshalled
    /// fields, exactly as shipped by the last [`Request::ReplicaSync`]. The
    /// state stays in wire form until a [`Request::Promote`] materialises
    /// it — a backup that never promotes costs no heap objects.
    pub(crate) replica_store: HashMap<(u32, u64), (u64, String, Vec<WireValue>)>,
}

/// Client-side fault tolerance for one request/reply exchange.
///
/// Only *transient* failures (dropped messages) are retried; partitions,
/// crashes and bad addresses fail fast — retrying cannot help until an
/// operator-level event heals them. Each retry charges `backoff_ns` to the
/// **simulated** clock, so runs stay deterministic per seed and the time
/// cost of fault tolerance is visible in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per exchange (≥ 1; 1 disables retry).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Exponential backoff multiplier applied per further retry.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ns: 200_000,
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// No fault tolerance: a single attempt, any failure surfaces at once.
    /// (The pre-retry behaviour, useful for failure-injection tests.)
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ns: 0,
            multiplier: 1,
        }
    }

    /// Backoff charged before retry number `retry` (1-based): exponential
    /// in the number of failures seen so far, saturating instead of
    /// overflowing.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1);
        (self.multiplier as u64)
            .saturating_pow(exp)
            .saturating_mul(self.base_backoff_ns)
    }
}

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

/// A reference to an object exported by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    /// The exporting node.
    pub node: NodeId,
    /// The export id on that node.
    pub oid: u64,
}

/// One boundary change performed by [`Cluster::adapt`] or
/// [`Cluster::migrate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The original class of the migrated object.
    pub class: String,
    /// The node the object left.
    pub from: NodeId,
    /// The node it moved to.
    pub to: NodeId,
    /// The object's new export on the destination.
    pub target: RemoteRef,
}

impl fmt::Display for MigrationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrated {} from {} to {} (now {}#{})",
            self.class, self.from, self.to, self.target.node, self.target.oid
        )
    }
}

/// Stable 64-bit hash of a shard key value (FNV-1a over the value's
/// canonical bytes). Int/Long keys hash their two's-complement bits, so a
/// key getter returning either width places identically.
pub(crate) fn shard_hash(key: &Value) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    match key {
        Value::Int(i) => eat(&(*i as i64).to_le_bytes()),
        Value::Long(l) => eat(&l.to_le_bytes()),
        Value::Bool(b) => eat(&[*b as u8]),
        Value::Str(s) => eat(s.as_bytes()),
        _ => eat(&[0]),
    }
    h
}

/// Maximum nested (re-entrant) RPC depth across the whole cluster — a
/// distributed call chain deeper than this is almost certainly unbounded
/// mutual recursion, and each level consumes host stack.
const MAX_RPC_DEPTH: u32 = 64;

pub(crate) struct Shared {
    pub universe: Arc<ClassUniverse>,
    pub plan: TransformPlan,
    pub net: Network,
    pub vms: Vec<Vm>,
    pub protocols: HashMap<String, Box<dyn Protocol>>,
    pub policy: Box<dyn DistributionPolicy>,
    pub nodes: RefCell<Vec<NodeState>>,
    pub trace: RefCell<Trace>,
    /// The observability plane: metrics registry (the single write path
    /// for every runtime counter, labeled per node), time-series recorder,
    /// and the optional invariant monitors. Never borrowed across a
    /// nested exchange.
    pub obs: RefCell<Obs>,
    pub gen_info: HashMap<ClassId, GenInfo>,
    pub rpc_depth: Cell<u32>,
    pub retry: Cell<RetryPolicy>,
    /// Cluster-wide message id counter: every request/reply exchange gets a
    /// fresh id, reused verbatim by its retransmissions (the dedup key).
    pub next_msg_id: Cell<u64>,
    /// Causal span log: every RPC exchange, transmission attempt, server
    /// dispatch, migration and boundary pull, charged to the simulated
    /// clock. Never borrowed across a nested exchange (RPCs re-enter).
    pub spans: RefCell<SpanLog>,
    /// Where every object lives and at what version: all location state,
    /// behind transitions. Borrowed for one method call at a time.
    pub directory: RefCell<Directory>,
    /// Whether the policy shards any transformed class — computed once at
    /// deployment, like [`Shared::any_replication`], so unsharded
    /// workloads pay one boolean test.
    pub any_sharding: bool,
    /// Span id of the most recent exchange that ended in a network failure.
    /// A failover span chains to it via `retry_of`, linking the re-homed
    /// call to the exchange against the crashed owner it retries.
    pub last_exchange_span: Cell<u64>,
    /// Per-`(caller node, owner node)` outcall queues of deferred
    /// operations (batched remote invocation). Drained by
    /// [`flush_outqueues`] at every synchronization point; permanently
    /// empty unless the policy batches some class.
    pub outqueues: RefCell<HashMap<(u32, u32), PendingBatch>>,
    /// Re-entrancy guard for [`flush_outqueues`]: the flush itself performs
    /// top-level exchanges, which are synchronization points of their own.
    pub in_flush: Cell<bool>,
    /// Whether the policy replicates any transformed class — computed once
    /// at deployment so [`sync_dirty_replicas`] is a single boolean test
    /// for the (common) workloads with no replication.
    pub any_replication: bool,
    /// Re-entrancy guard for [`sync_dirty_replicas`]: the sweep's shipments
    /// are exchanges, and every exchange is a synchronization point.
    pub in_replica_sweep: Cell<bool>,
    /// Per-node application-frame nesting counters. A frame is open while
    /// *non-getter* application code runs locally on that node (a served
    /// `Call`, or a top-level entry like [`Cluster::call_method`]); any
    /// synchronization point reached while a node's frame is open
    /// conservatively marks that node's replicated exports dirty, because
    /// the in-progress app code may have mutated local state bare — the
    /// runtime never sees plain method calls on pulled, promoted or
    /// installed-in-place objects. Getter-only traffic opens no frames, so
    /// read-only phases sweep nothing.
    pub app_frames: RefCell<Vec<u32>>,
    /// Reusable encode buffers, keyed by directed link. Checked out for
    /// the lifetime of one frame (request frames live across every
    /// retransmission of their exchange) and returned cleared. Never
    /// borrowed across a serve — RPCs re-enter.
    pub wire_bufs: RefCell<BufPool>,
    /// Per-directed-link signature interning tables, keyed `(from node,
    /// to node)`. The simulation runs both ends in one process, so a
    /// single table per link serves as the encoder's and the decoder's
    /// state: in-order frame processing plus idempotent interning keeps
    /// the two views identical without a handshake. Never borrowed across
    /// a serve.
    pub sig_tables: RefCell<HashMap<(u32, u32), SigTable>>,
}

/// A simulated cluster running one transformed application.
///
/// Cheap to clone; all clones share the same state.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) shared: Rc<Shared>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.shared.vms.len())
            .field("families", &self.shared.plan.families.len())
            .finish()
    }
}

impl Cluster {
    /// Deploy a transformed universe over `nodes` simulated nodes.
    ///
    /// Protocol codecs are instantiated for every protocol the plan
    /// generated proxies for.
    pub fn new(
        mut universe: ClassUniverse,
        plan: TransformPlan,
        nodes: u32,
        seed: u64,
        policy: Box<dyn DistributionPolicy>,
    ) -> Self {
        // If the application registered `rafda.Introspection`, flip its
        // generated `_O_Local` methods to native *before* the universe is
        // frozen — deployment wires the hooks below.
        introspect::prepare(&mut universe, &plan);
        let universe = Arc::new(universe);
        let net = Network::new(nodes, seed);
        let vms: Vec<Vm> = (0..nodes).map(|_| Vm::new(universe.clone())).collect();
        let mut protocols: HashMap<String, Box<dyn Protocol>> = HashMap::new();
        for p in &plan.protocols {
            if let Some(kind) = ProtocolKind::from_name(p) {
                protocols.insert(p.clone(), kind.codec());
            }
        }
        let mut gen_info = HashMap::new();
        for family in plan.families.values() {
            gen_info.insert(
                family.obj_local,
                GenInfo {
                    base: family.base,
                    side: Side::Obj,
                    proto: None,
                },
            );
            for (p, c) in &family.obj_proxies {
                gen_info.insert(
                    *c,
                    GenInfo {
                        base: family.base,
                        side: Side::Obj,
                        proto: Some(p.clone()),
                    },
                );
            }
            if let Some(cl) = family.cls_local {
                gen_info.insert(
                    cl,
                    GenInfo {
                        base: family.base,
                        side: Side::Cls,
                        proto: None,
                    },
                );
            }
            for (p, c) in &family.cls_proxies {
                gen_info.insert(
                    *c,
                    GenInfo {
                        base: family.base,
                        side: Side::Cls,
                        proto: Some(p.clone()),
                    },
                );
            }
        }
        let any_replication = plan
            .families
            .values()
            .any(|f| policy.replicas(&universe.class(f.base).name) > 0);
        let any_sharding = plan
            .families
            .values()
            .any(|f| policy.shard_spec(&universe.class(f.base).name).is_some());
        let shared = Rc::new(Shared {
            universe,
            plan,
            net,
            vms,
            protocols,
            policy,
            nodes: RefCell::new((0..nodes).map(|_| NodeState::default()).collect()),
            trace: RefCell::new(Trace::new()),
            obs: RefCell::new(Obs::new(nodes)),
            gen_info,
            rpc_depth: Cell::new(0),
            retry: Cell::new(RetryPolicy::default()),
            next_msg_id: Cell::new(1),
            spans: RefCell::new(SpanLog::new()),
            directory: RefCell::new(Directory::new(nodes)),
            any_sharding,
            last_exchange_span: Cell::new(0),
            outqueues: RefCell::new(HashMap::new()),
            in_flush: Cell::new(false),
            any_replication,
            in_replica_sweep: Cell::new(false),
            app_frames: RefCell::new(vec![0; nodes as usize]),
            wire_bufs: RefCell::new(BufPool::new()),
            sig_tables: RefCell::new(HashMap::new()),
        });
        let cluster = Cluster { shared };
        cluster.install_hooks();
        cluster
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// The shared class universe.
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.shared.universe
    }

    /// The transformation plan this cluster was deployed from.
    pub fn plan(&self) -> &TransformPlan {
        &self.shared.plan
    }

    /// The simulated network (clock, traffic stats, fault injection).
    pub fn network(&self) -> Network {
        self.shared.net.clone()
    }

    /// The VM of one node.
    pub fn vm(&self, node: NodeId) -> Vm {
        self.shared.vms[node.0 as usize].clone()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.shared.vms.len() as u32
    }

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
        node_stats_of(&self.shared, node.0)
    }

    /// The metrics registry rendered in Prometheus text exposition format,
    /// with the wire-layer per-node counters appended. Deterministic: same
    /// seed, same bytes.
    pub fn prometheus_text(&self) -> String {
        prometheus_text_of(&self.shared)
    }

    /// The metrics registry, wire-layer counters and time-series rings as
    /// JSON lines (one object per line). Deterministic: same seed, same
    /// bytes.
    pub fn metrics_json(&self) -> String {
        metrics_json_of(&self.shared)
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
    /// a moved or dead location (`stale-affinity`). A clean run returns
    /// an empty vector; tests assert exactly that, and on failure each
    /// [`Violation`] identifies the offending span and exchange.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let _ = flush_outqueues(shared);
        // A quiescent check probes *every* replicated export, not just
        // recently-marked ones — mark everything, then let the sweep's
        // no-op settling clear the set again. This is the full-table
        // behavior the incremental sweep otherwise avoids, and it is what
        // keeps the invariant check independent of marking completeness.
        for n in 0..shared.vms.len() as u32 {
            mark_node_dirty(shared, n);
        }
        sync_dirty_replicas(shared);
        if shared.obs.borrow().monitors.is_none() {
            return Vec::new();
        }
        {
            // Borrow, don't clone: the log holds the whole run's spans, and
            // copying it at every quiescent point costs linear time and a
            // 2x memory spike on deep soaks. `spans` and `obs` are separate
            // cells, so the shared borrow is safe alongside the obs borrow.
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
                let fail = |message: String| Violation {
                    monitor: "stale-affinity",
                    message,
                    span_id: 0,
                    trace_id: 0,
                };
                match dir.live_export((n, oid)) {
                    // A demoted entry (the object moved away) is a
                    // forwarding stub now; report it exactly as the
                    // forwarding proxy it is, not as a vanished export.
                    None if dir.lookup((n, oid)).is_some() => out.push(fail(format!(
                        "node {n}: affinity counter references \
                         moved-away export {oid}"
                    ))),
                    None => out.push(fail(format!(
                        "node {n}: affinity counter for vanished export {oid}"
                    ))),
                    Some(h) => {
                        if !is_local_impl(shared, n, h) {
                            out.push(fail(format!(
                                "node {n}: affinity counter references \
                                 moved-away export {oid}"
                            )));
                        }
                    }
                }
            }
        }
        out
    }

    /// Test-only fault injection: the next relocation silently skips its
    /// tombstone, simulating a runtime that forgot to mark a moved-away
    /// export uncacheable. Exists so the stale-read
    /// monitor's canary test can prove the watchdog catches the bug it was
    /// built for; never use outside tests.
    #[doc(hidden)]
    pub fn debug_skip_next_tombstone(&self) {
        self.shared.directory.borrow_mut().skip_next_tombstone();
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

    /// Snapshot of the causal span log. Deterministic per seed: same
    /// universe, policy and fault plan produce a byte-identical log.
    pub fn span_log(&self) -> SpanLog {
        self.shared.spans.borrow().clone()
    }

    /// Write the span log in Chrome trace-event JSON, loadable by
    /// `chrome://tracing` and Perfetto (nodes become processes, traces
    /// become tracks).
    ///
    /// # Errors
    /// Any I/O error from writing `path`.
    pub fn export_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.shared.spans.borrow().chrome_trace_json())
    }

    /// Deterministic text report over the span log: top slowest spans,
    /// hottest methods, per-link latency percentiles.
    pub fn telemetry_report(&self, top: usize) -> String {
        self.shared.spans.borrow().report(top)
    }

    /// The fault-tolerance policy applied to every RPC exchange.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.shared.retry.get()
    }

    /// Replace the fault-tolerance policy (applies to subsequent RPCs).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.shared.retry.set(policy);
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

    // ------------------------------------------------------------------
    // Hook installation
    // ------------------------------------------------------------------

    fn install_hooks(&self) {
        let families: Vec<ClassId> = self.shared.plan.families.keys().copied().collect();
        for node_index in 0..self.shared.vms.len() {
            let node = NodeId(node_index as u32);
            let vm = &self.shared.vms[node_index];
            for &base in &families {
                let family = self.shared.plan.families[&base].clone();
                // make()
                let weak = Rc::downgrade(&self.shared);
                vm.register_native(family.obj_factory, family.make_sig, move |_vm, _args| {
                    let shared = upgrade(&weak)?;
                    make_value(&shared, node, base)
                });
                // discover()
                if let (Some(cls_factory), Some(discover_sig)) =
                    (family.cls_factory, family.discover_sig)
                {
                    let weak = Rc::downgrade(&self.shared);
                    vm.register_native(cls_factory, discover_sig, move |_vm, _args| {
                        let shared = upgrade(&weak)?;
                        discover_value(&shared, node, base)
                    });
                }
                // Proxy methods.
                for (_proto, proxy) in family.obj_proxies.iter().chain(family.cls_proxies.iter()) {
                    self.install_proxy_hooks(node, *proxy);
                }
            }
        }
        self.install_introspection_hooks();
    }

    /// Wire the native halves of `rafda.Introspection`'s `refresh` and
    /// `node_stats` methods on every node (no-op when the class was never
    /// declared). The getters stay ordinary generated accessors — remote
    /// reads of the snapshot fields travel the normal RMI path and are
    /// counted like any other property read.
    fn install_introspection_hooks(&self) {
        let Some(base) = self
            .shared
            .universe
            .by_name(introspect::INTROSPECTION_CLASS)
        else {
            return;
        };
        let Some(family) = self.shared.plan.family(base) else {
            return;
        };
        let local = family.obj_local;
        let sig_of = |name: &str| {
            self.shared
                .universe
                .class(local)
                .methods
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.sig)
        };
        let (refresh_sig, node_stats_sig) = (sig_of("refresh"), sig_of("node_stats"));
        for node_index in 0..self.shared.vms.len() {
            let node = NodeId(node_index as u32);
            let vm = &self.shared.vms[node_index];
            if let Some(sig) = refresh_sig {
                let weak = Rc::downgrade(&self.shared);
                vm.register_native(local, sig, move |_vm, args| {
                    let shared = upgrade(&weak)?;
                    introspect::refresh_native(&shared, node, args)
                });
            }
            if let Some(sig) = node_stats_sig {
                let weak = Rc::downgrade(&self.shared);
                vm.register_native(local, sig, move |_vm, args| {
                    let shared = upgrade(&weak)?;
                    introspect::node_stats_native(&shared, args)
                });
            }
        }
    }

    fn install_proxy_hooks(&self, node: NodeId, proxy: ClassId) {
        let vm = &self.shared.vms[node.0 as usize];
        let methods: Vec<(String, SigId)> = self
            .shared
            .universe
            .class(proxy)
            .methods
            .iter()
            .filter(|m| m.is_native)
            .map(|m| (m.name.clone(), m.sig))
            .collect();
        for (name, sig) in methods {
            let weak = Rc::downgrade(&self.shared);
            vm.register_native(proxy, sig, move |_vm, args| {
                let shared = upgrade(&weak)?;
                proxy_call(&shared, node, &name, sig, args)
            });
        }
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Call a static method of the original program on `node`. For a
    /// substitutable class this goes through `discover()` and the singleton
    /// (possibly remotely); otherwise it is a plain static call.
    ///
    /// # Errors
    /// Any [`RuntimeError`], including in-model exceptions and network
    /// failures.
    pub fn call_static(
        &self,
        node: NodeId,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let shared = &self.shared;
        let id = shared
            .universe
            .by_name(class)
            .ok_or_else(|| RuntimeError::Bad(format!("unknown class {class}")))?;
        let vm = &shared.vms[node.0 as usize];
        if shared.plan.is_substitutable(id) {
            let singleton = discover_value(shared, node, id)?;
            // The singleton may be local (statics owner, or an adopted
            // promotion): a non-getter call on it is bare app code.
            let _frame = (!entry_is_getter(shared, node, &singleton, method))
                .then(|| AppFrame::enter(shared, node.0));
            Ok(vm.call_virtual_by_name(singleton, method, args)?)
        } else {
            // Untransformed static app code always runs locally.
            let _frame = AppFrame::enter(shared, node.0);
            Ok(vm.call_static_by_name(class, method, args)?)
        }
    }

    /// Create an instance of original class `class` on `node` via the
    /// generated factory (`make` + `init$k`), returning the interface-typed
    /// reference (a local object or a proxy, decided by policy).
    ///
    /// # Errors
    /// Any [`RuntimeError`].
    pub fn new_instance(
        &self,
        node: NodeId,
        class: &str,
        ctor: u16,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let shared = &self.shared;
        let id = shared
            .universe
            .by_name(class)
            .ok_or_else(|| RuntimeError::Bad(format!("unknown class {class}")))?;
        let vm = &shared.vms[node.0 as usize];
        match shared.plan.family(id) {
            Some(family) => {
                // Factory `make` + `init$k` run app code (the constructor
                // body) on this node whenever placement keeps the instance
                // local.
                let _frame = AppFrame::enter(shared, node.0);
                let that = vm.call_static(family.obj_factory, family.make_sig, vec![])?;
                let init_sig = *family
                    .init_sigs
                    .get(ctor as usize)
                    .ok_or_else(|| RuntimeError::Bad(format!("no ctor {ctor} on {class}")))?;
                let mut all = vec![that.clone()];
                all.extend(args);
                vm.call_static(family.obj_factory, init_sig, all)?;
                // Shard placement must run *after* init: the remote create
                // path ships a default-constructed instance and applies the
                // constructor through the reference, so the shard key is
                // only readable once init has landed.
                if shared.any_sharding {
                    self.place_sharded(node, class, &that)?;
                }
                Ok(that)
            }
            None => Ok(vm.new_instance(id, ctor, args)?),
        }
    }

    /// Invoke `method` on a receiver (local object or proxy) on `node`.
    ///
    /// # Errors
    /// Any [`RuntimeError`].
    pub fn call_method(
        &self,
        node: NodeId,
        recv: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let shared = &self.shared;
        // A local receiver (a pulled or promoted object living in this
        // node's VM) takes the call bare — open an app frame unless the
        // method is a pure property read, so the mutation is marked for
        // the next sweep. Getter-only traffic stays frameless: read-only
        // phases must not cause a single sweep probe.
        let _frame = (!entry_is_getter(shared, node, &recv, method))
            .then(|| AppFrame::enter(shared, node.0));
        Ok(shared.vms[node.0 as usize].call_virtual_by_name(recv, method, args)?)
    }

    /// Bind the `Observer` built-in on every node to a **cluster-wide**
    /// trace, so distributed runs produce one comparable event stream.
    pub fn bind_observer(&self, ids: &rafda_vm::vm::ObserverIds) {
        for vm in &self.shared.vms {
            let weak = Rc::downgrade(&self.shared);
            vm.register_native(ids.class, ids.emit, move |_vm, args| {
                let shared = upgrade(&weak)?;
                let v = match args {
                    [Value::Long(v)] => *v,
                    [Value::Int(v)] => i64::from(*v),
                    _ => return Err(VmError::type_error("Observer.emit expects long")),
                };
                shared.trace.borrow_mut().push(TraceEvent::Emit(v));
                Ok(Value::Null)
            });
            let weak = Rc::downgrade(&self.shared);
            vm.register_native(ids.class, ids.emit_str, move |_vm, args| {
                let shared = upgrade(&weak)?;
                match args {
                    [Value::Str(s)] => {
                        shared
                            .trace
                            .borrow_mut()
                            .push(TraceEvent::EmitStr(s.to_string()));
                        Ok(Value::Null)
                    }
                    _ => Err(VmError::type_error("Observer.emit_str expects String")),
                }
            });
            let weak = Rc::downgrade(&self.shared);
            vm.register_native(ids.class, ids.emit_double, move |_vm, args| {
                let shared = upgrade(&weak)?;
                match args {
                    [Value::Double(d)] => {
                        shared
                            .trace
                            .borrow_mut()
                            .push(TraceEvent::EmitDouble(d.to_bits()));
                        Ok(Value::Null)
                    }
                    _ => Err(VmError::type_error("Observer.emit_double expects double")),
                }
            });
        }
    }

    /// Run an entry point and return the cluster-wide observation trace,
    /// with uncaught exceptions and network failures appended as terminal
    /// events (the comparison format of the equivalence experiments).
    pub fn run_observed(&self, node: NodeId, class: &str, method: &str, args: Vec<Value>) -> Trace {
        *self.shared.trace.borrow_mut() = Trace::new();
        // The end of the run is a synchronization point: operations still
        // deferred on an outcall queue are applied before the trace is
        // compared, exactly as a single-address-space run would have
        // applied them inline.
        let result =
            self.call_static(node, class, method, args).and_then(|v| {
                match flush_outqueues(&self.shared) {
                    Ok(()) => Ok(v),
                    Err(e) => Err(RuntimeError::from(e)),
                }
            });
        match result {
            Ok(_) => {}
            Err(RuntimeError::Vm(VmError::Exception(h))) => {
                let name = self.shared.vms[node.0 as usize]
                    .class_of(h)
                    .map(|c| self.shared.universe.class(c).name.clone())
                    .unwrap_or_else(|| "<stale>".to_owned());
                self.shared
                    .trace
                    .borrow_mut()
                    .push(TraceEvent::UncaughtException(name));
            }
            Err(e) if e.is_network() => {
                self.shared
                    .trace
                    .borrow_mut()
                    .push(TraceEvent::NetworkFailure(e.to_string()));
            }
            Err(other) => {
                self.shared
                    .trace
                    .borrow_mut()
                    .push(TraceEvent::EmitStr(format!("<error: {other}>")));
            }
        }
        std::mem::take(&mut self.shared.trace.borrow_mut())
    }

    /// Where the object behind a reference held on `node` actually lives:
    /// `node` itself for local objects, the proxy's target for proxies.
    pub fn location_of(&self, node: NodeId, value: &Value) -> Option<NodeId> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        let class = vm.class_of(h)?;
        match self.shared.gen_info.get(&class) {
            Some(info) if info.proto.is_some() => {
                let (target, _) = read_proxy_state(vm, h)?;
                Some(NodeId(target))
            }
            _ => Some(node),
        }
    }

    /// Resolve a reference to the node that owns the live object *and* the
    /// owner's local handle for it — the pair [`Cluster::migrate`] needs,
    /// which lets a driver move an object between two other nodes without
    /// first pulling it to itself. A reference that is already local
    /// resolves to `(node, handle)` unchanged; a proxy is chased one hop
    /// to its recorded owner. Returns `None` for non-references, stale
    /// handles, or an owner that no longer exports the object (it died or
    /// the export was forwarded on).
    pub fn home_of(&self, node: NodeId, value: &Value) -> Option<(NodeId, Handle)> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        let class = vm.class_of(h)?;
        match self.shared.gen_info.get(&class) {
            Some(info) if info.proto.is_some() => {
                let (owner, oid) = read_proxy_state(vm, h)?;
                let handle = self.shared.directory.borrow().live_export((owner, oid))?;
                // The export may itself be a forwarding proxy (the object
                // moved on); only a locally implemented object counts.
                is_local_impl(&self.shared, owner, handle).then_some((NodeId(owner), handle))
            }
            _ => Some((node, h)),
        }
    }

    // ------------------------------------------------------------------
    // Boundary changes
    // ------------------------------------------------------------------

    /// Move a live object to another node. The local instance is rewritten
    /// **in place** into a proxy, so every existing reference on `from`
    /// transparently becomes remote (Figure 1: `C` → `Cp`).
    ///
    /// # Errors
    /// [`RuntimeError`] if the handle is not a live `*_Local` object or the
    /// transfer fails.
    pub fn migrate(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        let span = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span("migrate", from.0, shared.net.now().as_ns());
            spans.set_attr(h, "from", from.0);
            spans.set_attr(h, "to", to.0);
            h
        };
        let result = self.migrate_inner(from, object, to);
        let mut spans = shared.spans.borrow_mut();
        let outcome = match &result {
            Ok(event) => {
                spans.set_attr(span, "class", event.class.clone());
                SpanOutcome::Ok
            }
            Err(e) if e.is_network() => SpanOutcome::NetFailure,
            Err(_) => SpanOutcome::Fault,
        };
        spans.end_span(span, shared.net.now().as_ns(), outcome);
        result
    }

    fn migrate_inner(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        if from == to {
            return Err(RuntimeError::Bad("migration to the same node".into()));
        }
        // A migration is a synchronization point, and it must flush *before*
        // the state snapshot below: a deferred call still queued against
        // this object has to land while the object is at its old home, or
        // the shipped state would miss it.
        flush_outqueues(shared).map_err(RuntimeError::from)?;
        let vm = &shared.vms[from.0 as usize];
        let (class, fields) = vm
            .read_object(object)
            .ok_or_else(|| RuntimeError::Bad("stale handle".into()))?;
        let info = shared
            .gen_info
            .get(&class)
            .ok_or_else(|| RuntimeError::Bad("only transformed objects can migrate".into()))?
            .clone();
        if info.proto.is_some() {
            return Err(RuntimeError::Bad(
                "object is already remote (a proxy); migrate it from its owner".into(),
            ));
        }
        let base_name = shared.universe.class(info.base).name.clone();
        let proto = shared.policy.protocol(&base_name);
        let mut wire_fields = Vec::with_capacity(fields.len());
        for f in &fields {
            wire_fields
                .push(marshal::value_to_wire(shared, from, f).map_err(RuntimeError::Marshal)?);
        }
        let state = WireValue::ObjectState {
            class: shared.universe.class(class).name.clone(),
            fields: wire_fields,
        };
        let source_oid = export(shared, from, object);
        let (reply, _) = rpc(
            shared,
            from,
            to,
            &proto,
            &base_name,
            &Request::Install {
                state,
                source: Some((from.0, source_oid)),
            },
        )
        .map_err(RuntimeError::from)?;
        let target = match reply {
            Reply::Value(WireValue::Remote { node, object, .. }) => RemoteRef {
                node: NodeId(node),
                oid: object,
            },
            Reply::Fault(m) => return Err(RuntimeError::Bad(m)),
            other => return Err(RuntimeError::Bad(format!("unexpected reply {other:?}"))),
        };
        let proxy_class = proxy_class_for(shared, info.base, info.side, &proto)
            .ok_or_else(|| RuntimeError::Bad(format!("no {proto} proxy for {base_name}")))?;
        vm.replace_object(
            object,
            proxy_class,
            vec![
                Value::Int(target.node.0 as i32),
                Value::Long(target.oid as i64),
            ],
        );
        {
            let mut nodes = shared.nodes.borrow_mut();
            nodes[from.0 as usize]
                .imports
                .insert((target.node.0, target.oid), object);
        }
        relocate(
            shared,
            (from.0, source_oid),
            (target.node.0, target.oid),
            Why::Migrated,
        );
        bump(shared, from.0, Met::Migrations);
        Ok(MigrationEvent {
            class: base_name,
            from,
            to,
            target,
        })
    }

    /// Pull a remote object local: fetch its state from the owner, rewrite
    /// the local proxy in place into the real object, and leave a
    /// forwarding proxy at the previous owner.
    ///
    /// # Errors
    /// [`RuntimeError`] if the handle is not a proxy or the transfer fails.
    pub fn pull_local(&self, node: NodeId, proxy: Handle) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        let span = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span("pull", node.0, shared.net.now().as_ns());
            spans.set_attr(h, "to", node.0);
            h
        };
        let result = self.pull_inner(node, proxy);
        let mut spans = shared.spans.borrow_mut();
        let outcome = match &result {
            Ok(event) => {
                spans.set_attr(span, "class", event.class.clone());
                spans.set_attr(span, "from", event.from.0);
                SpanOutcome::Ok
            }
            Err(e) if e.is_network() => SpanOutcome::NetFailure,
            Err(_) => SpanOutcome::Fault,
        };
        spans.end_span(span, shared.net.now().as_ns(), outcome);
        result
    }

    fn pull_inner(&self, node: NodeId, proxy: Handle) -> Result<MigrationEvent, RuntimeError> {
        let shared = &self.shared;
        // Synchronization point, before the owner snapshots state for the
        // fetch (see [`Cluster::migrate`] for why the order matters).
        flush_outqueues(shared).map_err(RuntimeError::from)?;
        let vm = &shared.vms[node.0 as usize];
        let class = vm
            .class_of(proxy)
            .ok_or_else(|| RuntimeError::Bad("stale handle".into()))?;
        let info = shared
            .gen_info
            .get(&class)
            .cloned()
            .filter(|i| i.proto.is_some())
            .ok_or_else(|| RuntimeError::Bad("pull_local needs a proxy".into()))?;
        let proto = info.proto.clone().expect("filtered");
        let base_name = shared.universe.class(info.base).name.clone();
        let (owner_raw, oid) =
            read_proxy_state(vm, proxy).ok_or_else(|| RuntimeError::Bad("stale proxy".into()))?;
        let owner = NodeId(owner_raw);
        // Fetch the state.
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Fetch { object: oid },
        )
        .map_err(RuntimeError::from)?;
        let (class_name, wire_fields) = match reply {
            Reply::Value(WireValue::ObjectState { class, fields }) => (class, fields),
            Reply::Fault(m) => return Err(RuntimeError::Bad(m)),
            other => return Err(RuntimeError::Bad(format!("unexpected reply {other:?}"))),
        };
        let local_class = shared
            .universe
            .by_name(&class_name)
            .ok_or_else(|| RuntimeError::Bad(format!("unknown class {class_name}")))?;
        let mut fields = Vec::with_capacity(wire_fields.len());
        for wf in &wire_fields {
            fields.push(marshal::wire_to_value(shared, node, wf).map_err(RuntimeError::Marshal)?);
        }
        vm.replace_object(proxy, local_class, fields);
        let my_oid = export(shared, node, proxy);
        // Owner-side swap: the old object becomes a forwarding proxy here.
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Forward {
                object: oid,
                to_node: node.0,
                to_object: my_oid,
            },
        )
        .map_err(RuntimeError::from)?;
        if let Reply::Fault(m) = reply {
            return Err(RuntimeError::Bad(m));
        }
        // The pulled copy is a fresh export with fresh state; the Forward
        // handler relocated the old home here.
        bump_version(shared, node.0, my_oid);
        sync_replicas(shared, node, my_oid);
        bump(shared, node.0, Met::Pulls);
        Ok(MigrationEvent {
            class: base_name,
            from: owner,
            to: node,
            target: RemoteRef { node, oid: my_oid },
        })
    }

    /// One round of the adaptive affinity loop: every exported object whose
    /// incoming calls are dominated by a single remote node (per `config`)
    /// is migrated to that node. Returns the boundary changes made.
    pub fn adapt(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        // An adaptation tick is a synchronization point: deferred calls are
        // traffic too, and must land (and be counted) before affinity is
        // judged. Flush failures surface at the callers' next sync point.
        let _ = flush_outqueues(shared);
        // Snapshot candidates first: migrations below change the directory.
        // Candidates are discovered in (node, export id) order, so the
        // migration sequence (and thus clocks, traces and stats) is the
        // same every run.
        let mut candidates: Vec<(NodeId, Handle, NodeId)> = Vec::new();
        {
            let dir = shared.directory.borrow();
            for n in 0..shared.vms.len() as u32 {
                for a in dir.affinity(n) {
                    if a.total < config.min_calls
                        || a.top_caller == n
                        || (a.top_count as f64) / (a.total as f64) < config.min_fraction
                    {
                        continue;
                    }
                    if let Some(h) = dir.live_export((n, a.oid)) {
                        candidates.push((NodeId(n), h, NodeId(a.top_caller)));
                    }
                }
            }
        }
        let mut events = Vec::new();
        for (owner, handle, target) in candidates {
            // Only migrate objects still locally implemented.
            let vm = &shared.vms[owner.0 as usize];
            let Some(class) = vm.class_of(handle) else {
                continue;
            };
            match shared.gen_info.get(&class) {
                Some(info) if info.proto.is_none() => {
                    // Shard placement is policy-owned: the affinity loop
                    // must not fight the shard map by dragging a sharded
                    // instance toward its chattiest caller.
                    if shared.any_sharding {
                        let base = &shared.universe.class(info.base).name;
                        if shared.policy.shard_spec(base).is_some() {
                            continue;
                        }
                    }
                }
                _ => continue,
            }
            // migrate() purges the stale counts cluster-wide, so no
            // owner-local cleanup is needed here.
            if let Ok(event) = self.migrate(owner, handle, target) {
                events.push(event);
            }
        }
        events
    }

    // ------------------------------------------------------------------
    // Policy-driven shard placement (E15)
    // ------------------------------------------------------------------

    /// Route a freshly constructed instance of a `shard by` class onto its
    /// shard's node: read the key getter, hash the key, look up (or lazily
    /// seed, as `shard % node_count`) the shard's owner in the shard map,
    /// and migrate the instance there when it was created elsewhere. The
    /// creator's reference keeps working either way — a local instance is
    /// rewritten in place into a proxy by [`Cluster::migrate`], and an
    /// existing proxy is re-pointed at the shard home directly.
    pub(crate) fn place_sharded(
        &self,
        node: NodeId,
        class: &str,
        that: &Value,
    ) -> Result<(), RuntimeError> {
        let shared = &self.shared;
        let Some(spec) = shared.policy.shard_spec(class) else {
            return Ok(());
        };
        let Value::Ref(h) = *that else {
            return Ok(());
        };
        let vm = &shared.vms[node.0 as usize];
        let key = vm.call_virtual_by_name(that.clone(), &spec.key_getter, vec![])?;
        let shard = (shard_hash(&key) % u64::from(spec.modulo)) as u32;
        let owner = shared.directory.borrow_mut().shard_owner(
            class,
            shard,
            shard % shared.vms.len() as u32,
        );
        let Some(info) = vm
            .class_of(h)
            .and_then(|c| shared.gen_info.get(&c))
            .cloned()
        else {
            return Ok(());
        };
        let member = if info.proto.is_some() {
            let (tn, toid) =
                read_proxy_state(vm, h).ok_or_else(|| RuntimeError::Bad("stale proxy".into()))?;
            if tn == owner {
                (tn, toid)
            } else {
                let src = lookup_export(shared, NodeId(tn), toid)
                    .ok_or_else(|| RuntimeError::Bad(format!("unknown object {tn}#{toid}")))?;
                let event = self.migrate(NodeId(tn), src, NodeId(owner))?;
                // Re-point the creator's proxy at the shard home directly,
                // skipping the forwarding hop left at the old location.
                vm.replace_object(
                    h,
                    vm.class_of(h).expect("live proxy"),
                    vec![
                        Value::Int(event.target.node.0 as i32),
                        Value::Long(event.target.oid as i64),
                    ],
                );
                cache_import(shared, node, event.target.node.0, event.target.oid, h);
                (event.target.node.0, event.target.oid)
            }
        } else if node.0 == owner {
            // Created straight onto its shard's node: export it so the
            // membership list can reference (and later move) it.
            (node.0, export(shared, node, h))
        } else {
            let event = self.migrate(node, h, NodeId(owner))?;
            (event.target.node.0, event.target.oid)
        };
        shared
            .directory
            .borrow_mut()
            .add_shard_member(class, shard, member);
        bump(shared, node.0, Met::ShardPlacements);
        Ok(())
    }

    /// One adaptation tick for policy-driven sharding. In order:
    ///
    /// 1. adopt exported sharded instances the creation hook never saw
    ///    (objects that became visible through marshaling),
    /// 2. prune members that moved away or whose node crashed,
    /// 3. detect hot-key skew from the same call counters the affinity
    ///    loop reads and greedily reassign hot shards from the most- to the
    ///    least-loaded node while that strictly narrows the spread,
    /// 4. enforce the map: migrate every member not at its shard's owner.
    ///
    /// Deterministic by construction: shard maps are `BTreeMap`s iterated
    /// in key order, load ties break toward the lowest node id (and the
    /// lowest shard key), and every move ships state through the same
    /// Install path migration uses — a synchronization point that drains
    /// the E12 outcall queues first.
    pub fn rebalance_shards(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        if !shared.any_sharding {
            return Vec::new();
        }
        let _ = flush_outqueues(shared);
        self.adopt_sharded_exports();
        prune_shard_members(shared);
        // Per-shard load: calls served for its members at their current
        // homes. Absent counters mean a quiet shard, not an error.
        let loads = shared.directory.borrow().shard_loads();
        if loads.values().sum::<u64>() >= config.min_calls {
            let mut owners = shared.directory.borrow().shard_owners();
            let mut node_load = vec![0u64; shared.vms.len()];
            for (key, owner) in &owners {
                node_load[*owner as usize] += loads.get(key).copied().unwrap_or(0);
            }
            // Greedy reassignment with synthetic load deltas (the physical
            // moves below purge the underlying counters).
            for _ in 0..loads.len() {
                let (max_n, max_l) = node_load
                    .iter()
                    .enumerate()
                    .max_by_key(|&(n, &l)| (l, usize::MAX - n))
                    .map(|(n, &l)| (n as u32, l))
                    .expect("at least one node");
                let (min_n, min_l) = node_load
                    .iter()
                    .enumerate()
                    .min_by_key(|&(n, &l)| (l, n))
                    .map(|(n, &l)| (n as u32, l))
                    .expect("at least one node");
                let gap = max_l - min_l;
                if max_n == min_n || gap < 2 {
                    break;
                }
                // Hottest shard on the overloaded node that fits in half
                // the gap (so neither endpoint overshoots); ties go to the
                // lowest (class, shard) key because the map is sorted.
                let mut best: Option<(usize, u64)> = None;
                for (i, (key, owner)) in owners.iter().enumerate() {
                    if *owner != max_n {
                        continue;
                    }
                    let l = loads.get(key).copied().unwrap_or(0);
                    if l == 0 || l > gap / 2 {
                        continue;
                    }
                    if best.is_none_or(|(_, bl)| l > bl) {
                        best = Some((i, l));
                    }
                }
                let Some((i, l)) = best else { break };
                owners[i].1 = min_n;
                shared
                    .directory
                    .borrow_mut()
                    .assign_shard(owners[i].0.clone(), min_n);
                node_load[max_n as usize] -= l;
                node_load[min_n as usize] += l;
                bump(shared, max_n, Met::ShardRebalances);
            }
        }
        self.enforce_shard_map()
    }

    /// Record exported instances of sharded classes that creation-time
    /// placement never saw, reading their shard key at their current home.
    /// Purely bookkeeping — physical moves happen in the enforcement pass.
    fn adopt_sharded_exports(&self) {
        let shared = &self.shared;
        let known = shared.directory.borrow().shard_member_set();
        for n in 0..shared.vms.len() as u32 {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                continue;
            }
            let exports = shared.directory.borrow().exports_of(n);
            for (oid, h) in exports {
                if known.contains(&(n, oid)) {
                    continue;
                }
                let vm = &shared.vms[n as usize];
                let Some(info) = vm.class_of(h).and_then(|c| shared.gen_info.get(&c)) else {
                    continue;
                };
                if info.proto.is_some() || info.side != Side::Obj {
                    continue;
                }
                let base = &shared.universe.class(info.base).name;
                let Some(spec) = shared.policy.shard_spec(base) else {
                    continue;
                };
                let Ok(key) = vm.call_virtual_by_name(Value::Ref(h), &spec.key_getter, vec![])
                else {
                    continue;
                };
                let shard = (shard_hash(&key) % u64::from(spec.modulo)) as u32;
                let mut dir = shared.directory.borrow_mut();
                dir.shard_owner(base, shard, shard % shared.vms.len() as u32);
                dir.add_shard_member(base, shard, (n, oid));
            }
        }
    }

    /// Enforcement pass: migrate every shard member that is not at its
    /// shard's owner. A member that cannot move right now (its node or the
    /// owner is down) is left in place for the next tick.
    fn enforce_shard_map(&self) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        let plan = shared.directory.borrow().shard_owners();
        let mut events = Vec::new();
        for (key, owner) in plan {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(owner))) {
                continue;
            }
            let members = shared.directory.borrow().shard_members(&key);
            for (i, &(n, oid)) in members.iter().enumerate() {
                if n == owner || shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                    continue;
                }
                let Some(h) = lookup_export(shared, NodeId(n), oid) else {
                    continue;
                };
                if let Ok(event) = self.migrate(NodeId(n), h, NodeId(owner)) {
                    let moved = (event.target.node.0, event.target.oid);
                    shared
                        .directory
                        .borrow_mut()
                        .move_shard_member(&key, i, moved);
                    events.push(event);
                }
            }
        }
        events
    }

    /// Pin a host-held reference as a GC root on `node`. References
    /// returned by [`Cluster::new_instance`] or [`Cluster::call_method`]
    /// are invisible to the collector unless pinned (or reachable from an
    /// export, import, singleton or static).
    pub fn pin(&self, node: NodeId, value: &Value) {
        if let Some(h) = value.as_ref_handle() {
            self.shared.nodes.borrow_mut()[node.0 as usize]
                .pins
                .insert(h);
        }
    }

    /// Remove a pin added by [`Cluster::pin`].
    pub fn unpin(&self, node: NodeId, value: &Value) {
        if let Some(h) = value.as_ref_handle() {
            self.shared.nodes.borrow_mut()[node.0 as usize]
                .pins
                .remove(&h);
        }
    }

    /// Garbage-collect every node: reachable roots are each node's exported
    /// objects, materialised proxy imports, resolved singletons and host
    /// pins (plus statics, handled by the VM). Returns entries freed per
    /// node.
    ///
    /// Collection is only safe between top-level calls (the synchronous
    /// runtime guarantees no frame is suspended once a call returns).
    pub fn gc(&self) -> Vec<usize> {
        let mut freed = Vec::with_capacity(self.shared.vms.len());
        for (i, vm) in self.shared.vms.iter().enumerate() {
            let roots: Vec<Handle> = {
                let nodes = self.shared.nodes.borrow();
                let state = &nodes[i];
                let exported = self.shared.directory.borrow().trail_of(i as u32);
                exported
                    .into_iter()
                    .map(|(_, h)| h)
                    .chain(state.imports.values().copied())
                    .chain(state.pins.iter().copied())
                    .chain(state.singletons.values().map(|s| s.handle()))
                    .collect()
            };
            freed.push(vm.gc(&roots));
        }
        freed
    }

    /// Clear the per-object call statistics used by [`Cluster::adapt`].
    pub fn reset_call_stats(&self) {
        self.shared.directory.borrow_mut().clear_affinity();
    }

    /// Crash-stop `node`: every message to or from it fails with
    /// [`NodeCrashed`](rafda_vm::NetFailureKind::NodeCrashed) until
    /// [`Cluster::restart`]. The node's memory is untouched while down
    /// (nobody can observe it), but a restart wipes it — crash-stop nodes
    /// lose volatile state.
    ///
    /// Calls in flight are unaffected: the runtime is synchronous, so the
    /// crash takes effect between top-level operations, never mid-exchange.
    pub fn crash(&self, node: NodeId) {
        // A crash is a synchronization point: operations already deferred
        // are flushed while every party is still up, so "the owner
        // acknowledged it" keeps meaning "a replica has it". Ops deferred
        // *after* this point fail at their own flush, like any other call
        // to a crashed node.
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.crash(node));
    }

    /// Restart a crashed node with empty volatile state, as a crash-stop
    /// process would: exports, imports, singletons, caches and backup
    /// replica state are all gone. Only the export-id counter survives, so
    /// ids handed out before the crash are never reused — a stale proxy
    /// addressing a pre-crash export gets a typed fault, not a different
    /// object. The node rejoins as a replication target at the owner's next
    /// sync.
    pub fn restart(&self, node: NodeId) {
        // Synchronization point, as for [`Cluster::crash`].
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.recover(node));
        self.shared.nodes.borrow_mut()[node.0 as usize] = NodeState::default();
        let marks = self.shared.directory.borrow_mut().restart(node.0);
        for (n, marked) in marks.into_iter().enumerate() {
            charge_marks(&self.shared, n as u32, marked);
        }
    }

    /// Drain every pending batched outcall queue now — an explicit
    /// synchronization point. A no-op unless the policy marks some class
    /// `batch on` and deferrable operations are actually pending.
    ///
    /// # Errors
    /// The first failure any flushed batch hit: a network failure shipping
    /// a queue, a server-side fault, or an exception a deferred operation
    /// threw when it finally ran (re-thrown here, at the synchronization
    /// point).
    pub fn flush(&self) -> Result<(), RuntimeError> {
        flush_outqueues(&self.shared).map_err(RuntimeError::from)
    }

    /// Read the simulated clock. Reading the time is a synchronization
    /// point: pending batches are flushed first, so the reading covers the
    /// cost of every operation issued before it.
    pub fn now(&self) -> SimTime {
        let _ = flush_outqueues(&self.shared);
        self.shared.net.now()
    }
}

fn upgrade(weak: &Weak<Shared>) -> Result<Rc<Shared>, VmError> {
    weak.upgrade()
        .ok_or_else(|| VmError::Native("cluster torn down".into()))
}

// ----------------------------------------------------------------------
// Registry helpers (short borrows only)
// ----------------------------------------------------------------------

/// Export `h` on `node` (idempotent per handle) and return its id.
pub(crate) fn export(shared: &Shared, node: NodeId, h: Handle) -> u64 {
    let replicated = shared.any_replication && is_replicated_impl(shared, node.0, h);
    let oid = shared.directory.borrow_mut().export(node.0, h, replicated);
    // A replicated export is marked dirty: its state is owed to the backups.
    charge_marks(shared, node.0, u64::from(replicated));
    oid
}

/// Whether `h` on `node` is a locally implemented generated object — the
/// real thing, not a proxy for it.
pub(crate) fn is_local_impl(shared: &Shared, node: u32, h: Handle) -> bool {
    shared.vms[node as usize]
        .class_of(h)
        .and_then(|c| shared.gen_info.get(&c))
        .is_some_and(|info| info.proto.is_none())
}

/// Whether `h` on `node` is a locally implemented instance of a class the
/// policy replicates — the only kind of export that ever ships state.
fn is_replicated_impl(shared: &Shared, node: u32, h: Handle) -> bool {
    shared.vms[node as usize]
        .class_of(h)
        .and_then(|c| shared.gen_info.get(&c))
        .filter(|info| info.proto.is_none())
        .is_some_and(|info| {
            let base_name = &shared.universe.class(info.base).name;
            shared.policy.replicas(base_name) > 0
        })
}

/// Whether `h` on `node` is a generated proxy.
pub(crate) fn is_proxy(shared: &Shared, node: u32, h: Handle) -> bool {
    shared.vms[node as usize]
        .class_of(h)
        .and_then(|c| shared.gen_info.get(&c))
        .is_some_and(|info| info.proto.is_some())
}

/// The location an exported proxy `h` on `node` addresses; `None` for
/// anything that is not a proxy.
fn proxy_target(shared: &Shared, node: u32, h: Handle) -> Option<(u32, u64)> {
    is_proxy(shared, node, h)
        .then(|| read_proxy_state(&shared.vms[node as usize], h))
        .flatten()
}

/// The object at `old` now lives at `new`: see [`Directory::relocate`].
pub(crate) fn relocate(shared: &Shared, old: (u32, u64), new: (u32, u64), why: Why) {
    shared
        .directory
        .borrow_mut()
        .relocate(old, new, why, |n, h| proxy_target(shared, n, h));
}

pub(crate) fn lookup_export(shared: &Shared, node: NodeId, oid: u64) -> Option<Handle> {
    shared.directory.borrow().lookup((node.0, oid))
}

pub(crate) fn cached_import(shared: &Shared, node: NodeId, owner: u32, oid: u64) -> Option<Handle> {
    shared.nodes.borrow()[node.0 as usize]
        .imports
        .get(&(owner, oid))
        .copied()
}

pub(crate) fn cache_import(shared: &Shared, node: NodeId, owner: u32, oid: u64, h: Handle) {
    shared.nodes.borrow_mut()[node.0 as usize]
        .imports
        .insert((owner, oid), h);
}

pub(crate) fn proxy_class_for(
    shared: &Shared,
    base: ClassId,
    side: Side,
    proto: &str,
) -> Option<ClassId> {
    let family = shared.plan.family(base)?;
    let list = match side {
        Side::Obj => &family.obj_proxies,
        Side::Cls => &family.cls_proxies,
    };
    list.iter().find(|(p, _)| p == proto).map(|(_, c)| *c)
}

/// The current property version of the export `(node, oid)` (0 if never
/// mutated).
pub(crate) fn version_of(shared: &Shared, node: u32, oid: u64) -> u64 {
    shared.directory.borrow().version((node, oid))
}

/// Record a (possible) mutation of the export `(node, oid)`: any cached
/// property read tagged with an older version becomes stale, and the sweep
/// must probe the location — the backups are behind until the next sync.
pub(crate) fn bump_version(shared: &Shared, node: u32, oid: u64) {
    let marked = shared.directory.borrow_mut().bump((node, oid));
    charge_marks(shared, node, u64::from(marked));
}

// ----------------------------------------------------------------------
// Dirty-replica marking
// ----------------------------------------------------------------------
//
// The sweep ([`sync_dirty_replicas`]) probes exactly the locations marked
// here since their last shipment. Marking must therefore cover every way
// replicated state can drift: version bumps (served mutations, installs,
// promotions), fresh replicated exports (whose initial state the old
// full-table sweep shipped at the next synchronization point), and bare
// local mutations — application code running outside the serve path, which
// the per-node app frames track conservatively.

/// Conservatively mark every replicated export of `node` dirty — used when
/// application code ran locally on the node and may have mutated any of
/// its objects bare (the runtime never sees plain local calls).
pub(crate) fn mark_node_dirty(shared: &Shared, node: u32) {
    if !shared.any_replication {
        return;
    }
    let marked = shared.directory.borrow_mut().mark_node(node);
    charge_marks(shared, node, marked);
}

/// Charge `marks` dirty-set insertions to `node`.
pub(crate) fn charge_marks(shared: &Shared, node: u32, marks: u64) {
    if marks > 0 {
        shared.obs.borrow_mut().add(node, Met::DirtyMarks, marks);
    }
}

/// Mark `node` dirty iff application code is currently executing on it (an
/// open app frame). Called at every synchronization point, so state a
/// frame mutated *before* a nested exchange is shipped at that exchange —
/// exactly when the old full-table sweep would have shipped it.
pub(crate) fn mark_if_framed(shared: &Shared, node: u32) {
    if !shared.any_replication {
        return;
    }
    if shared.app_frames.borrow()[node as usize] > 0 {
        mark_node_dirty(shared, node);
    }
}

/// RAII guard for one nested level of local application execution on a
/// node. Entered around every non-getter app-code call site (served
/// `Call`s, entry points, clinit); exiting conservatively marks the node
/// dirty, so trailing bare mutations are shipped at the next
/// synchronization point.
pub(crate) struct AppFrame<'a> {
    shared: &'a Shared,
    node: u32,
}

impl<'a> AppFrame<'a> {
    pub(crate) fn enter(shared: &'a Shared, node: u32) -> AppFrame<'a> {
        if shared.any_replication {
            shared.app_frames.borrow_mut()[node as usize] += 1;
        }
        AppFrame { shared, node }
    }
}

impl Drop for AppFrame<'_> {
    fn drop(&mut self) {
        if self.shared.any_replication {
            self.shared.app_frames.borrow_mut()[self.node as usize] -= 1;
            mark_node_dirty(self.shared, self.node);
        }
    }
}

/// Whether invoking `method` on `recv` at an entry point is a pure
/// property read — resolved against the receiver's family by accessor
/// *name*, since entry points take human method names, not wire
/// signatures. Getter calls open no app frame: they cannot mutate, so a
/// read-only workload leaves the dirty set untouched and sweeps nothing.
fn entry_is_getter(shared: &Shared, node: NodeId, recv: &Value, method: &str) -> bool {
    let Some(h) = recv.as_ref_handle() else {
        return false;
    };
    shared.vms[node.0 as usize]
        .class_of(h)
        .and_then(|c| shared.gen_info.get(&c))
        .and_then(|info| shared.plan.family(info.base).map(|f| (f, info.side)))
        .is_some_and(|(f, side)| {
            let accessors = match side {
                Side::Obj => &f.getters,
                Side::Cls => &f.static_getters,
            };
            accessors
                .iter()
                .any(|&g| shared.universe.sig_info(g).name == method)
        })
}

/// Drop shard members that no longer resolve to a live, locally
/// implemented object: crashed nodes, restarted registries, and exports
/// rewritten into forwarding proxies (the instance will be re-adopted at
/// its new home on the next tick).
fn prune_shard_members(shared: &Shared) {
    shared
        .directory
        .borrow_mut()
        .prune_shard_members(|(n, _), h| {
            !shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) && is_local_impl(shared, n, h)
        });
}

pub(crate) fn read_proxy_state(vm: &Vm, h: Handle) -> Option<(u32, u64)> {
    let (_, fields) = vm.read_object(h)?;
    match (fields.first(), fields.get(1)) {
        (Some(Value::Int(node)), Some(Value::Long(oid))) => Some((*node as u32, *oid as u64)),
        _ => None,
    }
}

/// The deterministic replication targets for an export owned by `owner` in
/// a cluster of `nodes` nodes: the `k` lowest-numbered node ids other than
/// the owner. A pure function of the topology — there is no replica
/// registry to keep consistent or repair, and a restarted backup re-enters
/// the target set automatically at the owner's next sync. Failover tries
/// the same list in the same order, so every client re-homes to the same
/// replica.
pub(crate) fn replica_targets(k: u32, owner: u32, nodes: u32) -> Vec<u32> {
    (0..nodes)
        .filter(|&n| n != owner)
        .take(k as usize)
        .collect()
}

/// Ship the current state of export `oid` on `owner` to its replication
/// targets, if its class is replicated by policy. Called after every served
/// operation that may have mutated the object (and after exports that
/// create one), so a live backup is never behind the last mutation the
/// owner served.
///
/// Crashed targets are skipped outright — the fault-plan lookup stands in
/// for the failure detector a real owner would run — and other sync
/// failures are swallowed: replication is best-effort per sync and repaired
/// by the next one. Only the authoritative copy is shipped; proxies and
/// forwarding exports never sync.
pub(crate) fn sync_replicas(shared: &Shared, owner: NodeId, oid: u64) {
    let Some(h) = lookup_export(shared, owner, oid) else {
        return;
    };
    let vm = &shared.vms[owner.0 as usize];
    let Some(class) = vm.class_of(h) else {
        return;
    };
    let Some(info) = shared.gen_info.get(&class) else {
        return;
    };
    if info.proto.is_some() {
        return;
    }
    let base_name = shared.universe.class(info.base).name.clone();
    let k = shared.policy.replicas(&base_name);
    if k == 0 {
        return;
    }
    let Some((_, fields)) = vm.read_object(h) else {
        return;
    };
    let mut wire_fields = Vec::with_capacity(fields.len());
    for f in &fields {
        match marshal::value_to_wire(shared, owner, f) {
            Ok(wv) => wire_fields.push(wv),
            Err(_) => return,
        }
    }
    // Skip the no-op sync outright: if neither the version nor the state
    // has moved since the last shipment, the backups already hold exactly
    // this state and k exchanges would buy nothing. Repeated `Discover`
    // and `Create` serves of an unmutated singleton hit this constantly.
    //
    // State drift at an *unchanged* version means the object was mutated
    // outside the serve path — a promoted or pulled replica living in the
    // caller's own VM takes plain local calls that never bump the version.
    // Bump it here before shipping: the backups must not hold two
    // different states under one version tag, and stale property-cache
    // entries tagged with the old version must stop validating.
    let loc = (owner.0, oid);
    let drift = shared.directory.borrow().drift(loc, &wire_fields);
    match drift {
        Drift::Settled => {
            shared.directory.borrow_mut().settled(loc);
            return;
        }
        Drift::State => bump_version(shared, owner.0, oid),
        Drift::Version => {}
    }
    let version = version_of(shared, owner.0, oid);
    let class_name = shared.universe.class(class).name.clone();
    let proto = shared.policy.protocol(&base_name);
    let batched = shared.policy.batched(&base_name);
    // Recorded *before* the exchanges below: each one is a top-level rpc,
    // which runs the dirty-replica sweep, which must find this very object
    // settled instead of shipping it a second time. The record also spends
    // the dirty mark (including the re-mark the drift bump above just made).
    shared
        .directory
        .borrow_mut()
        .shipped(loc, version, wire_fields.clone());
    for t in replica_targets(k, owner.0, shared.vms.len() as u32) {
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(t))) {
            continue;
        }
        let req = Request::ReplicaSync {
            object: oid,
            version,
            state: WireValue::ObjectState {
                class: class_name.clone(),
                fields: wire_fields.clone(),
            },
        };
        if batched {
            // Replica shipments of a batched class are deferrable: they
            // ride the owner's outcall queue to each backup and land at the
            // next synchronization point.
            enqueue_outcall(shared, owner, NodeId(t), &proto, &base_name, req);
        } else {
            let _ = rpc(shared, owner, NodeId(t), &proto, &base_name, &req);
        }
    }
}

/// Re-ship every **dirty** replicated export whose live state drifted from
/// its last shipment — the dirty-replica sweep run at synchronization
/// points.
///
/// Mutations served over the wire trigger [`sync_replicas`] inline, but a
/// promoted (or pulled) object lives in its caller's VM and takes plain
/// local calls the runtime never sees. The sweep closes that gap: at every
/// top-level exchange and at quiescent points, the locations marked dirty
/// since their last shipment are offered to [`sync_replicas`], which ships
/// (and version-bumps) exactly those whose state moved and no-ops on the
/// rest.
///
/// The sweep drains [`Directory::take_dirty`] instead of enumerating every export
/// of every node — O(dirty) per synchronization point, not O(exports) —
/// and iterates it in `(node, oid)` order, the exact order the old
/// full-table sweep enumerated, so the shipment sequence (and with it
/// every message id, clock reading and report byte) is unchanged for any
/// run. Marking covers everything the full sweep could ship: version
/// bumps, fresh replicated exports, restart re-seeds, and conservative
/// app-frame marks for bare local mutations (see the marking helpers
/// around [`mark_node_dirty`]). Gated on `any_replication` so workloads
/// without a `replicate` policy pay one boolean test, and guarded against
/// re-entry because the shipments are themselves exchanges.
pub(crate) fn sync_dirty_replicas(shared: &Shared) {
    if !shared.any_replication || shared.in_replica_sweep.get() {
        return;
    }
    // Take the set whole: marks made *during* the sweep (nested exchanges
    // re-marking an open app frame, the drift bump inside a shipment) are
    // next sweep's work, exactly like mutations made during the old full
    // enumeration.
    let targets = shared.directory.borrow_mut().take_dirty();
    if targets.is_empty() {
        return;
    }
    shared.in_replica_sweep.set(true);
    for (n, oid) in targets {
        // A crashed owner cannot ship; its backups are exactly what the
        // failover machinery is for. The entry is dropped, not kept: a
        // restart wipes the owner's state and re-seeds the sweep for every
        // node, so nothing stale survives to ship.
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
            continue;
        }
        bump(shared, n, Met::ReplicaSweepProbes);
        sync_replicas(shared, NodeId(n), oid);
    }
    shared.in_replica_sweep.set(false);
}

/// Allocate an object of `class` with JVM-default field values.
pub(crate) fn default_instance(shared: &Shared, node: NodeId, class: ClassId) -> Handle {
    let defaults: Vec<Value> = shared
        .universe
        .field_layout(class)
        .iter()
        .map(|&(owner, idx)| {
            Value::default_for(&shared.universe.class(owner).fields[idx as usize].ty)
        })
        .collect();
    shared.vms[node.0 as usize].alloc_raw(class, defaults)
}

// ----------------------------------------------------------------------
// Factory hook implementations
// ----------------------------------------------------------------------

/// `A_O_Factory.make()` on `node`: policy decides where the instance lives.
pub(crate) fn make_value(shared: &Shared, node: NodeId, base: ClassId) -> Result<Value, VmError> {
    let base_name = shared.universe.class(base).name.clone();
    let target = shared.policy.instance_node(&base_name, node);
    let family = shared.plan.family(base).expect("substitutable").clone();
    if target == node {
        // `new` triggers class initialisation, as in the JVM.
        if family.has_statics {
            discover_value(shared, node, base)?;
        }
        let h = default_instance(shared, node, family.obj_local);
        Ok(Value::Ref(h))
    } else {
        let proto = shared.policy.protocol(&base_name);
        let (reply, _) = rpc(
            shared,
            node,
            target,
            &proto,
            &base_name,
            &Request::Create {
                class: base_name.clone(),
                ctor: 0,
                args: vec![],
            },
        )?;
        match reply {
            Reply::Value(wv) => marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native),
            Reply::Fault(m) => Err(VmError::Native(m)),
            Reply::Exception { .. } => Err(VmError::Native("exception during create".into())),
            Reply::Batch(_) => Err(VmError::Native("unexpected batch reply to create".into())),
        }
    }
}

/// `A_C_Factory.discover()` on `node`: per-node singleton, local or remote
/// per policy, with JVM-style in-progress semantics.
pub(crate) fn discover_value(
    shared: &Shared,
    node: NodeId,
    base: ClassId,
) -> Result<Value, VmError> {
    if let Some(state) = shared.nodes.borrow()[node.0 as usize].singletons.get(&base) {
        return Ok(Value::Ref(state.handle()));
    }
    let base_name = shared.universe.class(base).name.clone();
    let family = shared.plan.family(base).expect("substitutable").clone();
    let owner = shared.policy.statics_node(&base_name);
    // Stale-promotion guard (bugfix): if this class's singleton was
    // promoted after a crash, every resolution must follow the promoted
    // copy — even (and especially) on the restarted pre-crash owner, whose
    // wiped registry would otherwise mint a fresh singleton with default
    // state, silently diverging from the copy the survivors still use.
    let canonical = shared.directory.borrow().static_export(&base_name);
    if let Some(start) = canonical {
        let (tn, toid) = shared.directory.borrow().resolve(start);
        if (tn, toid) != start {
            if let Some(h) = lookup_export(shared, NodeId(tn), toid) {
                if tn == node.0 {
                    // The promoted copy lives on this very node: adopt it
                    // as the local singleton.
                    shared.nodes.borrow_mut()[node.0 as usize]
                        .singletons
                        .insert(base, SingletonState::Ready(h));
                    return Ok(Value::Ref(h));
                }
                let class_name = shared.vms[tn as usize]
                    .class_of(h)
                    .map(|c| shared.universe.class(c).name.clone());
                if let Some(class) = class_name {
                    let value = marshal::wire_to_value(
                        shared,
                        node,
                        &WireValue::Remote {
                            node: tn,
                            object: toid,
                            class,
                        },
                    )
                    .map_err(VmError::Native)?;
                    if let Value::Ref(h) = value {
                        shared.nodes.borrow_mut()[node.0 as usize]
                            .singletons
                            .insert(base, SingletonState::Ready(h));
                    }
                    return Ok(value);
                }
            }
            // The promoted copy vanished too (its node also restarted):
            // fall through to policy resolution; the first proxy call will
            // re-promote from the copy's own backups.
        }
    }
    if owner == node {
        let cls_local = family.cls_local.expect("has statics");
        let h = default_instance(shared, node, cls_local);
        shared.nodes.borrow_mut()[node.0 as usize]
            .singletons
            .insert(base, SingletonState::InProgress(h));
        if let (Some(cls_factory), Some(clinit_sig)) = (family.cls_factory, family.clinit_sig) {
            // The class initializer is app code running bare on this node.
            let _frame = AppFrame::enter(shared, node.0);
            shared.vms[node.0 as usize].call_static(
                cls_factory,
                clinit_sig,
                vec![Value::Ref(h)],
            )?;
        }
        shared.nodes.borrow_mut()[node.0 as usize]
            .singletons
            .insert(base, SingletonState::Ready(h));
        Ok(Value::Ref(h))
    } else {
        let proto = shared.policy.protocol(&base_name);
        let (reply, _) = rpc(
            shared,
            node,
            owner,
            &proto,
            &base_name,
            &Request::Discover {
                class: base_name.clone(),
            },
        )?;
        let value = match reply {
            Reply::Value(wv) => {
                marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native)?
            }
            Reply::Fault(m) => return Err(VmError::Native(m)),
            Reply::Exception { .. } => {
                return Err(VmError::Native("exception during discover".into()))
            }
            Reply::Batch(_) => {
                return Err(VmError::Native("unexpected batch reply to discover".into()))
            }
        };
        if let Value::Ref(h) = value {
            shared.nodes.borrow_mut()[node.0 as usize]
                .singletons
                .insert(base, SingletonState::Ready(h));
        }
        Ok(value)
    }
}

// ----------------------------------------------------------------------
// Proxy call path
// ----------------------------------------------------------------------

/// A proxy method invoked on `node`: marshal, ship, execute remotely,
/// unmarshal (or re-throw).
pub(crate) fn proxy_call(
    shared: &Shared,
    node: NodeId,
    method_name: &str,
    sig: SigId,
    args: &[Value],
) -> Result<Value, VmError> {
    let vm = &shared.vms[node.0 as usize];
    let recv = args
        .first()
        .and_then(Value::as_ref_handle)
        .ok_or_else(|| VmError::type_error("proxy call without receiver"))?;
    let class = vm
        .class_of(recv)
        .ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let info = shared.gen_info.get(&class).cloned().ok_or_else(|| {
        VmError::Native(format!(
            "no proxy info for {}",
            shared.universe.class(class).name
        ))
    })?;
    let proto = info.proto.clone().expect("hooked on a proxy");
    let (mut target, mut oid) =
        read_proxy_state(vm, recv).ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let mut wire_args = Vec::with_capacity(args.len().saturating_sub(1));
    for a in &args[1..] {
        wire_args.push(marshal::value_to_wire(shared, node, a).map_err(VmError::Native)?);
    }
    let method = format!("{method_name}@{}", sig.0);
    let base_name = shared.universe.class(info.base).name.clone();
    // Property-cache fast path: a cacheable getter whose cached tag still
    // equals the owner's current version is served locally — no exchange,
    // no clock advance. Coherence rests on the tag check: every mutation
    // on the owner bumps the version, so a hit can never observe a value
    // older than the last write the owner served.
    let is_getter = shared
        .plan
        .family(info.base)
        .is_some_and(|f| match info.side {
            Side::Obj => f.getters.contains(&sig),
            Side::Cls => f.static_getters.contains(&sig),
        });
    // Replica-read fast path (E15): getters of `reads from replicas`
    // classes are served from this node's own replica copy when — and only
    // when — the copy carries the owner's *current* property version. The
    // tag check makes staleness impossible by construction (same argument
    // as the property cache): any acknowledged mutation bumped the owner's
    // version before its reply left, so a lagging copy simply fails the
    // check and the read falls through to a normal owner exchange.
    if is_getter
        && shared.any_replication
        && shared.policy.reads_from_replicas(&base_name)
        && shared.policy.replicas(&base_name) > 0
    {
        if let Some(v) = replica_read(shared, node, &base_name, &proto, &method, sig, target, oid)?
        {
            return Ok(v);
        }
    }
    let cache_on = is_getter && shared.policy.cacheable(&base_name);
    let cache_key = (target, oid, sig);
    if cache_on {
        let current = version_of(shared, target, oid);
        let cached = shared.nodes.borrow()[node.0 as usize]
            .prop_cache
            .get(&cache_key)
            .cloned();
        match cached {
            Some((tag, wv)) if tag == current && current != VERSION_TOMBSTONE => {
                bump(shared, node.0, Met::CacheHits);
                // A zero-duration exchange span keeps the read visible in
                // traces, tagged as served from the property cache.
                let now = shared.net.now().as_ns();
                let ctx = {
                    let mut spans = shared.spans.borrow_mut();
                    let h = spans.start_span("rpc.call", node.0, now);
                    spans.set_attr(h, "class", base_name.as_str());
                    spans.set_attr(h, "method", method.clone());
                    spans.set_attr(h, "protocol", proto.as_str());
                    spans.set_attr(h, "from", node.0);
                    spans.set_attr(h, "to", target);
                    spans.set_attr(h, "cached", true);
                    spans.end_span(h, now, SpanOutcome::Ok);
                    spans.context_of(h)
                };
                emit_cache_hit(shared, node, (target, oid), ctx);
                return marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native);
            }
            Some(_) => bump(shared, node.0, Met::CacheInvalidations),
            None => bump(shared, node.0, Met::CacheMisses),
        }
    }
    // Batched remote invocation: a void-returning call on a `batch on`
    // class has no result to wait for, so it is deferred onto the
    // `(caller, owner)` outcall queue instead of paying a full exchange.
    // It ships as part of a single [`Request::Batch`] frame at the next
    // synchronization point — and every value-returning call to any owner
    // *is* one, so a later read always observes the deferred writes.
    // Deferral is decided against the proxy class's own method table (the
    // generated setters only exist there, not on the base class;
    // signatures are interned globally, so the ids agree).
    if shared.policy.batched(&base_name) {
        let is_void = shared
            .universe
            .class(class)
            .methods
            .iter()
            .find(|m| m.sig == sig)
            .is_some_and(|m| m.ret == Ty::Void);
        if is_void {
            // Read-your-writes: this node's cached property reads of the
            // object no longer reflect the queue, and the version tag
            // cannot catch that (the owner has not served the write yet).
            // Drop them; the next read goes remote, which flushes first.
            {
                let mut nodes = shared.nodes.borrow_mut();
                let state = &mut nodes[node.0 as usize];
                state
                    .prop_cache
                    .retain(|&(t, o, _), _| !(t == target && o == oid));
                state
                    .prop_cache_order
                    .retain(|&(t, o, _)| !(t == target && o == oid));
            }
            enqueue_outcall(
                shared,
                node,
                NodeId(target),
                &proto,
                &base_name,
                Request::Call {
                    object: oid,
                    method,
                    args: wire_args,
                },
            );
            return Ok(Value::Null);
        }
    }
    let mut req = Request::Call {
        object: oid,
        method: method.clone(),
        args: wire_args,
    };
    // Crash-stop failover: when the owner turns out to be crashed — or has
    // restarted with amnesia and no longer knows the export — re-home the
    // proxy to a (promoted) replica and retry. At most one hop per node:
    // each hop either follows an already-recorded promotion forward or
    // performs a new one, and crash states only change between top-level
    // operations, so the loop cannot cycle.
    let mut hops = 0u32;
    let (reply, obj_version) = loop {
        let outcome = rpc(shared, node, NodeId(target), &proto, &base_name, &req);
        let rehome = match &outcome {
            Err(VmError::Unreachable(nf)) => {
                matches!(nf.kind, NetFailureKind::NodeCrashed(_))
            }
            Ok((Reply::Fault(m), _)) => m.starts_with("unknown object "),
            _ => false,
        };
        if rehome && hops <= shared.vms.len() as u32 {
            if let Some((nn, noid)) =
                failover(shared, node, recv, class, &proto, &base_name, target, oid)
            {
                hops += 1;
                (target, oid) = (nn, noid);
                let Request::Call { method, args, .. } = req else {
                    unreachable!("proxy calls only send Call requests")
                };
                req = Request::Call {
                    object: oid,
                    method,
                    args,
                };
                continue;
            }
        }
        break outcome?;
    };
    let cache_key = (target, oid, sig);
    match reply {
        Reply::Value(wv) => {
            if cache_on && obj_version != VERSION_TOMBSTONE {
                let mut nodes = shared.nodes.borrow_mut();
                let state = &mut nodes[node.0 as usize];
                if !state.prop_cache.contains_key(&cache_key) {
                    if state.prop_cache_order.len() >= PROP_CACHE_CAP {
                        if let Some(evict) = state.prop_cache_order.pop_front() {
                            state.prop_cache.remove(&evict);
                        }
                    }
                    state.prop_cache_order.push_back(cache_key);
                }
                state
                    .prop_cache
                    .insert(cache_key, (obj_version, wv.clone()));
            }
            marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native)
        }
        Reply::Exception { class, fields } => {
            let exc_class = shared
                .universe
                .by_name(&class)
                .ok_or_else(|| VmError::Native(format!("unknown exception class {class}")))?;
            let mut values = Vec::with_capacity(fields.len());
            for f in &fields {
                values.push(marshal::wire_to_value(shared, node, f).map_err(VmError::Native)?);
            }
            let h = vm.alloc_raw(exc_class, values);
            Err(VmError::Exception(h))
        }
        Reply::Fault(m) => Err(VmError::Native(m)),
        Reply::Batch(_) => Err(VmError::Native("unexpected batch reply to a call".into())),
    }
}

/// Serve a getter from `node`'s own replica copy of `(owner, oid)`, iff
/// the copy's version equals the owner's current property version (and the
/// export has not been tombstoned by a move). `Ok(None)` means the node
/// holds no copy or the copy lags — the caller falls through to a normal
/// owner exchange, whose served reply restores the replica's currency.
///
/// In the simulated topology every inter-node link costs the same, so the
/// nearest *profitable* replica is always the caller's own store: remote
/// replicas would cost exactly what the owner does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replica_read(
    shared: &Shared,
    node: NodeId,
    base_name: &str,
    proto: &str,
    method: &str,
    sig: SigId,
    owner: u32,
    oid: u64,
) -> Result<Option<Value>, VmError> {
    if owner == node.0 {
        return Ok(None);
    }
    let current = version_of(shared, owner, oid);
    if current == VERSION_TOMBSTONE {
        return Ok(None);
    }
    let copy = shared.nodes.borrow()[node.0 as usize]
        .replica_store
        .get(&(owner, oid))
        .cloned();
    let Some((version, class_name, fields)) = copy else {
        return Ok(None);
    };
    if version != current {
        return Ok(None);
    }
    let Some(local_class) = shared.universe.by_name(&class_name) else {
        return Ok(None);
    };
    // Materialise a throwaway local instance from the replica's wire-form
    // state and run the real getter bytecode against it — no field-layout
    // knowledge needed here, and the temporary is unrooted garbage after
    // the call returns.
    let vm = &shared.vms[node.0 as usize];
    let mut values = Vec::with_capacity(fields.len());
    for f in &fields {
        values.push(marshal::wire_to_value(shared, node, f).map_err(VmError::Native)?);
    }
    let h = vm.alloc_raw(local_class, values);
    let result = vm.call_virtual(Value::Ref(h), sig, vec![])?;
    bump(shared, node.0, Met::ReplicaReads);
    // A zero-duration span keeps the read visible in traces; the CacheHit
    // monitor event puts it under the E14 stale-read oracle like every
    // other locally served read.
    let now = shared.net.now().as_ns();
    let ctx = {
        let mut spans = shared.spans.borrow_mut();
        let sh = spans.start_span("rpc.call", node.0, now);
        spans.set_attr(sh, "class", base_name);
        spans.set_attr(sh, "method", method.to_owned());
        spans.set_attr(sh, "protocol", proto);
        spans.set_attr(sh, "from", node.0);
        spans.set_attr(sh, "to", owner);
        spans.set_attr(sh, "replica_read", true);
        spans.end_span(sh, now, SpanOutcome::Ok);
        spans.context_of(sh)
    };
    emit_cache_hit(shared, node, (owner, oid), ctx);
    Ok(Some(result))
}

/// Client-side re-homing after the owner of `(target, oid)` turned out to
/// be crashed, or restarted with amnesia. Follows the chain of recorded
/// promotions first; only if it dead-ends on a dead (or amnesiac) location
/// does it ask that location's replicas — lowest node id first — to promote
/// their backup copy. On success the proxy `recv` is rewritten in place to
/// the new home, which is also returned; `None` means no live replica could
/// take over and the original failure stands.
///
/// The whole re-homing is wrapped in a `rpc.failover` span chained via
/// `retry_of` to the exchange that failed, so traces show the causal link
/// from the dead owner to the promoted copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn failover(
    shared: &Shared,
    node: NodeId,
    recv: Handle,
    proxy_class: ClassId,
    proto: &str,
    base_name: &str,
    target: u32,
    oid: u64,
) -> Option<(u32, u64)> {
    let start = shared.net.now().as_ns();
    let span = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.failover", node.0, start);
        spans.set_attr(h, "class", base_name);
        spans.set_attr(h, "protocol", proto);
        spans.set_attr(h, "from", node.0);
        spans.set_attr(h, "old_home", format!("{target}#{oid}"));
        let prior = shared.last_exchange_span.get();
        if prior != 0 {
            spans.set_retry_of(h, prior);
        }
        h
    };
    let home = locate_home(shared, node, proto, base_name, target, oid);
    let end = shared.net.now().as_ns();
    {
        let mut spans = shared.spans.borrow_mut();
        match home {
            Some((nn, noid)) => {
                spans.set_attr(span, "new_home", format!("{nn}#{noid}"));
                spans.end_span(span, end, SpanOutcome::Ok);
            }
            None => spans.end_span(span, end, SpanOutcome::NetFailure),
        }
    }
    let (nn, noid) = home?;
    // When this node itself promoted the object, the backup was materialised
    // straight into `recv` (the import rewritten in place, as with Install):
    // `recv` already IS the object, and re-proxying it would create a proxy
    // that points at itself.
    if !(nn == node.0 && lookup_export(shared, node, noid) == Some(recv)) {
        let vm = &shared.vms[node.0 as usize];
        vm.replace_object(
            recv,
            proxy_class,
            vec![Value::Int(nn as i32), Value::Long(noid as i64)],
        );
        // The old import entry stays: a reference to the dead location that
        // arrives later materialises through it and lands on this re-homed
        // proxy — the same logical object.
        cache_import(shared, node, nn, noid, recv);
    }
    bump(shared, node.0, Met::Failovers);
    Some((nn, noid))
}

/// Find the live home of `(target, oid)`: follow recorded promotions, then
/// ask the terminal location's replicas to promote their backup, lowest
/// node id first. Returns `None` when nobody can take over — the class is
/// unreplicated, or every backup is down or lost its copy.
pub(crate) fn locate_home(
    shared: &Shared,
    node: NodeId,
    proto: &str,
    base_name: &str,
    target: u32,
    oid: u64,
) -> Option<(u32, u64)> {
    let crashed = |n: u32| shared.net.fault_plan(|f| f.is_crashed(NodeId(n)));
    let (tn, toid) = shared.directory.borrow().resolve((target, oid));
    // Only route to the chain's end while the promoted copy is actually
    // there: a terminal node that crash-restarted has a wiped registry, and
    // sending callers to it would loop through "unknown object" faults
    // instead of promoting one of the copy's own backups below.
    if (tn, toid) != (target, oid)
        && !crashed(tn)
        && lookup_export(shared, NodeId(tn), toid).is_some()
    {
        return Some((tn, toid));
    }
    let k = shared.policy.replicas(base_name);
    if k == 0 {
        return None;
    }
    for c in replica_targets(k, tn, shared.vms.len() as u32) {
        // The fault-plan lookup stands in for a failure detector: known-dead
        // candidates are skipped instead of timed out against.
        if crashed(c) {
            continue;
        }
        let req = Request::Promote {
            node: tn,
            object: toid,
        };
        match rpc(shared, node, NodeId(c), proto, base_name, &req) {
            Ok((
                Reply::Value(WireValue::Remote {
                    node: nn,
                    object: noid,
                    ..
                }),
                _,
            )) => return Some((nn, noid)),
            // A fault (the backup restarted and lost its copy) or a network
            // failure both mean: try the next candidate.
            _ => continue,
        }
    }
    None
}

// ----------------------------------------------------------------------
// Batched remote invocation
// ----------------------------------------------------------------------

/// Operations deferred toward one owner by one caller, flushed as a single
/// [`Request::Batch`] exchange at the next synchronization point. The
/// protocol and class recorded at first enqueue label the flush exchange
/// (all ops on one queue use the owner's protocol anyway).
#[derive(Debug)]
pub(crate) struct PendingBatch {
    pub(crate) proto: String,
    pub(crate) class: String,
    pub(crate) ops: Vec<Request>,
}

/// Defer `op` onto the `(from, to)` outcall queue instead of performing an
/// exchange now.
pub(crate) fn enqueue_outcall(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    proto: &str,
    class: &str,
    op: Request,
) {
    let mut queues = shared.outqueues.borrow_mut();
    let pending = queues
        .entry((from.0, to.0))
        .or_insert_with(|| PendingBatch {
            proto: proto.to_owned(),
            class: class.to_owned(),
            ops: Vec::new(),
        });
    // Replica shipments supersede each other: only the newest state of an
    // export needs to travel, so a queued sync of the same object is
    // replaced in place (keeping its slot preserves the order of the other
    // queued operations).
    let sync_of = match &op {
        Request::ReplicaSync { object, .. } => Some(*object),
        _ => None,
    };
    if let Some(target_oid) = sync_of {
        if let Some(slot) = pending
            .ops
            .iter_mut()
            .find(|q| matches!(**q, Request::ReplicaSync { object, .. } if object == target_oid))
        {
            *slot = op;
            drop(queues);
            bump(shared, from.0, Met::BatchedOps);
            return;
        }
    }
    pending.ops.push(op);
    drop(queues);
    bump(shared, from.0, Met::BatchedOps);
}

/// Drain every pending outcall queue, shipping each as one
/// [`Request::Batch`] exchange. Called at every synchronization point: any
/// top-level exchange, fetch/migrate/pull, an adaptation tick,
/// crash/restart, a clock read, and [`Cluster::flush`].
///
/// Serving a batch can enqueue follow-up operations (replica shipments of
/// the applied calls, ops re-deferred through a forwarding proxy), so the
/// drain loops until quiescent; queues go out in sorted key order so runs
/// stay deterministic. After the first failure the remaining queues still
/// drain — their operations must not be silently lost — and the first
/// error is reported.
///
/// With batching off the queues are permanently empty and this returns
/// after one emptiness check, leaving clocks, traces and telemetry
/// byte-identical to a runtime without batching.
pub(crate) fn flush_outqueues(shared: &Shared) -> Result<(), VmError> {
    if shared.in_flush.get() || shared.outqueues.borrow().is_empty() {
        return Ok(());
    }
    shared.in_flush.set(true);
    let mut first_err = None;
    loop {
        let mut keys: Vec<(u32, u32)> = shared.outqueues.borrow().keys().copied().collect();
        if keys.is_empty() {
            break;
        }
        keys.sort_unstable();
        for key in keys {
            let Some(pending) = shared.outqueues.borrow_mut().remove(&key) else {
                continue;
            };
            bump(shared, key.0, Met::Flushes);
            let (from, to) = (NodeId(key.0), NodeId(key.1));
            let outcome = rpc(
                shared,
                from,
                to,
                &pending.proto,
                &pending.class,
                &Request::Batch(pending.ops.clone()),
            );
            // The owner died between the deferral and this flush (delivery
            // refused, nothing applied). The accepted calls must not be
            // lost: re-home each onto the object's promoted backup — the
            // same failover a synchronous call would take — and re-defer
            // it there; this drain loop ships the new queues. Replica
            // shipments for the dead node are dropped: restart clears the
            // synced-version marks, so the owner re-seeds it at its next
            // sync anyway.
            let node_crashed = matches!(
                &outcome,
                Err(e) if matches!(
                    e.net_failure().map(|nf| nf.kind),
                    Some(NetFailureKind::NodeCrashed(_))
                )
            );
            if node_crashed {
                for op in pending.ops {
                    let Request::Call { object, .. } = &op else {
                        continue;
                    };
                    match locate_home(shared, from, &pending.proto, &pending.class, to.0, *object) {
                        Some((nn, noid)) => {
                            let Request::Call { method, args, .. } = op else {
                                unreachable!("matched above");
                            };
                            enqueue_outcall(
                                shared,
                                from,
                                NodeId(nn),
                                &pending.proto,
                                &pending.class,
                                Request::Call {
                                    object: noid,
                                    method,
                                    args,
                                },
                            );
                            bump(shared, from.0, Met::Failovers);
                        }
                        // Nobody can take over (unreplicated, or every
                        // backup is gone): the deferred call is lost for
                        // real — surface that at this synchronization
                        // point like any other flush failure.
                        None => {
                            if first_err.is_none() {
                                first_err =
                                    outcome.as_ref().err().cloned().or_else(|| {
                                        Some(VmError::Native("deferred call lost".into()))
                                    });
                            }
                        }
                    }
                }
            } else if first_err.is_none() {
                first_err = flush_error(shared, from, outcome);
            }
        }
    }
    shared.in_flush.set(false);
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Surface the outcome of one flushed batch at the synchronization point
/// that triggered it: network failures and faults propagate as-is, and a
/// deferred operation that threw when it finally ran re-materialises its
/// exception on the flushing node.
fn flush_error(
    shared: &Shared,
    from: NodeId,
    outcome: Result<(Reply, u64), VmError>,
) -> Option<VmError> {
    let results = match outcome {
        Err(e) => return Some(e),
        Ok((Reply::Batch(results), _)) => results,
        Ok((Reply::Fault(m), _)) => return Some(VmError::Native(m)),
        Ok(_) => return None,
    };
    for (_, r) in results {
        match r {
            Reply::Value(_) => {}
            Reply::Exception { class, fields } => {
                let Some(exc_class) = shared.universe.by_name(&class) else {
                    return Some(VmError::Native(format!("unknown exception class {class}")));
                };
                let mut values = Vec::with_capacity(fields.len());
                for f in &fields {
                    match marshal::wire_to_value(shared, from, f) {
                        Ok(v) => values.push(v),
                        Err(m) => return Some(VmError::Native(m)),
                    }
                }
                let h = shared.vms[from.0 as usize].alloc_raw(exc_class, values);
                return Some(VmError::Exception(h));
            }
            Reply::Fault(m) => return Some(VmError::Native(m)),
            Reply::Batch(_) => return Some(VmError::Native("nested batch reply".into())),
        }
    }
    None
}

/// Perform one request/reply exchange, running the full encode → transmit →
/// decode → handle → encode → transmit → decode pipeline and charging the
/// protocol-stack overhead to the simulated clock.
///
/// Returns the reply together with the served object's property version as
/// piggybacked on the reply frame (0 for request kinds that do not address
/// a versioned export).
pub(crate) fn rpc(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    proto: &str,
    class: &str,
    req: &Request,
) -> Result<(Reply, u64), VmError> {
    // Every exchange is a synchronization point: pending batches drain
    // before this request goes out, so its server observes every operation
    // deferred before it in program order. This must hold at *any* rpc
    // depth — application code usually runs inside a serve already (the
    // driver's `main` is itself a remote call), so gating on depth 0 would
    // let nested value-returning calls read state whose mutations are still
    // queued. Re-entrancy is safe: `flush_outqueues` is a no-op while a
    // flush is already draining (`in_flush`), and the paths that snapshot
    // object state (migrate, pull, replica sync of batched classes) flush
    // or enqueue explicitly before snapshotting. With batching off the
    // queues are permanently empty and this is a single emptiness check.
    //
    // The time-series sample is taken first for the same reason in
    // reverse: queue-depth readings must see the work this flush is about
    // to drain.
    maybe_sample(shared);
    flush_outqueues(shared)?;
    // A promoted object's local mutations bypass the serve path entirely;
    // the next exchange is the first chance to notice its backups are
    // behind. If application code is mid-flight on the calling node (an
    // open app frame), anything it mutated bare so far must be probed by
    // this very sweep — the old full-table sweep shipped such state here,
    // and nested calls may observe it through their own replicas.
    mark_if_framed(shared, from.0);
    sync_dirty_replicas(shared);
    let codec = shared
        .protocols
        .get(proto)
        .ok_or_else(|| VmError::Native(format!("no codec for protocol {proto}")))?;
    if shared.rpc_depth.get() >= MAX_RPC_DEPTH {
        return Err(VmError::Native(
            "rpc depth limit exceeded (unbounded distributed recursion?)".into(),
        ));
    }
    shared.rpc_depth.set(shared.rpc_depth.get() + 1);
    let result = rpc_inner(shared, from, to, codec.as_ref(), class, req);
    shared.rpc_depth.set(shared.rpc_depth.get() - 1);
    result
}

/// The span name of an exchange for one request kind.
fn req_span_name(req: &Request) -> (&'static str, &'static str) {
    match req {
        Request::Call { .. } => ("rpc.call", "serve.call"),
        Request::Create { .. } => ("rpc.create", "serve.create"),
        Request::Discover { .. } => ("rpc.discover", "serve.discover"),
        Request::Fetch { .. } => ("rpc.fetch", "serve.fetch"),
        Request::Install { .. } => ("rpc.install", "serve.install"),
        Request::Forward { .. } => ("rpc.forward", "serve.forward"),
        Request::ReplicaSync { .. } => ("rpc.replica", "serve.replica"),
        Request::Promote { .. } => ("rpc.promote", "serve.promote"),
        Request::Batch(..) => ("rpc.batch", "serve.batch"),
    }
}

/// The method label recorded on an exchange span: the wire method string
/// for calls, a pseudo-method for the runtime-internal request kinds.
fn req_method_label(req: &Request) -> String {
    match req {
        Request::Call { method, .. } => method.clone(),
        Request::Create { ctor, .. } => format!("<create:{ctor}>"),
        Request::Discover { .. } => "<discover>".to_owned(),
        Request::Fetch { .. } => "<fetch>".to_owned(),
        Request::Install { .. } => "<install>".to_owned(),
        Request::Forward { .. } => "<forward>".to_owned(),
        Request::ReplicaSync { .. } => "<replica>".to_owned(),
        Request::Promote { .. } => "<promote>".to_owned(),
        Request::Batch(..) => "<batch>".to_owned(),
    }
}

/// The typed mirror of a transport error (same data, no crate dependency
/// from the VM on the network).
fn net_failure_kind(e: &NetError) -> NetFailureKind {
    match e {
        NetError::Dropped => NetFailureKind::Dropped,
        NetError::Partitioned { from, to } => NetFailureKind::Partitioned {
            from: from.0,
            to: to.0,
        },
        NetError::NodeCrashed(n) => NetFailureKind::NodeCrashed(n.0),
        NetError::NoSuchNode(n) => NetFailureKind::NoSuchNode(n.0),
    }
}

fn rpc_inner(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    codec: &dyn Protocol,
    class: &str,
    req: &Request,
) -> Result<(Reply, u64), VmError> {
    let msg_id = shared.next_msg_id.get();
    shared.next_msg_id.set(msg_id + 1);
    let (exch_name, _) = req_span_name(req);
    // The exchange span covers the whole request/reply exchange, retries
    // included. Its context travels in the frame header — the frame is
    // encoded once and retransmitted verbatim, so the wire cannot carry
    // per-attempt contexts; attempts are recorded as client-local children.
    let (exch, ctx) = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span(exch_name, from.0, shared.net.now().as_ns());
        spans.set_attr(h, "class", class);
        spans.set_attr(h, "method", req_method_label(req));
        spans.set_attr(h, "protocol", codec.name());
        spans.set_attr(h, "from", from.0);
        spans.set_attr(h, "to", to.0);
        if let Request::Batch(ops) = req {
            spans.set_attr(h, "n_ops", ops.len());
        }
        let ctx = spans.context_of(h);
        (h, ctx)
    };
    // Encode once: every retransmission sends the same frame, same id
    // (which also makes re-interning on the decode side idempotent). The
    // buffer comes from the link's pool and goes back when the exchange
    // finishes; the signature table is the directed link's, so repeated
    // method/class names shrink to 5-byte references after their first
    // frame.
    let mut bytes = shared.wire_bufs.borrow_mut().checkout(from, to);
    let encoded = {
        let mut tables = shared.sig_tables.borrow_mut();
        let table = tables.entry((from.0, to.0)).or_default();
        codec.encode_request_into(msg_id, ctx, req, Some(table), &mut bytes)
    };
    if let Err(e) = encoded {
        shared.wire_bufs.borrow_mut().put_back(from, to, bytes);
        let end = shared.net.now().as_ns();
        let mut spans = shared.spans.borrow_mut();
        spans.end_span(exch, end, SpanOutcome::Fault);
        shared.last_exchange_span.set(spans.span_id_of(exch));
        return Err(VmError::Native(format!("request encode failed: {e}")));
    }
    shared
        .spans
        .borrow_mut()
        .set_attr(exch, "bytes_out", bytes.len());
    let policy = shared.retry.get();
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut prev_attempt_span: Option<u64> = None;
    let result = loop {
        attempt += 1;
        if attempt > 1 {
            // Back off on the simulated clock before retransmitting, so the
            // cost of fault tolerance is charged deterministically.
            shared.net.advance(policy.backoff_ns(attempt - 1));
            bump(shared, from.0, Met::Retries);
        }
        // Each transmission attempt is a child span: retransmissions get
        // fresh span ids within the same trace and point at the attempt
        // they retry via `retry_of`.
        let attempt_start = shared.net.now().as_ns();
        let att = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span("rpc.attempt", from.0, attempt_start);
            spans.set_attr(h, "attempt", attempt);
            if let Some(prev) = prev_attempt_span {
                spans.set_retry_of(h, prev);
            }
            h
        };
        match attempt_exchange(shared, from, to, codec, msg_id, &bytes, attempt) {
            Ok((reply, obj_version)) => {
                let end = shared.net.now().as_ns();
                shared.obs.borrow_mut().record_attempts(from.0, attempt);
                let outcome = reply_outcome(&reply);
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::Ok);
                spans.record_link(from.0, to.0, end.saturating_sub(attempt_start));
                spans.set_attr(exch, "attempts", attempt);
                spans.end_span(exch, end, outcome);
                shared.last_exchange_span.set(spans.span_id_of(exch));
                break Ok((reply, obj_version));
            }
            Err(kind) if kind.is_transient() && attempt < max_attempts => {
                let end = shared.net.now().as_ns();
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::NetFailure);
                prev_attempt_span = Some(spans.span_id_of(att));
                continue;
            }
            Err(kind) => {
                let end = shared.net.now().as_ns();
                {
                    let mut obs = shared.obs.borrow_mut();
                    obs.inc(from.0, Met::NetFailures);
                    obs.record_attempts(from.0, attempt);
                }
                let mut spans = shared.spans.borrow_mut();
                spans.end_span(att, end, SpanOutcome::NetFailure);
                spans.set_attr(exch, "attempts", attempt);
                spans.end_span(exch, end, SpanOutcome::NetFailure);
                shared.last_exchange_span.set(spans.span_id_of(exch));
                break Err(VmError::Unreachable(NetFailure::new(kind, attempt)));
            }
        }
    };
    shared.wire_bufs.borrow_mut().put_back(from, to, bytes);
    result
}

/// One transmission attempt of an exchange: request over the wire, serve
/// (with duplicate suppression), reply back over the wire.
fn attempt_exchange(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    codec: &dyn Protocol,
    msg_id: u64,
    bytes: &[u8],
    attempt: u32,
) -> Result<(Reply, u64), NetFailureKind> {
    shared
        .net
        .transmit(from, to, bytes.len())
        .map_err(|e| net_failure_kind(&e))?;
    // Zero-copy fast path: only the header is parsed here. Whether this
    // attempt is a dedup hit (answered from the reply cache) is decided on
    // the borrowed header alone; the owned request tree is built inside
    // `serve_frame` only when the request is actually invoked.
    let header = codec
        .decode_request_header(bytes)
        .expect("own encoding must decode");
    debug_assert_eq!(header.msg_id, msg_id);
    if attempt > 1 {
        bump(shared, to.0, Met::Retransmits);
    }
    let (reply, reply_ctx, obj_version) = serve_frame(shared, to, from, &header);
    let mut reply_bytes = shared.wire_bufs.borrow_mut().checkout(to, from);
    let encoded = {
        let mut tables = shared.sig_tables.borrow_mut();
        let table = tables.entry((to.0, from.0)).or_default();
        codec.encode_reply_into(
            msg_id,
            reply_ctx,
            obj_version,
            &reply,
            Some(table),
            &mut reply_bytes,
        )
    };
    if let Err(e) = encoded {
        // The reply itself cannot be framed (e.g. a >4 GiB string): answer
        // a fault instead. The fallback is a short stateless frame, which
        // cannot itself fail to encode.
        let fault = Reply::Fault(format!("reply encode failed: {e}"));
        reply_bytes.clear();
        codec
            .encode_reply_into(
                msg_id,
                reply_ctx,
                obj_version,
                &fault,
                None,
                &mut reply_bytes,
            )
            .expect("fault reply must encode");
    }
    if let Err(e) = shared.net.transmit(to, from, reply_bytes.len()) {
        shared
            .wire_bufs
            .borrow_mut()
            .put_back(to, from, reply_bytes);
        return Err(net_failure_kind(&e));
    }
    shared.net.advance(2 * codec.overhead_ns());
    let decoded = {
        let mut tables = shared.sig_tables.borrow_mut();
        let table = tables.entry((to.0, from.0)).or_default();
        codec.decode_reply_with(&reply_bytes, Some(table))
    };
    let (_, _, obj_version, reply) = decoded.expect("own encoding must decode");
    shared
        .wire_bufs
        .borrow_mut()
        .put_back(to, from, reply_bytes);
    Ok((reply, obj_version))
}

/// Serve a delivered request with at-most-once semantics: if this
/// `(caller, message id)` was already answered, return the cached reply
/// without re-executing — a retransmission must never apply a mutating
/// method twice.
///
/// Records a `serve.*` span whose parent comes from the wire context, which
/// is what stitches the hops of a multi-node chain into one trace. Returns
/// the reply, the serve span's context, and the addressed export's current
/// property version (0 for request kinds that address no export) — both of
/// which ride back in the reply header.
#[cfg(test)] // production traffic arrives as frames (`serve_frame`)
pub(crate) fn serve_request(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    msg_id: u64,
    ctx: TraceContext,
    req: Request,
) -> (Reply, TraceContext, u64) {
    let kind = RequestKind::of(&req);
    serve_core(shared, node, caller, msg_id, ctx, kind, move |_| Ok(req))
}

/// The `serve.*` span name of one request discriminant. Decodable from a
/// borrowed frame header, so even a dedup-hit replay (which never builds
/// the owned request) records a correctly named span.
fn serve_span_name(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::Call => "serve.call",
        RequestKind::Create => "serve.create",
        RequestKind::Discover => "serve.discover",
        RequestKind::Fetch => "serve.fetch",
        RequestKind::Install => "serve.install",
        RequestKind::Forward => "serve.forward",
        RequestKind::ReplicaSync => "serve.replica",
        RequestKind::Promote => "serve.promote",
        RequestKind::Batch => "serve.batch",
    }
}

/// Serve a delivered frame: the dedup decision is made on the borrowed
/// header, and the owned request tree is only materialised (resolving
/// signature references against the link's table) when the request is
/// actually going to be invoked.
pub(crate) fn serve_frame(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    header: &FrameHeader<'_>,
) -> (Reply, TraceContext, u64) {
    serve_core(
        shared,
        node,
        caller,
        header.msg_id,
        header.ctx,
        header.kind,
        |shared| {
            let mut tables = shared.sig_tables.borrow_mut();
            let table = tables.entry((caller.0, node.0)).or_default();
            header
                .materialise(Some(table))
                .map_err(|e| format!("malformed request frame: {e}"))
        },
    )
}

fn serve_core(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    msg_id: u64,
    ctx: TraceContext,
    kind: RequestKind,
    materialise: impl FnOnce(&Shared) -> Result<Request, String>,
) -> (Reply, TraceContext, u64) {
    let serve_name = serve_span_name(kind);
    let (span, reply_ctx) = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_server_span(serve_name, node.0, shared.net.now().as_ns(), ctx);
        spans.set_attr(h, "caller", caller.0);
        let reply_ctx = spans.context_of(h);
        (h, reply_ctx)
    };
    let key = (caller.0, msg_id);
    let cached = shared.nodes.borrow()[node.0 as usize]
        .reply_cache
        .get(&key)
        .cloned();
    if let Some((reply, obj_version)) = cached {
        // A dedup hit replays the *stored* version, not the current one:
        // the object may have moved on since the original serve, and a
        // reply tagged with the newer version would let the client cache
        // the old value as if it were fresh — serving a stale read until
        // the next mutation. Note the request payload was never
        // materialised on this path — the decision used the header alone.
        bump(shared, node.0, Met::DedupHits);
        {
            let mut spans = shared.spans.borrow_mut();
            spans.set_attr(span, "cached", true);
            spans.end_span(span, shared.net.now().as_ns(), reply_outcome(&reply));
        }
        if monitors_on(shared) {
            shared.obs.borrow_mut().emit(&MonitorEvent::Execution {
                node: node.0,
                caller: caller.0,
                msg_id,
                replay: true,
                span_id: reply_ctx.span_id,
                trace_id: reply_ctx.trace_id,
            });
        }
        return (reply, reply_ctx, obj_version);
    }
    let req = match materialise(shared) {
        Ok(req) => req,
        Err(m) => {
            // The frame identified itself well enough to route but its
            // payload is malformed: answer a fault (not cached — a
            // retransmission carries the same bytes and faults the same
            // way, so caching would only occupy a dedup slot).
            bump(shared, node.0, Met::Faults);
            let reply = Reply::Fault(m);
            shared.spans.borrow_mut().end_span(
                span,
                shared.net.now().as_ns(),
                reply_outcome(&reply),
            );
            return (reply, reply_ctx, 0);
        }
    };
    if let Request::Batch(ops) = &req {
        shared.spans.borrow_mut().set_attr(span, "n_ops", ops.len());
    }
    // The export whose property version the reply piggybacks. Read *after*
    // handling, so a setter's own reply already carries the bumped version.
    let versioned_oid = match &req {
        Request::Call { object, .. } | Request::Fetch { object } => Some(*object),
        _ => None,
    };
    let version_now =
        |shared: &Shared| versioned_oid.map_or(0, |oid| version_of(shared, node.0, oid));
    let reply = handle_request(shared, node, caller, req);
    let obj_version = version_now(shared);
    if monitors_on(shared) {
        shared.obs.borrow_mut().emit(&MonitorEvent::Execution {
            node: node.0,
            caller: caller.0,
            msg_id,
            replay: false,
            span_id: reply_ctx.span_id,
            trace_id: reply_ctx.trace_id,
        });
    }
    {
        let mut nodes = shared.nodes.borrow_mut();
        let state = &mut nodes[node.0 as usize];
        if state
            .reply_cache
            .insert(key, (reply.clone(), obj_version))
            .is_none()
        {
            state.reply_cache_order.push_back(key);
            while state.reply_cache_order.len() > REPLY_CACHE_CAP {
                if let Some(old) = state.reply_cache_order.pop_front() {
                    state.reply_cache.remove(&old);
                }
            }
        }
    }
    shared
        .spans
        .borrow_mut()
        .end_span(span, shared.net.now().as_ns(), reply_outcome(&reply));
    (reply, reply_ctx, obj_version)
}

/// Span outcome of a served reply. A batch is `Ok` only if every batched
/// operation succeeded.
pub(crate) fn reply_outcome(reply: &Reply) -> SpanOutcome {
    match reply {
        Reply::Value(_) => SpanOutcome::Ok,
        Reply::Exception { .. } | Reply::Fault(_) => SpanOutcome::Fault,
        Reply::Batch(results) => {
            if results.iter().any(|(_, r)| !matches!(r, Reply::Value(_))) {
                SpanOutcome::Fault
            } else {
                SpanOutcome::Ok
            }
        }
    }
}

// ----------------------------------------------------------------------
// Server side
// ----------------------------------------------------------------------

/// Execute a request on `node` (the server side of the RPC).
pub(crate) fn handle_request(shared: &Shared, node: NodeId, caller: NodeId, req: Request) -> Reply {
    let reply = dispatch_request(shared, node, caller, req);
    if matches!(reply, Reply::Fault(_)) {
        bump(shared, node.0, Met::Faults);
    }
    reply
}

fn dispatch_request(shared: &Shared, node: NodeId, caller: NodeId, req: Request) -> Reply {
    let vm = &shared.vms[node.0 as usize];
    match req {
        Request::Call {
            object,
            method,
            args,
        } => {
            bump(shared, node.0, Met::RpcCalls);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            // Affinity is only meaningful where the object actually lives.
            // A forwarding proxy left behind by a migration serves nothing
            // itself; counting its forwarded traffic would hand the
            // adaptation loops a moved-away location to act on.
            if is_local_impl(shared, node.0, h) {
                shared
                    .directory
                    .borrow_mut()
                    .record_call((node.0, object), caller.0);
            }
            let Some(sig) = parse_method(&method) else {
                return Reply::Fault(format!("malformed method {method}"));
            };
            // Anything other than a property getter may mutate the object
            // (setters, init$k, arbitrary methods), so it bumps the property
            // version and invalidates every proxy-side cached read. Objects
            // whose class cannot be resolved bump conservatively.
            let is_getter = vm
                .class_of(h)
                .and_then(|c| shared.gen_info.get(&c))
                .and_then(|info| shared.plan.family(info.base).map(|f| (f, info.side)))
                .is_some_and(|(f, side)| match side {
                    Side::Obj => f.getters.contains(&sig),
                    Side::Cls => f.static_getters.contains(&sig),
                });
            if !is_getter {
                bump_version(shared, node.0, object);
            }
            let mut values = Vec::with_capacity(args.len());
            for a in &args {
                match marshal::wire_to_value(shared, node, a) {
                    Ok(v) => values.push(v),
                    Err(m) => return Reply::Fault(m),
                }
            }
            let reply = {
                // Non-getter app code runs under an app frame: any nested
                // exchange it makes probes this node's replicated state
                // first, and the frame's exit mark covers trailing bare
                // mutations (the method may touch local objects besides
                // the receiver, which `bump_version` above already marked).
                let _frame = (!is_getter).then(|| AppFrame::enter(shared, node.0));
                match vm.call_virtual(Value::Ref(h), sig, values) {
                    Ok(v) => match marshal::value_to_wire(shared, node, &v) {
                        Ok(wv) => Reply::Value(wv),
                        Err(m) => Reply::Fault(m),
                    },
                    Err(VmError::Exception(exc)) => exception_reply(shared, node, exc),
                    Err(other) => Reply::Fault(other.to_string()),
                }
            };
            // Anything that may have mutated the object re-ships it to its
            // backups before the reply leaves, so a replica promoted after
            // a later crash holds every mutation this owner acknowledged.
            if !is_getter {
                sync_replicas(shared, node, object);
            }
            reply
        }
        Request::Create { class, .. } => {
            bump(shared, node.0, Met::RpcCreates);
            let Some(base) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let Some(family) = shared.plan.family(base).cloned() else {
                return Reply::Fault(format!("{class} is not substitutable"));
            };
            if family.has_statics {
                if let Err(e) = discover_value(shared, node, base) {
                    return Reply::Fault(e.to_string());
                }
            }
            let h = default_instance(shared, node, family.obj_local);
            let oid = export(shared, node, h);
            // Replicate the freshly created object at once: an owner that
            // crashes before serving any call must not take it along.
            sync_replicas(shared, node, oid);
            Reply::Value(WireValue::Remote {
                node: node.0,
                object: oid,
                class: shared.universe.class(family.obj_local).name.clone(),
            })
        }
        Request::Discover { class } => {
            bump(shared, node.0, Met::RpcDiscovers);
            let Some(base) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            match discover_value(shared, node, base) {
                Ok(Value::Ref(h)) => {
                    let rt_class = vm.class_of(h).expect("live singleton");
                    // The stale-promotion guard may have resolved to a
                    // *proxy* for a copy promoted onto another node. Reply
                    // with the copy's real location instead of exporting
                    // the proxy, which would add a pointless double hop
                    // (and re-anchor the singleton to this node).
                    let is_proxy = shared
                        .gen_info
                        .get(&rt_class)
                        .is_some_and(|i| i.proto.is_some());
                    if is_proxy {
                        if let Some((tn, toid)) = read_proxy_state(vm, h) {
                            let class = lookup_export(shared, NodeId(tn), toid)
                                .and_then(|th| shared.vms[tn as usize].class_of(th))
                                .map(|c| shared.universe.class(c).name.clone());
                            if let Some(class) = class {
                                return Reply::Value(WireValue::Remote {
                                    node: tn,
                                    object: toid,
                                    class,
                                });
                            }
                        }
                        return Reply::Fault(format!("promoted singleton of {class} vanished"));
                    }
                    let oid = export(shared, node, h);
                    // Record the canonical export the first time the
                    // singleton becomes remotely visible; singleton
                    // resolution follows the promotion chain from here.
                    shared
                        .directory
                        .borrow_mut()
                        .canonical_static(&class, (node.0, oid));
                    sync_replicas(shared, node, oid);
                    Reply::Value(WireValue::Remote {
                        node: node.0,
                        object: oid,
                        class: shared.universe.class(rt_class).name.clone(),
                    })
                }
                Ok(other) => Reply::Fault(format!("discover returned {other}")),
                Err(VmError::Exception(exc)) => exception_reply(shared, node, exc),
                Err(e) => Reply::Fault(e.to_string()),
            }
        }
        Request::Fetch { object } => {
            bump(shared, node.0, Met::RpcFetches);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            let Some((class, fields)) = vm.read_object(h) else {
                return Reply::Fault("stale export".into());
            };
            let mut wire_fields = Vec::with_capacity(fields.len());
            for f in &fields {
                match marshal::value_to_wire(shared, node, f) {
                    Ok(wv) => wire_fields.push(wv),
                    Err(m) => return Reply::Fault(m),
                }
            }
            Reply::Value(WireValue::ObjectState {
                class: shared.universe.class(class).name.clone(),
                fields: wire_fields,
            })
        }
        Request::Install { state, source } => {
            bump(shared, node.0, Met::RpcInstalls);
            let WireValue::ObjectState { class, fields } = state else {
                return Reply::Fault("install needs object state".into());
            };
            let Some(class_id) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let mut values = Vec::with_capacity(fields.len());
            for f in &fields {
                match marshal::wire_to_value(shared, node, f) {
                    Ok(v) => values.push(v),
                    Err(m) => return Reply::Fault(m),
                }
            }
            // If this node already holds a proxy for the migrating object,
            // rewrite it in place — existing local references then see the
            // object as local, with no double hop through the old owner.
            let existing = source.and_then(|(n, o)| cached_import(shared, node, n, o));
            let h = match existing {
                Some(ph) if vm.class_of(ph).is_some() => {
                    vm.replace_object(ph, class_id, values);
                    ph
                }
                _ => vm.alloc_raw(class_id, values),
            };
            let oid = export(shared, node, h);
            // Freshly installed state supersedes anything cached about a
            // previous export under this id.
            bump_version(shared, node.0, oid);
            sync_replicas(shared, node, oid);
            Reply::Value(WireValue::Remote {
                node: node.0,
                object: oid,
                class,
            })
        }
        Request::Forward {
            object,
            to_node,
            to_object,
        } => {
            bump(shared, node.0, Met::RpcForwards);
            let Some(h) = lookup_export(shared, node, object) else {
                return Reply::Fault(format!("unknown object {object} on {node}"));
            };
            let Some(class) = vm.class_of(h) else {
                return Reply::Fault("stale export".into());
            };
            let Some(info) = shared.gen_info.get(&class).cloned() else {
                return Reply::Fault("cannot forward untransformed object".into());
            };
            let base_name = shared.universe.class(info.base).name.clone();
            let proto = shared.policy.protocol(&base_name);
            let Some(proxy_class) = proxy_class_for(shared, info.base, info.side, &proto) else {
                return Reply::Fault(format!("no {proto} proxy for {base_name}"));
            };
            vm.replace_object(
                h,
                proxy_class,
                vec![Value::Int(to_node as i32), Value::Long(to_object as i64)],
            );
            cache_import(shared, node, to_node, to_object, h);
            relocate(shared, (node.0, object), (to_node, to_object), Why::Pulled);
            Reply::Value(WireValue::Null)
        }
        Request::ReplicaSync {
            object,
            version,
            state,
        } => {
            bump(shared, node.0, Met::ReplicaSyncs);
            let WireValue::ObjectState { class, fields } = state else {
                return Reply::Fault("replica sync needs object state".into());
            };
            // The state stays in wire form until promotion: a backup that
            // never promotes allocates nothing on its heap.
            shared.nodes.borrow_mut()[node.0 as usize]
                .replica_store
                .insert((caller.0, object), (version, class, fields));
            Reply::Value(WireValue::Null)
        }
        Request::Promote {
            node: old_node,
            object: old_object,
        } => {
            let key = (old_node, old_object);
            // Idempotency: if this object was already promoted, report the
            // recorded home instead of materialising a second copy from a
            // (possibly stale) backup. Consulting the shared homes table
            // stands in for the promotion registry a real system would
            // replicate alongside the data.
            let recorded = shared.directory.borrow().recorded_home(key);
            if let Some((hn, hoid)) = recorded {
                let home_vm = &shared.vms[hn as usize];
                let class = lookup_export(shared, NodeId(hn), hoid)
                    .and_then(|h| home_vm.class_of(h))
                    .map(|c| shared.universe.class(c).name.clone());
                return match class {
                    Some(class) => Reply::Value(WireValue::Remote {
                        node: hn,
                        object: hoid,
                        class,
                    }),
                    None => {
                        Reply::Fault(format!("promoted copy of {old_node}#{old_object} vanished"))
                    }
                };
            }
            let entry = shared.nodes.borrow_mut()[node.0 as usize]
                .replica_store
                .remove(&key);
            let Some((_, class, fields)) = entry else {
                return Reply::Fault(format!("no replica of {old_node}#{old_object} on {node}"));
            };
            let Some(class_id) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let mut values = Vec::with_capacity(fields.len());
            for f in &fields {
                match marshal::wire_to_value(shared, node, f) {
                    Ok(v) => values.push(v),
                    Err(m) => return Reply::Fault(m),
                }
            }
            // Like Install: a proxy this node already holds for the dead
            // primary is rewritten in place, so existing local references
            // see the promoted copy as local.
            let existing = cached_import(shared, node, old_node, old_object);
            let h = match existing {
                Some(ph) if vm.class_of(ph).is_some() => {
                    vm.replace_object(ph, class_id, values);
                    ph
                }
                _ => vm.alloc_raw(class_id, values),
            };
            let oid = export(shared, node, h);
            // The promoted copy supersedes anything cached about either
            // location.
            bump_version(shared, node.0, oid);
            relocate(shared, key, (node.0, oid), Why::Promoted);
            bump(shared, node.0, Met::Promotions);
            // Re-establish the replication factor from the new home, so a
            // second crash before the next mutation still loses nothing.
            sync_replicas(shared, node, oid);
            Reply::Value(WireValue::Remote {
                node: node.0,
                object: oid,
                class,
            })
        }
        Request::Batch(ops) => {
            // Apply in order under the enclosing message id: the batch was
            // encoded once and is retransmitted verbatim, so at-most-once
            // holds for the whole frame, and each operation's sub-reply is
            // paired with the addressed export's version right after it ran
            // (a later op in the same batch may move it again).
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                let versioned_oid = match &op {
                    Request::Call { object, .. } | Request::Fetch { object } => Some(*object),
                    _ => None,
                };
                let reply = handle_request(shared, node, caller, op);
                let version = versioned_oid.map_or(0, |oid| version_of(shared, node.0, oid));
                results.push((version, reply));
            }
            Reply::Batch(results)
        }
    }
}

fn exception_reply(shared: &Shared, node: NodeId, exc: Handle) -> Reply {
    let vm = &shared.vms[node.0 as usize];
    let Some((class, fields)) = vm.read_object(exc) else {
        return Reply::Fault("stale exception".into());
    };
    let mut wire_fields = Vec::with_capacity(fields.len());
    for f in &fields {
        match marshal::value_to_wire(shared, node, f) {
            Ok(wv) => wire_fields.push(wv),
            Err(m) => return Reply::Fault(m),
        }
    }
    Reply::Exception {
        class: shared.universe.class(class).name.clone(),
        fields: wire_fields,
    }
}

// ----------------------------------------------------------------------
// Observability plane
// ----------------------------------------------------------------------

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

/// Tell the monitors that `node` served a read of the object at `loc`
/// without asking its owner. The hit is a stale read when the
/// authoritative object has moved: the export now forwards, or a recorded
/// move re-homed it. A merely *missing* export (restart amnesia) is
/// legitimate — the version survived, the state did not move.
pub(crate) fn emit_cache_hit(shared: &Shared, node: NodeId, loc: (u32, u64), ctx: TraceContext) {
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

/// This node's share of the wire-layer counters: signature interning
/// refs/defs and encode-buffer reuses on links it is the sender of (the
/// sender owns the encode state, so the work is charged to it).
fn per_node_wire(shared: &Shared, node: u32) -> (u64, u64, u64) {
    let tables = shared.sig_tables.borrow();
    let (mut refs, mut defs) = (0, 0);
    for ((from, _), table) in tables.iter() {
        if *from == node {
            refs += table.refs();
            defs += table.defs();
        }
    }
    let reuses = shared.wire_bufs.borrow().reuses_from(NodeId(node));
    (refs, defs, reuses)
}

/// One node's [`RuntimeStats`] view: the registry snapshot plus its share
/// of the wire-layer counters.
pub(crate) fn node_stats_of(shared: &Shared, node: u32) -> RuntimeStats {
    let mut stats = shared.obs.borrow().snapshot(node as usize);
    let (refs, defs, reuses) = per_node_wire(shared, node);
    stats.sig_refs = refs;
    stats.sig_defs = defs;
    stats.wire_buf_reuses = reuses;
    stats
}

/// The cluster-wide view: every node's breakdown folded with
/// [`RuntimeStats::merge`].
pub(crate) fn merged_stats(shared: &Shared) -> RuntimeStats {
    let mut total = RuntimeStats::default();
    for node in 0..shared.vms.len() as u32 {
        total.merge(&node_stats_of(shared, node));
    }
    total
}

/// The names of the wire-layer counters appended to both exports, in the
/// order of the [`per_node_wire`] tuple.
const WIRE_METRIC_NAMES: [&str; 3] = [
    "rafda_sig_refs_total",
    "rafda_sig_defs_total",
    "rafda_wire_buf_reuses_total",
];

/// Prometheus text exposition of the registry plus the per-node wire
/// counters.
pub(crate) fn prometheus_text_of(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = shared.obs.borrow().reg.prometheus_text();
    let wire: Vec<[u64; 3]> = (0..shared.vms.len() as u32)
        .map(|n| {
            let (refs, defs, reuses) = per_node_wire(shared, n);
            [refs, defs, reuses]
        })
        .collect();
    for (k, name) in WIRE_METRIC_NAMES.iter().enumerate() {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (node, row) in wire.iter().enumerate() {
            let _ = writeln!(out, "{name}{{node=\"{node}\"}} {}", row[k]);
        }
    }
    out
}

/// JSON-lines export: registry metrics, per-node wire counters and the
/// time-series rings, one object per line.
pub(crate) fn metrics_json_of(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let obs = shared.obs.borrow();
    let mut out = obs.reg.json_lines();
    let wire: Vec<[u64; 3]> = (0..shared.vms.len() as u32)
        .map(|n| {
            let (refs, defs, reuses) = per_node_wire(shared, n);
            [refs, defs, reuses]
        })
        .collect();
    for (k, name) in WIRE_METRIC_NAMES.iter().enumerate() {
        for (node, row) in wire.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{name}\",\"type\":\"counter\",\"labels\":{{\"node\":\"{node}\"}},\"value\":{}}}",
                row[k]
            );
        }
    }
    out.push_str(&obs.recorder.json_lines());
    out
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
            match shared.gen_info.get(&class) {
                Some(info) if info.proto.is_none() => {}
                // The export forwards (or is untransformed): the primary's
                // authoritative copy lives elsewhere now.
                _ => continue,
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
/// runtime consults for it.
pub(crate) fn policy_table(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut names: Vec<&str> = shared
        .plan
        .families
        .keys()
        .map(|&b| shared.universe.class(b).name.as_str())
        .collect();
    names.sort_unstable();
    let mut out = String::new();
    for name in names {
        let p = &shared.policy;
        let shard = p
            .shard_spec(name)
            .map(|s| format!("{} mod {}", s.key_getter, s.modulo))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{name}: protocol={} statics=node{} cacheable={} replicas={} batched={} shard={} replica_reads={}",
            p.protocol(name),
            p.statics_node(name).0,
            p.cacheable(name),
            p.replicas(name),
            p.batched(name),
            shard,
            p.reads_from_replicas(name)
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

/// Methods travel as `name@sigid`; both sides share the interned signature
/// table (the same transformed program is deployed on every node).
fn parse_method(method: &str) -> Option<SigId> {
    let (_, id) = method.rsplit_once('@')?;
    id.parse::<u32>().ok().map(SigId)
}

/// Mark that a class is any generated implementation or proxy.
pub(crate) fn gen_info(shared: &Shared, class: ClassId) -> Option<&GenInfo> {
    shared.gen_info.get(&class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{ClassKind, Field};
    use rafda_policy::{Placement, StaticPolicy};
    use rafda_transform::Transformer;

    /// A cluster of two nodes running `class C { int v; int add(int d) }`
    /// with all instances placed (remotely) on node 1.
    fn deployed(policy: StaticPolicy) -> (Cluster, ClassId) {
        let mut u = ClassUniverse::new();
        let c = u.declare("C", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, c);
            let v = cb.field(Field::new("v", Ty::Int));
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this().get_field(c, v);
            mb.load_local(1).add();
            mb.put_field(c, v);
            mb.load_this().get_field(c, v).ret_value();
            cb.method(&mut u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let cluster = Cluster::new(u, outcome.plan, 2, 7, Box::new(policy));
        (cluster, c)
    }

    /// Regression for the stale-version dedup bug: a dedup hit must replay
    /// the object version stored **at serve time**, not recompute it at
    /// retransmit time. The single-threaded simulation cannot interleave a
    /// foreign mutation between a dropped reply and its retransmission from
    /// the outside, so the scenario drives `serve_request` directly —
    /// exactly what a lossy network would deliver to the server.
    #[test]
    fn dedup_hit_replays_the_serve_time_version() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .cache("C", true);
        let (cluster, base) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let h = obj.as_ref_handle().unwrap();
        let (owner, oid) = read_proxy_state(&shared.vms[0], h).unwrap();
        assert_eq!(owner, 1, "policy must place the object remotely");
        let get_sig = shared.plan.family(base).unwrap().getters[0];
        let add_sig = shared
            .universe
            .class(base)
            .methods
            .iter()
            .find(|m| m.name == "add")
            .unwrap()
            .sig;
        let read = Request::Call {
            object: oid,
            method: format!("get_v@{}", get_sig.0),
            args: vec![],
        };
        // Message 900: a cacheable read is served, but the reply is lost on
        // the way back.
        let (r1, _, v1) = serve_request(
            shared,
            NodeId(1),
            NodeId(0),
            900,
            TraceContext::NONE,
            read.clone(),
        );
        assert!(matches!(r1, Reply::Value(_)));
        // Before the retransmission arrives, another mutation is served and
        // bumps the object's version.
        let (r2, _, _) = serve_request(
            shared,
            NodeId(1),
            NodeId(0),
            901,
            TraceContext::NONE,
            Request::Call {
                object: oid,
                method: format!("add@{}", add_sig.0),
                args: vec![WireValue::Int(5)],
            },
        );
        assert!(matches!(r2, Reply::Value(_)));
        let current = version_of(shared, 1, oid);
        assert!(current > v1, "the mutation must bump the version");
        // The retransmission of 900 dedups. Its reply must carry v1: tagged
        // with `current`, the client would cache the pre-mutation value as
        // fresh and serve the stale read until the next mutation.
        let (r3, _, v3) =
            serve_request(shared, NodeId(1), NodeId(0), 900, TraceContext::NONE, read);
        assert_eq!(r3, r1, "dedup must replay the original reply");
        assert_eq!(cluster.stats().dedup_hits, 1);
        assert_eq!(
            v3, v1,
            "dedup hit must replay the serve-time version, not the current one"
        );
        assert_ne!(v3, current);
    }

    /// Batched invocation basics, below the integration level: void calls
    /// on a `batch on` class defer, queued replica shipments of the same
    /// export coalesce, and a value-returning call flushes everything in
    /// one exchange per queue.
    #[test]
    fn deferred_ops_flush_at_a_value_returning_call() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .batch("C", true);
        let (cluster, base) = deployed(policy);
        let _ = base;
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        // The generated setter returns void: deferred, not sent.
        let r = cluster
            .call_method(NodeId(0), obj.clone(), "set_v", vec![Value::Int(4)])
            .unwrap();
        assert_eq!(r, Value::Null);
        assert_eq!(cluster.shared().outqueues.borrow().len(), 1);
        let before = cluster.stats();
        assert_eq!(before.batched_ops, 1);
        assert_eq!(before.flushes, 0);
        // A value-returning call is a synchronization point: the deferred
        // setter lands first (in order), then the read runs.
        let v = cluster
            .call_method(NodeId(0), obj, "get_v", vec![])
            .unwrap();
        assert_eq!(v, Value::Int(4), "the flushed write must be visible");
        let after = cluster.stats();
        assert_eq!(after.flushes, 1);
        assert!(cluster.shared().outqueues.borrow().is_empty());
    }

    /// The zero-copy wire path at the runtime level: a repeated call sends
    /// fewer bytes than its first occurrence (the method signature shrank
    /// to an interned reference), encode buffers are recycled per link, and
    /// the merged stats expose all three wire counters.
    #[test]
    fn repeat_calls_intern_signatures_and_reuse_buffers() {
        let policy = StaticPolicy::new().place("C", Placement::Node(NodeId(1)));
        let (cluster, _) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let net = cluster.network();
        let t0 = net.stats().bytes;
        cluster
            .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
            .unwrap();
        let first = net.stats().bytes - t0;
        let t1 = net.stats().bytes;
        cluster
            .call_method(NodeId(0), obj, "add", vec![Value::Int(1)])
            .unwrap();
        let second = net.stats().bytes - t1;
        assert!(
            second < first,
            "an interned repeat call must be smaller on the wire: {second} >= {first}"
        );
        let stats = cluster.stats();
        assert!(stats.sig_defs > 0, "first frames define signatures");
        assert!(stats.sig_refs > 0, "repeat frames reference them");
        assert!(
            stats.wire_buf_reuses > 0,
            "second exchange on a link must reuse its encode buffers"
        );
    }

    /// Regression for a lost-update hazard the replica-divergence monitor
    /// exposed: when a caller promotes a backup *onto itself*, [`failover`]
    /// materialises the object in the caller's own VM, and every later call
    /// on it is a plain local invocation — no serve, no version bump, no
    /// [`sync_replicas`]. Before the dirty-replica sweep, the backups froze
    /// at the promotion-time state forever, so a second crash would have
    /// resurrected stale state. The sweep at the next exchange must bump
    /// the version and re-ship the drifted state.
    #[test]
    fn local_mutations_after_self_promotion_reach_the_backups() {
        let mut u = ClassUniverse::new();
        for name in ["CA", "CB"] {
            let c = u.declare(name, ClassKind::Class);
            let mut cb = ClassBuilder::new(&u, c);
            let v = cb.field(Field::new("v", Ty::Int));
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this().get_field(c, v);
            mb.load_local(1).add();
            mb.put_field(c, v);
            mb.load_this().get_field(c, v).ret_value();
            cb.method(&mut u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let policy = StaticPolicy::new()
            .place("CA", Placement::Node(NodeId(1)))
            .place("CB", Placement::Node(NodeId(2)))
            .replicate("CA", 1)
            .replicate("CB", 1);
        let cluster = Cluster::new(u, outcome.plan, 3, 260, Box::new(policy));
        cluster.enable_monitors();
        let a = cluster.new_instance(NodeId(0), "CA", 0, vec![]).unwrap();
        let b = cluster.new_instance(NodeId(0), "CB", 0, vec![]).unwrap();
        // Crash CA's home: the next call from node 0 promotes node 0's own
        // backup, so `a` becomes a local object of the caller.
        cluster.crash(NodeId(1));
        cluster.restart(NodeId(1));
        for (obj, d, want) in [(&a, -4, -4), (&b, -9, -9), (&a, -3, -7)] {
            assert_eq!(
                cluster
                    .call_method(NodeId(0), (*obj).clone(), "add", vec![Value::Int(d)])
                    .unwrap(),
                Value::Int(want)
            );
        }
        // add(-3) ran locally on the promoted copy; the `b` exchange after
        // it (and the quiescent point itself) must have re-shipped it.
        assert_eq!(cluster.check_invariants(), vec![]);
        let shared = cluster.shared();
        let nodes = shared.nodes.borrow();
        let backup = nodes
            .iter()
            .flat_map(|st| st.replica_store.get(&(0, 1)))
            .next()
            .expect("the promoted object keeps a backup");
        assert_eq!(backup.2, vec![WireValue::Int(-7)], "backup holds -4-3");
    }

    /// The at-most-once canary. A retransmission served from the reply
    /// cache is a legitimate replay; losing the cache entry and
    /// re-executing the frame is the violation the monitor exists for.
    /// Like the dedup test above, the scenario drives `serve_request`
    /// directly — the single-threaded simulation cannot evict a reply
    /// cache entry mid-exchange from the outside.
    #[test]
    fn at_most_once_monitor_flags_re_execution_after_cache_loss() {
        let policy = StaticPolicy::new().place("C", Placement::Node(NodeId(1)));
        let (cluster, base) = deployed(policy);
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let h = obj.as_ref_handle().unwrap();
        let (_, oid) = read_proxy_state(&shared.vms[0], h).unwrap();
        let add_sig = shared
            .universe
            .class(base)
            .methods
            .iter()
            .find(|m| m.name == "add")
            .unwrap()
            .sig;
        let call = Request::Call {
            object: oid,
            method: format!("add@{}", add_sig.0),
            args: vec![WireValue::Int(5)],
        };
        // Serve once, then retransmit: the dedup cache replays — healthy.
        let (r1, _, _) = serve_request(
            shared,
            NodeId(1),
            NodeId(0),
            900,
            TraceContext::NONE,
            call.clone(),
        );
        assert!(matches!(r1, Reply::Value(_)));
        let (r2, _, _) = serve_request(
            shared,
            NodeId(1),
            NodeId(0),
            900,
            TraceContext::NONE,
            call.clone(),
        );
        assert_eq!(r2, r1);
        assert_eq!(cluster.monitor_violations(), vec![]);

        // Inject the bug: the server forgets its replies, so the next
        // retransmission of 900 re-executes `add` — the object double-
        // applies the mutation, which is exactly what at-most-once forbids.
        {
            let mut nodes = shared.nodes.borrow_mut();
            nodes[1].reply_cache.clear();
            nodes[1].reply_cache_order.clear();
        }
        let (r3, _, _) = serve_request(shared, NodeId(1), NodeId(0), 900, TraceContext::NONE, call);
        assert!(matches!(r3, Reply::Value(_)));
        assert_ne!(r3, r1, "re-execution double-applies the mutation");
        let violations = cluster.monitor_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].monitor, "at-most-once");
        assert!(violations[0].message.contains("msg 900"));
        assert_ne!(violations[0].span_id, 0);
    }

    /// A cluster running `class K { int k; int v; K(int k); int bump(int
    /// d) }` under `shard K by get_k modulo ...` with no explicit
    /// placement (instances are created locally, then routed).
    fn deployed_sharded(nodes: u32, modulo: u32, seed: u64, k: u32) -> Cluster {
        let mut u = ClassUniverse::new();
        let c = u.declare("K", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, c);
            let kf = cb.field(Field::new("k", Ty::Int));
            let vf = cb.field(Field::new("v", Ty::Int));
            let mut mb = MethodBuilder::new(2);
            mb.load_this().load_local(1).put_field(c, kf).ret();
            cb.ctor(&mut u, vec![Ty::Int], Some(mb.finish()));
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this().get_field(c, vf);
            mb.load_local(1).add();
            mb.put_field(c, vf);
            mb.load_this().get_field(c, vf).ret_value();
            cb.method(&mut u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let policy = StaticPolicy::new()
            .shard("K", "get_k", modulo)
            .replicate("K", k);
        Cluster::new(u, outcome.plan, nodes, seed, Box::new(policy))
    }

    /// The smallest non-negative int key whose shard (mod `modulo`) is
    /// `want` — lets tests pick keys by target shard without baking hash
    /// values in.
    fn key_for_shard(want: u32, modulo: u32) -> i32 {
        (0..)
            .find(|&k| (shard_hash(&Value::Int(k)) % u64::from(modulo)) as u32 == want)
            .expect("some key hits every shard")
    }

    /// Creation-time shard placement: every instance of a `shard by` class
    /// lands on the node its key hashes to — regardless of where it was
    /// created — and instances sharing a shard are collocated.
    #[test]
    fn sharded_creates_land_on_their_keys_shard_node() {
        let cluster = deployed_sharded(2, 4, 31, 0);
        let mut homes: Vec<(u32, NodeId)> = Vec::new();
        for key in 0..8 {
            let creator = NodeId((key as u32) % 2);
            let obj = cluster
                .new_instance(creator, "K", 0, vec![Value::Int(key)])
                .unwrap();
            cluster.pin(creator, &obj);
            let shard = (shard_hash(&Value::Int(key)) % 4) as u32;
            let want = NodeId(shard % 2);
            assert_eq!(cluster.location_of(creator, &obj), Some(want), "key {key}");
            // The creator's reference works wherever the instance went.
            assert_eq!(
                cluster
                    .call_method(creator, obj.clone(), "bump", vec![Value::Int(1)])
                    .unwrap(),
                Value::Int(1)
            );
            homes.push((shard, want));
        }
        for (s1, n1) in &homes {
            for (s2, n2) in &homes {
                if s1 == s2 {
                    assert_eq!(n1, n2, "same shard must mean same node");
                }
            }
        }
        assert_eq!(cluster.stats().shard_placements, 8);
    }

    /// The rebalancing tick: hot-key skew read from the affinity
    /// call counters moves the hottest shard that fits half the gap off
    /// the overloaded node, ships its members' state through the
    /// migration path, and purges the counters that drove the move.
    #[test]
    fn rebalance_moves_a_warm_shard_off_the_hot_node() {
        let cluster = deployed_sharded(2, 4, 32, 0);
        let shared = cluster.shared();
        // Shards 0 and 2 both seed onto node 0 (owner = shard % nodes).
        let hot_key = key_for_shard(0, 4);
        let warm_key = key_for_shard(2, 4);
        let hot = cluster
            .new_instance(NodeId(1), "K", 0, vec![Value::Int(hot_key)])
            .unwrap();
        let warm = cluster
            .new_instance(NodeId(1), "K", 0, vec![Value::Int(warm_key)])
            .unwrap();
        cluster.pin(NodeId(1), &hot);
        cluster.pin(NodeId(1), &warm);
        assert_eq!(cluster.location_of(NodeId(1), &hot), Some(NodeId(0)));
        assert_eq!(cluster.location_of(NodeId(1), &warm), Some(NodeId(0)));
        let warm_old_oid = read_proxy_state(&shared.vms[1], warm.as_ref_handle().unwrap())
            .expect("warm lives remotely")
            .1;
        for _ in 0..20 {
            cluster
                .call_method(NodeId(1), hot.clone(), "bump", vec![Value::Int(1)])
                .unwrap();
        }
        for _ in 0..4 {
            cluster
                .call_method(NodeId(1), warm.clone(), "bump", vec![Value::Int(1)])
                .unwrap();
        }

        let events = cluster.rebalance_shards(&AffinityConfig::default());
        // 24 calls landed on node 0, none on node 1: the warm shard (4
        // calls) fits in half the gap and moves; the hot one (20) would
        // overshoot and stays put.
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!((events[0].from, events[0].to), (NodeId(0), NodeId(1)));
        assert_eq!(events[0].class, "K");
        let stats = cluster.stats();
        assert_eq!(stats.shard_rebalances, 1, "{stats}");
        // State moved with the shard and both references still resolve.
        assert_eq!(
            cluster
                .call_method(NodeId(1), warm.clone(), "bump", vec![Value::Int(0)])
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            cluster
                .call_method(NodeId(1), hot.clone(), "bump", vec![Value::Int(0)])
                .unwrap(),
            Value::Int(20)
        );
        // The affinity counters for the moved-away export are purged with
        // the move — a stale entry would keep feeding dead locations into
        // the next tick.
        assert!(
            cluster
                .affinity_snapshot(NodeId(0))
                .iter()
                .all(|&(oid, _)| oid != warm_old_oid),
            "stale counter for the moved object"
        );
        // With the skew resolved, the next tick converges to a no-op.
        assert!(cluster
            .rebalance_shards(&AffinityConfig::default())
            .is_empty());
    }

    /// `reads from replicas`: a getter issued by a caller that holds a
    /// backup of the object is served from that backup only while the
    /// backup's version matches the owner's — fresh hits skip the
    /// exchange entirely, a lagging backup falls through to the owner,
    /// and the stale-read monitor stays silent throughout.
    #[test]
    fn replica_reads_serve_getters_from_the_local_backup() {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .replicate("C", 1)
            .replica_reads("C", true);
        let (cluster, _) = deployed(policy);
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let (owner, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
        assert_eq!(owner, 1, "policy must place the object remotely");
        // A mutation is served at the owner and ships the backup to node 0.
        assert_eq!(
            cluster
                .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(5)])
                .unwrap(),
            Value::Int(5)
        );
        assert!(cluster.stats().replica_syncs >= 1);

        let before = cluster.stats().rpc_calls;
        assert_eq!(
            cluster
                .call_method(NodeId(0), obj.clone(), "get_v", vec![])
                .unwrap(),
            Value::Int(5)
        );
        let stats = cluster.stats();
        assert_eq!(stats.rpc_calls, before, "a fresh backup serves locally");
        assert_eq!(stats.replica_reads, 1, "{stats}");

        // Age the stored version: the same getter must now fall through
        // to the owner instead of serving what just became a stale copy.
        shared.nodes.borrow_mut()[0]
            .replica_store
            .get_mut(&(owner, oid))
            .expect("backup entry")
            .0 -= 1;
        assert_eq!(
            cluster
                .call_method(NodeId(0), obj.clone(), "get_v", vec![])
                .unwrap(),
            Value::Int(5)
        );
        let stats = cluster.stats();
        assert_eq!(stats.rpc_calls, before + 1, "lagging backup: {stats}");
        assert_eq!(stats.replica_reads, 1, "{stats}");

        // Writes keep flowing through the owner; the re-shipped backup
        // serves the next read with the new value.
        assert_eq!(
            cluster
                .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(2)])
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            cluster
                .call_method(NodeId(0), obj, "get_v", vec![])
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(cluster.monitor_violations(), vec![]);
    }

    // --- adaptation/crash chaos (proptest) ---

    use proptest::prelude::*;
    use rafda_corpus::ops::{OpMix, SoakOp};

    const CHAOS_POOL: usize = 6;

    /// The shared adaptation-chaos mix (see [`rafda_corpus::ops`]): calls,
    /// both adaptation loops and crash/restart over nodes 0–2.
    fn arb_chaos_op() -> BoxedStrategy<SoakOp> {
        OpMix::adaptation(CHAOS_POOL, 4, 3).strategy()
    }

    /// The invariant [`Directory::relocate`] maintains, as a proptest
    /// failure: delegates to the same structural sweep
    /// [`Cluster::check_invariants`] runs at quiescent points.
    fn assert_no_stale_affinity(cluster: &Cluster) -> Result<(), TestCaseError> {
        if let Some(first) = cluster.stale_affinity_violations().first() {
            return Err(TestCaseError::fail(first.to_string()));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random interleavings of calls, both adaptation loops and
        /// crash/restart over a sharded, replicated pool: no call is ever
        /// lost (the oracle stays exact), no affinity counter survives its
        /// object's move or its node's death, and the four standing
        /// monitors stay silent throughout.
        #[test]
        fn adaptation_chaos_leaves_no_stale_affinity(
            ops in prop::collection::vec(arb_chaos_op(), 1..40),
            seed in 0u64..200,
        ) {
            // The coordinator drives every call and never crashes; replica
            // targets prefer low node ids, so it never holds a backup and
            // every failover crosses the wire.
            const COORD: NodeId = NodeId(3);
            let cluster = deployed_sharded(4, 4, 500 + seed, 1);
            cluster.enable_monitors();
            let objs: Vec<Value> = (0..CHAOS_POOL)
                .map(|i| {
                    let obj = cluster
                        .new_instance(COORD, "K", 0, vec![Value::Int(i as i32)])
                        .unwrap();
                    cluster.pin(COORD, &obj);
                    obj
                })
                .collect();
            // Restarted nodes rejoin the sync set at the next served
            // mutation; touching every instance after a restart re-ships
            // each backup before any further crash can lose the last copy
            // (same discipline as the crash-stop chaos soak).
            let touch_all = || {
                for obj in &objs {
                    cluster
                        .call_method(COORD, obj.clone(), "bump", vec![Value::Int(0)])
                        .unwrap();
                }
            };
            let config = AffinityConfig {
                min_calls: 4,
                min_fraction: 0.5,
            };
            let mut oracle = rafda_corpus::ops::Oracle::new(CHAOS_POOL);
            let mut down: Option<NodeId> = None;
            for op in &ops {
                match *op {
                    SoakOp::Call { idx, delta } => {
                        let expected = oracle.step(op).unwrap();
                        let r = cluster
                            .call_method(
                                COORD,
                                objs[idx].clone(),
                                "bump",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                        prop_assert_eq!(r, Value::Int(expected), "{:?}", op);
                    }
                    SoakOp::Rebalance => {
                        cluster.rebalance_shards(&config);
                    }
                    SoakOp::Adapt => {
                        cluster.adapt(&config);
                    }
                    SoakOp::Crash { node } => {
                        if let Some(d) = down.take() {
                            cluster.restart(d);
                            touch_all();
                        }
                        cluster.crash(NodeId(u32::from(node)));
                        down = Some(NodeId(u32::from(node)));
                    }
                    SoakOp::Heal => {
                        if let Some(d) = down.take() {
                            cluster.restart(d);
                            touch_all();
                        }
                    }
                    ref other => panic!("mix never generates {other}"),
                }
                assert_no_stale_affinity(&cluster)?;
            }
            if let Some(d) = down.take() {
                cluster.restart(d);
            }
            // Final sweep: every instance answers with the oracle value,
            // the affinity map is clean, and the monitors saw nothing.
            for (idx, obj) in objs.iter().enumerate() {
                let r = cluster
                    .call_method(COORD, obj.clone(), "bump", vec![Value::Int(0)])
                    .unwrap();
                prop_assert_eq!(
                    r,
                    Value::Int(oracle.values()[idx]),
                    "final instance {}",
                    idx
                );
            }
            assert_no_stale_affinity(&cluster)?;
            prop_assert_eq!(cluster.check_invariants(), vec![]);
        }
    }
}
