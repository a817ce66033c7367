//! The distributed runtime proper: the shared cluster state, deployment,
//! the factory hooks and the application entry points. The rest of the
//! runtime lives next door, one concern per module: `rpc` (client side of
//! an exchange), `serve` (server side), `replicate`, `batch`, `placement`,
//! `failover` and `stats`, all working on the one location `Directory`.

use crate::batch::{flush_outqueues, PendingBatch};
use crate::directory::Directory;
use crate::fifo::FifoMap;
use crate::introspect;
use crate::marshal;
pub use crate::obs::RuntimeStats;
use crate::obs::{Met, Obs};
pub use crate::placement::MigrationEvent;
use crate::profile::{Profiler, Section};
use crate::replicate::charge_marks;
use crate::rpc::{proxy_call, read_reply, rpc, ProxyMethod, SpanVocab};
use crate::serve::ReplyCache;
pub use crate::stats::NodeSummary;
use rafda_classmodel::{ClassId, ClassUniverse, Side, SigId};
use rafda_net::{BufPool, Network, NodeId, SimTime};
use rafda_policy::{ClassRule, DistributionPolicy};
use rafda_telemetry::{FastMap, FastSet, SpanLog, Symbol};
use rafda_transform::generate::{PROXY_NODE_FIELD, PROXY_OID_FIELD};
use rafda_transform::TransformPlan;
use rafda_vm::{Handle, Trace, Value, Vm, VmError};
use rafda_wire::{Protocol, ProtocolKind, Request, SigTable, WireValue};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::{Rc, Weak};
use std::sync::Arc;

/// What the runtime knows about a generated implementation class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenInfo {
    /// Index of the family's [`ClassRow`] in [`Shared::rows`].
    pub row: usize,
    pub side: Side,
    /// A proxy class (always of the row's protocol: nothing materialises
    /// any other), as opposed to a `*_Local` implementation.
    pub is_proxy: bool,
}

/// One transformed family as the runtime sees it: the class, plus the
/// policy's rule for it — every decision that cannot depend on the calling
/// node or on call order. The policy is asked once, by [`Cluster::new`];
/// everything downstream of deployment reads the row.
pub(crate) struct ClassRow {
    /// This row's index in [`Shared::rows`].
    pub id: usize,
    /// The original (substitutable) class and its name.
    pub base: ClassId,
    pub name: String,
    pub rule: ClassRule,
    /// `name` and `rule.protocol` interned in the span log, as every span
    /// about this family records them.
    pub name_sym: Symbol,
    pub protocol_sym: Symbol,
    /// The codec of `rule.protocol` — `None` when the plan generated no
    /// proxies for that protocol or no codec goes by that name; the first
    /// exchange then fails as
    /// [`RpcFault::NoCodec`](rafda_vm::RpcFault::NoCodec).
    pub codec: Option<Box<dyn Protocol>>,
    /// The proxy class generated for `rule.protocol` in each half of the
    /// family, indexed by [`Side`].
    proxies: [Option<ClassId>; 2],
}

impl ClassRow {
    /// The proxy class remote references to this family's `side` are
    /// materialised as.
    pub(crate) fn proxy_class(&self, side: Side) -> Result<ClassId, String> {
        self.proxies[side as usize].ok_or_else(|| {
            format!(
                "no {} proxy generated for {}",
                self.rule.protocol, self.name
            )
        })
    }
}

/// Per-node volatile caches. Where objects live is the
/// [`Directory`]'s business; what is kept here is what a node remembers
/// for itself, and a restart wipes all of it.
#[derive(Debug, Default)]
pub(crate) struct NodeState {
    /// Proxies this node holds for remote objects, by object identity
    /// ([`Directory::identity`]): at most one handle per object, whichever
    /// of its locations a reference names.
    pub(crate) imports: FastMap<(u32, u64), Handle>,
    /// Class singletons resolved on this node, local or proxied — recorded
    /// before `<clinit>` runs, so an initialiser that reaches its own class
    /// sees the instance in progress, as in the JVM.
    pub(crate) singletons: FastMap<ClassId, Handle>,
    /// Host-pinned GC roots (references held outside the simulation, e.g.
    /// by embedding Rust code).
    pub(crate) pins: FastSet<Handle>,
    /// At-most-once state: per caller node, a window of the replies last
    /// served to it, which a retransmission is answered from (see
    /// [`ReplyCache`] for why the window forgets nothing a caller can still
    /// retransmit).
    pub(crate) reply_cache: ReplyCache,
    /// Proxy-side property cache: values returned by remote `get_f` calls,
    /// keyed `(owner node, export id, getter sig)` and tagged with the
    /// owner's property version at reply time. An entry is served only
    /// while its tag still equals the owner's current version. Values are
    /// kept in wire form so each hit re-materialises exactly like a fresh
    /// reply (arrays copy by value, references resolve via the import
    /// cache — and hold no GC-visible handles).
    /// The modest cap keeps the per-node footprint proportional to its
    /// working set of remote reads.
    pub(crate) prop_cache: FifoMap<(u32, u64, SigId), (u64, WireValue), 1024>,
    /// Backup copies of replicated exports owned by *other* nodes, keyed by
    /// the primary's location `(owner node, export id)`. The value is the
    /// owner's property version, the object's class — resolved when the
    /// [`Request::ReplicaSync`] is served — and its marshalled fields,
    /// exactly as shipped. The state stays in wire form: a replica read
    /// unmarshals the one field its getter names, and only a
    /// [`Request::Promote`] materialises the object — a backup that never
    /// promotes costs no heap objects.
    pub(crate) replica_store: FastMap<(u32, u64), (u64, ClassId, Vec<WireValue>)>,
}

/// Client-side fault tolerance for one request/reply exchange.
///
/// Only *transient* failures (dropped messages) are retried; partitions,
/// crashes and bad addresses fail fast — retrying cannot help until an
/// operator-level event heals them. Each retry charges
/// [`RetryPolicy::backoff_ns`] to the **simulated** clock, so runs stay
/// deterministic per seed and the time cost of fault tolerance is visible
/// in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per exchange (≥ 1; 1 disables retry).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 6 }
    }
}

impl RetryPolicy {
    /// Simulated backoff before the first retry, in nanoseconds.
    const BASE_BACKOFF_NS: u64 = 200_000;
    /// Backoff multiplier applied per further retry.
    const MULTIPLIER: u64 = 2;

    /// Backoff charged before retry number `retry` (1-based): exponential
    /// in the number of failures seen so far, saturating instead of
    /// overflowing.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1);
        Self::MULTIPLIER
            .saturating_pow(exp)
            .saturating_mul(Self::BASE_BACKOFF_NS)
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

pub(crate) struct Shared {
    pub universe: Arc<ClassUniverse>,
    pub plan: TransformPlan,
    pub net: Network,
    pub vms: Vec<Vm>,
    /// Asked for one thing after deployment: where `make()` puts a new
    /// instance. Every other decision was resolved into [`Shared::rows`].
    policy: Box<dyn DistributionPolicy>,
    /// One row per transformed family, sorted by class name.
    pub rows: Vec<ClassRow>,
    pub nodes: RefCell<Vec<NodeState>>,
    pub trace: RefCell<Trace>,
    /// The observability plane: metrics registry (the single write path
    /// for every runtime counter, labeled per node), time-series recorder,
    /// and the optional invariant monitors. Never borrowed across a
    /// nested exchange.
    pub obs: RefCell<Obs>,
    gen_info: FastMap<ClassId, GenInfo>,
    pub rpc_depth: Cell<u32>,
    pub retry: Cell<RetryPolicy>,
    /// Cluster-wide message id counter: every request/reply exchange gets a
    /// fresh id, reused verbatim by its retransmissions (the dedup key).
    pub next_msg_id: Cell<u64>,
    /// Causal span log: every RPC exchange, transmission attempt, server
    /// dispatch, migration and boundary pull, charged to the simulated
    /// clock. Never borrowed across a nested exchange (RPCs re-enter).
    pub spans: RefCell<SpanLog>,
    /// The keys and fixed labels those spans carry, resolved in `spans`.
    pub span_vocab: SpanVocab,
    /// Where every object lives and at what version: all location state,
    /// behind transitions. Borrowed for one method call at a time.
    pub directory: RefCell<Directory>,
    /// Whether any row is sharded, so unsharded workloads pay one boolean
    /// test.
    pub any_sharding: bool,
    /// Span id of the most recent exchange that ended in a network failure.
    /// A failover span chains to it via `retry_of`, linking the re-homed
    /// call to the exchange against the crashed owner it retries.
    pub last_exchange_span: Cell<u64>,
    /// Per-`(caller node, owner node)` outcall queues of deferred
    /// operations (batched remote invocation). Drained by
    /// [`flush_outqueues`] at every synchronization point; permanently
    /// empty unless the policy batches some class.
    pub outqueues: RefCell<FastMap<(u32, u32), PendingBatch>>,
    /// Re-entrancy guard for [`flush_outqueues`]: the flush itself performs
    /// top-level exchanges, which are synchronization points of their own.
    pub in_flush: Cell<bool>,
    /// Whether any row is replicated, so [`sync_dirty_replicas`] is a
    /// single boolean test for the (common) workloads with no replication.
    pub any_replication: bool,
    /// Re-entrancy guard for [`sync_dirty_replicas`]: the sweep's shipments
    /// are exchanges, and every exchange is a synchronization point.
    pub in_replica_sweep: Cell<bool>,
    /// Reusable encode buffers, keyed by directed link. Checked out for
    /// the lifetime of one frame (request frames live across every
    /// retransmission of their exchange) and returned cleared. Never
    /// borrowed across a serve — RPCs re-enter.
    pub wire_bufs: RefCell<BufPool>,
    /// Per-directed-link signature interning tables: `nodes²` slots, the
    /// link `from → to` at `from * nodes + to` (the node count is fixed at
    /// deployment). The simulation runs both ends in one process, so a
    /// single table per link serves as the encoder's and the decoder's
    /// state: in-order frame processing plus idempotent interning keeps
    /// the two views identical without a handshake. Never borrowed across
    /// a serve: reach it through [`Shared::with_link_table`].
    pub sig_tables: RefCell<Vec<SigTable>>,
    /// The host-time profile; off (one boolean test per section) unless
    /// [`Cluster::enable_host_profile`] switched it on.
    pub prof: Profiler,
}

impl Shared {
    /// Run one encode or decode against the signature table of the
    /// directed link `from → to`, the table every frame on that link is
    /// written and read with. The references and definitions an encode
    /// adds to the table are charged to `from`, the sender (a decode adds
    /// none). A frame addressed to a node the deployment does not have (a
    /// policy can name one) is never delivered — its transmission fails as
    /// `NoSuchNode` — so it gets a throwaway table, charged to nobody,
    /// rather than another link's slot.
    pub(crate) fn with_link_table<R>(
        &self,
        from: NodeId,
        to: NodeId,
        codec_op: impl FnOnce(&mut SigTable) -> R,
    ) -> R {
        let nodes = self.vms.len();
        if to.0 as usize >= nodes {
            return codec_op(&mut SigTable::default());
        }
        let mut tables = self.sig_tables.borrow_mut();
        let table = &mut tables[from.0 as usize * nodes + to.0 as usize];
        let (refs, defs) = (table.refs(), table.defs());
        let out = codec_op(table);
        let (refs, defs) = (table.refs() - refs, table.defs() - defs);
        drop(tables);
        if refs + defs > 0 {
            let _s = self.prof.section(Section::MetricWrite);
            let mut obs = self.obs.borrow_mut();
            obs.add(from.0, Met::SigRefs, refs);
            obs.add(from.0, Met::SigDefs, defs);
        }
        out
    }

    /// A cleared buffer from the `from → to` link's pool for a frame `from`
    /// encodes; one the pool reused rather than allocated is charged to
    /// `from`.
    pub(crate) fn checkout_buf(&self, from: NodeId, to: NodeId) -> Vec<u8> {
        let mut pool = self.wire_bufs.borrow_mut();
        let reuses = pool.reuses();
        let buf = pool.checkout(from, to);
        if pool.reuses() > reuses {
            let _s = self.prof.section(Section::MetricWrite);
            self.obs.borrow_mut().inc(from.0, Met::WireBufReuses);
        }
        buf
    }
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
    /// This is where `policy` is read: every per-class decision except
    /// instance placement is asked once per transformed class, here, and
    /// held for the life of the deployment (see
    /// [`DistributionPolicy`]'s contract). A class whose protocol the plan
    /// generated no proxies for deploys fine and fails at its first remote
    /// exchange.
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
        // The policy's per-class rules are constants of the deployment:
        // ask each once and keep it, next to the codec and proxy classes its
        // protocol implies.
        let mut families: Vec<_> = plan.families.values().collect();
        families.sort_by_key(|f| &universe.class(f.base).name);
        let mut rows = Vec::with_capacity(families.len());
        let mut gen_info = FastMap::default();
        let mut spans = SpanLog::new();
        let span_vocab = SpanVocab::new(&mut spans);
        for (id, family) in families.into_iter().enumerate() {
            let name = String::from(&*universe.class(family.base).name);
            let rule = policy.rule(&name);
            let protocol = &rule.protocol;
            let mut proxies = [None; 2];
            for side in [Side::Obj, Side::Cls] {
                let Some(half) = family.half(side) else {
                    continue;
                };
                let local = GenInfo {
                    row: id,
                    side,
                    is_proxy: false,
                };
                gen_info.insert(half.local, local);
                let generated = half.proxies.iter().find(|(p, _)| p == protocol);
                let proxy = generated.map(|&(_, class)| class);
                let is_proxy = true;
                gen_info.extend(proxy.map(|class| (class, GenInfo { is_proxy, ..local })));
                proxies[side as usize] = proxy;
            }
            rows.push(ClassRow {
                id,
                base: family.base,
                codec: plan
                    .protocols
                    .contains(protocol)
                    .then(|| ProtocolKind::from_name(protocol))
                    .flatten()
                    .map(ProtocolKind::codec),
                proxies,
                name_sym: spans.intern(&name),
                protocol_sym: spans.intern(&rule.protocol),
                rule,
                name,
            });
        }
        let any_replication = rows.iter().any(|r| r.rule.replicas > 0);
        let any_sharding = rows.iter().any(|r| r.rule.shard.is_some());
        let directory = RefCell::new(Directory::new(nodes, rows.len()));
        let shared = Rc::new(Shared {
            universe,
            plan,
            net,
            vms,
            policy,
            rows,
            nodes: RefCell::new((0..nodes).map(|_| NodeState::default()).collect()),
            trace: RefCell::new(Trace::new()),
            obs: RefCell::new(Obs::new(nodes)),
            gen_info,
            rpc_depth: Cell::new(0),
            retry: Cell::new(RetryPolicy::default()),
            next_msg_id: Cell::new(1),
            spans: RefCell::new(spans),
            span_vocab,
            directory,
            any_sharding,
            last_exchange_span: Cell::new(0),
            outqueues: RefCell::new(FastMap::default()),
            in_flush: Cell::new(false),
            any_replication,
            in_replica_sweep: Cell::new(false),
            wire_bufs: RefCell::new(BufPool::new()),
            sig_tables: RefCell::new((0..nodes * nodes).map(|_| SigTable::default()).collect()),
            prof: Profiler::new(),
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

    /// Test-only fault injection: the next relocation keeps the old
    /// location's version, simulating a runtime that forgot to mark a
    /// moved-away export uncacheable. Exists so the stale-read
    /// monitor's canary test can prove the watchdog catches the bug it was
    /// built for; never use outside tests.
    #[doc(hidden)]
    pub fn debug_skip_next_tombstone(&self) {
        self.shared.directory.borrow_mut().skip_next_tombstone();
    }

    /// Snapshot of the causal span log. Deterministic per seed: same
    /// universe, policy and fault plan produce a byte-identical log. The
    /// clone is a few flat copies (span records, attribute arena, run
    /// table) plus the small key and string tables: no allocation per span.
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

    // ------------------------------------------------------------------
    // Hook installation
    // ------------------------------------------------------------------

    fn install_hooks(&self) {
        for node_index in 0..self.shared.vms.len() {
            let node = NodeId(node_index as u32);
            let vm = &self.shared.vms[node_index];
            for row in &self.shared.rows {
                let family = &self.shared.plan.families[&row.base];
                let id = row.id;
                // make()
                let weak = Rc::downgrade(&self.shared);
                vm.register_native(family.obj.factory, family.make_sig, move |_vm, _args| {
                    let shared = upgrade(&weak)?;
                    let _s = shared.prof.section(Section::FactoryMake);
                    make_value(&shared, node, &shared.rows[id])
                });
                // discover()
                if let Some(cls) = &family.cls {
                    let weak = Rc::downgrade(&self.shared);
                    vm.register_native(cls.factory, family.discover_sig, move |_vm, _args| {
                        let shared = upgrade(&weak)?;
                        let _s = shared.prof.section(Section::FactoryDiscover);
                        discover_value(&shared, node, &shared.rows[id])
                    });
                }
                // Proxy methods, of the only proxy classes ever instantiated.
                for proxy in row.proxies.into_iter().flatten() {
                    self.install_proxy_hooks(node, proxy);
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
        let local = family.obj.local;
        let sig_of = |name: &str| {
            self.shared
                .universe
                .class(local)
                .methods
                .iter()
                .find(|m| &*m.name == name)
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
        // The wire method label `name@sig` and its span-log symbol, made
        // once per hooked method instead of once per call.
        let mut spans = self.shared.spans.borrow_mut();
        let methods: Vec<ProxyMethod> = self
            .shared
            .universe
            .class(proxy)
            .methods
            .iter()
            .filter(|m| m.is_native)
            .map(|m| {
                let label = format!("{}@{}", m.name, m.sig.0);
                let symbol = spans.intern(&label);
                ProxyMethod {
                    sig: m.sig,
                    label,
                    symbol,
                }
            })
            .collect();
        drop(spans);
        for method in methods {
            let weak = Rc::downgrade(&self.shared);
            vm.register_native(proxy, method.sig, move |_vm, args| {
                let shared = upgrade(&weak)?;
                proxy_call(&shared, node, &method, args)
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
    /// Any [`VmError`], including in-model exceptions and network
    /// failures.
    pub fn call_static(
        &self,
        node: NodeId,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let shared = &self.shared;
        let id = shared
            .universe
            .by_name(class)
            .ok_or_else(|| VmError::Native(format!("unknown class {class}")))?;
        let vm = &shared.vms[node.0 as usize];
        if let Some(row) = class_row(shared, id) {
            let singleton = discover_value(shared, node, row)?;
            vm.call_virtual_by_name(singleton, method, args)
        } else {
            vm.call_static_by_name(class, method, args)
        }
    }

    /// Create an instance of original class `class` on `node` via the
    /// generated factory (`make` + `init$k`), returning the interface-typed
    /// reference (a local object or a proxy, decided by policy).
    ///
    /// # Errors
    /// Any [`VmError`].
    pub fn new_instance(
        &self,
        node: NodeId,
        class: &str,
        ctor: u16,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let shared = &self.shared;
        let id = shared
            .universe
            .by_name(class)
            .ok_or_else(|| VmError::Native(format!("unknown class {class}")))?;
        let vm = &shared.vms[node.0 as usize];
        match class_row(shared, id) {
            Some(row) => {
                let family = &shared.plan.families[&id];
                let that = vm.call_static(family.obj.factory, family.make_sig, vec![])?;
                let init_sig = *family
                    .init_sigs
                    .get(ctor as usize)
                    .ok_or_else(|| VmError::Native(format!("no ctor {ctor} on {class}")))?;
                let mut all = vec![that.clone()];
                all.extend(args);
                vm.call_static(family.obj.factory, init_sig, all)?;
                // Shard placement must run *after* init: the remote create
                // path ships a default-constructed instance and applies the
                // constructor through the reference, so the shard key is
                // only readable once init has landed.
                if shared.any_sharding {
                    self.place_sharded(node, row, &that)?;
                }
                Ok(that)
            }
            None => vm.new_instance(id, ctor, args),
        }
    }

    /// Invoke `method` on a receiver (local object or proxy) on `node`.
    ///
    /// # Errors
    /// Any [`VmError`].
    pub fn call_method(
        &self,
        node: NodeId,
        recv: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        // A local receiver (a pulled or promoted object living in this
        // node's VM) takes the call bare; what it writes, its heap logs.
        self.shared.vms[node.0 as usize].call_virtual_by_name(recv, method, args)
    }

    /// Bind the `Observer` built-in on every node to a **cluster-wide**
    /// trace, so distributed runs produce one comparable event stream.
    pub fn bind_observer(&self, ids: &rafda_vm::vm::ObserverIds) {
        for vm in &self.shared.vms {
            let weak = Rc::downgrade(&self.shared);
            vm.bind_observer_to(ids, move |_vm, event| {
                let shared = upgrade(&weak)?;
                let _s = shared.prof.section(Section::ObserverEmit);
                shared.trace.borrow_mut().push(event);
                Ok(())
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
        let result = self
            .call_static(node, class, method, args)
            .and_then(|v| flush_outqueues(&self.shared).map(|()| v));
        let mut trace = std::mem::take(&mut *self.shared.trace.borrow_mut());
        trace.finish(&self.shared.vms[node.0 as usize], result);
        trace
    }

    /// Where the object behind a reference held on `node` actually lives:
    /// `node` itself for local objects, the proxy's target for proxies.
    pub fn location_of(&self, node: NodeId, value: &Value) -> Option<NodeId> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        match gen_info(&self.shared, vm.class_of(h)?) {
            Some(info) if info.is_proxy => {
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
    /// resolves to `(node, handle)` unchanged; a proxy resolves through the
    /// directory's recorded moves to the live home, however many
    /// moves it is behind. Returns `None` for non-references, stale
    /// handles, or a home that no longer exports a live object (its node
    /// restarted and nobody has re-homed the object yet).
    pub fn home_of(&self, node: NodeId, value: &Value) -> Option<(NodeId, Handle)> {
        let h = value.as_ref_handle()?;
        let vm = &self.shared.vms[node.0 as usize];
        match gen_info(&self.shared, vm.class_of(h)?) {
            Some(info) if info.is_proxy => {
                let (home, live) = live_home(&self.shared, read_proxy_state(vm, h)?);
                live.map(|object| (NodeId(home.0), object))
            }
            _ => Some((node, h)),
        }
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
                let exported = self.shared.directory.borrow().exports_of(i as u32);
                exported
                    .into_iter()
                    .map(|(_, h)| h)
                    .chain(state.imports.values().copied())
                    .chain(state.pins.iter().copied())
                    .chain(state.singletons.values().copied())
                    .collect()
            };
            freed.push(vm.gc(&roots));
        }
        freed
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
    pub fn flush(&self) -> Result<(), VmError> {
        flush_outqueues(&self.shared)
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

/// What the runtime knows about the class of `h` on `node`, if it is a
/// generated one.
pub(crate) fn info_of(shared: &Shared, node: u32, h: Handle) -> Option<GenInfo> {
    gen_info(shared, shared.vms[node as usize].class_of(h)?)
}

/// What the runtime knows about `class`, if it is a generated
/// implementation or proxy class.
pub(crate) fn gen_info(shared: &Shared, class: ClassId) -> Option<GenInfo> {
    shared.gen_info.get(&class).copied()
}

/// The row of the transformed family whose original class is `base`.
pub(crate) fn class_row(shared: &Shared, base: ClassId) -> Option<&ClassRow> {
    let family = shared.plan.family(base)?;
    gen_info(shared, family.obj.local).map(|info| &shared.rows[info.row])
}

/// Whether `h` on `node` is a locally implemented generated object — the
/// real thing, not a proxy for it.
pub(crate) fn is_local_impl(shared: &Shared, node: u32, h: Handle) -> bool {
    info_of(shared, node, h).is_some_and(|info| !info.is_proxy)
}

/// The live home of the object a proxy addresses at `target`: the location
/// the directory resolves `target` to, however many recorded moves behind
/// the proxy is, and the locally implemented object exported there —
/// `None` if that home exports none (its node restarted and nobody has
/// re-homed the object yet).
pub(crate) fn live_home(shared: &Shared, target: (u32, u64)) -> ((u32, u64), Option<Handle>) {
    let home = shared.directory.borrow().resolve(target);
    let live = lookup_export(shared, NodeId(home.0), home.1);
    (home, live.filter(|&h| is_local_impl(shared, home.0, h)))
}

/// Whether `h` on `node` is a locally implemented instance of a class the
/// policy replicates — the only kind of export that ever ships state.
fn is_replicated_impl(shared: &Shared, node: u32, h: Handle) -> bool {
    info_of(shared, node, h)
        .is_some_and(|info| !info.is_proxy && shared.rows[info.row].rule.replicas > 0)
}

/// Whether `h` on `node` is a generated proxy.
pub(crate) fn is_proxy(shared: &Shared, node: u32, h: Handle) -> bool {
    info_of(shared, node, h).is_some_and(|info| info.is_proxy)
}

/// The object at `old` now lives at `new`: see [`Directory::relocate`]. An
/// import keyed by `new`'s prior identity moves to the mover's, unless the
/// node already holds a handle there. Every backup's copy of `old` goes: a
/// replica read needs `old`'s version, which is gone, so none can be read.
pub(crate) fn relocate(shared: &Shared, old: (u32, u64), new: (u32, u64)) {
    let prior = shared.directory.borrow_mut().relocate(old, new);
    let identity = shared.directory.borrow().identity(new);
    for st in shared.nodes.borrow_mut().iter_mut() {
        st.replica_store.remove(&old);
        if let Some(h) = prior.and_then(|p| st.imports.remove(&p)) {
            st.imports.entry(identity).or_insert(h);
        }
    }
}

/// The live export `(node, oid)`, if `node` has one under that id.
pub(crate) fn lookup_export(shared: &Shared, node: NodeId, oid: u64) -> Option<Handle> {
    shared.directory.borrow().live_export((node.0, oid))
}

/// A wire reference to the live export the location `loc` resolves to,
/// however many recorded moves behind it is, under its current class name;
/// `None` if that home exports nothing.
pub(crate) fn remote_ref(shared: &Shared, loc: (u32, u64)) -> Option<WireValue> {
    let (node, oid) = shared.directory.borrow().resolve(loc);
    let h = lookup_export(shared, NodeId(node), oid)?;
    let class = shared.vms[node as usize].class_of(h)?;
    Some(WireValue::Remote {
        node,
        object: oid,
        class: String::from(&*shared.universe.class(class).name),
    })
}

/// The handle `node` holds for the object at (or once at) `(owner, oid)`,
/// if it holds one.
pub(crate) fn cached_import(shared: &Shared, node: NodeId, owner: u32, oid: u64) -> Option<Handle> {
    let identity = shared.directory.borrow().identity((owner, oid));
    shared.nodes.borrow()[node.0 as usize]
        .imports
        .get(&identity)
        .copied()
}

/// The current property version of the export `(node, oid)`; `None` if the
/// object moved away from it (uncacheable).
pub(crate) fn version_of(shared: &Shared, node: u32, oid: u64) -> Option<u64> {
    shared.directory.borrow().version((node, oid))
}

/// Record a (possible) mutation of the export `(node, oid)`: any cached
/// property read tagged with an older version becomes stale, and the sweep
/// must probe the location — the backups are behind until the next sync.
pub(crate) fn bump_version(shared: &Shared, node: u32, oid: u64) {
    let marked = shared.directory.borrow_mut().bump((node, oid));
    charge_marks(shared, node, u64::from(marked));
}

/// The location the proxy `h` addresses, read from its two state slots.
pub(crate) fn read_proxy_state(vm: &Vm, h: Handle) -> Option<(u32, u64)> {
    vm.with_heap(|heap| {
        match (
            heap.field(h, PROXY_NODE_FIELD),
            heap.field(h, PROXY_OID_FIELD),
        ) {
            (Some(&Value::Int(node)), Some(&Value::Long(oid))) => Some((node as u32, oid as u64)),
            _ => None,
        }
    })
}

/// The field slots of a proxy addressing `(node, oid)`.
fn proxy_state((node, oid): (u32, u64)) -> Vec<Value> {
    let mut fields = vec![Value::Null; 2];
    fields[PROXY_NODE_FIELD] = Value::Int(node as i32);
    fields[PROXY_OID_FIELD] = Value::Long(oid as i64);
    fields
}

fn cache_import(shared: &Shared, node: NodeId, loc: (u32, u64), h: Handle) {
    let identity = shared.directory.borrow().identity(loc);
    shared.nodes.borrow_mut()[node.0 as usize]
        .imports
        .insert(identity, h);
}

/// A fresh `proxy_class` proxy on `node` for the object at `loc`, recorded
/// as the node's import of it.
pub(crate) fn new_proxy(
    shared: &Shared,
    node: NodeId,
    proxy_class: ClassId,
    loc: (u32, u64),
) -> Handle {
    let h = shared.vms[node.0 as usize].alloc_raw(proxy_class, proxy_state(loc));
    cache_import(shared, node, loc, h);
    h
}

/// Point `h` on `node` at `loc`: rewrite it in place into a `proxy_class`
/// proxy and record it as the node's import of the object at `loc`.
pub(crate) fn point_proxy_at(
    shared: &Shared,
    node: NodeId,
    h: Handle,
    proxy_class: ClassId,
    loc: (u32, u64),
) {
    shared.vms[node.0 as usize].replace_object(h, proxy_class, proxy_state(loc));
    cache_import(shared, node, loc, h);
}

// ----------------------------------------------------------------------
// Factory hook implementations
// ----------------------------------------------------------------------

/// `A_O_Factory.make()` on `node`: policy decides where the instance lives
/// — the one decision that depends on the creating node (and, for a
/// round-robin policy, on call order), so the one live policy call.
pub(crate) fn make_value(shared: &Shared, node: NodeId, row: &ClassRow) -> Result<Value, VmError> {
    let target = shared.policy.instance_node(&row.name, node);
    if target == node {
        let family = &shared.plan.families[&row.base];
        // `new` triggers class initialisation, as in the JVM.
        if family.cls.is_some() {
            discover_value(shared, node, row)?;
        }
        let h = shared.vms[node.0 as usize].alloc_default(family.obj.local);
        Ok(Value::Ref(h))
    } else {
        let create = Request::Create {
            class: row.name.clone(),
            ctor: 0,
            args: vec![],
        };
        let (reply, _) = rpc(shared, node, target, row, &create, None)?;
        let wv = read_reply(shared, node, reply)?;
        marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native)
    }
}

/// `A_C_Factory.discover()` on `node`: per-node singleton, local or remote
/// per policy, with JVM-style in-progress semantics.
pub(crate) fn discover_value(
    shared: &Shared,
    node: NodeId,
    row: &ClassRow,
) -> Result<Value, VmError> {
    let base = row.base;
    if let Some(&h) = shared.nodes.borrow()[node.0 as usize].singletons.get(&base) {
        return Ok(Value::Ref(h));
    }
    let remember = |h: Handle| {
        let mut nodes = shared.nodes.borrow_mut();
        nodes[node.0 as usize].singletons.insert(base, h);
    };
    let family = &shared.plan.families[&base];
    let Some(cls) = &family.cls else {
        let what = format!("{} has no static members to discover", row.name);
        return Err(VmError::Native(what));
    };
    let owner = row.rule.statics;
    // Stale-promotion guard (bugfix): if this class's singleton was
    // promoted after a crash, every resolution must follow the promoted
    // copy — even (and especially) on the restarted pre-crash owner, whose
    // wiped registry would otherwise mint a fresh singleton with default
    // state, silently diverging from the copy the survivors still use.
    let canonical = shared.directory.borrow().static_export(row.id);
    if let Some(start) = canonical {
        let (tn, toid) = shared.directory.borrow().resolve(start);
        if (tn, toid) != start {
            if tn == node.0 {
                if let Some(h) = lookup_export(shared, node, toid) {
                    // The promoted copy lives on this very node: adopt it
                    // as the local singleton.
                    remember(h);
                    return Ok(Value::Ref(h));
                }
            } else if let Some(copy) = remote_ref(shared, (tn, toid)) {
                let value = marshal::wire_to_value(shared, node, &copy).map_err(VmError::Native)?;
                if let Value::Ref(h) = value {
                    remember(h);
                }
                return Ok(value);
            }
            // The promoted copy vanished too (its node also restarted):
            // fall through to policy resolution; the first proxy call will
            // re-promote from the copy's own backups.
        }
    }
    if owner == node {
        let h = shared.vms[node.0 as usize].alloc_default(cls.local);
        remember(h);
        if let Some(clinit_sig) = family.clinit_sig {
            shared.vms[node.0 as usize].call_static(
                cls.factory,
                clinit_sig,
                vec![Value::Ref(h)],
            )?;
        }
        Ok(Value::Ref(h))
    } else {
        let discover = Request::Discover {
            class: row.name.clone(),
        };
        let (reply, _) = rpc(shared, node, owner, row, &discover, None)?;
        let wv = read_reply(shared, node, reply)?;
        let value = marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native)?;
        if let Value::Ref(h) = value {
            remember(h);
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests;
