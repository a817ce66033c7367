//! Boundary changes: migrating live objects (a pull is a migration from the
//! live home), the affinity loop that re-draws boundaries from observed
//! calls, and policy-driven shard placement (place, rebalance, adopt,
//! enforce).

use crate::batch::flush_outqueues;
use crate::cluster::{
    export, gen_info, info_of, live_home, lookup_export, point_proxy_at, read_proxy_state,
    relocate, ClassRow, Cluster, RemoteRef, Shared,
};
use crate::detector::suspects;
use crate::marshal;
use crate::obs::Met;
use crate::profile::Section;
use crate::rpc::{read_reply, rpc};
use crate::serve::unknown_object;
use crate::stats::bump;
use rafda_classmodel::Side;
use rafda_net::NodeId;
use rafda_policy::{AffinityConfig, ShardSpec};
use rafda_telemetry::{SpanOutcome, Symbol};
use rafda_vm::{Handle, Value, VmError};
use rafda_wire::{Request, WireValue};
use std::fmt;

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

impl Cluster {
    /// Move a live object to another node. The local instance is rewritten
    /// **in place** into a proxy, so every existing reference on `from`
    /// transparently becomes remote (Figure 1: `C` → `Cp`).
    ///
    /// # Errors
    /// [`VmError`] if the handle is not a live `*_Local` object or the
    /// transfer fails.
    pub fn migrate(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<MigrationEvent, VmError> {
        let _p = self.shared.prof.section(Section::Placement);
        self.placement_span("migrate", from, Some(from), to, || {
            // A migration is a synchronization point, and it must flush
            // *before* the state snapshot: a deferred call still queued
            // against this object has to land while the object is at its
            // old home, or the shipped state would miss it.
            flush_outqueues(&self.shared)?;
            let moved = self.install_at(from, object, to)?;
            bump(&self.shared, from.0, Met::Migrations);
            Ok(moved)
        })
    }

    /// Pull the object behind `proxy` to `node` (Figure 1's swap undone):
    /// a migration from the object's live home, which the directory
    /// resolves however many moves the proxy is behind. `proxy` is `node`'s
    /// one handle for the object, so the install rewrites it in place into
    /// the real object. If the home is already on `node`, nothing moves.
    ///
    /// # Errors
    /// [`VmError`] if the handle is not a proxy, its object has no live
    /// home, or the transfer fails.
    pub fn pull_local(&self, node: NodeId, proxy: Handle) -> Result<MigrationEvent, VmError> {
        let _p = self.shared.prof.section(Section::Placement);
        self.placement_span("pull", node, None, node, || {
            let shared = &self.shared;
            // Synchronization point, before the home is resolved: a flushed
            // call may re-home the object (see [`Cluster::migrate`]).
            flush_outqueues(shared)?;
            let vm = &shared.vms[node.0 as usize];
            let class = vm
                .class_of(proxy)
                .ok_or_else(|| VmError::Native("stale handle".into()))?;
            let info = gen_info(shared, class)
                .filter(|i| i.is_proxy)
                .ok_or_else(|| VmError::Native("pull_local needs a proxy".into()))?;
            let target =
                read_proxy_state(vm, proxy).ok_or_else(|| VmError::Native("stale proxy".into()))?;
            let (home, live) = live_home(shared, target);
            if home.0 == node.0 {
                let row = &shared.rows[info.row];
                let event = MigrationEvent {
                    class: row.name.clone(),
                    from: node,
                    to: node,
                    target: RemoteRef { node, oid: home.1 },
                };
                return Ok((event, row.name_sym));
            }
            let owner = NodeId(home.0);
            let object = live.ok_or_else(|| VmError::Native(unknown_object(home.1, owner)))?;
            let moved = self.install_at(owner, object, node)?;
            bump(shared, node.0, Met::Pulls);
            Ok(moved)
        })
    }

    /// Run a boundary change under its span: `name` on node `at`, with
    /// `from` (when known up front, else the event's), `to` and the moved
    /// class (the body returns its row's interned name) as attributes, and
    /// the outcome as its status.
    fn placement_span(
        &self,
        name: &'static str,
        at: NodeId,
        from: Option<NodeId>,
        to: NodeId,
        body: impl FnOnce() -> Result<(MigrationEvent, Symbol), VmError>,
    ) -> Result<MigrationEvent, VmError> {
        let shared = &self.shared;
        let vocab = &shared.span_vocab;
        let span = {
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span(name, at.0, shared.net.now().as_ns());
            let known_from = from.map(|from| vocab.from.u64(from.0.into()));
            spans.set_attrs(h, known_from.as_slice());
            spans.set_attrs(h, &[vocab.to.u64(to.0.into())]);
            h
        };
        let result = body();
        let mut spans = shared.spans.borrow_mut();
        let outcome = match &result {
            Ok((event, class)) => {
                let late_from = from.is_none().then(|| vocab.from.u64(event.from.0.into()));
                spans.set_attrs(span, &[vocab.class.sym(*class)]);
                spans.set_attrs(span, late_from.as_slice());
                SpanOutcome::Ok
            }
            Err(e) if e.is_network() => SpanOutcome::NetFailure,
            Err(_) => SpanOutcome::Fault,
        };
        spans.end_span(span, shared.net.now().as_ns(), outcome);
        result.map(|(event, _)| event)
    }

    /// The one move: ship the state of `object`, live on `from`, to `to`
    /// in an `Install`, then record the move and rewrite `object` in place
    /// into a proxy for the new home — in that order, so the proxy is
    /// recorded under the object's identity. Returns the move and its class
    /// row's interned name.
    fn install_at(
        &self,
        from: NodeId,
        object: Handle,
        to: NodeId,
    ) -> Result<(MigrationEvent, Symbol), VmError> {
        let shared = &self.shared;
        if from == to {
            return Err(VmError::Native("migration to the same node".into()));
        }
        let vm = &shared.vms[from.0 as usize];
        let (class, fields) = vm
            .read_object(object)
            .ok_or_else(|| VmError::Native("stale handle".into()))?;
        let info = gen_info(shared, class)
            .ok_or_else(|| VmError::Native("only transformed objects can migrate".into()))?;
        if info.is_proxy {
            return Err(VmError::Native(
                "object is already remote (a proxy); migrate it from its owner".into(),
            ));
        }
        let row = &shared.rows[info.row];
        let state = WireValue::ObjectState {
            class: String::from(&*shared.universe.class(class).name),
            fields: marshal::values_to_wire(shared, from, &fields).map_err(VmError::Native)?,
        };
        let source_oid = export(shared, from, object);
        let install = Request::Install {
            state,
            source: (from.0, source_oid),
        };
        let (reply, _) = rpc(shared, from, to, row, &install, None)?;
        let target = match read_reply(shared, from, reply)? {
            WireValue::Remote { node, object, .. } => RemoteRef {
                node: NodeId(node),
                oid: object,
            },
            other => return Err(VmError::Native(format!("unexpected reply {other:?}"))),
        };
        let proxy_class = row.proxy_class(info.side).map_err(VmError::Native)?;
        let new = (target.node.0, target.oid);
        relocate(shared, (from.0, source_oid), new);
        point_proxy_at(shared, from, object, proxy_class, new);
        let event = MigrationEvent {
            class: row.name.clone(),
            from,
            to,
            target,
        };
        Ok((event, row.name_sym))
    }

    /// One round of the adaptive affinity loop: every exported object whose
    /// incoming calls are dominated by a single remote node (per `config`)
    /// is migrated to that node. Returns the boundary changes made.
    pub fn adapt(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        let _p = shared.prof.section(Section::Placement);
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
            // Only migrate objects still locally implemented. Shard
            // placement is policy-owned: the affinity loop must not fight
            // the shard map by dragging a sharded instance toward its
            // chattiest caller.
            match info_of(shared, owner.0, handle) {
                Some(info) if !info.is_proxy && shared.rows[info.row].rule.shard.is_none() => {}
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
        row: &ClassRow,
        that: &Value,
    ) -> Result<(), VmError> {
        let shared = &self.shared;
        let Some(spec) = &row.rule.shard else {
            return Ok(());
        };
        let Value::Ref(h) = *that else {
            return Ok(());
        };
        let (shard, owner) = shard_of_instance(shared, node.0, row, spec, h)?;
        let Some(info) = info_of(shared, node.0, h) else {
            return Ok(());
        };
        let vm = &shared.vms[node.0 as usize];
        let member = if info.is_proxy {
            let (tn, toid) =
                read_proxy_state(vm, h).ok_or_else(|| VmError::Native("stale proxy".into()))?;
            if tn == owner {
                (tn, toid)
            } else {
                let src = lookup_export(shared, NodeId(tn), toid)
                    .ok_or_else(|| VmError::Native(format!("unknown object {tn}#{toid}")))?;
                let event = self.migrate(NodeId(tn), src, NodeId(owner))?;
                let home = (event.target.node.0, event.target.oid);
                // Re-point the creator's proxy at the shard home directly:
                // the old location answers for nothing any more.
                point_proxy_at(shared, node, h, vm.class_of(h).expect("live proxy"), home);
                home
            }
        } else if node.0 == owner {
            // Created straight onto its shard's node: export it, so the
            // export can carry its shard.
            (node.0, export(shared, node, h))
        } else {
            let event = self.migrate(node, h, NodeId(owner))?;
            (event.target.node.0, event.target.oid)
        };
        shared
            .directory
            .borrow_mut()
            .tag_shard(member, (row.id, shard));
        bump(shared, node.0, Met::ShardPlacements);
        Ok(())
    }

    /// One adaptation tick for policy-driven sharding. In order:
    ///
    /// 1. adopt exported sharded instances the creation hook never saw
    ///    (objects that became visible through marshaling),
    /// 2. detect hot-key skew from the same call counters the affinity
    ///    loop reads — members on a down node count for nothing — and
    ///    greedily reassign hot shards from the most- to the least-loaded
    ///    node while that strictly narrows the spread,
    /// 3. enforce the map: migrate every member not at its shard's owner.
    ///
    /// Deterministic by construction: the shard map is a `BTreeMap`
    /// iterated in key order, a shard's members come in `(node, oid)`
    /// order, load ties break toward the lowest node id (and the lowest
    /// shard key), and every move ships state through the same Install
    /// path migration uses — a synchronization point that drains the E12
    /// outcall queues first.
    pub fn rebalance_shards(&self, config: &AffinityConfig) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        let _p = shared.prof.section(Section::Placement);
        if !shared.any_sharding {
            return Vec::new();
        }
        let _ = flush_outqueues(shared);
        self.adopt_sharded_exports();
        // Per-shard load: calls served for its members at their current
        // homes. Absent counters mean a quiet shard, not an error.
        let loads = shared.directory.borrow().shard_loads(|n| up(shared, n));
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
                    .assign_shard(owners[i].0, min_n);
                node_load[max_n as usize] -= l;
                node_load[min_n as usize] += l;
                bump(shared, max_n, Met::ShardRebalances);
            }
        }
        self.enforce_shard_map()
    }

    /// Tag exported instances of sharded classes that creation-time
    /// placement never saw, reading their shard key at their current home.
    /// Purely bookkeeping — physical moves happen in the enforcement pass.
    fn adopt_sharded_exports(&self) {
        let shared = &self.shared;
        for n in 0..shared.vms.len() as u32 {
            if !up(shared, n) {
                continue;
            }
            let exports = shared.directory.borrow().exports_of(n);
            for (oid, h) in exports {
                if shared.directory.borrow().shard_of((n, oid)).is_some() {
                    continue;
                }
                let Some(info) = info_of(shared, n, h) else {
                    continue;
                };
                if info.is_proxy || info.side != Side::Obj {
                    continue;
                }
                let row = &shared.rows[info.row];
                let Some(spec) = &row.rule.shard else {
                    continue;
                };
                let Ok((shard, _)) = shard_of_instance(shared, n, row, spec, h) else {
                    continue;
                };
                shared
                    .directory
                    .borrow_mut()
                    .tag_shard((n, oid), (row.id, shard));
            }
        }
    }

    /// Enforcement pass: migrate every shard member that is not at its
    /// shard's owner. A member that cannot move right now (the owner or its
    /// node is down, or its node suspects the owner) stays for the next tick.
    fn enforce_shard_map(&self) -> Vec<MigrationEvent> {
        let shared = &self.shared;
        let plan = shared.directory.borrow().shard_owners();
        let mut events = Vec::new();
        for (key, owner) in plan {
            let to = NodeId(owner);
            if suspects(shared, to, to) {
                continue;
            }
            let members = shared
                .directory
                .borrow()
                .shard_members(key, |n| up(shared, n));
            for (n, oid) in members {
                // The member's node ships it, so that node asks.
                let from = NodeId(n);
                if n == owner || suspects(shared, from, to) {
                    continue;
                }
                let Some(h) = lookup_export(shared, from, oid) else {
                    continue;
                };
                // The move carries the member's shard to its new home.
                if let Ok(event) = self.migrate(from, h, to) {
                    events.push(event);
                }
            }
        }
        events
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

/// The shard of instance `h` on `node` and that shard's owner: the value of
/// `spec`'s key getter, hashed, modulo the shard count. A shard seen for the
/// first time is owned by node `shard % node_count`.
fn shard_of_instance(
    shared: &Shared,
    node: u32,
    row: &ClassRow,
    spec: &ShardSpec,
    h: Handle,
) -> Result<(u32, u32), VmError> {
    let vm = &shared.vms[node as usize];
    let key = vm.call_virtual_by_name(Value::Ref(h), &spec.key_getter, vec![])?;
    let shard = (shard_hash(&key) % u64::from(spec.modulo)) as u32;
    let owner = shared
        .directory
        .borrow_mut()
        .shard_owner((row.id, shard), shard % shared.vms.len() as u32);
    Ok((shard, owner))
}

/// Whether node `n` is up, as it knows of itself: a down node's shard
/// members neither count nor move, and it adopts none.
fn up(shared: &Shared, n: u32) -> bool {
    !suspects(shared, NodeId(n), NodeId(n))
}
