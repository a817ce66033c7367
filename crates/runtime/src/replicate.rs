//! k-replication: shipping an export's state to its backups
//! ([`sync_replicas`]), the dirty-replica sweep that finds what to ship,
//! and reads served from a node's own backup copy.
//!
//! The sweep probes exactly the locations marked dirty since their last
//! shipment. Marking must therefore cover every way replicated state can
//! drift: version bumps (served mutations, installs, promotions), fresh
//! replicated exports, and bare local mutations — writes the runtime never
//! served, which each node's heap logs as they happen and the sweep drains
//! into [`Directory::mark_written`].
//!
//! Backups are keyed by the owner's location. A move drops its version and
//! vacates it, so its backups stop serving reads: a replica read is
//! taken only from a copy of a live, unmoved location, and a getter aimed
//! at a moved-away one goes to the owner, which redirects it to the live
//! home (whose own backups are re-seeded by its syncs).

use crate::batch::enqueue_outcall;
use crate::cluster::{bump_version, info_of, lookup_export, version_of, ClassRow, Shared};
use crate::directory::Drift;
use crate::marshal;
use crate::obs::Met;
use crate::profile::Section;
use crate::rpc::{rpc, ProxyMethod};
use crate::stats::{bump, record_local_read};
use rafda_net::NodeId;
use rafda_vm::{Handle, Value, VmError};
use rafda_wire::{Request, WireValue};

/// Mark every replicated export of `node` dirty, written or not.
pub(crate) fn mark_node_dirty(shared: &Shared, node: u32) {
    let marked = shared.directory.borrow_mut().mark_node(node);
    charge_marks(shared, node, marked);
}

/// Charge `marks` dirty-set insertions to `node`.
pub(crate) fn charge_marks(shared: &Shared, node: u32, marks: u64) {
    if marks > 0 {
        let _s = shared.prof.section(Section::MetricWrite);
        shared.obs.borrow_mut().add(node, Met::DirtyMarks, marks);
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
/// by the next one. Only the authoritative copy is shipped: a location the
/// object moved away from exports nothing and never syncs. A replicated
/// export whose state cannot be marshalled right now (an over-deep
/// by-value graph, a stale handle) ships nothing and keeps its dirty mark:
/// no later write need flip its written mark again, so the next sweep must
/// retry it unprompted.
///
/// Returns whether a shipment was made.
pub(crate) fn sync_replicas(shared: &Shared, owner: NodeId, oid: u64) -> bool {
    let probe = shared.prof.section(Section::SweepProbe);
    let Some(h) = lookup_export(shared, owner, oid) else {
        return false;
    };
    let vm = &shared.vms[owner.0 as usize];
    let loc = (owner.0, oid);
    // Nobody wrote the object's heap slot since the runtime last proved its
    // live state equal to the shipment record, and that record is flat —
    // the marshalled state is a function of this one slot — so the full
    // probe below would read, marshal, compare and find it settled.
    if !vm.written(h) && shared.directory.borrow_mut().settle_if_flat(loc) {
        debug_assert_eq!(
            replicated_state(shared, owner, h)
                .map(|(_, _, state)| shared.directory.borrow().drift(loc, &state)),
            Some(Drift::Settled),
            "the written mark and the full probe disagree at {loc:?}"
        );
        return false;
    }
    let Some((class_name, row, wire_fields)) = replicated_state(shared, owner, h) else {
        shared.directory.borrow_mut().unsettled(loc);
        return false;
    };
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
    let drift = shared.directory.borrow().drift(loc, &wire_fields);
    match drift {
        Drift::Settled => {
            shared.directory.borrow_mut().settled(loc);
            vm.clear_written(h);
            return false;
        }
        Drift::State => bump_version(shared, owner.0, oid),
        Drift::Version => {}
    }
    drop(probe);
    let _s = shared.prof.section(Section::SweepShip);
    let version = version_of(shared, owner.0, oid).expect("a live export has a version");
    // Recorded *before* the exchanges below: each one is a top-level rpc,
    // which runs the dirty-replica sweep, which must find this very object
    // settled instead of shipping it a second time. The record also spends
    // the dirty mark (including the re-mark the drift bump above just made).
    // Nothing has run since the state was read, so live == record here too.
    shared
        .directory
        .borrow_mut()
        .shipped(loc, version, wire_fields.clone());
    vm.clear_written(h);
    let state = WireValue::ObjectState {
        class: class_name.to_owned(),
        fields: wire_fields,
    };
    let ship = |t: u32, state: WireValue| {
        let req = Request::ReplicaSync {
            object: oid,
            version,
            state,
        };
        if row.rule.batch {
            // Replica shipments of a batched class are deferrable: they
            // ride the owner's outcall queue to each backup and land at the
            // next synchronization point.
            enqueue_outcall(shared, owner, NodeId(t), row, req);
        } else {
            let _ = rpc(shared, owner, NodeId(t), row, &req, None);
        }
    };
    let mut targets = replica_targets(row.rule.replicas, owner.0, shared.vms.len() as u32);
    targets.retain(|&t| !shared.net.fault_plan(|f| f.is_crashed(NodeId(t))));
    if let Some((&last, rest)) = targets.split_last() {
        for &t in rest {
            ship(t, state.clone());
        }
        ship(last, state);
    }
    true
}

/// The marshalled live state of `h` on `owner`, if it is a locally
/// implemented instance of a class the policy replicates — the only kind
/// of export that ships: `(runtime class name, its family's row, wire
/// fields)`.
fn replicated_state(
    shared: &Shared,
    owner: NodeId,
    h: Handle,
) -> Option<(&str, &ClassRow, Vec<WireValue>)> {
    let info = info_of(shared, owner.0, h).filter(|info| !info.is_proxy)?;
    let row = &shared.rows[info.row];
    if row.rule.replicas == 0 {
        return None;
    }
    let (class, fields) = shared.vms[owner.0 as usize].read_object(h)?;
    let wire_fields = marshal::values_to_wire(shared, owner, &fields).ok()?;
    Some((&shared.universe.class(class).name, row, wire_fields))
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
/// bumps, fresh replicated exports, restart re-seeds, and — drained here,
/// first — what each node's heap logged as written since the last sweep.
/// Every write to an entry passes `Heap::get_mut`, so nothing that ran
/// between two sweeps, application code or host, can move a replicated
/// object's state unlogged. Gated on `any_replication` so workloads
/// without a `replicate` policy pay one boolean test, and guarded against
/// re-entry because the shipments are themselves exchanges.
///
/// Returns the number of shipments made.
pub(crate) fn sync_dirty_replicas(shared: &Shared) -> usize {
    if !shared.any_replication || shared.in_replica_sweep.get() {
        return 0;
    }
    let drain = shared.prof.section(Section::SweepDrain);
    for (n, vm) in (0..).zip(&shared.vms) {
        if let Some(written) = vm.take_written() {
            let marked = shared.directory.borrow_mut().mark_written(n, &written);
            charge_marks(shared, n, marked);
        }
    }
    // Take the set whole: marks made *during* the sweep (the drift bump
    // inside a shipment, writes a nested exchange logs) are next sweep's
    // work, exactly like mutations made during the old full enumeration.
    let targets = shared.directory.borrow_mut().take_dirty();
    drop(drain);
    shared.in_replica_sweep.set(true);
    let mut shipped = 0;
    for (n, oid) in targets {
        // A crashed owner cannot ship; its backups are exactly what the
        // failover machinery is for. The entry is dropped, not kept: a
        // restart wipes the owner's state and re-seeds the sweep for every
        // node, so nothing stale survives to ship.
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
            continue;
        }
        bump(shared, n, Met::ReplicaSweepProbes);
        shipped += usize::from(sync_replicas(shared, NodeId(n), oid));
    }
    shared.in_replica_sweep.set(false);
    shipped
}

/// Serve a getter from `node`'s own replica copy of `(owner, oid)`, iff
/// the copy's version equals the owner's current property version (and the
/// location still has one: the object has not moved). `Ok(None)` means the
/// node holds no copy or the copy lags — the caller falls through to a
/// normal owner exchange, whose served reply restores the replica's
/// currency.
///
/// The read is one slot read: [`Vm::getter_slot`] names the field the
/// getter's bytecode would read on the copy's class, and only that stored
/// wire value is unmarshalled. No instance is built and no bytecode runs.
/// A method that is not the property-getter shape (a subclass's own method
/// under a generated getter's signature) or a slot past the stored fields
/// (a copy shorter than the class layout) is the owner's to answer: it
/// falls through exactly as a lagging copy does.
///
/// In the simulated topology every inter-node link costs the same, so the
/// nearest *profitable* replica is always the caller's own store: remote
/// replicas would cost exactly what the owner does.
///
/// [`Vm::getter_slot`]: rafda_vm::Vm::getter_slot
pub(crate) fn replica_read(
    shared: &Shared,
    node: NodeId,
    row: &ClassRow,
    method: &ProxyMethod,
    (owner, oid): (u32, u64),
) -> Result<Option<Value>, VmError> {
    if owner == node.0 {
        return Ok(None);
    }
    let Some(current) = version_of(shared, owner, oid) else {
        return Ok(None);
    };
    let vm = &shared.vms[node.0 as usize];
    let field = {
        let nodes = shared.nodes.borrow();
        let copy = nodes[node.0 as usize].replica_store.get(&(owner, oid));
        let Some((_, class, fields)) = copy.filter(|(version, _, _)| *version == current) else {
            return Ok(None);
        };
        let slot = vm.getter_slot(*class, method.sig);
        let Some(field) = slot.and_then(|slot| fields.get(slot)) else {
            return Ok(None);
        };
        // Cloned out of the borrow: a reference field materialises a proxy,
        // which registers an import on this very node's state.
        field.clone()
    };
    let result = marshal::wire_to_value(shared, node, &field).map_err(VmError::Native)?;
    bump(shared, node.0, Met::ReplicaReads);
    // Under the E14 stale-read oracle like every other locally served read.
    let how = shared.span_vocab.replica_read;
    record_local_read(shared, node, (owner, oid), row, method.symbol, how);
    Ok(Some(result))
}
