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
/// targets, if its class is replicated by policy and the backups do not
/// hold it already. Called after every served operation that may have
/// mutated the object (and after exports that create one), so a live
/// backup is never behind the last mutation the owner served.
///
/// A flat export (its last shipment held by-value scalars and strings
/// only) owes a shipment iff its heap slot was written or its version
/// moved since: its state is a function of that one slot, so it is
/// marshalled only to ship. A deep one reaches into other heap slots and is
/// compared against the state it last shipped. State that moved under the
/// version the backups hold — a write the runtime never served, such as a
/// plain local call on a pulled object — bumps the version before it
/// ships: the backups must not hold two states under one version tag, and
/// cached reads tagged with it must stop validating.
///
/// Crashed targets are skipped. A partitioned target is missed without a
/// try (the fault-plan lookups stand in for a real owner's failure
/// detector), and so is one whose exchange comes back `Unreachable`. The
/// location then keeps its record and dirty mark and owes the missed
/// backups: the next sweep re-sends an unchanged state to them alone, or
/// ships a written one to all at a bumped version. Only the authoritative
/// copy is shipped: a location the object moved away from exports nothing
/// and never syncs. A replicated export whose state cannot be marshalled
/// right now (an over-deep by-value graph, a stale handle) ships nothing
/// and keeps its dirty mark: no later write need flip its written mark
/// again, so the next sweep must retry it unprompted.
///
/// Returns whether the state moved under the version the backups hold.
pub(crate) fn sync_replicas(shared: &Shared, owner: NodeId, oid: u64) -> bool {
    let probe = shared.prof.section(Section::SweepProbe);
    let Some(h) = lookup_export(shared, owner, oid) else {
        return false;
    };
    let vm = &shared.vms[owner.0 as usize];
    let loc = (owner.0, oid);
    let (record, owed) = {
        let dir = shared.directory.borrow();
        (dir.current_record(loc), dir.owed(loc))
    };
    // Whether the backups were sent this very state under this version.
    let flat_sent = record == Some(false) && !vm.written(h);
    if flat_sent && owed.is_none() {
        shared.directory.borrow_mut().settled(loc);
        return false;
    }
    let Some((class_name, row, fields)) = replicated_state(shared, owner, h) else {
        shared.directory.borrow_mut().unsettled(loc);
        return false;
    };
    let sent =
        flat_sent || record == Some(true) && shared.directory.borrow().deep_record_is(loc, &fields);
    if sent && owed.is_none() {
        shared.directory.borrow_mut().settled(loc);
        vm.clear_written(h);
        return false;
    }
    let moved = record.is_some() && !sent;
    if moved {
        bump_version(shared, owner.0, oid);
    }
    drop(probe);
    let _s = shared.prof.section(Section::SweepShip);
    let version = version_of(shared, owner.0, oid).expect("a live export has a version");
    // Recorded *before* the exchanges below: each one is a top-level rpc,
    // which runs the dirty-replica sweep, which must find this very object
    // settled instead of shipping it a second time. The record also spends
    // the dirty mark (including the re-mark the bump above just made).
    shared.directory.borrow_mut().shipped(loc, version, &fields);
    vm.clear_written(h);
    let req = Request::ReplicaSync {
        object: oid,
        version,
        state: WireValue::ObjectState {
            class: class_name.to_owned(),
            fields,
        },
    };
    let mut targets = match owed.filter(|_| sent) {
        Some(missed) => missed,
        None => replica_targets(row.rule.replicas, owner.0, shared.vms.len() as u32),
    };
    targets.retain(|&t| !shared.net.fault_plan(|f| f.is_crashed(NodeId(t))));
    if row.rule.batch {
        // Replica shipments of a batched class are deferrable: they ride
        // the owner's outcall queue to each backup, which owns its copy,
        // and land at the next synchronization point.
        let copies = std::iter::repeat_n(req, targets.len());
        for (t, req) in targets.into_iter().zip(copies) {
            enqueue_outcall(shared, owner, NodeId(t), row, req);
        }
    } else {
        let lost = |t: &u32| {
            let to = NodeId(*t);
            let sent = || rpc(shared, owner, to, row, &req, None);
            shared.net.fault_plan(|f| f.is_partitioned(owner, to))
                || matches!(sent(), Err(VmError::Unreachable(_)))
        };
        let missed: Vec<u32> = targets.into_iter().filter(lost).collect();
        if !missed.is_empty() {
            shared.directory.borrow_mut().undelivered(loc, missed);
        }
    }
    moved
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
/// Returns the number of locations whose state moved under the version
/// their backups hold. Re-sending an unchanged state to the backups a
/// shipment missed is not counted.
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
    let mut moved = 0;
    for (n, oid) in targets {
        // A crashed owner cannot ship; its backups are exactly what the
        // failover machinery is for. The entry is dropped, not kept: a
        // restart wipes the owner's state and re-seeds the sweep for every
        // node, so nothing stale survives to ship.
        if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
            continue;
        }
        bump(shared, n, Met::ReplicaSweepProbes);
        moved += usize::from(sync_replicas(shared, NodeId(n), oid));
    }
    shared.in_replica_sweep.set(false);
    moved
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
/// A served read records a zero-length `rpc.call` span tagged
/// `replica_read` (`record_local_read`). That is deliberate: the span's
/// trace context is what a stale-read violation points to, and the trace
/// shows the call that never crossed the wire.
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
