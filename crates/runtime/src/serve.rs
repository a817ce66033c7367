//! The server side of an exchange: at-most-once serving of a delivered
//! frame ([`serve_frame`]) and the dispatch of each request kind against
//! the serving node's VM and the directory.

use crate::cluster::{
    bump_version, cache_import, cached_import, class_row, default_instance, discover_value, export,
    gen_info, getter_sigs, info_of, is_local_impl, is_proxy, lookup_export, read_proxy_state,
    relocate, remote_ref, version_of, Shared,
};
use crate::directory::Why;
use crate::marshal;
use crate::obs::Met;
use crate::replicate::{sync_replicas, AppFrame};
use crate::rpc::span_names;
use crate::stats::{bump, monitors_on};
use rafda_classmodel::{ClassId, SigId};
use rafda_net::NodeId;
use rafda_telemetry::{MonitorEvent, SpanOutcome, TraceContext};
use rafda_vm::{Handle, Value, VmError};
use rafda_wire::{FrameHeader, Reply, Request, WireValue};

/// Serve a delivered frame with at-most-once semantics: if this
/// `(caller, message id)` was already answered, return the cached reply
/// without re-executing — a retransmission must never apply a mutating
/// method twice. The dedup decision is made on the borrowed header, and the
/// owned request tree is only materialised (resolving signature references
/// against the link's table) when the request is actually going to be
/// invoked.
///
/// Records a `serve.*` span whose parent comes from the wire context, which
/// is what stitches the hops of a multi-node chain into one trace. Returns
/// the reply, the serve span's context, and the addressed export's current
/// property version (0 for request kinds that address no export) — both of
/// which ride back in the reply header.
pub(crate) fn serve_frame(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    header: &FrameHeader<'_>,
) -> (Reply, TraceContext, u64) {
    let msg_id = header.msg_id;
    let (_, serve_name) = span_names(header.kind);
    let (span, reply_ctx) = {
        let mut spans = shared.spans.borrow_mut();
        let now = shared.net.now().as_ns();
        let h = spans.start_server_span(serve_name, node.0, now, header.ctx);
        spans.set_attr(h, "caller", caller.0);
        let reply_ctx = spans.context_of(h);
        (h, reply_ctx)
    };
    // Tell the at-most-once monitor this frame was answered: by running the
    // request, or (`replay`) from the reply cache.
    let executed = |replay: bool| {
        if monitors_on(shared) {
            shared.obs.borrow_mut().emit(&MonitorEvent::Execution {
                node: node.0,
                caller: caller.0,
                msg_id,
                replay,
                span_id: reply_ctx.span_id,
                trace_id: reply_ctx.trace_id,
            });
        }
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
        executed(true);
        return (reply, reply_ctx, obj_version);
    }
    let req = match shared.with_link_table(caller, node, |table| header.materialise(Some(table))) {
        Ok(req) => req,
        Err(e) => {
            // The frame identified itself well enough to route but its
            // payload is malformed: answer a fault (not cached — a
            // retransmission carries the same bytes and faults the same
            // way, so caching would only occupy a dedup slot).
            bump(shared, node.0, Met::Faults);
            let reply = Reply::Fault(format!("malformed request frame: {e}"));
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
    executed(false);
    shared.nodes.borrow_mut()[node.0 as usize]
        .reply_cache
        .insert(key, (reply.clone(), obj_version));
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
            let is_getter = info_of(shared, node.0, h)
                .is_some_and(|info| getter_sigs(shared, info).contains(&sig));
            if !is_getter {
                bump_version(shared, node.0, object);
            }
            let values = match marshal::wire_to_values(shared, node, &args) {
                Ok(values) => values,
                Err(m) => return Reply::Fault(m),
            };
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
            let Some(row) = class_row(shared, base) else {
                return Reply::Fault(format!("{class} is not substitutable"));
            };
            let family = &shared.plan.families[&base];
            if family.has_statics {
                if let Err(e) = discover_value(shared, node, row) {
                    return Reply::Fault(e.to_string());
                }
            }
            let h = default_instance(shared, node, family.obj_local);
            let oid = export(shared, node, h);
            // Replicate the freshly created object at once: an owner that
            // crashes before serving any call must not take it along.
            sync_replicas(shared, node, oid);
            let class = shared.universe.class(family.obj_local).name.clone();
            exported(node, oid, class)
        }
        Request::Discover { class } => {
            bump(shared, node.0, Met::RpcDiscovers);
            let Some(base) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let Some(row) = class_row(shared, base) else {
                return Reply::Fault(format!("{class} is not substitutable"));
            };
            match discover_value(shared, node, row) {
                Ok(Value::Ref(h)) => {
                    let rt_class = vm.class_of(h).expect("live singleton");
                    // The stale-promotion guard may have resolved to a
                    // *proxy* for a copy promoted onto another node. Reply
                    // with the copy's real location instead of exporting
                    // the proxy, which would add a pointless double hop
                    // (and re-anchor the singleton to this node).
                    if is_proxy(shared, node.0, h) {
                        return match read_proxy_state(vm, h).and_then(|at| remote_ref(shared, at)) {
                            Some(r) => Reply::Value(r),
                            None => Reply::Fault(format!("promoted singleton of {class} vanished")),
                        };
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
                    exported(node, oid, shared.universe.class(rt_class).name.clone())
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
            match marshal::values_to_wire(shared, node, &fields) {
                Ok(fields) => Reply::Value(WireValue::ObjectState {
                    class: shared.universe.class(class).name.clone(),
                    fields,
                }),
                Err(m) => Reply::Fault(m),
            }
        }
        Request::Install { state, source } => {
            bump(shared, node.0, Met::RpcInstalls);
            let WireValue::ObjectState { class, fields } = state else {
                return Reply::Fault("install needs object state".into());
            };
            let Some(class_id) = shared.universe.by_name(&class) else {
                return Reply::Fault(format!("unknown class {class}"));
            };
            let oid = match land(shared, node, class_id, &fields, source) {
                Ok(oid) => oid,
                Err(m) => return Reply::Fault(m),
            };
            sync_replicas(shared, node, oid);
            exported(node, oid, class)
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
            let Some(info) = gen_info(shared, class) else {
                return Reply::Fault("cannot forward untransformed object".into());
            };
            let proxy_class = match shared.rows[info.row].proxy_class(info.side) {
                Ok(proxy_class) => proxy_class,
                Err(m) => return Reply::Fault(m),
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
            if let Some(home) = recorded {
                return match remote_ref(shared, home) {
                    Some(r) => Reply::Value(r),
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
            let oid = match land(shared, node, class_id, &fields, Some(key)) {
                Ok(oid) => oid,
                Err(m) => return Reply::Fault(m),
            };
            relocate(shared, key, (node.0, oid), Why::Promoted);
            bump(shared, node.0, Met::Promotions);
            // Re-establish the replication factor from the new home, so a
            // second crash before the next mutation still loses nothing.
            sync_replicas(shared, node, oid);
            exported(node, oid, class)
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

/// The reply that hands the caller a reference to export `oid` of `node`.
fn exported(node: NodeId, oid: u64, class: String) -> Reply {
    Reply::Value(WireValue::Remote {
        node: node.0,
        object: oid,
        class,
    })
}

/// Land an object's marshalled `fields` on `node` and return its export
/// id. If the node already holds a proxy for the object's previous
/// location `prior`, that proxy is rewritten in place — existing local
/// references then see the object as local, with no double hop through the
/// old owner. The landed state supersedes anything cached about a previous
/// export under the same id, so its version is bumped.
fn land(
    shared: &Shared,
    node: NodeId,
    class: ClassId,
    fields: &[WireValue],
    prior: Option<(u32, u64)>,
) -> Result<u64, String> {
    let vm = &shared.vms[node.0 as usize];
    let values = marshal::wire_to_values(shared, node, fields)?;
    let existing = prior.and_then(|(n, o)| cached_import(shared, node, n, o));
    let h = match existing {
        Some(ph) if vm.class_of(ph).is_some() => {
            vm.replace_object(ph, class, values);
            ph
        }
        _ => vm.alloc_raw(class, values),
    };
    let oid = export(shared, node, h);
    bump_version(shared, node.0, oid);
    Ok(oid)
}

fn exception_reply(shared: &Shared, node: NodeId, exc: Handle) -> Reply {
    let vm = &shared.vms[node.0 as usize];
    let Some((class, fields)) = vm.read_object(exc) else {
        return Reply::Fault("stale exception".into());
    };
    match marshal::values_to_wire(shared, node, &fields) {
        Ok(fields) => Reply::Exception {
            class: shared.universe.class(class).name.clone(),
            fields,
        },
        Err(m) => Reply::Fault(m),
    }
}

/// Methods travel as `name@sigid`; both sides share the interned signature
/// table (the same transformed program is deployed on every node).
fn parse_method(method: &str) -> Option<SigId> {
    let (_, id) = method.rsplit_once('@')?;
    id.parse::<u32>().ok().map(SigId)
}
