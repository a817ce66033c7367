//! The callee half of an exchange: [`deliver`] takes a request frame's bytes
//! and returns the reply frame's bytes — header decode, at-most-once
//! serving, dispatch of each request kind against the serving node's VM and
//! the directory, reply encode. Nothing else in the runtime reaches in here.

use crate::cluster::{
    bump_version, cached_import, class_row, discover_value, export, is_proxy, lookup_export,
    read_proxy_state, relocate, remote_ref, version_of, Shared,
};
use crate::marshal;
use crate::obs::Met;
use crate::profile::Section;
use crate::replicate::sync_replicas;
use crate::rpc::{span_names, MAX_RPC_DEPTH};
use crate::stats::bump;
use rafda_classmodel::{ClassId, SigId};
use rafda_net::NodeId;
use rafda_telemetry::{SpanOutcome, TraceContext};
use rafda_vm::{Value, VmError};
use rafda_wire::{FrameHeader, Protocol, Reply, Request, WireValue};

/// Answer the request frame `frame`, which arrived on `to` from `from`: the
/// whole callee half. Total on its input — bytes that are not a frame are
/// answered with a fault frame (message id 0, no trace context), never a
/// panic. The reply is framed into a buffer of the `to → from` link's pool,
/// which the caller puts back once it has read the bytes.
pub(crate) fn deliver(
    shared: &Shared,
    to: NodeId,
    from: NodeId,
    codec: &dyn Protocol,
    frame: &[u8],
) -> Vec<u8> {
    let _s = shared.prof.section(Section::Serve);
    let header = {
        let _s = shared.prof.section(Section::HeaderDedup);
        codec.decode_request_header(frame)
    };
    let (msg_id, answer, reply_ctx) = match header {
        Ok(header) => {
            let (answer, reply_ctx) = serve_frame(shared, to, from, &header);
            (header.msg_id, answer, reply_ctx)
        }
        Err(e) => {
            bump(shared, to.0, Met::Faults);
            let fault = Reply::Fault(format!("malformed request frame: {e}"));
            (0, Answer::Refused(fault), TraceContext::NONE)
        }
    };
    let _s = shared.prof.section(Section::ReplyEncode);
    let mut reply_bytes = shared.checkout_buf(to, from);
    let mut encode_reply = |reply: &Reply, obj_version: u64| {
        shared.with_link_table(to, from, |table| {
            codec.encode_reply_into(
                msg_id,
                reply_ctx,
                obj_version,
                reply,
                Some(table),
                &mut reply_bytes,
            )
        })
    };
    let mut encode = |reply: &Reply, obj_version: u64| {
        if let Err(e) = encode_reply(reply, obj_version) {
            // The reply itself cannot be framed (e.g. a >4 GiB string):
            // answer a fault instead. It is one short string, which cannot
            // itself fail to encode.
            let fault = Reply::Fault(format!("reply encode failed: {e}"));
            encode_reply(&fault, obj_version).expect("fault reply must encode");
        }
    };
    match answer {
        Answer::Ran(reply, obj_version) => {
            encode(&reply, obj_version);
            // The reply is framed; now it moves into the caller's window,
            // where a retransmission finds it.
            let _s = shared.prof.section(Section::HeaderDedup);
            let mut nodes = shared.nodes.borrow_mut();
            let cache = &mut nodes[to.0 as usize].reply_cache;
            cache.insert(from.0, msg_id, reply, obj_version);
        }
        Answer::Replay => {
            let nodes = shared.nodes.borrow();
            let held = nodes[to.0 as usize].reply_cache.get(from.0, msg_id);
            let (reply, obj_version) = held.expect("a replay names a held reply");
            encode(reply, obj_version);
        }
        Answer::Refused(fault) => encode(&fault, 0),
    }
    reply_bytes
}

/// How [`serve_frame`] answered a frame.
enum Answer {
    /// The request ran: its reply and the addressed export's property
    /// version at serve time (0 for request kinds that address no export).
    /// Kept for replays once it is framed.
    Ran(Reply, u64),
    /// A retransmission of a request already answered: the reply is the one
    /// the caller's window holds.
    Replay,
    /// A fault for a frame that never ran, kept for nobody: a
    /// retransmission carries the same bytes and faults the same way.
    Refused(Reply),
}

/// Serve a delivered frame with at-most-once semantics: if this
/// `(caller, message id)` was already answered, replay the held reply
/// without re-executing — a retransmission must never apply a mutating
/// method twice. The dedup decision is made on the borrowed header, and the
/// owned request tree is only materialised (resolving signature references
/// against the link's table) when the request is actually going to be
/// invoked.
///
/// Records a `serve.*` span whose parent comes from the wire context, which
/// is what stitches the hops of a multi-node chain into one trace. Returns
/// the [`Answer`] and the serve span's context, which rides back in the
/// reply header.
fn serve_frame(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    header: &FrameHeader<'_>,
) -> (Answer, TraceContext) {
    let msg_id = header.msg_id;
    let (_, serve_name) = span_names(header.kind);
    let vocab = &shared.span_vocab;
    let (span, reply_ctx) = {
        let _s = shared.prof.section(Section::SpanRecord);
        let mut spans = shared.spans.borrow_mut();
        let now = shared.net.now().as_ns();
        let h = spans.start_server_span(serve_name, node.0, now, header.ctx);
        spans.set_attrs(h, &[vocab.caller.u64(caller.0.into())]);
        let reply_ctx = spans.context_of(h);
        (h, reply_ctx)
    };
    // What the serve learns about itself on the way — a dedup hit, a
    // batch's size — is written when the span closes.
    let mut tail = None;
    let replayed = {
        let _s = shared.prof.section(Section::HeaderDedup);
        let nodes = shared.nodes.borrow();
        let held = nodes[node.0 as usize].reply_cache.get(caller.0, msg_id);
        held.map(|(reply, _)| reply_outcome(reply))
    };
    let (answer, outcome) = 'answer: {
        if let Some(outcome) = replayed {
            // A dedup hit replays the *stored* version, not the current one:
            // the object may have moved on since the original serve, and a
            // reply tagged with the newer version would let the client cache
            // the old value as if it were fresh — serving a stale read until
            // the next mutation. Note the request payload was never
            // materialised on this path — the decision used the header alone.
            bump(shared, node.0, Met::DedupHits);
            tail = Some(vocab.cached.bool(true));
            break 'answer (Answer::Replay, outcome);
        }
        let req = {
            let _s = shared.prof.section(Section::Materialise);
            shared.with_link_table(caller, node, |table| header.materialise(Some(table)))
        };
        let req = match req {
            Ok(req) => req,
            Err(e) => {
                // The frame identified itself well enough to route but its
                // payload is malformed: answer a fault, held for nobody.
                bump(shared, node.0, Met::Faults);
                let fault = Reply::Fault(format!("malformed request frame: {e}"));
                break 'answer (Answer::Refused(fault), SpanOutcome::Fault);
            }
        };
        if let Request::Batch(ops) = &req {
            tail = Some(vocab.n_ops.u64(ops.len() as u64));
        }
        let (reply, obj_version) = handle_request(shared, node, caller, req);
        // The at-most-once check hears of every frame that ran; a replay
        // from the caller's window above is not a run.
        if let Some(dog) = shared.obs.borrow_mut().watchdog.as_mut() {
            let _s = shared.prof.section(Section::WatchdogCall);
            dog.execution(node.0, caller.0, msg_id, reply_ctx);
        }
        let outcome = reply_outcome(&reply);
        (Answer::Ran(reply, obj_version), outcome)
    };
    let _s = shared.prof.section(Section::SpanRecord);
    let mut spans = shared.spans.borrow_mut();
    spans.set_attrs(span, tail.as_slice());
    spans.end_span(span, shared.net.now().as_ns(), outcome);
    (answer, reply_ctx)
}

/// A server's at-most-once state: for each caller node, a window of the
/// last [`MAX_RPC_DEPTH`] replies served to it, each with the addressed
/// export's property version **at serve time**. A retransmitted request is
/// answered from here instead of re-running the method, and it replays the
/// stored version too: the reply describes the state the method ran
/// against, and recomputing the version at retransmit time would let a
/// dedup hit validate a cache entry against state the original execution
/// never saw.
///
/// Why a window this size forgets nothing a caller can still ask for: a
/// reply is kept only once its handler has returned, so every exchange the
/// same caller sent to this server while that handler ran has already
/// finished, and a single-threaded caller sends this server nothing else
/// until it stops retransmitting. The exchanges a caller can still
/// retransmit are those open on its RPC stack, at most [`MAX_RPC_DEPTH`],
/// and each is among the last [`MAX_RPC_DEPTH`] replies this server sent
/// it (Birrell and Nelson's implicit acknowledgement). So the cache is
/// O(callers), not O(history), and it takes no hashing.
#[derive(Debug, Default)]
pub(crate) struct ReplyCache {
    /// Indexed by caller node; grown on a caller's first reply.
    by_caller: Vec<ReplyWindow>,
}

/// One caller's replies: a ring of at most [`MAX_RPC_DEPTH`] entries.
#[derive(Debug, Default)]
struct ReplyWindow {
    /// `(message id, reply, version)`. Once the ring is full, `oldest` is
    /// the slot the next reply overwrites.
    held: Vec<(u64, Reply, u64)>,
    oldest: usize,
    /// The largest message id `held` holds (0 when it is empty). Ids come
    /// from one increasing counter, so a fresh request's id is above it and
    /// misses without a scan. It is the largest, not the latest: a request
    /// whose handler called back into its caller is kept after the nested
    /// ones, and a hand-built frame may carry any id.
    max_id: u64,
}

const WINDOW: usize = MAX_RPC_DEPTH as usize;

impl ReplyCache {
    /// The reply and version held for `msg_id` from `caller`.
    pub(crate) fn get(&self, caller: u32, msg_id: u64) -> Option<(&Reply, u64)> {
        let window = self.by_caller.get(caller as usize)?;
        if msg_id > window.max_id {
            return None;
        }
        let held = window.held.iter().find(|(id, ..)| *id == msg_id);
        held.map(|(_, reply, version)| (reply, *version))
    }

    /// Keep `reply` for replays of `msg_id` from `caller`, forgetting that
    /// caller's oldest reply if its window is full.
    pub(crate) fn insert(&mut self, caller: u32, msg_id: u64, reply: Reply, version: u64) {
        let caller = caller as usize;
        if self.by_caller.len() <= caller {
            self.by_caller.resize_with(caller + 1, ReplyWindow::default);
        }
        let window = &mut self.by_caller[caller];
        if window.held.len() < WINDOW {
            if window.held.is_empty() {
                // Sized once, on the caller's first reply.
                window.held.reserve_exact(WINDOW);
            }
            window.held.push((msg_id, reply, version));
            window.max_id = window.max_id.max(msg_id);
            return;
        }
        let evicted = std::mem::replace(&mut window.held[window.oldest], (msg_id, reply, version));
        window.oldest = (window.oldest + 1) % WINDOW;
        window.max_id = if evicted.0 == window.max_id {
            window.held.iter().map(|(id, ..)| *id).max().unwrap_or(0)
        } else {
            window.max_id.max(msg_id)
        };
    }

    /// Replies held, over every caller.
    pub(crate) fn len(&self) -> usize {
        self.by_caller.iter().map(|w| w.held.len()).sum()
    }

    /// Reply slots allocated, over every caller.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.by_caller.iter().map(|w| w.held.capacity()).sum()
    }
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

/// The fault text a node answers with when asked about an export id it does
/// not (or, after a restart, no longer) know — the one fault a caller acts
/// on: [`is_unknown_object`] is what sends a proxy call to its failover.
pub(crate) fn unknown_object(object: u64, node: NodeId) -> String {
    format!("{UNKNOWN_OBJECT}{object} on {node}")
}

const UNKNOWN_OBJECT: &str = "unknown object ";

/// Whether `reply` is the fault [`unknown_object`] describes.
pub(crate) fn is_unknown_object(reply: &Reply) -> bool {
    let Reply::Fault(m) = reply else { return false };
    let parts = m
        .strip_prefix(UNKNOWN_OBJECT)
        .and_then(|rest| rest.split_once(" on "));
    parts.is_some_and(|(object, _)| object.parse::<u64>().is_ok())
}

/// Execute a request on `node`. Returns the reply and the property version
/// it piggybacks: that of the export a `Call` addresses (0 for the other
/// kinds, and for a location without a version), read *after* handling, so
/// a setter's own reply already carries the bumped version.
fn handle_request(shared: &Shared, node: NodeId, caller: NodeId, req: Request) -> (Reply, u64) {
    let versioned_oid = match &req {
        Request::Call { object, .. } => Some(*object),
        _ => None,
    };
    let _s = shared.prof.section(Section::Dispatch);
    let reply = dispatch_request(shared, node, caller, req).unwrap_or_else(|fault| {
        bump(shared, node.0, Met::Faults);
        Reply::Fault(fault)
    });
    let version = versioned_oid.and_then(|oid| version_of(shared, node.0, oid));
    (reply, version.unwrap_or(0))
}

/// Run `req` against `node`'s VM and the directory. `Err` is the text of an
/// infrastructure fault — the only way a [`Reply::Fault`] is answered.
fn dispatch_request(
    shared: &Shared,
    node: NodeId,
    caller: NodeId,
    req: Request,
) -> Result<Reply, String> {
    let vm = &shared.vms[node.0 as usize];
    let class_named = |class: &str| {
        let known = shared.universe.by_name(class);
        known.ok_or_else(|| format!("unknown class {class}"))
    };
    let row_named = |class: &str| {
        let row = class_row(shared, class_named(class)?);
        row.ok_or_else(|| format!("{class} is not substitutable"))
    };
    match req {
        Request::Call {
            object,
            method,
            args,
        } => {
            bump(shared, node.0, Met::RpcCalls);
            // Only a live export answers: a location the object moved away
            // from is unknown here, and the caller redirects through the
            // recorded move.
            let h =
                lookup_export(shared, node, object).ok_or_else(|| unknown_object(object, node))?;
            shared
                .directory
                .borrow_mut()
                .record_call((node.0, object), caller.0);
            let sig = parse_method(&method).ok_or_else(|| format!("malformed method {method}"))?;
            // Anything other than a property getter may mutate the object
            // (setters, init$k, arbitrary methods), so it bumps the property
            // version and invalidates every proxy-side cached read. The VM
            // answers for the export's runtime class — an inherited getter
            // is a read, a subclass's own method under a getter's signature
            // is not — and an object whose class cannot be resolved bumps
            // conservatively.
            let is_getter = vm
                .class_of(h)
                .is_some_and(|class| vm.getter_slot(class, sig).is_some());
            if !is_getter {
                bump_version(shared, node.0, object);
            }
            let values = marshal::wire_to_values(shared, node, &args)?;
            let reply = match vm.call_virtual(Value::Ref(h), sig, values) {
                Ok(v) => marshal::value_to_wire(shared, node, &v).map(Reply::Value),
                Err(e) => failure_reply(shared, node, e),
            };
            // Anything that may have mutated the object re-ships it to its
            // backups before the reply leaves. A backup it misses keeps an
            // older version, which `Promote` refuses: a promoted replica
            // holds every acknowledged mutation, or none is promoted.
            if !is_getter {
                sync_replicas(shared, node, object);
            }
            reply
        }
        Request::Create { class, .. } => {
            bump(shared, node.0, Met::RpcCreates);
            let row = row_named(&class)?;
            let family = &shared.plan.families[&row.base];
            if family.cls.is_some() {
                if let Err(e) = discover_value(shared, node, row) {
                    return failure_reply(shared, node, e);
                }
            }
            let h = shared.vms[node.0 as usize].alloc_default(family.obj.local);
            let oid = export(shared, node, h);
            // Replicate the freshly created object at once: an owner that
            // crashes before serving any call must not take it along.
            sync_replicas(shared, node, oid);
            let class = String::from(&*shared.universe.class(family.obj.local).name);
            Ok(exported(node, oid, class))
        }
        Request::Discover { class } => {
            bump(shared, node.0, Met::RpcDiscovers);
            let row = row_named(&class)?;
            match discover_value(shared, node, row) {
                Ok(Value::Ref(h)) => {
                    let rt_class = vm.class_of(h).expect("live singleton");
                    // The stale-promotion guard may have resolved to a
                    // *proxy* for a copy promoted onto another node. Reply
                    // with the copy's live home instead of exporting the
                    // proxy, which would add a pointless double hop (and
                    // re-anchor the singleton to this node).
                    if is_proxy(shared, node.0, h) {
                        let copy = read_proxy_state(vm, h).and_then(|at| remote_ref(shared, at));
                        let gone = || format!("promoted singleton of {class} vanished");
                        return copy.map(Reply::Value).ok_or_else(gone);
                    }
                    let oid = export(shared, node, h);
                    // Record the canonical export the first time the
                    // singleton becomes remotely visible; singleton
                    // resolution goes through the recorded moves from here.
                    shared
                        .directory
                        .borrow_mut()
                        .canonical_static(row.id, (node.0, oid));
                    sync_replicas(shared, node, oid);
                    let class = String::from(&*shared.universe.class(rt_class).name);
                    Ok(exported(node, oid, class))
                }
                Ok(other) => Err(format!("discover returned {other}")),
                Err(e) => failure_reply(shared, node, e),
            }
        }
        Request::Install { state, source } => {
            bump(shared, node.0, Met::RpcInstalls);
            let WireValue::ObjectState { class, fields } = state else {
                return Err("install needs object state".into());
            };
            let oid = land(shared, node, class_named(&class)?, &fields, source)?;
            sync_replicas(shared, node, oid);
            Ok(exported(node, oid, class))
        }
        Request::ReplicaSync {
            object,
            version,
            state,
        } => {
            bump(shared, node.0, Met::ReplicaSyncs);
            let WireValue::ObjectState { class, fields } = state else {
                return Err("replica sync needs object state".into());
            };
            // The class is resolved here, so a copy the backup holds always
            // names a class it can promote and read. The state stays in wire
            // form until promotion: a backup that never promotes allocates
            // nothing on its heap.
            let class = class_named(&class)?;
            shared.nodes.borrow_mut()[node.0 as usize]
                .replica_store
                .insert((caller.0, object), (version, class, fields));
            Ok(Reply::Value(WireValue::Null))
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
            let home = shared.directory.borrow().resolve(key);
            if home != key {
                let gone = || format!("promoted copy of {old_node}#{old_object} vanished");
                return remote_ref(shared, home).map(Reply::Value).ok_or_else(gone);
            }
            // Only the recorded version is promoted (`replica_read`'s rule):
            // a copy a shipment missed is refused and kept, and the caller
            // asks the next backup.
            let recorded = version_of(shared, old_node, old_object);
            let mut nodes = shared.nodes.borrow_mut();
            let store = &mut nodes[node.0 as usize].replica_store;
            let copy = store.get(&key);
            if copy.is_some_and(|(held, _, _)| Some(*held) != recorded) {
                return Err(format!("replica of {old_node}#{old_object} is behind"));
            }
            let entry = store.remove(&key);
            drop(nodes);
            let (_, class, fields) =
                entry.ok_or_else(|| format!("no replica of {old_node}#{old_object} on {node}"))?;
            let oid = land(shared, node, class, &fields, key)?;
            relocate(shared, key, (node.0, oid));
            bump(shared, node.0, Met::Promotions);
            // Re-establish the replication factor from the new home, so a
            // second crash before the next mutation still loses nothing.
            sync_replicas(shared, node, oid);
            let class = String::from(&*shared.universe.class(class).name);
            Ok(exported(node, oid, class))
        }
        Request::Batch(ops) => {
            // Apply in order under the enclosing message id: the batch was
            // encoded once and is retransmitted verbatim, so at-most-once
            // holds for the whole frame, and each operation's sub-reply is
            // paired with the addressed export's version right after it ran
            // (a later op in the same batch may move it again).
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                let (reply, version) = handle_request(shared, node, caller, op);
                results.push((version, reply));
            }
            Ok(Reply::Batch(results))
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
/// old owner. Every landing is a fresh export, and the landing counts as
/// its first mutation: its version is bumped.
fn land(
    shared: &Shared,
    node: NodeId,
    class: ClassId,
    fields: &[WireValue],
    prior: (u32, u64),
) -> Result<u64, String> {
    let vm = &shared.vms[node.0 as usize];
    let values = marshal::wire_to_values(shared, node, fields)?;
    let existing = cached_import(shared, node, prior.0, prior.1);
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

/// The answer to application code that failed on `node` — a call's
/// method, or a factory's `<clinit>`: an exception it threw travels back by
/// value, for the caller to throw again; anything else is a fault's text.
fn failure_reply(shared: &Shared, node: NodeId, e: VmError) -> Result<Reply, String> {
    let VmError::Exception(exc) = e else {
        return Err(e.to_string());
    };
    let vm = &shared.vms[node.0 as usize];
    let (class, fields) = vm.read_object(exc).ok_or("stale exception")?;
    let fields = marshal::values_to_wire(shared, node, &fields)?;
    let class = String::from(&*shared.universe.class(class).name);
    Ok(Reply::Exception { class, fields })
}

/// Methods travel as `name@sigid`; both sides share the interned signature
/// table (the same transformed program is deployed on every node).
fn parse_method(method: &str) -> Option<SigId> {
    let (_, id) = method.rsplit_once('@')?;
    id.parse::<u32>().ok().map(SigId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(n: u64) -> Reply {
        Reply::Value(WireValue::Long(n as i64))
    }

    #[test]
    fn a_full_window_forgets_its_callers_oldest_reply_only() {
        let mut cache = ReplyCache::default();
        for id in 1..=WINDOW as u64 + 1 {
            cache.insert(3, id, reply(id), id);
            if id == 1 {
                assert_eq!(cache.slots(), WINDOW, "sized on the first reply");
            }
        }
        assert_eq!(cache.len(), WINDOW);
        assert_eq!(cache.slots(), WINDOW, "and never again");
        assert_eq!(cache.get(3, 1), None, "the oldest went");
        assert_eq!(cache.get(3, 2), Some((&reply(2), 2)));
        let newest = WINDOW as u64 + 1;
        assert_eq!(cache.get(3, newest), Some((&reply(newest), newest)));
        assert_eq!(cache.get(0, 2), None, "each caller has its own window");
        cache.insert(0, 2, reply(7), 7);
        assert_eq!(cache.get(0, 2), Some((&reply(7), 7)));
        assert_eq!(cache.get(3, 2), Some((&reply(2), 2)));
    }

    #[test]
    fn evicting_the_largest_id_lowers_the_windows_bound() {
        let mut cache = ReplyCache::default();
        cache.insert(0, 1 << 60, reply(0), 0);
        for id in 1..=WINDOW as u64 {
            cache.insert(0, id, reply(id), id);
            assert_eq!(cache.get(0, 1 << 60).is_some(), id < WINDOW as u64);
        }
        assert_eq!(cache.by_caller[0].max_id, WINDOW as u64);
        assert_eq!(cache.get(0, 1), Some((&reply(1), 1)));
    }

    #[test]
    fn the_unknown_object_predicate_accepts_exactly_what_the_constructor_builds() {
        let fault = |m: &str| Reply::Fault(m.to_owned());
        for (object, node) in [(0, NodeId(0)), (7, NodeId(3)), (u64::MAX, NodeId(u32::MAX))] {
            assert!(is_unknown_object(&fault(&unknown_object(object, node))));
        }
        // `place_sharded`'s error about a vanished shard member, should it
        // ever travel back as a fault: not an owner disowning an export.
        assert!(!is_unknown_object(&fault("unknown object 1#5")));
        assert!(!is_unknown_object(&fault("unknown object ")));
        assert!(!is_unknown_object(&fault("unknown object x on node1")));
        assert!(!is_unknown_object(&fault("unknown class C")));
        assert!(!is_unknown_object(&fault("no replica of 1#5 on node2")));
        assert!(!is_unknown_object(&Reply::Value(WireValue::Null)));
    }
}
