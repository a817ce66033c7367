//! The client side of an exchange: a proxy method marshals the call,
//! [`rpc`] encodes it once, transmits (and retransmits) it, and decodes the
//! reply. Also the span names, keys and labels every exchange is recorded
//! under.

use crate::batch::{enqueue_outcall, flush_outqueues};
use crate::cluster::{gen_info, read_proxy_state, version_of, ClassRow, Shared};
use crate::failover::{failover, owner_gone};
use crate::marshal;
use crate::obs::Met;
use crate::profile::Section;
use crate::replicate::{replica_read, sync_dirty_replicas};
use crate::serve::{deliver, reply_outcome};
use crate::stats::{bump, maybe_sample, record_local_read};
use rafda_classmodel::{SigId, Ty};
use rafda_net::{NetError, NodeId};
use rafda_telemetry::{AttrKey, SpanLog, SpanOutcome, Symbol};
use rafda_vm::{NetFailure, RpcFault, Value, VmError};
use rafda_wire::{Protocol, Reply, Request, RequestKind, WireValue};

/// Maximum nested (re-entrant) RPC depth across the whole cluster — a
/// distributed call chain deeper than this is almost certainly unbounded
/// mutual recursion, and each level consumes host stack.
pub(crate) const MAX_RPC_DEPTH: u32 = 64;

/// A hooked proxy method: its signature and its wire method label
/// `name@sig`, with the label's symbol in the span log — all made once,
/// when the hook is installed.
pub(crate) struct ProxyMethod {
    pub sig: SigId,
    pub label: String,
    pub symbol: Symbol,
}

/// A proxy method invoked on `node`: marshal, ship, execute remotely,
/// unmarshal (or re-throw).
pub(crate) fn proxy_call(
    shared: &Shared,
    node: NodeId,
    proxy_method: &ProxyMethod,
    args: &[Value],
) -> Result<Value, VmError> {
    let (method, sig, label) = (&*proxy_method.label, proxy_method.sig, proxy_method.symbol);
    let _s = shared.prof.section(Section::Proxy);
    let vm = &shared.vms[node.0 as usize];
    let recv = args
        .first()
        .and_then(Value::as_ref_handle)
        .ok_or_else(|| VmError::type_error("proxy call without receiver"))?;
    let class = vm
        .class_of(recv)
        .ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let info = gen_info(shared, class).ok_or_else(|| {
        VmError::Native(format!(
            "no proxy info for {}",
            shared.universe.class(class).name
        ))
    })?;
    let row = &shared.rows[info.row];
    let (mut target, mut oid) =
        read_proxy_state(vm, recv).ok_or_else(|| VmError::Native("stale proxy".into()))?;
    let wire_args = {
        let _s = shared.prof.section(Section::Marshal);
        marshal::values_to_wire(shared, node, &args[1..]).map_err(VmError::Native)?
    };
    // Replica-read fast path (E15): a parameter-less call on a `reads from
    // replicas` class is served from this node's own replica copy when —
    // and only when — it dispatches to a property getter (the VM's answer
    // for the copy's class, so an inherited getter qualifies and a
    // subclass's own method under a getter's signature does not) and the
    // copy carries the owner's *current* property version. The tag check
    // makes staleness impossible by construction (same argument as the
    // property cache): any acknowledged mutation bumped the owner's version
    // before its reply left, so a lagging copy simply fails the check and
    // the read falls through to a normal owner exchange.
    if args.len() == 1 && row.rule.replicas > 0 && row.rule.replica_reads {
        if let Some(v) = replica_read(shared, node, row, proxy_method, (target, oid))? {
            return Ok(v);
        }
    }
    // Property-cache fast path: a cacheable getter whose cached tag still
    // equals the owner's current version is served locally — no exchange,
    // no clock advance. Coherence rests on the tag check: every mutation
    // on the owner bumps the version, so a hit can never observe a value
    // older than the last write the owner served.
    //
    // A getter is what the VM marks as one on the family's local
    // implementation class — the class the owner's object has, so both
    // sides agree that an inherited getter is a read and that a subclass's
    // own method under a getter's signature is not.
    let cache_on = row.rule.cache && {
        let local = shared.plan.family(row.base).and_then(|f| f.half(info.side));
        local.is_some_and(|half| vm.getter_slot(half.local, sig).is_some())
    };
    let cache_key = (target, oid, sig);
    if cache_on {
        let current = version_of(shared, target, oid);
        let cached = shared.nodes.borrow()[node.0 as usize]
            .prop_cache
            .get(&cache_key)
            .cloned();
        match cached {
            Some((tag, wv)) if Some(tag) == current => {
                bump(shared, node.0, Met::CacheHits);
                let how = shared.span_vocab.cached;
                record_local_read(shared, node, (target, oid), row, label, how);
                let _s = shared.prof.section(Section::Marshal);
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
    if row.rule.batch {
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
            shared.nodes.borrow_mut()[node.0 as usize]
                .prop_cache
                .retain(|&(t, o, _), _| (t, o) != (target, oid));
            let call = Request::Call {
                object: oid,
                method: method.to_owned(),
                args: wire_args,
            };
            enqueue_outcall(shared, node, NodeId(target), row, call);
            return Ok(Value::Null);
        }
    }
    let mut req = Request::Call {
        object: oid,
        method: method.to_owned(),
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
        let outcome = rpc(shared, node, NodeId(target), row, &req, Some(label));
        let rehome = owner_gone(outcome.as_ref().map(|(reply, _)| reply));
        if rehome && hops <= shared.vms.len() as u32 {
            if let Some((nn, noid)) = failover(shared, node, recv, class, row, (target, oid)) {
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
    let wv = read_reply(shared, node, reply)?;
    if cache_on {
        shared.nodes.borrow_mut()[node.0 as usize]
            .prop_cache
            .insert((target, oid, sig), (obj_version, wv.clone()));
    }
    let _s = shared.prof.section(Section::Marshal);
    marshal::wire_to_value(shared, node, &wv).map_err(VmError::Native)
}

/// What a reply means to the caller on `node`, read here only, so a remote
/// callee fails as a local one would: an exception it threw is thrown again
/// on `node`, a fault is its text, and a batch (a flush unpacks its own) is
/// an error.
pub(crate) fn read_reply(
    shared: &Shared,
    node: NodeId,
    reply: Reply,
) -> Result<WireValue, VmError> {
    match reply {
        Reply::Value(wv) => Ok(wv),
        Reply::Exception { class, fields } => Err(rethrow(shared, node, &class, &fields)),
        Reply::Fault(m) => Err(VmError::Native(m)),
        Reply::Batch(_) => Err(VmError::Native("unexpected batch reply".into())),
    }
}

/// Re-materialise an exception a remote call threw as a local exception
/// object on `node` — or the reason it could not be.
fn rethrow(shared: &Shared, node: NodeId, class: &str, fields: &[WireValue]) -> VmError {
    let Some(exc_class) = shared.universe.by_name(class) else {
        return VmError::Native(format!("unknown exception class {class}"));
    };
    match marshal::wire_to_values(shared, node, fields) {
        Ok(values) => VmError::Exception(shared.vms[node.0 as usize].alloc_raw(exc_class, values)),
        Err(m) => VmError::Native(m),
    }
}

/// Perform one request/reply exchange, running the full encode → transmit →
/// decode → handle → encode → transmit → decode pipeline and charging the
/// protocol-stack overhead to the simulated clock.
///
/// Returns the reply together with the served object's property version as
/// piggybacked on the reply frame (0 for request kinds that do not address
/// a versioned export). `label` is the span log's symbol of the exchange's
/// method label when the caller holds one (a proxy's call); `None` derives
/// it from the request.
pub(crate) fn rpc(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    row: &ClassRow,
    req: &Request,
    label: Option<Symbol>,
) -> Result<(Reply, u64), VmError> {
    let _s = shared.prof.section(Section::Exchange);
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
    // behind — including what application code still mid-flight on the
    // calling node has written so far, which nested calls may observe
    // through their own replicas.
    sync_dirty_replicas(shared);
    let codec = row
        .codec
        .as_deref()
        .ok_or_else(|| VmError::Rpc(RpcFault::NoCodec(row.rule.protocol.clone())))?;
    if shared.rpc_depth.get() >= MAX_RPC_DEPTH {
        return Err(VmError::Rpc(RpcFault::DepthLimit));
    }
    shared.rpc_depth.set(shared.rpc_depth.get() + 1);
    let result = rpc_inner(shared, from, to, codec, row, req, label);
    shared.rpc_depth.set(shared.rpc_depth.get() - 1);
    result
}

/// The span names of an exchange for one request kind: the client's
/// exchange span and the server's dispatch span. Keyed by the discriminant
/// a borrowed frame header carries, so even a dedup-hit replay (which never
/// builds the owned request) records a correctly named serve span.
pub(crate) fn span_names(kind: RequestKind) -> (&'static str, &'static str) {
    match kind {
        RequestKind::Call => ("rpc.call", "serve.call"),
        RequestKind::Create => ("rpc.create", "serve.create"),
        RequestKind::Discover => ("rpc.discover", "serve.discover"),
        RequestKind::Install => ("rpc.install", "serve.install"),
        RequestKind::ReplicaSync => ("rpc.replica", "serve.replica"),
        RequestKind::Promote => ("rpc.promote", "serve.promote"),
        RequestKind::Batch => ("rpc.batch", "serve.batch"),
    }
}

/// The attribute keys and fixed method labels of the runtime's spans,
/// resolved once in the cluster's span log, so recording a span on the
/// exchange path looks up no key and hashes no string. Class and protocol
/// names are interned with their [`ClassRow`], a proxy method's label with
/// its hook ([`ProxyMethod`]).
pub(crate) struct SpanVocab {
    pub class: AttrKey,
    pub method: AttrKey,
    pub protocol: AttrKey,
    pub from: AttrKey,
    pub to: AttrKey,
    pub n_ops: AttrKey,
    pub bytes_out: AttrKey,
    pub attempt: AttrKey,
    pub attempts: AttrKey,
    pub caller: AttrKey,
    pub cached: AttrKey,
    pub replica_read: AttrKey,
    pub old_home: AttrKey,
    pub new_home: AttrKey,
    discover: Symbol,
    install: Symbol,
    replica: Symbol,
    promote: Symbol,
    batch: Symbol,
}

impl SpanVocab {
    pub(crate) fn new(log: &mut SpanLog) -> Self {
        SpanVocab {
            class: log.key("class"),
            method: log.key("method"),
            protocol: log.key("protocol"),
            from: log.key("from"),
            to: log.key("to"),
            n_ops: log.key("n_ops"),
            bytes_out: log.key("bytes_out"),
            attempt: log.key("attempt"),
            attempts: log.key("attempts"),
            caller: log.key("caller"),
            cached: log.key("cached"),
            replica_read: log.key("replica_read"),
            old_home: log.key("old_home"),
            new_home: log.key("new_home"),
            discover: log.intern("<discover>"),
            install: log.intern("<install>"),
            replica: log.intern("<replica>"),
            promote: log.intern("<promote>"),
            batch: log.intern("<batch>"),
        }
    }

    /// The method label recorded on an exchange span: the wire method
    /// string for calls, a pseudo-method for the runtime-internal request
    /// kinds.
    fn label(&self, log: &mut SpanLog, req: &Request) -> Symbol {
        match req {
            Request::Call { method, .. } => log.intern(method),
            Request::Create { ctor, .. } => log.intern(&format!("<create:{ctor}>")),
            Request::Discover { .. } => self.discover,
            Request::Install { .. } => self.install,
            Request::ReplicaSync { .. } => self.replica,
            Request::Promote { .. } => self.promote,
            Request::Batch(..) => self.batch,
        }
    }
}

pub(crate) fn rpc_inner(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    codec: &dyn Protocol,
    row: &ClassRow,
    req: &Request,
    label: Option<Symbol>,
) -> Result<(Reply, u64), VmError> {
    let msg_id = shared.next_msg_id.get();
    shared.next_msg_id.set(msg_id + 1);
    let (exch_name, _) = span_names(RequestKind::of(req));
    let vocab = &shared.span_vocab;
    // The exchange span covers the whole request/reply exchange, retries
    // included. Its context travels in the frame header — the frame is
    // encoded once and retransmitted verbatim, so the wire cannot carry
    // per-attempt contexts; attempts are recorded as client-local children.
    // Its attributes are written at its two ends, one borrow each.
    let (exch, ctx) = {
        let _s = shared.prof.section(Section::SpanRecord);
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span(exch_name, from.0, shared.net.now().as_ns());
        let method = label.unwrap_or_else(|| vocab.label(&mut spans, req));
        spans.set_attrs(
            h,
            &[
                vocab.class.sym(row.name_sym),
                vocab.method.sym(method),
                vocab.protocol.sym(row.protocol_sym),
                vocab.from.u64(from.0.into()),
                vocab.to.u64(to.0.into()),
            ],
        );
        if let Request::Batch(ops) = req {
            spans.set_attrs(h, &[vocab.n_ops.u64(ops.len() as u64)]);
        }
        (h, spans.context_of(h))
    };
    // Encode once: every retransmission sends the same frame, same id
    // (which also makes re-interning on the decode side idempotent). The
    // buffer comes from the link's pool and goes back when the exchange
    // finishes; the signature table is the directed link's, so repeated
    // method/class names shrink to 5-byte references after their first
    // frame.
    let encode = shared.prof.section(Section::RequestEncode);
    let mut bytes = shared.checkout_buf(from, to);
    let encoded = shared.with_link_table(from, to, |table| {
        codec.encode_request_into(msg_id, ctx, req, Some(table), &mut bytes)
    });
    drop(encode);
    // The exchange span closes in one place, whichever way the exchange
    // ends, with the attributes only its end knows.
    let close = |outcome: SpanOutcome, tail: &[_]| {
        let mut spans = shared.spans.borrow_mut();
        spans.set_attrs(exch, tail);
        spans.end_span(exch, shared.net.now().as_ns(), outcome);
        shared.last_exchange_span.set(spans.span_id_of(exch));
    };
    if let Err(e) = encoded {
        shared.wire_bufs.borrow_mut().put_back(from, to, bytes);
        close(SpanOutcome::Fault, &[]);
        return Err(VmError::Rpc(RpcFault::Encode(e.to_string())));
    }
    let bytes_out = vocab.bytes_out.u64(bytes.len() as u64);
    let retry = shared.retry.get();
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut prev_attempt_span: Option<u64> = None;
    let result: Result<(Reply, u64), NetError> = loop {
        attempt += 1;
        if attempt > 1 {
            // Back off on the simulated clock before retransmitting, so the
            // cost of fault tolerance is charged deterministically.
            shared.net.advance(retry.backoff_ns(attempt - 1));
            bump(shared, from.0, Met::Retries);
        }
        // Each transmission attempt is a child span: retransmissions get
        // fresh span ids within the same trace and point at the attempt
        // they retry via `retry_of`.
        let attempt_start = shared.net.now().as_ns();
        let att = {
            let _s = shared.prof.section(Section::SpanRecord);
            let mut spans = shared.spans.borrow_mut();
            let h = spans.start_span("rpc.attempt", from.0, attempt_start);
            spans.set_attrs(h, &[vocab.attempt.u64(attempt.into())]);
            if let Some(prev) = prev_attempt_span {
                spans.set_retry_of(h, prev);
            }
            h
        };
        // One attempt: the frame over the wire, the callee half, the reply
        // frame back. Bytes are all that crosses between the halves.
        let result = (|| {
            {
                let _s = shared.prof.section(Section::Transmit);
                shared.net.transmit(from, to, bytes.len())?;
            }
            if attempt > 1 {
                bump(shared, to.0, Met::Retransmits);
            }
            let reply_bytes = deliver(shared, to, from, codec, &bytes);
            let back = {
                let _s = shared.prof.section(Section::Transmit);
                let back = shared.net.transmit(to, from, reply_bytes.len());
                if back.is_ok() {
                    shared.net.advance(2 * codec.overhead_ns());
                }
                back
            };
            let decoded = back.map(|_| {
                let _s = shared.prof.section(Section::ReplyDecode);
                let (_, _, obj_version, reply) = shared
                    .with_link_table(to, from, |table| {
                        codec.decode_reply_with(&reply_bytes, Some(table))
                    })
                    .expect("the callee half's own encoding must decode");
                (reply, obj_version)
            });
            shared
                .wire_bufs
                .borrow_mut()
                .put_back(to, from, reply_bytes);
            decoded
        })();
        let end = shared.net.now().as_ns();
        let _s = shared.prof.section(Section::SpanRecord);
        let mut spans = shared.spans.borrow_mut();
        let outcome = match result {
            Ok(_) => SpanOutcome::Ok,
            Err(_) => SpanOutcome::NetFailure,
        };
        spans.end_span(att, end, outcome);
        match result {
            Err(kind) if kind.is_transient() && attempt < max_attempts => {
                prev_attempt_span = Some(spans.span_id_of(att));
            }
            done => break done,
        }
    };
    let _s = shared.prof.section(Section::SpanTail);
    shared.wire_bufs.borrow_mut().put_back(from, to, bytes);
    {
        let _s = shared.prof.section(Section::MetricWrite);
        let mut obs = shared.obs.borrow_mut();
        if result.is_err() {
            obs.inc(from.0, Met::NetFailures);
        }
        obs.record_attempts(from.0, attempt);
    }
    let outcome = match &result {
        Ok((reply, _)) => reply_outcome(reply),
        Err(_) => SpanOutcome::NetFailure,
    };
    close(outcome, &[bytes_out, vocab.attempts.u64(attempt.into())]);
    result.map_err(|kind| VmError::Unreachable(NetFailure::new(kind, attempt)))
}
