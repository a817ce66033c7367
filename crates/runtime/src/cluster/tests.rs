//! Runtime-level tests that reach below the public API: they hand frames
//! to the callee half directly, inspect queues and backups, and run the
//! adaptation/crash chaos over a sharded pool. Kept in one module so their
//! names (`cluster::tests::*`) stay stable across the module split.

use super::*;
use crate::directory::Sent;
use crate::placement::shard_hash;
use crate::rpc::{rpc_inner, MAX_RPC_DEPTH};
use crate::serve::deliver;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassKind, Field, Ty};
use rafda_net::NetError;
use rafda_policy::{AffinityConfig, Placement, StaticPolicy};
use rafda_telemetry::TraceContext;
use rafda_transform::Transformer;
use rafda_vm::RpcFault;
use rafda_wire::{Reply, RmiCodec};

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

/// The link most frames in these tests travel: node 0 calls node 1.
const LINK: (NodeId, NodeId) = (NodeId(0), NodeId(1));

/// `req` framed once under `msg_id` on the link `from` → `to`, as
/// `rpc_inner` frames it. Delivering the same frame again is a
/// retransmission.
fn framed(
    shared: &Shared,
    (from, to): (NodeId, NodeId),
    codec: &dyn Protocol,
    msg_id: u64,
    req: &Request,
) -> Vec<u8> {
    let mut frame = Vec::new();
    shared
        .with_link_table(from, to, |table| {
            let ctx = TraceContext::NONE;
            codec.encode_request_into(msg_id, ctx, req, Some(table), &mut frame)
        })
        .unwrap();
    frame
}

/// Hand `frame` to `to`'s callee half as sent by `from` — exactly what a
/// lossy network does, with no caller half waiting — and read the reply
/// frame: its message id, the reply, and the piggybacked object version.
fn answer(
    shared: &Shared,
    (from, to): (NodeId, NodeId),
    codec: &dyn Protocol,
    frame: &[u8],
) -> Result<(u64, Reply, u64), rafda_wire::WireError> {
    let bytes = deliver(shared, to, from, codec, frame);
    let (msg_id, _, version, reply) = shared.with_link_table(to, from, |table| {
        codec.decode_reply_with(&bytes, Some(table))
    })?;
    Ok((msg_id, reply, version))
}

/// [`answer`] to a well-formed RMI frame on [`LINK`].
fn answered(shared: &Shared, frame: &[u8]) -> (Reply, u64) {
    let (_, reply, version) = answer(shared, LINK, &RmiCodec::new(), frame).unwrap();
    (reply, version)
}

/// Regression for the stale-version dedup bug: a dedup hit must replay
/// the object version stored **at serve time**, not recompute it at
/// retransmit time. The single-threaded simulation cannot interleave a
/// foreign mutation between a dropped reply and its retransmission from
/// the outside, so the scenario delivers the frames to the callee half
/// itself.
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
    let get_sig = shared.plan.family(base).unwrap().obj.getters[0];
    let add_sig = shared
        .universe
        .class(base)
        .methods
        .iter()
        .find(|m| &*m.name == "add")
        .unwrap()
        .sig;
    let read = framed(
        shared,
        LINK,
        &RmiCodec::new(),
        900,
        &Request::Call {
            object: oid,
            method: format!("get_v@{}", get_sig.0),
            args: vec![],
        },
    );
    // Message 900: a cacheable read is served, but the reply is lost on
    // the way back.
    let (r1, v1) = answered(shared, &read);
    assert!(matches!(r1, Reply::Value(_)));
    // Before the retransmission arrives, another mutation is served and
    // bumps the object's version.
    let add = framed(
        shared,
        LINK,
        &RmiCodec::new(),
        901,
        &Request::Call {
            object: oid,
            method: format!("add@{}", add_sig.0),
            args: vec![WireValue::Int(5)],
        },
    );
    let (r2, _) = answered(shared, &add);
    assert!(matches!(r2, Reply::Value(_)));
    let current = version_of(shared, 1, oid).unwrap();
    assert!(current > v1, "the mutation must bump the version");
    // The retransmission of 900 dedups. Its reply must carry v1: tagged
    // with `current`, the client would cache the pre-mutation value as
    // fresh and serve the stale read until the next mutation.
    let (r3, v3) = answered(shared, &read);
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

/// A deferred call to an owner that restarted with amnesia is re-homed as
/// one to a crashed owner is: its own sub-reply says the export is unknown,
/// and the flush sends it on to the promoted backup, so batching changes
/// nothing an unbatched run would return.
#[test]
fn a_deferred_call_to_an_amnesiac_owner_is_rehomed() {
    for batch in [false, true] {
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .batch("C", batch)
            .replicate("C", 1);
        let (cluster, _) = deployed(policy);
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let call = |method: &str, v: i32| {
            cluster.call_method(NodeId(0), obj.clone(), method, vec![Value::Int(v)])
        };
        assert_eq!(call("add", 5).unwrap(), Value::Int(5));
        cluster.crash(NodeId(1));
        cluster.restart(NodeId(1));
        assert_eq!(call("set_v", 9).unwrap(), Value::Null);
        assert_eq!(
            call("add", 1).unwrap(),
            Value::Int(10),
            "batch {batch}: the deferred set_v was lost"
        );
    }
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

/// The wire counters are the tables' own counts. Over RMI and SOAP traffic
/// with a lost reply (so a retransmission answered from the reply cache)
/// and a batch flush, the nodes' `sig_refs` and `sig_defs` sum to the
/// `nodes²` link tables' refs and defs, and their `wire_buf_reuses` to the
/// pool's reuses: an encode or checkout charged to nobody breaks the sums.
#[test]
fn the_wire_counters_are_the_tables_own_counts() {
    let policy = StaticPolicy::new()
        .default_placement(Placement::Node(NodeId(1)))
        .with_protocol("CB", "SOAP")
        .batch("CA", true);
    let cluster = deployed_counters_speaking(&["RMI", "SOAP"], 5, policy);
    cluster.set_retry_policy(RetryPolicy { max_attempts: 3 });
    let call = |node: u32, obj: &Value, method: &str, v: i32| {
        let args = vec![Value::Int(v)];
        cluster.call_method(NodeId(node), obj.clone(), method, args)
    };
    let a = cluster.new_instance(NodeId(0), "CA", 0, vec![]).unwrap();
    let b = cluster.new_instance(NodeId(2), "CB", 0, vec![]).unwrap();
    // The reply to the next request is lost.
    let seq = cluster.network().transmit_seq();
    cluster.network().fault_plan(|f| f.drop_message(seq + 1));
    assert_eq!(call(2, &b, "add", 1).unwrap(), Value::Int(1));
    // Two deferred setters, flushed as one batch by the next call.
    for v in [2, 3] {
        assert_eq!(call(0, &a, "set_v", v).unwrap(), Value::Null);
    }
    assert_eq!(call(0, &a, "add", 1).unwrap(), Value::Int(4));
    for v in 2..5 {
        assert_eq!(call(2, &b, "add", 1).unwrap(), Value::Int(v));
    }
    let stats = cluster.stats();
    assert_eq!(
        (stats.retransmits, stats.dedup_hits, stats.flushes),
        (1, 1, 1)
    );
    assert!(stats.sig_refs > 0 && stats.sig_defs > 0 && stats.wire_buf_reuses > 0);
    let shared = cluster.shared();
    let per_node: Vec<_> = (0..3).map(|n| cluster.node_stats(NodeId(n))).collect();
    let charged =
        |counter: fn(&crate::RuntimeStats) -> u64| per_node.iter().map(counter).sum::<u64>();
    let tables = shared.sig_tables.borrow();
    let counted = |count: fn(&SigTable) -> u64| tables.iter().map(count).sum::<u64>();
    assert_eq!(charged(|s| s.sig_refs), counted(SigTable::refs));
    assert_eq!(charged(|s| s.sig_defs), counted(SigTable::defs));
    assert_eq!(
        charged(|s| s.wire_buf_reuses),
        shared.wire_bufs.borrow().reuses()
    );
}

/// Three nodes running two copies, `CA` and `CB`, of the counter class
/// `{ int v; int add(int d) }`.
fn deployed_counters(seed: u64, policy: StaticPolicy) -> Cluster {
    deployed_counters_speaking(&["RMI"], seed, policy)
}

/// [`deployed_counters`] with proxies generated for `protocols`.
fn deployed_counters_speaking(protocols: &[&str], seed: u64, policy: StaticPolicy) -> Cluster {
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
    let outcome = Transformer::new().protocols(protocols).run(&mut u).unwrap();
    Cluster::new(u, outcome.plan, 3, seed, Box::new(policy))
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
    let policy = StaticPolicy::new()
        .place("CA", Placement::Node(NodeId(1)))
        .place("CB", Placement::Node(NodeId(2)))
        .replicate("CA", 1)
        .replicate("CB", 1);
    let cluster = deployed_counters(260, policy);
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
    let backup = backup_of(&cluster, 1, (0, 1));
    assert_eq!(backup, vec![WireValue::Int(-7)], "backup holds -4-3");
}

/// `CA` replicated k = 2 with its home on node 1, `CB` unreplicated on
/// node 2; one `CA` instance warmed to `v = 5` and pulled into node 0's
/// VM, where calls on it are plain local calls. Returns the cluster, the
/// pulled object, a `CB` proxy (any call on it is an exchange from node 0)
/// and the pulled object's export id on node 0, all settled.
fn pulled_counter(seed: u64) -> (Cluster, Value, Value, u64) {
    let policy = StaticPolicy::new()
        .place("CA", Placement::Node(NodeId(1)))
        .place("CB", Placement::Node(NodeId(2)))
        .replicate("CA", 2);
    let cluster = deployed_counters(seed, policy);
    cluster.enable_monitors();
    let a = cluster.new_instance(NodeId(0), "CA", 0, vec![]).unwrap();
    let b = cluster.new_instance(NodeId(0), "CB", 0, vec![]).unwrap();
    let add5 = cluster.call_method(NodeId(0), a.clone(), "add", vec![Value::Int(5)]);
    assert_eq!(add5.unwrap(), Value::Int(5));
    let pulled = cluster
        .pull_local(NodeId(0), a.as_ref_handle().unwrap())
        .unwrap();
    assert_eq!(cluster.check_invariants(), vec![]);
    (cluster, a, b, pulled.target.oid)
}

/// A pull through a proxy that names a moved-away location moves the
/// object from its live home. `CA` on node 1 is migrated 1 → 2 at its
/// owner; node 0's proxy still names node 1, which answers for nothing any
/// more. The pull resolves the home through the directory's recorded moves
/// and installs from there.
#[test]
fn a_pull_through_a_forwarding_stub_moves_the_live_object() {
    let cluster = deployed_counters(
        29,
        StaticPolicy::new().place("CA", Placement::Node(NodeId(1))),
    );
    cluster.enable_monitors();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let a = cluster.new_instance(n0, "CA", 0, vec![]).unwrap();
    let add = |d: i32| cluster.call_method(n0, a.clone(), "add", vec![Value::Int(d)]);
    assert_eq!(add(5).unwrap(), Value::Int(5));
    let (owner, handle) = cluster.home_of(n0, &a).unwrap();
    assert_eq!(owner, n1);
    cluster.migrate(owner, handle, n2).unwrap();
    let proxy = a.as_ref_handle().unwrap();
    let shared = cluster.shared();
    assert_eq!(read_proxy_state(&shared.vms[0], proxy), Some((1, 1)));

    let event = cluster.pull_local(n0, proxy).unwrap();
    assert_eq!((event.from, event.to), (n2, n0));
    assert_eq!(cluster.location_of(n0, &a), Some(n0));
    let home = shared.directory.borrow().resolve((1, 1));
    assert_eq!(home, (0, event.target.oid));
    let live = shared.directory.borrow().live_export(home);
    assert_eq!(live, Some(proxy), "the pulled handle is the live export");
    assert!(
        is_local_impl(shared, 0, proxy),
        "a live object, not a proxy"
    );
    assert_eq!(add(1).unwrap(), Value::Int(6));
    let dir = shared.directory.borrow();
    let live_homes: Vec<(u32, u64)> = (0..3)
        .flat_map(|n| {
            dir.exports_of(n)
                .into_iter()
                .map(move |(oid, h)| (n, oid, h))
        })
        .filter(|&(n, oid, h)| is_local_impl(shared, n, h) && dir.version((n, oid)).is_some())
        .map(|(n, oid, _)| (n, oid))
        .collect();
    assert_eq!(live_homes, vec![home], "one live home cluster-wide");
    drop(dir);
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A moved object is reached through the recorded moves alone. After `CA`
/// migrates 1 → 2, node 0's proxy still names node 1: its first call is
/// answered `unknown object` (one fault), redirected once (one failover,
/// no exchange: the move is recorded) and served at node 2. The proxy now
/// names the live home, so the second call is one direct exchange.
#[test]
fn a_call_to_a_moved_location_is_redirected_once_to_the_live_home() {
    let cluster = deployed_counters(
        29,
        StaticPolicy::new().place("CA", Placement::Node(NodeId(1))),
    );
    cluster.enable_monitors();
    let (n0, n2) = (NodeId(0), NodeId(2));
    let a = cluster.new_instance(n0, "CA", 0, vec![]).unwrap();
    let add = |d: i32| cluster.call_method(n0, a.clone(), "add", vec![Value::Int(d)]);
    assert_eq!(add(5).unwrap(), Value::Int(5));
    let (owner, handle) = cluster.home_of(n0, &a).unwrap();
    let event = cluster.migrate(owner, handle, n2).unwrap();
    let home = (event.target.node.0, event.target.oid);
    assert_eq!(cluster.location_of(n0, &a), Some(NodeId(1)), "still stale");

    let before = cluster.stats();
    let messages = cluster.network().stats().messages;
    assert_eq!(add(1).unwrap(), Value::Int(6));
    let after = cluster.stats();
    assert_eq!(after.faults - before.faults, 1, "one unknown-object fault");
    assert_eq!(after.failovers - before.failovers, 1, "one redirect");
    assert_eq!(cluster.network().stats().messages - messages, 4);
    let proxy = a.as_ref_handle().unwrap();
    let shared = cluster.shared();
    assert_eq!(read_proxy_state(&shared.vms[0], proxy), Some(home));

    let messages = cluster.network().stats().messages;
    assert_eq!(add(1).unwrap(), Value::Int(7));
    assert_eq!(
        cluster.network().stats().messages - messages,
        2,
        "one direct exchange"
    );
    assert_eq!(cluster.stats().failovers, after.failovers);
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A node holds one handle per object. `CA` lives on node 1 and node 0
/// holds proxy `a`, which names node 1. The object migrates 1 → 2 and then
/// from its live home to node 0: the landing names node 2, yet it must
/// find `a` — the import is keyed by the object, not by a location — and
/// rewrite it in place, so `a` is the object and calls on it stay local.
#[test]
fn a_landing_rewrites_the_one_handle_the_node_holds_whatever_location_it_names() {
    let cluster = deployed_counters(
        29,
        StaticPolicy::new().place("CA", Placement::Node(NodeId(1))),
    );
    cluster.enable_monitors();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let a = cluster.new_instance(n0, "CA", 0, vec![]).unwrap();
    let add = |d: i32| cluster.call_method(n0, a.clone(), "add", vec![Value::Int(d)]);
    assert_eq!(add(5).unwrap(), Value::Int(5));
    let (owner, handle) = cluster.home_of(n0, &a).unwrap();
    assert_eq!(owner, n1);
    cluster.migrate(owner, handle, n2).unwrap();
    let (owner, handle) = cluster.home_of(n0, &a).unwrap();
    assert_eq!(owner, n2);
    cluster.migrate(owner, handle, n0).unwrap();

    assert_eq!(cluster.location_of(n0, &a), Some(n0));
    let proxy = a.as_ref_handle().unwrap();
    assert_eq!(
        cluster.home_of(n0, &a),
        Some((n0, proxy)),
        "a is the object"
    );
    let messages = cluster.network().stats().messages;
    assert_eq!(add(1).unwrap(), Value::Int(6));
    assert_eq!(cluster.network().stats().messages, messages, "a local call");
    assert_eq!(
        cluster.describe()[0].imports,
        1,
        "one handle for the object"
    );
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A landing can rewrite a live copy of another object. An `Install`
/// whose reply is lost leaves node 2's proxy rewritten into a second live
/// copy with an identity of its own, and node 0 imports both. The retried
/// move lands on that very export: the copy is folded into the mover, node
/// 0 keeps one handle, and both of its references reach the one object.
#[test]
fn a_retried_install_folds_the_copy_its_lost_reply_left_behind() {
    let cluster = deployed_counters(
        31,
        StaticPolicy::new().place("CA", Placement::Node(NodeId(1))),
    );
    cluster.enable_monitors();
    cluster.set_retry_policy(RetryPolicy { max_attempts: 1 });
    let shared = cluster.shared();
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let p2 = cluster.new_instance(n2, "CA", 0, vec![]).unwrap();
    let (owner, handle) = cluster.home_of(n2, &p2).unwrap();
    assert_eq!(owner, n1);
    let import = |loc| {
        let remote = remote_ref(shared, loc).unwrap();
        marshal::wire_to_values(shared, n0, &[remote])
            .unwrap()
            .remove(0)
    };
    let first = (1, export(shared, n1, handle));
    let a = import(first);
    let seq = cluster.network().transmit_seq();
    cluster.network().fault_plan(|f| f.drop_message(seq + 1));
    assert!(
        cluster.migrate(n1, handle, n2).is_err(),
        "the reply is lost"
    );
    let copy = (2, export(shared, n2, p2.as_ref_handle().unwrap()));
    assert_eq!(shared.directory.borrow().identity(copy), copy);
    let b = import(copy);
    assert_eq!(cluster.describe()[0].imports, 2, "two objects, so far");

    let moved = cluster.migrate(n1, handle, n2).unwrap();
    assert_eq!((moved.target.node.0, moved.target.oid), copy);
    let dir = shared.directory.borrow();
    assert_eq!((dir.identity(copy), dir.resolve(first)), (first, copy));
    drop(dir);
    assert_eq!(cluster.describe()[0].imports, 1, "one object, one handle");
    assert_eq!(cached_import(shared, n0, copy.0, copy.1), a.as_ref_handle());
    for (r, v) in [(&a, 1), (&b, 2)] {
        let sum = cluster.call_method(n0, r.clone(), "add", vec![Value::Int(1)]);
        assert_eq!(sum.unwrap(), Value::Int(v));
    }
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// The state node `n` holds as a backup of `loc`.
fn backup_of(cluster: &Cluster, n: usize, loc: (u32, u64)) -> Vec<WireValue> {
    let nodes = cluster.shared().nodes.borrow();
    let (_, _, state) = nodes[n].replica_store.get(&loc).expect("a backup entry");
    state.clone()
}

/// A move drops every backup's copy of the location it vacates. `CA` on
/// node 1 is replicated k = 2, so nodes 0 and 2 hold its state; after it
/// moves to node 2, no node holds a copy keyed by node 1's location, and
/// the new home's backups (nodes 0 and 1) hold the state under its own.
#[test]
fn a_move_drops_the_backups_of_the_vacated_location() {
    let policy = StaticPolicy::new()
        .place("CA", Placement::Node(NodeId(1)))
        .replicate("CA", 2);
    let cluster = deployed_counters(31, policy);
    cluster.enable_monitors();
    let (n0, n2) = (NodeId(0), NodeId(2));
    let a = cluster.new_instance(n0, "CA", 0, vec![]).unwrap();
    let add5 = cluster.call_method(n0, a.clone(), "add", vec![Value::Int(5)]);
    assert_eq!(add5.unwrap(), Value::Int(5));
    let shared = cluster.shared();
    let old = read_proxy_state(&shared.vms[0], a.as_ref_handle().unwrap()).unwrap();
    assert_eq!(old.0, 1);
    for n in [0, 2] {
        assert_eq!(backup_of(&cluster, n, old), vec![WireValue::Int(5)]);
    }
    let (owner, handle) = cluster.home_of(n0, &a).unwrap();
    let event = cluster.migrate(owner, handle, n2).unwrap();
    let nodes = shared.nodes.borrow();
    assert!(nodes.iter().all(|st| !st.replica_store.contains_key(&old)));
    drop(nodes);
    let new = (2, event.target.oid);
    for n in [0, 1] {
        assert_eq!(backup_of(&cluster, n, new), vec![WireValue::Int(5)]);
    }
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// The case conservative marks exist for, end to end through the written
/// mark: a pulled object mutated by a plain local call — no serve, no
/// version bump — is shipped at the caller's next exchange.
#[test]
fn a_bare_local_mutation_ships_at_the_next_exchange() {
    let (cluster, a, b, oid) = pulled_counter(14);
    let shared = cluster.shared();
    let before = cluster.stats();
    let version = version_of(shared, 0, oid);
    let add3 = cluster.call_method(NodeId(0), a, "add", vec![Value::Int(3)]);
    assert_eq!(add3.unwrap(), Value::Int(8));
    let local = cluster.stats();
    assert_eq!(local.rpc_calls, before.rpc_calls, "a plain local call");
    assert_eq!(version_of(shared, 0, oid), version, "nobody served it");
    assert_eq!(local.replica_syncs, before.replica_syncs);
    cluster
        .call_method(NodeId(0), b, "add", vec![Value::Int(1)])
        .unwrap();
    assert!(cluster.stats().replica_syncs > local.replica_syncs);
    for n in [1, 2] {
        assert_eq!(backup_of(&cluster, n, (0, oid)), vec![WireValue::Int(8)]);
    }
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A plain local call that stores the value the field already holds is no
/// write: the heap leaves the mark clear, so the next exchange's sweep
/// probes nothing and ships nothing, and the version stays.
#[test]
fn an_equal_store_ships_nothing_and_leaves_the_written_mark_clear() {
    let (cluster, a, b, oid) = pulled_counter(15);
    let shared = cluster.shared();
    let vm = &shared.vms[0];
    let h = a.as_ref_handle().unwrap();
    assert!(!vm.written(h), "settled by the pull's own shipment");
    let version = version_of(shared, 0, oid);
    let add0 = cluster.call_method(NodeId(0), a, "add", vec![Value::Int(0)]);
    assert_eq!(add0.unwrap(), Value::Int(5));
    assert!(!vm.written(h), "the slot holds what it held");
    let before = cluster.stats();
    cluster
        .call_method(NodeId(0), b, "add", vec![Value::Int(1)])
        .unwrap();
    let swept = cluster.stats();
    assert_eq!(swept.replica_sweep_probes, before.replica_sweep_probes);
    assert_eq!(swept.replica_syncs, before.replica_syncs, "state equal");
    assert_eq!(version_of(shared, 0, oid), version);
    // The record is flat and current, and the slot unwritten, so the
    // quiescent probe below is answered without marshalling: counted, and
    // it ships nothing.
    let sent = shared.directory.borrow().current_shipment((0, oid));
    let flat = Sent {
        is_deep: false,
        missed: vec![],
    };
    assert_eq!(sent, Some(flat));
    assert_eq!(cluster.check_invariants(), vec![]);
    let quiet = cluster.stats();
    assert_eq!(quiet.replica_sweep_probes, swept.replica_sweep_probes + 1);
    assert_eq!(quiet.replica_syncs, swept.replica_syncs);
    assert!(!vm.written(h));
}

/// A shipment that misses a backup owes that backup alone. Node 0's pulled
/// `CA` has backups 1 and 2; with 0 and 2 cut apart, a bare local write
/// ships to backup 1 at a bumped version, and backup 2 is not tried (no
/// retries, no clock). While the cut lasts every sweep probes the location
/// and ships nothing; after the heal one sweep sends the unchanged state to
/// backup 2 alone, at the same version.
#[test]
fn a_shipment_that_misses_a_backup_owes_it_alone() {
    let (cluster, a, _, oid) = pulled_counter(16);
    let shared = cluster.shared();
    let loc = (0, oid);
    let exchange = || cluster.new_instance(NodeId(1), "CB", 0, vec![]).unwrap();
    let version = version_of(shared, 0, oid).unwrap();
    cluster
        .network()
        .fault_plan(|f| f.partition(NodeId(0), NodeId(2)));
    let add3 = cluster.call_method(NodeId(0), a, "add", vec![Value::Int(3)]);
    assert_eq!(add3.unwrap(), Value::Int(8));
    let before = cluster.stats();
    exchange();
    let cut = cluster.stats();
    assert_eq!(cut.replica_syncs, before.replica_syncs + 1, "backup 1 only");
    assert_eq!(cut.retries, before.retries, "backup 2 was not tried");
    assert_eq!(version_of(shared, 0, oid), Some(version + 1));
    let owing = Sent {
        is_deep: false,
        missed: vec![2],
    };
    assert_eq!(shared.directory.borrow().current_shipment(loc), Some(owing));
    assert_eq!(shared.directory.borrow().replica_lag(), 1);
    assert_eq!(backup_of(&cluster, 1, loc), vec![WireValue::Int(8)]);
    assert_eq!(backup_of(&cluster, 2, loc), vec![WireValue::Int(5)]);
    exchange();
    assert_eq!(cluster.check_invariants(), vec![], "owed is not unmarked");
    let still = cluster.stats();
    assert_eq!(still.replica_syncs, cut.replica_syncs);
    assert_eq!(still.replica_sweep_probes, cut.replica_sweep_probes + 3);

    cluster.network().fault_plan(|f| f.heal_all());
    exchange();
    let healed = cluster.stats();
    assert_eq!(
        healed.replica_syncs,
        still.replica_syncs + 1,
        "backup 2 only"
    );
    assert_eq!(version_of(shared, 0, oid), Some(version + 1));
    let paid = Sent {
        is_deep: false,
        missed: vec![],
    };
    assert_eq!(shared.directory.borrow().current_shipment(loc), Some(paid));
    assert_eq!(shared.directory.borrow().replica_lag(), 0);
    assert_eq!(backup_of(&cluster, 2, loc), vec![WireValue::Int(8)]);
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A write no call site could have announced: the embedding host stores
/// straight into a pulled replicated object's heap slot. The heap logs it
/// like any other, so the very next exchange — a getter's, which marks
/// nothing itself — ships it before the divergence monitor can see a gap.
#[test]
fn a_host_side_write_ships_at_the_next_exchange() {
    let (cluster, a, b, oid) = pulled_counter(17);
    let h = a.as_ref_handle().unwrap();
    let stored = cluster.shared().vms[0].with_heap(|heap| heap.set_field(h, 0, Value::Int(99)));
    assert!(stored);
    let before = cluster.stats();
    cluster.call_method(NodeId(0), b, "get_v", vec![]).unwrap();
    assert!(cluster.stats().replica_syncs > before.replica_syncs);
    for n in [1, 2] {
        assert_eq!(backup_of(&cluster, n, (0, oid)), vec![WireValue::Int(99)]);
    }
    assert_eq!(cluster.monitor_violations(), vec![]);
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// Three nodes running the holder `H { int[] xs; P peer; void poke(int i,
/// int v) }`, whose constructor allocates `xs = new int[2]`, and its peer
/// `P { int v; int put(int v) }`.
fn deployed_holder(seed: u64, policy: StaticPolicy) -> Cluster {
    let mut u = ClassUniverse::new();
    let peer = u.declare("P", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, peer);
        let v = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(peer, v);
        mb.load_this().get_field(peer, v).ret_value();
        cb.method(&mut u, "put", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let holder = u.declare("H", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, holder);
        let xs = cb.field(Field::new("xs", Ty::Int.array_of()));
        cb.field(Field::new("peer", Ty::Object(peer)));
        // H() { xs = new int[2]; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this().const_int(2).new_array(Ty::Int);
        mb.put_field(holder, xs).ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // void poke(int i, int v) { xs[i] = v; }
        let mut mb = MethodBuilder::new(3);
        mb.load_this().get_field(holder, xs);
        mb.load_local(1).load_local(2).array_set().ret();
        let params = vec![Ty::Int, Ty::Int];
        cb.method(&mut u, "poke", params, Ty::Void, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    let cluster = Cluster::new(u, outcome.plan, 3, seed, Box::new(policy));
    cluster.enable_monitors();
    cluster
}

/// An `H` and a `P` created from `node`, the `P` stored as the `H`'s peer
/// and the `H` then pulled into `node`'s VM, all settled. Returns both
/// references and the pulled holder's export id on `node`.
fn pulled_holder(cluster: &Cluster, node: NodeId) -> (Value, Value, u64) {
    let h = cluster.new_instance(node, "H", 0, vec![]).unwrap();
    let p = cluster.new_instance(node, "P", 0, vec![]).unwrap();
    cluster
        .call_method(node, h.clone(), "set_peer", vec![p.clone()])
        .unwrap();
    let handle = h.as_ref_handle().unwrap();
    let oid = cluster.pull_local(node, handle).unwrap().target.oid;
    assert_eq!(cluster.check_invariants(), vec![]);
    (h, p, oid)
}

/// State that is not flat never takes the early return: the holder's
/// marshalled form reaches through its `int[]` into another heap slot, so
/// an element store leaves the holder itself unwritten and must still be
/// found, by the full probe, and shipped.
#[test]
fn a_store_into_a_replicated_objects_array_ships_though_the_object_is_unwritten() {
    let policy = StaticPolicy::new()
        .place("H", Placement::Node(NodeId(1)))
        .place("P", Placement::Node(NodeId(2)))
        .replicate("H", 2);
    let cluster = deployed_holder(16, policy);
    let (h, p, oid) = pulled_holder(&cluster, NodeId(0));
    let handle = h.as_ref_handle().unwrap();
    let shipped = backup_of(&cluster, 1, (0, oid));
    let zeros = WireValue::Array(vec![WireValue::Int(0), WireValue::Int(0)]);
    assert_eq!(shipped[0], zeros);
    assert!(matches!(shipped[1], WireValue::Remote { node: 2, .. }));

    let vm = &cluster.shared().vms[0];
    assert!(!vm.written(handle));
    let poke = vec![Value::Int(1), Value::Int(42)];
    cluster.call_method(NodeId(0), h, "poke", poke).unwrap();
    assert!(!vm.written(handle), "the store went into the array's slot");
    let before = cluster.stats();
    cluster
        .call_method(NodeId(0), p, "put", vec![Value::Int(1)])
        .unwrap();
    assert!(cluster.stats().replica_syncs > before.replica_syncs);
    let poked = WireValue::Array(vec![WireValue::Int(0), WireValue::Int(42)]);
    for n in [1, 2] {
        assert_eq!(backup_of(&cluster, n, (0, oid))[0], poked);
    }
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A deep object's state can move without anyone writing the object, or
/// any application code running at all: the peer's home dies, a getter's
/// failover re-points the holder node's proxy for it at the promoted copy,
/// and the holder now marshals a different `Remote`. The re-point wrote
/// the holder node's heap, so the next sweep — the retried getter's —
/// probes the holder again and ships it.
#[test]
fn a_re_pointed_proxy_inside_a_deep_replicated_holder_is_re_probed_and_shipped() {
    let policy = StaticPolicy::new()
        .place("H", Placement::Node(NodeId(1)))
        .place("P", Placement::Node(NodeId(1)))
        .replicate("H", 2)
        .replicate("P", 1);
    let cluster = deployed_holder(18, policy);
    let (_h, p, oid) = pulled_holder(&cluster, NodeId(2));
    let peer_of = |backup: Vec<WireValue>| match backup[1] {
        WireValue::Remote { node, .. } => node,
        ref other => panic!("peer shipped as {other:?}"),
    };
    assert_eq!(peer_of(backup_of(&cluster, 0, (2, oid))), 1);
    cluster.crash(NodeId(1));
    let before = cluster.stats();
    let read = cluster.call_method(NodeId(2), p.clone(), "get_v", vec![]);
    assert_eq!(read.unwrap(), Value::Int(0));
    let after = cluster.stats();
    assert_eq!(after.failovers, before.failovers + 1);
    assert_eq!(cluster.location_of(NodeId(2), &p), Some(NodeId(0)));
    assert!(after.replica_sweep_probes > before.replica_sweep_probes);
    assert_eq!(peer_of(backup_of(&cluster, 0, (2, oid))), 0);
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A replicated export whose state cannot be marshalled — here the host
/// freed the array its `xs` field names — ships nothing and keeps its dirty
/// mark: the next sweep retries it though nothing was written in between.
#[test]
fn a_probe_that_cannot_read_the_state_is_retried_at_the_next_sweep() {
    let policy = StaticPolicy::new()
        .place("H", Placement::Node(NodeId(1)))
        .place("P", Placement::Node(NodeId(2)))
        .replicate("H", 2);
    let cluster = deployed_holder(19, policy);
    let (h, p, oid) = pulled_holder(&cluster, NodeId(0));
    let shared = cluster.shared();
    let vm = &shared.vms[0];
    let holder = h.as_ref_handle().unwrap();
    let Some(Value::Ref(xs)) = vm.with_heap(|heap| heap.field(holder, 0).cloned()) else {
        panic!("xs is the holder's first field");
    };
    // Free the array and store the now-stale reference over a null (a
    // store of the value a field holds is no write): a logged write to the
    // holder, whose probe cannot marshal the state.
    vm.with_heap(|heap| {
        heap.free(xs);
        heap.set_field(holder, 0, Value::Null);
        heap.set_field(holder, 0, Value::Ref(xs))
    });
    // Each exchange from node 0 sweeps; none writes node 0's heap.
    let exchange = || {
        let put = cluster.call_method(NodeId(0), p.clone(), "put", vec![Value::Int(1)]);
        put.unwrap();
        cluster.stats()
    };
    let before = cluster.stats();
    let probed = exchange();
    assert_eq!(probed.replica_sweep_probes, before.replica_sweep_probes + 1);
    assert_eq!(
        shared.directory.borrow().dirty_depth(),
        1,
        "the mark stands"
    );
    let retried = exchange();
    assert_eq!(
        retried.replica_sweep_probes,
        probed.replica_sweep_probes + 1
    );
    assert_eq!(retried.replica_syncs, before.replica_syncs, "unreadable");
    // The host repairs the field; the retry ships it.
    vm.with_heap(|heap| {
        let fresh = heap.alloc_array(Ty::Int, vec![Value::Int(7)]);
        heap.set_field(holder, 0, Value::Ref(fresh))
    });
    assert!(exchange().replica_syncs > retried.replica_syncs);
    assert_eq!(shared.directory.borrow().dirty_depth(), 0);
    let shipped = backup_of(&cluster, 1, (0, oid));
    assert_eq!(shipped[0], WireValue::Array(vec![WireValue::Int(7)]));
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// A codec whose request encoder always fails; nothing else is reached.
struct NoEncode;

impl Protocol for NoEncode {
    fn name(&self) -> &'static str {
        "NOENC"
    }
    fn encode_request_into(
        &self,
        _: u64,
        _: TraceContext,
        _: &Request,
        _: Option<&mut SigTable>,
        _: &mut Vec<u8>,
    ) -> Result<(), rafda_wire::WireError> {
        Err(rafda_wire::WireError("too long".into()))
    }
    fn decode_request_header<'a>(
        &self,
        _: &'a [u8],
    ) -> Result<rafda_wire::FrameHeader<'a>, rafda_wire::WireError> {
        unreachable!("no request is ever sent")
    }
    fn encode_reply_into(
        &self,
        _: u64,
        _: TraceContext,
        _: u64,
        _: &Reply,
        _: Option<&mut SigTable>,
        _: &mut Vec<u8>,
    ) -> Result<(), rafda_wire::WireError> {
        unreachable!("no request is ever sent")
    }
    fn decode_reply_with(
        &self,
        _: &[u8],
        _: Option<&mut SigTable>,
    ) -> Result<(u64, TraceContext, u64, Reply), rafda_wire::WireError> {
        unreachable!("no request is ever sent")
    }
}

// The three ways an exchange fails before a message leaves are typed:
// callers match on the variant, never on the text.

const PROMOTE: Request = Request::Promote { node: 1, object: 1 };

/// A protocol nobody implements is found out at the first exchange that
/// needs its codec, not at deployment: a class that stays local never
/// needs one.
#[test]
fn an_unknown_protocol_is_a_typed_no_codec_fault() {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .with_protocol("C", "IIOP2");
    let (cluster, _) = deployed(policy);
    let err = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap_err();
    let no_codec = VmError::Rpc(RpcFault::NoCodec("IIOP2".into()));
    assert_eq!(err, no_codec);
    assert_eq!(cluster.network().stats().messages, 0);
    let local = cluster.new_instance(NodeId(1), "C", 0, vec![]).unwrap();
    let sum = cluster.call_method(NodeId(1), local, "add", vec![Value::Int(2)]);
    assert_eq!(sum.unwrap(), Value::Int(2));
}

/// A policy may name a node the deployment does not have. The request is
/// still framed before the network refuses it, so the link-table lookup
/// must not mistake the address for another link's slot.
#[test]
fn an_exchange_to_a_node_outside_the_deployment_is_a_typed_net_failure() {
    let (cluster, _) = deployed(StaticPolicy::new());
    let call = Request::Call {
        object: 1,
        method: "add@1".into(),
        args: vec![],
    };
    let shared = cluster.shared();
    let err = rpc(shared, NodeId(0), NodeId(2), &shared.rows[0], &call, None).unwrap_err();
    let VmError::Unreachable(failure) = err else {
        panic!("expected a network failure, got {err:?}");
    };
    assert_eq!(failure.kind, NetError::NoSuchNode(NodeId(2)));
    assert_eq!(cluster.stats().sig_defs, 0, "no link's table was written");
}

#[test]
fn an_exchange_at_the_depth_limit_is_a_typed_depth_fault() {
    let (cluster, _) = deployed(StaticPolicy::new());
    let shared = cluster.shared();
    shared.rpc_depth.set(MAX_RPC_DEPTH);
    let err = rpc(
        shared,
        NodeId(0),
        NodeId(1),
        &shared.rows[0],
        &PROMOTE,
        None,
    )
    .unwrap_err();
    assert_eq!(err, VmError::Rpc(RpcFault::DepthLimit));
    assert_eq!(
        shared.rpc_depth.get(),
        MAX_RPC_DEPTH,
        "refused, not entered"
    );
}

#[test]
fn a_request_the_codec_cannot_encode_is_a_typed_encode_fault() {
    let (cluster, _) = deployed(StaticPolicy::new());
    let err = rpc_inner(
        cluster.shared(),
        NodeId(0),
        NodeId(1),
        &NoEncode,
        &cluster.shared().rows[0],
        &PROMOTE,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, VmError::Rpc(RpcFault::Encode(why)) if why.contains("too long")));
    assert_eq!(cluster.network().stats().messages, 0);
}

/// The at-most-once canary. A retransmission served from the reply
/// cache is a legitimate replay; losing the cache entry and
/// re-executing the frame is the violation the monitor exists for.
/// Like the dedup test above, the scenario delivers the frame to the
/// callee half itself — the single-threaded simulation cannot evict a
/// reply cache entry mid-exchange from the outside.
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
        .find(|m| &*m.name == "add")
        .unwrap()
        .sig;
    let call = framed(
        shared,
        LINK,
        &RmiCodec::new(),
        900,
        &Request::Call {
            object: oid,
            method: format!("add@{}", add_sig.0),
            args: vec![WireValue::Int(5)],
        },
    );
    // Serve once, then retransmit: the dedup cache replays — healthy.
    let (r1, _) = answered(shared, &call);
    assert!(matches!(r1, Reply::Value(_)));
    let (r2, _) = answered(shared, &call);
    assert_eq!(r2, r1);
    assert_eq!(cluster.monitor_violations(), vec![]);

    // Inject the bug: the server forgets its replies, so the next
    // retransmission of 900 re-executes `add` — the object double-
    // applies the mutation, which is exactly what at-most-once forbids.
    shared.nodes.borrow_mut()[1].reply_cache = Default::default();
    let (r3, _) = answered(shared, &call);
    assert!(matches!(r3, Reply::Value(_)));
    assert_ne!(r3, r1, "re-execution double-applies the mutation");
    let violations = cluster.monitor_violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].monitor, "at-most-once");
    assert!(violations[0].message.contains("msg 900"));
    assert_ne!(violations[0].span_id, 0);
}

/// `C.add(d)` on the export `oid` of [`deployed`]'s class `base`.
fn add_call(shared: &Shared, base: ClassId, oid: u64, d: i32) -> Request {
    let methods = &shared.universe.class(base).methods;
    let add_sig = methods.iter().find(|m| &*m.name == "add").unwrap().sig;
    Request::Call {
        object: oid,
        method: format!("add@{}", add_sig.0),
        args: vec![WireValue::Int(d)],
    }
}

/// A caller's reply window is searched up to the largest id it holds, not
/// the latest: a hand-built frame with a huge id, then an ordinary one, and
/// the huge id's retransmission is still a replay. A window that took "above
/// the last id kept" for "fresh" would run `add(5)` a second time.
#[test]
fn a_huge_message_id_is_still_replayed_after_a_smaller_one() {
    let (cluster, base) = deployed(StaticPolicy::new().place("C", Placement::Node(NodeId(1))));
    cluster.enable_monitors();
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let shared = cluster.shared();
    let (_, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
    let frame = |msg_id, d| {
        framed(
            shared,
            LINK,
            &RmiCodec::new(),
            msg_id,
            &add_call(shared, base, oid, d),
        )
    };
    let huge = frame(1 << 60, 5);
    assert_eq!(answered(shared, &huge).0, Reply::Value(WireValue::Int(5)));
    let ordinary = frame(901, 1);
    assert_eq!(
        answered(shared, &ordinary).0,
        Reply::Value(WireValue::Int(6))
    );
    let hits = cluster.stats().dedup_hits;
    let (replay, _) = answered(shared, &huge);
    assert_eq!(replay, Reply::Value(WireValue::Int(5)), "replayed, not run");
    assert_eq!(cluster.stats().dedup_hits, hits + 1);
    let (probe, _) = answered(shared, &frame(902, 0));
    assert_eq!(probe, Reply::Value(WireValue::Int(6)), "add(5) ran once");
    assert_eq!(cluster.monitor_violations(), vec![]);
}

/// The at-most-once state grows by the frame, not by its id: a frame
/// carrying the largest message id costs one reply in its caller's window
/// and one bitmap word in the watchdog, like any other frame.
#[test]
fn the_largest_message_id_costs_one_reply_and_one_bitmap_word() {
    let (cluster, base) = deployed(StaticPolicy::new().place("C", Placement::Node(NodeId(1))));
    cluster.enable_monitors();
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let shared = cluster.shared();
    let (_, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
    let words = || {
        let obs = shared.obs.borrow();
        obs.watchdog.as_ref().map_or(0, |dog| dog.bitmap_words())
    };
    let held = || shared.nodes.borrow()[1].reply_cache.len();
    let slots = || shared.nodes.borrow()[1].reply_cache.slots();
    let (words_before, held_before) = (words(), held());
    let frame = framed(
        shared,
        LINK,
        &RmiCodec::new(),
        u64::MAX,
        &add_call(shared, base, oid, 5),
    );
    assert_eq!(answered(shared, &frame).0, Reply::Value(WireValue::Int(5)));
    assert_eq!(words(), words_before + 1);
    assert_eq!(held(), held_before + 1);
    assert!(slots() <= 2 * MAX_RPC_DEPTH as usize, "{} slots", slots());
    assert_eq!(answered(shared, &frame).0, Reply::Value(WireValue::Int(5)));
    assert_eq!((words(), held()), (words_before + 1, held_before + 1));
    assert_eq!(cluster.monitor_violations(), vec![]);
}

/// The replica-divergence canary. A backup holding different state at the
/// owner's current version is a divergence; the quiescent probe reports it
/// as the tables are now, so a divergence that persists across checks is
/// one verdict, not one per check. The check's own sweep compares the
/// owner's state against its shipment record, not against the backup, so it
/// leaves the planted state where it is.
#[test]
fn replica_divergence_is_reported_once_however_often_it_is_checked() {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .replicate("C", 1);
    let (cluster, _) = deployed(policy);
    cluster.enable_monitors();
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let add = cluster.call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(5)]);
    assert_eq!(add.unwrap(), Value::Int(5));
    let shared = cluster.shared();
    let loc = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
    assert_eq!(cluster.check_invariants(), vec![]);
    {
        let mut nodes = shared.nodes.borrow_mut();
        let (version, _, state) = nodes[0]
            .replica_store
            .get_mut(&loc)
            .expect("a backup entry");
        assert_eq!(Some(*version), version_of(shared, loc.0, loc.1), "in sync");
        assert_eq!(*state, vec![WireValue::Int(5)]);
        *state = vec![WireValue::Int(6)];
    }
    let named = format!("backup 0 of {}#{} diverges", loc.0, loc.1);
    for _ in 0..2 {
        let violations = cluster.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].monitor, "replica-divergence");
        assert!(violations[0].message.contains(&named), "{}", violations[0]);
    }
}

/// Copies of a binary frame with each 4-byte window overwritten by a word
/// that reads as a huge length or count in either byte order.
fn huge_words(frame: &[u8]) -> Vec<Vec<u8>> {
    let words = [[0xFF; 4], [0x7F, 0xFF, 0xFF, 0xFF]];
    let windows = 0..frame.len().saturating_sub(3);
    windows
        .flat_map(|at| {
            words.map(|word| {
                let mut hostile = frame.to_vec();
                hostile[at..at + 4].copy_from_slice(&word);
                hostile
            })
        })
        .collect()
}

/// Copies of a text frame with each run of decimal digits replaced by
/// `u64::MAX + 1`.
fn huge_numbers(frame: &[u8]) -> Vec<Vec<u8>> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < frame.len() {
        let len = frame[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if len > 0 {
            runs.push(at..at + len);
        }
        at += len.max(1);
    }
    runs.into_iter()
        .map(|run| {
            let mut hostile = frame.to_vec();
            hostile.splice(run, *b"18446744073709551616");
            hostile
        })
        .collect()
}

/// The callee half is total on its input: whatever bytes arrive — nothing,
/// a frame cut short anywhere, a frame with any one bit flipped, a binary
/// frame with any four bytes made a huge length or count, a SOAP frame with
/// any number made one past `u64::MAX` — it answers with a frame the codec
/// reads back, and bytes whose header does not parse are answered with a
/// fault without touching the at-most-once state.
#[test]
fn deliver_answers_hostile_bytes_with_a_frame_and_never_panics() {
    for kind in ProtocolKind::ALL {
        let codec = kind.codec();
        let (cluster, base) = deployed(StaticPolicy::new().place("C", Placement::Node(NodeId(1))));
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let shared = cluster.shared();
        let (_, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
        let methods = &shared.universe.class(base).methods;
        let add_sig = methods.iter().find(|m| &*m.name == "add").unwrap().sig;
        cluster.enable_monitors();
        let executions = || {
            let obs = shared.obs.borrow();
            obs.watchdog.as_ref().map_or(0, |dog| dog.executions())
        };
        let call = Request::Call {
            object: oid,
            method: format!("add@{}", add_sig.0),
            args: vec![WireValue::Int(5)],
        };
        let batch = Request::Batch(vec![call.clone(), call.clone()]);
        let frames = [(900, &call), (901, &batch)]
            .map(|(msg_id, req)| framed(shared, LINK, &*codec, msg_id, req));
        for frame in &frames {
            let truncated = (0..frame.len()).map(|len| frame[..len].to_vec());
            let flipped = (0..frame.len() * 8).map(|bit| {
                let mut hostile = frame.clone();
                hostile[bit / 8] ^= 1 << (bit % 8);
                hostile
            });
            let structured = match kind {
                ProtocolKind::Soap => huge_numbers(frame),
                ProtocolKind::Rmi | ProtocolKind::Corba => huge_words(frame),
            };
            for hostile in truncated.chain(flipped).chain(structured) {
                let cached = shared.nodes.borrow()[1].reply_cache.len();
                let executed = executions();
                let (msg_id, reply, _) = answer(shared, LINK, &*codec, &hostile)
                    .unwrap_or_else(|e| panic!("{}: unreadable reply frame: {e}", codec.name()));
                if codec.decode_request_header(&hostile).is_err() {
                    assert!(matches!(reply, Reply::Fault(_)), "{reply:?}");
                    assert_eq!(msg_id, 0);
                    assert_eq!(shared.nodes.borrow()[1].reply_cache.len(), cached);
                    assert_eq!(executions(), executed);
                }
            }
        }
        assert!(executions() > 0, "the intact-enough frames did execute");
    }
}

/// A well-formed `Discover` naming a class with no static members — which
/// generated code never sends: such a family has no `_C_Factory` to call —
/// is answered with a fault, on the statics' home node and off it, instead
/// of panicking for want of a class half.
#[test]
fn discover_of_a_class_without_statics_is_answered_with_a_fault() {
    for home in [NodeId(0), NodeId(1)] {
        let (cluster, base) = deployed(StaticPolicy::new().statics("C", home));
        let shared = cluster.shared();
        assert!(shared.plan.family(base).unwrap().half(Side::Cls).is_none());
        let class = "C".to_owned();
        let discover = framed(
            shared,
            LINK,
            &RmiCodec::new(),
            900,
            &Request::Discover { class },
        );
        let (reply, _) = answered(shared, &discover);
        assert!(
            matches!(&reply, Reply::Fault(m) if m.contains("no static members")),
            "{reply:?}"
        );
    }
}

/// Every span recorded since `before`, one line each: what the caller
/// half's exit wrote.
fn spans_since(shared: &Shared, before: usize) -> Vec<String> {
    let spans = shared.spans.borrow();
    let line = |s: rafda_telemetry::Span| {
        let attrs: Vec<String> = spans.attrs(&s).map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "{} #{} ^{} retry_of={:?} {:?} {}..{} [{}]",
            s.name,
            s.span_id,
            s.parent_span_id,
            s.retry_of(),
            s.outcome,
            s.start_ns,
            s.end_ns,
            attrs.join(" ")
        )
    };
    spans.spans().skip(before).map(line).collect()
}

/// `C` placed on node 1 with one instance created from node 0, the next
/// `drops` transmissions scheduled to be lost, and `add(5)` called on it.
fn add_through_drops(drops: u64) -> (Cluster, Result<Value, VmError>, Vec<String>) {
    let (cluster, _) = deployed(StaticPolicy::new().place("C", Placement::Node(NodeId(1))));
    cluster.set_retry_policy(RetryPolicy { max_attempts: 3 });
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let seq = cluster.network().transmit_seq();
    cluster
        .network()
        .fault_plan(|f| (seq..seq + drops).for_each(|s| f.drop_message(s)));
    let before = cluster.shared().spans.borrow().spans().len();
    let result = cluster.call_method(NodeId(0), obj, "add", vec![Value::Int(5)]);
    let spans = spans_since(cluster.shared(), before);
    (cluster, result, spans)
}

// The caller half closes its spans in one tail. The literals below were
// recorded when a success, a retried failure and an exhausted failure each
// had their own hand-written exit.

#[test]
fn a_retried_exchange_records_the_failed_attempt_and_the_retransmission() {
    let (cluster, result, spans) = add_through_drops(1);
    assert_eq!(result.unwrap(), Value::Int(5));
    assert_eq!(
        spans,
        [
            "rpc.call #4 ^0 retry_of=None Ok 419431..1185120 [class=C method=add@1 protocol=RMI from=0 to=1 bytes_out=65 attempts=2]",
            "rpc.attempt #5 ^4 retry_of=None NetFailure 419431..574509 [attempt=1]",
            "rpc.attempt #6 ^4 retry_of=Some(5) Ok 774509..1185120 [attempt=2]",
            "serve.call #7 ^4 retry_of=None Ok 938933..938933 [caller=0]",
        ]
    );
    assert_eq!(cluster.shared().last_exchange_span.get(), 4);
    let stats = cluster.stats();
    assert_eq!(
        (stats.retries, stats.retransmits, stats.net_failures),
        (1, 1, 0)
    );
}

#[test]
fn an_exhausted_exchange_records_every_attempt_and_a_net_failure() {
    let (cluster, result, spans) = add_through_drops(3);
    let err = result.unwrap_err();
    assert_eq!(err.net_failure().map(|nf| nf.attempts), Some(3));
    assert_eq!(
        spans,
        [
            "rpc.call #4 ^0 retry_of=None NetFailure 419431..1484665 [class=C method=add@1 protocol=RMI from=0 to=1 bytes_out=65 attempts=3]",
            "rpc.attempt #5 ^4 retry_of=None NetFailure 419431..574509 [attempt=1]",
            "rpc.attempt #6 ^4 retry_of=Some(5) NetFailure 774509..929587 [attempt=2]",
            "rpc.attempt #7 ^4 retry_of=Some(6) NetFailure 1329587..1484665 [attempt=3]",
        ]
    );
    assert_eq!(cluster.shared().last_exchange_span.get(), 4);
    let stats = cluster.stats();
    assert_eq!(
        (stats.retries, stats.retransmits, stats.net_failures),
        (2, 0, 1)
    );
}

/// A cluster running `class K { int k; int v; K(int k); int bump(int
/// d) }` under `policy`.
fn deployed_keyed(nodes: u32, seed: u64, policy: impl DistributionPolicy + 'static) -> Cluster {
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
    Cluster::new(u, outcome.plan, nodes, seed, Box::new(policy))
}

/// [`deployed_keyed`] under `shard K by get_k modulo ...` with no explicit
/// placement (instances are created locally, then routed).
fn deployed_sharded(nodes: u32, modulo: u32, seed: u64, k: u32) -> Cluster {
    let policy = StaticPolicy::new()
        .shard("K", "get_k", modulo)
        .replicate("K", k);
    deployed_keyed(nodes, seed, policy)
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

/// For each `(key, node)`, an instance of `K` created on `node` under a
/// key whose shard seeds onto that very node, so it stays where it was made.
fn shard_members_on(cluster: &Cluster, placed: &[(i32, NodeId)]) -> Vec<Value> {
    let objs: Vec<Value> = placed
        .iter()
        .map(|&(key, node)| {
            let obj = cluster
                .new_instance(node, "K", 0, vec![Value::Int(key)])
                .unwrap();
            cluster.pin(node, &obj);
            assert_eq!(cluster.location_of(node, &obj), Some(node), "key {key}");
            obj
        })
        .collect();
    assert_eq!(cluster.stats().shard_placements, placed.len() as u64);
    objs
}

/// A shard member is its export: a migration carries it to the new home at
/// once, so the balance counts the node it moved to, with no rebalance tick
/// in between.
#[test]
fn a_migrated_shard_member_counts_at_its_new_home() {
    let cluster = deployed_sharded(2, 4, 33, 0);
    let shared = cluster.shared();
    // Shards 0 and 2 both seed onto node 0 (owner = shard % nodes).
    let keys = [key_for_shard(0, 4), key_for_shard(2, 4)];
    let objs = shard_members_on(&cluster, &[(keys[0], NodeId(0)), (keys[1], NodeId(0))]);
    assert_eq!(shared.directory.borrow().shard_balance(), 2.0);
    let h = objs[1].as_ref_handle().unwrap();
    cluster.migrate(NodeId(0), h, NodeId(1)).unwrap();
    assert_eq!(cluster.location_of(NodeId(0), &objs[1]), Some(NodeId(1)));
    assert_eq!(shared.directory.borrow().shard_balance(), 1.0);
}

/// A restart wipes the node's shard members with the rest of its exports:
/// the balance stops counting them at once.
#[test]
fn a_restart_drops_the_nodes_shard_members() {
    let cluster = deployed_sharded(2, 4, 34, 0);
    let shared = cluster.shared();
    let keys = [key_for_shard(0, 4), key_for_shard(1, 4)];
    shard_members_on(&cluster, &[(keys[0], NodeId(0)), (keys[1], NodeId(1))]);
    assert_eq!(shared.directory.borrow().shard_balance(), 1.0);
    cluster.crash(NodeId(1));
    cluster.restart(NodeId(1));
    assert_eq!(shared.directory.borrow().shard_balance(), 2.0);
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
    // A replica read builds no instance and runs no bytecode: a thousand
    // reads leave the reader's heap as it was.
    let live = cluster.describe()[0].live_objects;
    let steps = shared.vms[0].stats().steps;
    for _ in 0..1000 {
        let read = cluster.call_method(NodeId(0), obj.clone(), "get_v", vec![]);
        assert_eq!(read.unwrap(), Value::Int(7));
    }
    assert_eq!(cluster.describe()[0].live_objects, live);
    assert_eq!(shared.vms[0].stats().steps, steps);
    assert_eq!(cluster.stats().replica_reads, 1001);
    assert_eq!(cluster.monitor_violations(), vec![]);
}

/// A `ReplicaSync` naming a class the backup does not know is answered
/// with a fault and stores nothing, instead of surfacing as `unknown
/// class` at a promotion after the primary has crashed.
#[test]
fn a_replica_sync_of_an_unknown_class_is_refused() {
    let (cluster, _) = deployed(StaticPolicy::new().replicate("C", 1));
    let shared = cluster.shared();
    let sync = Request::ReplicaSync {
        object: 77,
        version: 3,
        state: WireValue::ObjectState {
            class: "NoSuchClass".into(),
            fields: vec![WireValue::Int(1)],
        },
    };
    let codec = RmiCodec::new();
    let frame = framed(shared, LINK, &codec, 9_000, &sync);
    let (_, reply, _) = answer(shared, LINK, &codec, &frame).unwrap();
    assert_eq!(reply, Reply::Fault("unknown class NoSuchClass".into()));
    assert!(shared.nodes.borrow()[1].replica_store.is_empty());
    assert_eq!(cluster.stats().replica_syncs, 1, "served, and refused");
}

/// A current backup copy shorter than its class's layout — what a hostile
/// `ReplicaSync` can store — names no slot the getter reads: the read
/// falls through to the owner, which answers it.
#[test]
fn a_backup_shorter_than_its_layout_defers_to_the_owner() {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .replicate("C", 1)
        .replica_reads("C", true);
    let (cluster, _) = deployed(policy);
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let add = cluster.call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(5)]);
    assert_eq!(add.unwrap(), Value::Int(5));
    let shared = cluster.shared();
    let (owner, oid) = read_proxy_state(&shared.vms[0], obj.as_ref_handle().unwrap()).unwrap();
    let h = lookup_export(shared, NodeId(owner), oid).unwrap();
    let class = shared.vms[1].class_of(h).unwrap();
    let sync = Request::ReplicaSync {
        object: oid,
        version: version_of(shared, owner, oid).unwrap(),
        state: WireValue::ObjectState {
            class: String::from(&*shared.universe.class(class).name),
            fields: vec![],
        },
    };
    let (codec, link) = (RmiCodec::new(), (NodeId(1), NodeId(0)));
    let frame = framed(shared, link, &codec, 9_001, &sync);
    let (_, reply, _) = answer(shared, link, &codec, &frame).unwrap();
    assert_eq!(reply, Reply::Value(WireValue::Null));
    assert_eq!(backup_of(&cluster, 0, (owner, oid)), vec![]);
    let before = cluster.stats();
    let read = cluster.call_method(NodeId(0), obj.clone(), "get_v", vec![]);
    assert_eq!(read.unwrap(), Value::Int(5));
    let stats = cluster.stats();
    assert_eq!(stats.replica_reads, before.replica_reads, "{stats}");
    assert_eq!(stats.rpc_calls, before.rpc_calls + 1, "{stats}");
}

/// The **E15** acceptance bars: one Zipf-skewed, read-mostly stream (16
/// keys, 512 ops, one write per 32) replayed under single-owner placement
/// and under `shard by` + `reads from replicas` returns the same values;
/// the sharded run needs >= 30 % fewer wire messages and a strictly lower
/// simulated p95, with silent monitors and an identical same-seed replay.
#[test]
fn sharding_with_replica_reads_beats_single_owner_under_zipf_skew() {
    #[derive(Debug, PartialEq)]
    struct Outcome {
        messages: u64,
        p95_ns: u64,
        clock_ns: u64,
        replica_reads: u64,
        finals: Vec<Value>,
    }
    let client = NodeId(0);
    let ops = rafda_corpus::workload::ZipfWorkload::new(42, 16, 1.1).sequence(512);
    let run = |policy: StaticPolicy| -> Outcome {
        let cluster = deployed_keyed(4, 42, policy);
        cluster.enable_monitors();
        let call = |obj: &Value, method: &str, args: Vec<Value>| {
            cluster
                .call_method(client, obj.clone(), method, args)
                .unwrap()
        };
        let objs: Vec<Value> = (0..16)
            .map(|key| {
                let obj = cluster
                    .new_instance(client, "K", 0, vec![Value::Int(key)])
                    .unwrap();
                cluster.pin(client, &obj);
                // Warm-up write: every backup is seeded before measurement.
                call(&obj, "bump", vec![Value::Int(0)]);
                obj
            })
            .collect();
        let net = cluster.network();
        let (m0, t0) = (net.stats().messages, net.now().as_ns());
        let mut latencies: Vec<u64> = Vec::with_capacity(ops.len());
        for (i, &key) in ops.iter().enumerate() {
            let start = net.now().as_ns();
            if i % 32 == 31 {
                call(&objs[key], "bump", vec![Value::Int(1)]);
            } else {
                call(&objs[key], "get_v", vec![]);
            }
            latencies.push(net.now().as_ns() - start);
        }
        let (messages, clock_ns) = (net.stats().messages - m0, net.now().as_ns() - t0);
        let finals = objs.iter().map(|o| call(o, "get_v", vec![])).collect();
        assert_eq!(cluster.check_invariants(), vec![]);
        latencies.sort_unstable();
        Outcome {
            messages,
            p95_ns: latencies[latencies.len() * 95 / 100],
            clock_ns,
            replica_reads: cluster.stats().replica_reads,
            finals,
        }
    };
    let sharded_policy = || {
        StaticPolicy::new()
            .shard("K", "get_k", 8)
            .replicate("K", 1)
            .replica_reads("K", true)
    };
    let single = run(StaticPolicy::new()
        .place("K", Placement::Node(NodeId(1)))
        .replicate("K", 1));
    let sharded = run(sharded_policy());
    assert_eq!(single.finals, sharded.finals, "placement changed a value");
    let (s, o) = (sharded.messages, single.messages);
    assert!(s * 10 <= o * 7, "messages must drop >= 30%: {s} vs {o}");
    let (s, o) = (sharded.p95_ns, single.p95_ns);
    assert!(s < o, "sharded p95 must beat single-owner: {s} vs {o} ns");
    assert!(sharded.replica_reads > 0, "getters must hit the backup");
    assert_eq!(sharded, run(sharded_policy()), "same seed, same run");
}

// --- policy is read once ---

/// Counts the questions a policy is asked: `[instance_node, rule]`.
struct Counting {
    inner: StaticPolicy,
    asked: Rc<Cell<[u32; 2]>>,
}

impl Counting {
    fn count<T>(&self, which: usize, answer: T) -> T {
        let mut asked = self.asked.get();
        asked[which] += 1;
        self.asked.set(asked);
        answer
    }
}

impl DistributionPolicy for Counting {
    fn instance_node(&self, class: &str, creating_node: NodeId) -> NodeId {
        self.count(0, self.inner.instance_node(class, creating_node))
    }
    fn rule(&self, class: &str) -> ClassRule {
        self.count(1, self.inner.rule(class))
    }
}

/// Deployment asks the policy for each class's rule once; after that the
/// only question left is where `make()` puts a new instance. Every other
/// mechanism — calls, cached and replica reads, batched writes, shard
/// placement, migration, pull, failover, the quiescent check — runs off the
/// rows.
#[test]
fn after_deployment_the_policy_is_asked_only_where_make_places_an_instance() {
    const COORD: NodeId = NodeId(3);
    let asked = Rc::new(Cell::new([0; 2]));
    let inner = StaticPolicy::new()
        .shard("K", "get_k", 4)
        .replicate("K", 1)
        .replica_reads("K", true)
        .cache("K", true)
        .batch("K", true);
    let policy = Counting {
        inner,
        asked: asked.clone(),
    };
    let cluster = deployed_keyed(4, 77, policy);
    assert_eq!(asked.get(), [0, 1], "one rule, one class, asked once");
    cluster.enable_monitors();
    let call = |obj: &Value, method: &str, args: Vec<Value>| {
        cluster
            .call_method(COORD, obj.clone(), method, args)
            .unwrap()
    };
    let objs: Vec<Value> = (0..8)
        .map(|key| {
            let obj = cluster
                .new_instance(COORD, "K", 0, vec![Value::Int(key)])
                .unwrap();
            cluster.pin(COORD, &obj);
            obj
        })
        .collect();
    for round in 0..40 {
        for obj in &objs {
            call(obj, "bump", vec![Value::Int(1)]);
            call(obj, "get_v", vec![]);
            call(obj, "get_v", vec![]);
            call(obj, "set_v", vec![Value::Int(round)]);
        }
    }
    let remote = |obj: &&Value| cluster.location_of(COORD, obj) != Some(COORD);
    let moved = objs.iter().find(remote).expect("some shard is remote");
    let (owner, handle) = cluster.home_of(COORD, moved).unwrap();
    let to = NodeId((owner.0 + 1) % 3);
    cluster.migrate(owner, handle, to).unwrap();
    let pulled = objs.iter().rfind(remote).expect("some shard is remote");
    let proxy = pulled.as_ref_handle().unwrap();
    cluster.pull_local(COORD, proxy).unwrap();
    cluster.crash(to);
    let before = cluster.stats().failovers;
    for obj in &objs {
        assert_eq!(call(obj, "bump", vec![Value::Int(0)]), Value::Int(39));
    }
    assert!(
        cluster.stats().failovers > before,
        "the moved object re-homed"
    );
    cluster.restart(to);
    assert_eq!(cluster.check_invariants(), vec![]);
    let stats = cluster.stats();
    assert!(stats.cache_hits + stats.replica_reads > 0, "{stats}");
    assert!(
        stats.batched_ops > 0 && stats.shard_placements == 8,
        "{stats}"
    );
    assert_eq!(
        asked.get(),
        [8, 1],
        "one instance_node per make(), nothing else"
    );
}

/// Each row holds exactly the policy's rule for its class, plus the codec
/// and proxy classes the rule's protocol implies; the introspection
/// table is the rows, rendered.
#[test]
fn every_row_equals_the_policys_answers() {
    let policy = StaticPolicy::new()
        .default_protocol("SOAP")
        .default_statics(NodeId(2))
        .default_placement(Placement::Node(NodeId(1)))
        .default_cache(true)
        .default_replicate(1)
        .default_batch(true)
        .place("CA", Placement::Creator)
        .statics("CA", NodeId(1))
        .with_protocol("CA", "RMI")
        .cache("CA", false)
        .replicate("CA", 2)
        .batch("CA", false)
        .shard("CA", "get_v", 4)
        .replica_reads("CA", true);
    let cluster = deployed_counters_speaking(&["RMI", "SOAP"], 9, policy.clone());
    let shared = cluster.shared();
    let names: Vec<&str> = shared.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["CA", "CB"], "one row per family, sorted by name");
    for (id, row) in shared.rows.iter().enumerate() {
        let name = row.name.as_str();
        assert_eq!(row.id, id);
        assert_eq!(shared.universe.by_name(name), Some(row.base));
        assert_eq!(row.rule, policy.rule(name));
        let codec = row.codec.as_ref().expect("a generated protocol");
        assert_eq!(codec.name(), row.rule.protocol);
        let proxy = shared
            .universe
            .by_name(&format!("{name}_O_Proxy_{}", row.rule.protocol));
        assert_eq!(row.proxy_class(Side::Obj).ok(), proxy);
        let info = gen_info(shared, proxy.unwrap()).expect("the row's proxy class");
        assert!(info.is_proxy && info.row == id && info.side == Side::Obj);
        assert_eq!(class_row(shared, row.base).map(|r| r.id), Some(id));
    }
    let table = "\
CA: protocol=RMI statics=node1 cacheable=false replicas=2 batched=false shard=get_v mod 4 replica_reads=true
CB: protocol=SOAP statics=node2 cacheable=true replicas=1 batched=true shard=- replica_reads=false
";
    assert_eq!(crate::stats::policy_table(shared), table);
}

/// Protocol is per class, the outcall queue per `(caller, owner)`: two
/// batched classes speaking different protocols share one queue to a common
/// owner, and it ships as one frame under the first-enqueued class's
/// protocol, operations in program order.
#[test]
fn one_queue_per_owner_ships_under_the_first_enqueued_classs_protocol() {
    let policy = StaticPolicy::new()
        .default_placement(Placement::Node(NodeId(1)))
        .default_batch(true)
        .with_protocol("CB", "SOAP");
    let cluster = deployed_counters_speaking(&["RMI", "SOAP"], 21, policy);
    let shared = cluster.shared();
    let a = cluster.new_instance(NodeId(0), "CA", 0, vec![]).unwrap();
    let b = cluster.new_instance(NodeId(0), "CB", 0, vec![]).unwrap();
    let set = |obj: &Value, v: i32| {
        let r = cluster.call_method(NodeId(0), obj.clone(), "set_v", vec![Value::Int(v)]);
        assert_eq!(r.unwrap(), Value::Null);
    };
    set(&a, 1);
    set(&b, 2);
    set(&a, 3);
    {
        let queues = shared.outqueues.borrow();
        assert_eq!(queues.len(), 1, "one owner, one queue");
        let pending = &queues[&(0, 1)];
        assert_eq!(
            shared.rows[pending.row].name, "CA",
            "labelled at first enqueue"
        );
        let args: Vec<&WireValue> = pending
            .ops
            .iter()
            .map(|op| match op {
                Request::Call { args, .. } => &args[0],
                other => panic!("only calls were deferred, found {other:?}"),
            })
            .collect();
        let program_order = [WireValue::Int(1), WireValue::Int(2), WireValue::Int(3)];
        assert_eq!(args, program_order.iter().collect::<Vec<_>>());
    }
    let before = cluster.stats().exchanges();
    cluster.flush().unwrap();
    let stats = cluster.stats();
    assert_eq!((stats.flushes, stats.exchanges() - before), (1, 1));
    let log = cluster.span_log();
    let batches: Vec<_> = log.spans().filter(|s| s.name == "rpc.batch").collect();
    assert_eq!(batches.len(), 1);
    assert_eq!(
        log.attr_str(&batches[0], "protocol"),
        Some("RMI"),
        "CA's, not CB's"
    );
    assert_eq!(
        log.attr(&batches[0], "n_ops").map(|n| n.to_string()),
        Some("3".into())
    );
    let get = |obj: &Value| cluster.call_method(NodeId(0), obj.clone(), "get_v", vec![]);
    assert_eq!(
        get(&a).unwrap(),
        Value::Int(3),
        "set_v(1) ran before set_v(3)"
    );
    assert_eq!(get(&b).unwrap(), Value::Int(2));
}

// --- adaptation/crash chaos (proptest) ---

use proptest::prelude::*;
use rafda_corpus::ops::{OpMix, SoakOp};

const CHAOS_POOL: usize = 6;

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
        ops_seed in any::<u64>(),
        len in 1usize..40,
        seed in 0u64..200,
    ) {
        // The shared adaptation-chaos mix (see [`rafda_corpus::ops`]):
        // calls, both adaptation loops and crash/restart over nodes 0–2.
        let ops = OpMix::adaptation(CHAOS_POOL, 4, 3).sample(ops_seed, len);
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
