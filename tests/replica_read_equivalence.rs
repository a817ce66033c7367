//! A replica read answers what the owner answers. Under `reads from
//! replicas` a parameter-less call that dispatches to a generated property
//! getter is served from the caller's own backup copy: one stored field,
//! unmarshalled on the caller. These tests run one schedule twice, with
//! replica reads on and off, and compare every value read — one field of
//! each kind, an inherited field, and a subclass's own method under a
//! generated getter's signature, which only the owner may run.
//!
//! Both sides ask the VM the same question, "is this call a property
//! read?": the owner when it decides whether a served call bumps the
//! version and re-ships the object, the proxy when it decides whether a
//! call may be cached. An inherited getter is a read on both sides.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, ClassUniverse, Field};
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

const CLIENT: NodeId = NodeId(0);
const OWNER: NodeId = NodeId(1);

/// A class with a parameter-less constructor and the given fields.
fn class_with(u: &mut ClassUniverse, name: &str, fields: &[(&str, Ty)]) -> ClassBuilder {
    let c = u.declare(name, ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    for (field, ty) in fields {
        cb.field(Field::new(*field, ty.clone()));
    }
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    cb
}

/// * `Item { int n; }` — travels by reference;
/// * `Pt { int x; int y; Pt(int x, int y); int sum() }` — special, so
///   never transformed: it travels by value;
/// * `R` — one field of every kind, each read through its generated getter;
/// * `Base { int v; }`, `Sub extends Base { int w; }` and `Odd extends Base
///   { int w; int get_v() { w = w + 1; return w; } }`.
fn app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let item = class_with(u, "Item", &[("n", Ty::Int)]).finish(u);

    let pt = u.declare("Pt", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, pt);
    cb.special();
    let x = cb.field(Field::new("x", Ty::Int));
    let y = cb.field(Field::new("y", Ty::Int));
    let mut mb = MethodBuilder::new(3);
    mb.load_this().load_local(1).put_field(pt, x);
    mb.load_this().load_local(2).put_field(pt, y).ret();
    cb.ctor(u, vec![Ty::Int, Ty::Int], Some(mb.finish()));
    let mut mb = MethodBuilder::new(1);
    mb.load_this().get_field(pt, x).const_int(10).mul();
    mb.load_this().get_field(pt, y).add().ret_value();
    cb.method(u, "sum", vec![], Ty::Int, Some(mb.finish()));
    cb.finish(u);

    let fields = [
        ("i", Ty::Int),
        ("l", Ty::Long),
        ("d", Ty::Double),
        ("b", Ty::Bool),
        ("s", Ty::Str),
        ("none", Ty::Object(item)),
        ("item", Ty::Object(item)),
        ("pt", Ty::Object(pt)),
    ];
    class_with(u, "R", &fields).finish(u);

    let base = class_with(u, "Base", &[("v", Ty::Int)]).finish(u);
    let mut cb = class_with(u, "Sub", &[("w", Ty::Int)]);
    cb.superclass(base);
    cb.finish(u);
    let mut cb = class_with(u, "Odd", &[("w", Ty::Int)]);
    cb.superclass(base);
    let odd = cb.id();
    let mut mb = MethodBuilder::new(1);
    mb.load_this();
    mb.load_this().get_field(odd, 0).const_int(1).add();
    mb.put_field(odd, 0);
    mb.load_this().get_field(odd, 0).ret_value();
    cb.method(u, "get_v", vec![], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    app
}

/// Two nodes; every class but `Pt` lives on the owner, and `R`, `Sub` and
/// `Odd` keep one backup — on the client, which reads from it iff
/// `replica_reads`.
fn deploy(replica_reads: bool) -> Cluster {
    deploy_with(replica_reads, false)
}

/// [`deploy`], with the client's property cache on for `R`, `Sub` and
/// `Odd` iff `cache`.
fn deploy_with(replica_reads: bool, cache: bool) -> Cluster {
    let mut policy = StaticPolicy::new();
    for class in ["Item", "R", "Sub", "Odd"] {
        policy = policy.place(class, Placement::Node(OWNER));
    }
    for class in ["R", "Sub", "Odd"] {
        policy = policy
            .replicate(class, 1)
            .replica_reads(class, replica_reads)
            .cache(class, cache);
    }
    app()
        .transform(&["RMI"])
        .expect("the app transforms")
        .deploy(2, 42, Box::new(policy))
}

fn new(cluster: &Cluster, class: &str, args: Vec<Value>) -> Value {
    let obj = cluster.new_instance(CLIENT, class, 0, args).unwrap();
    cluster.pin(CLIENT, &obj);
    obj
}

fn call(cluster: &Cluster, recv: &Value, method: &str, args: Vec<Value>) -> Value {
    let got = cluster.call_method(CLIENT, recv.clone(), method, args);
    got.unwrap_or_else(|e| panic!("{method}: {e}"))
}

/// What a read returned, comparable across clusters: a reference is
/// described by what it answers.
fn described(cluster: &Cluster, getter: &str, got: Value) -> String {
    match (getter, &got) {
        ("get_item", Value::Ref(_)) => format!("Item n={:?}", call(cluster, &got, "get_n", vec![])),
        ("get_pt", Value::Ref(_)) => format!("Pt sum={:?}", call(cluster, &got, "sum", vec![])),
        _ => format!("{got:?}"),
    }
}

/// Replica reads the client made, and owner exchanges it sent.
fn reads_and_calls(cluster: &Cluster) -> (u64, u64) {
    let stats = cluster.stats();
    (stats.replica_reads, stats.rpc_calls)
}

const GETTERS: [&str; 8] = [
    "get_i", "get_l", "get_d", "get_b", "get_s", "get_none", "get_item", "get_pt",
];

/// Set every field of an `R` through its proxy, then read each one back
/// twice: the values read, and the replica reads the reads made.
fn field_reads(replica_reads: bool) -> (Vec<String>, u64) {
    let cluster = deploy(replica_reads);
    let item = new(&cluster, "Item", vec![]);
    call(&cluster, &item, "set_n", vec![Value::Int(42)]);
    let pt = new(&cluster, "Pt", vec![Value::Int(3), Value::Int(4)]);
    let r = new(&cluster, "R", vec![]);
    let sets = [
        ("set_i", Value::Int(-7)),
        ("set_l", Value::Long(1 << 40)),
        ("set_d", Value::Double(2.5)),
        ("set_b", Value::Bool(true)),
        ("set_s", Value::str("h\u{e9}llo")),
        ("set_item", item),
        ("set_pt", pt),
    ];
    for (setter, value) in sets {
        call(&cluster, &r, setter, vec![value]);
    }
    let (before, _) = reads_and_calls(&cluster);
    let mut seen = Vec::new();
    for getter in GETTERS.iter().chain(&GETTERS) {
        let got = call(&cluster, &r, getter, vec![]);
        seen.push(format!("{getter}: {}", described(&cluster, getter, got)));
    }
    assert!(cluster.check_invariants().is_empty());
    (seen, reads_and_calls(&cluster).0 - before)
}

#[test]
fn every_field_kind_reads_the_same_from_the_replica_as_from_the_owner() {
    let (from_owner, owner_served) = field_reads(false);
    let (from_replica, replica_served) = field_reads(true);
    assert_eq!(from_replica, from_owner);
    assert_eq!(owner_served, 0);
    assert_eq!(
        replica_served,
        2 * GETTERS.len() as u64,
        "every read is local"
    );
    let expected = [
        "get_i: Int(-7)",
        "get_l: Long(1099511627776)",
        "get_d: Double(2.5)",
        "get_b: Bool(true)",
        "get_s: Str(\"h\u{e9}llo\")",
        "get_none: Null",
        "get_item: Item n=Int(42)",
        "get_pt: Pt sum=Int(34)",
    ];
    assert_eq!(from_owner[..GETTERS.len()], expected);
}

/// `get_v` on a `Sub` dispatches to `Base`'s generated getter: a replica
/// read of the inherited slot.
#[test]
fn an_inherited_field_is_served_from_the_replica() {
    let mut results = Vec::new();
    for replica_reads in [false, true] {
        let cluster = deploy(replica_reads);
        let sub = new(&cluster, "Sub", vec![]);
        call(&cluster, &sub, "set_v", vec![Value::Int(5)]);
        call(&cluster, &sub, "set_w", vec![Value::Int(9)]);
        let (reads, calls) = reads_and_calls(&cluster);
        let got = [
            call(&cluster, &sub, "get_v", vec![]),
            call(&cluster, &sub, "get_w", vec![]),
        ];
        let (after_reads, after_calls) = reads_and_calls(&cluster);
        let local = 2 * u64::from(replica_reads);
        let served = (after_reads - reads, after_calls - calls);
        assert_eq!(served, (local, 2 - local), "replica reads {replica_reads}");
        results.push(got);
    }
    assert_eq!(results[0], [Value::Int(5), Value::Int(9)]);
    assert_eq!(results[1], results[0]);
}

/// `Odd`'s own `get_v()` writes a field: only the owner may run it, so
/// every call is an owner exchange and each one sees the last one's write.
#[test]
fn an_override_of_a_generated_getter_runs_on_the_owner() {
    for replica_reads in [false, true] {
        let cluster = deploy(replica_reads);
        let odd = new(&cluster, "Odd", vec![]);
        call(&cluster, &odd, "set_v", vec![Value::Int(5)]);
        let (reads, calls) = reads_and_calls(&cluster);
        let got: Vec<Value> = (0..3)
            .map(|_| call(&cluster, &odd, "get_v", vec![]))
            .collect();
        assert_eq!(
            got,
            [1, 2, 3].map(Value::Int),
            "replica reads {replica_reads}"
        );
        assert_eq!(call(&cluster, &odd, "get_w", vec![]), Value::Int(3));
        let (after_reads, after_calls) = reads_and_calls(&cluster);
        assert_eq!(
            after_reads - reads,
            u64::from(replica_reads),
            "only get_w is local"
        );
        assert_eq!(after_calls - calls, 3 + u64::from(!replica_reads));
        assert!(cluster.check_invariants().is_empty());
    }
}

/// `get_v` on a `Sub` is `Base`'s generated getter, so the proxy may cache
/// it: of four reads, the first is an owner exchange and the other three
/// are cache hits — as for `Sub`'s own `get_w`.
#[test]
fn an_inherited_getter_hits_the_property_cache() {
    let cluster = deploy_with(false, true);
    let sub = new(&cluster, "Sub", vec![]);
    call(&cluster, &sub, "set_v", vec![Value::Int(5)]);
    call(&cluster, &sub, "set_w", vec![Value::Int(9)]);
    for (getter, want) in [("get_v", 5), ("get_w", 9)] {
        let before = cluster.stats();
        for _ in 0..4 {
            assert_eq!(call(&cluster, &sub, getter, vec![]), Value::Int(want));
        }
        let after = cluster.stats();
        let served = (
            after.cache_hits - before.cache_hits,
            after.rpc_calls - before.rpc_calls,
        );
        assert_eq!(served, (3, 1), "{getter}: cache hits and exchanges");
    }
    assert!(cluster.check_invariants().is_empty());
}

/// An owner-served `get_v` on a `Sub` is a read: it neither bumps the
/// version nor ships a replica sync. `Odd`'s own `get_v()` writes, so each
/// call ships one.
#[test]
fn an_owner_served_inherited_getter_ships_no_replica_sync() {
    let cluster = deploy(false);
    let sub = new(&cluster, "Sub", vec![]);
    let odd = new(&cluster, "Odd", vec![]);
    call(&cluster, &sub, "set_v", vec![Value::Int(5)]);
    let syncs = cluster.stats().replica_syncs;
    for _ in 0..3 {
        assert_eq!(call(&cluster, &sub, "get_v", vec![]), Value::Int(5));
    }
    assert_eq!(cluster.stats().replica_syncs - syncs, 0, "Sub.get_v reads");
    for want in 1..=3 {
        let syncs = cluster.stats().replica_syncs;
        assert_eq!(call(&cluster, &odd, "get_v", vec![]), Value::Int(want));
        assert_eq!(cluster.stats().replica_syncs - syncs, 1, "Odd.get_v writes");
    }
    assert!(cluster.check_invariants().is_empty());
}

/// With the property cache on, `Odd`'s own `get_v()` is still no read: it
/// is never cached, and every call runs on the owner and sees the last
/// call's write.
#[test]
fn an_override_of_a_generated_getter_is_never_cached() {
    let cluster = deploy_with(false, true);
    let odd = new(&cluster, "Odd", vec![]);
    let before = cluster.stats();
    let got: Vec<Value> = (0..4)
        .map(|_| call(&cluster, &odd, "get_v", vec![]))
        .collect();
    assert_eq!(got, [1, 2, 3, 4].map(Value::Int));
    let after = cluster.stats();
    assert_eq!(after.cache_hits - before.cache_hits, 0);
    assert_eq!(after.rpc_calls - before.rpc_calls, 4);
    assert!(cluster.check_invariants().is_empty());
}
