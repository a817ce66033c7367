//! Exact heap allocations of a replica read, and of the shipment a served
//! write makes. A getter served from the caller's own backup copy reads one
//! stored field and unmarshals it: no instance is built, no bytecode runs,
//! so an `int` read allocates nothing and a `String` read allocates its two
//! copies of the text (the stored wire string cloned out of the backup,
//! then the VM's shared string). The counting global allocator the host
//! profile also uses (`examples/counting_alloc.rs`) counts this thread's
//! allocation calls, so the counts are the same in every process and in
//! debug and release builds.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::runtime::Section;
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

#[path = "../examples/counting_alloc.rs"]
mod counting;

const READS: u64 = 1_000;
const WRITES: u64 = 1_000;

/// `class C { int v; String s; }` on node 1 with one backup on node 0,
/// which reads from it; monitors on, as in the benchmark.
fn deployed() -> (Cluster, Value) {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    cb.field(Field::new("v", Ty::Int));
    cb.field(Field::new("s", Ty::Str));
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .replicate("C", 1)
        .replica_reads("C", true);
    let cluster = app
        .transform(&["RMI"])
        .expect("C transforms")
        .deploy(2, 42, Box::new(policy));
    cluster.enable_monitors();
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    cluster.pin(NodeId(0), &obj);
    let set = |method, value| cluster.call_method(NodeId(0), obj.clone(), method, vec![value]);
    set("set_v", Value::Int(5)).unwrap();
    set("set_s", Value::str("hello")).unwrap();
    (cluster, obj)
}

/// The allocations `READS` replica reads of `getter` make after a warm-up,
/// checking each value and that every read was served from the backup.
fn allocations_of(getter: &str, want: Value) -> u64 {
    let (cluster, obj) = deployed();
    let read = |args| cluster.call_method(NodeId(0), obj.clone(), getter, args);
    for _ in 0..10 {
        assert_eq!(read(Vec::new()), Ok(want.clone()));
    }
    let served = cluster.stats().replica_reads;
    let args: Vec<Vec<Value>> = (0..READS).map(|_| Vec::new()).collect();
    let mut got = Vec::with_capacity(READS as usize);
    let before = counting::allocations();
    for args in args {
        got.push(read(args));
    }
    let allocations = counting::allocations() - before;
    assert!(got.iter().all(|v| *v == Ok(want.clone())), "{getter}");
    assert_eq!(cluster.stats().replica_reads - served, READS, "all local");
    allocations
}

#[test]
fn an_int_replica_read_allocates_nothing() {
    assert_eq!(allocations_of("get_v", Value::Int(5)), 0);
}

#[test]
fn a_string_replica_read_allocates_its_two_copies() {
    assert_eq!(allocations_of("get_s", Value::str("hello")), 2 * READS);
}

/// `class S { int v; int put(int d) { v += d; return v; } }` on node 1 of
/// three, with two backups (nodes 0 and 2); node 0 calls it. Monitors on.
fn deployed_store() -> (Cluster, Value) {
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, s);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(s, v);
    mb.load_local(1).add();
    mb.put_field(s, v);
    mb.load_this().get_field(s, v).ret_value();
    cb.method(u, "put", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new()
        .place("S", Placement::Node(NodeId(1)))
        .replicate("S", 2);
    let cluster = app
        .transform(&["RMI"])
        .expect("S transforms")
        .deploy(3, 42, Box::new(policy));
    cluster.enable_monitors();
    let obj = cluster.new_instance(NodeId(0), "S", 0, vec![]).unwrap();
    cluster.pin(NodeId(0), &obj);
    (cluster, obj)
}

/// The allocator's slot for an allocation made now: the open runtime
/// section's index, or the last slot outside every section.
fn open_slot() -> usize {
    Section::open().map_or(counting::SLOTS - 1, |s| s as usize)
}

/// Allocations this thread has charged to the replica sweep's sections.
fn replica_allocations() -> u64 {
    [Section::SweepDrain, Section::SweepProbe, Section::SweepShip]
        .iter()
        .map(|&s| counting::allocations_in(s as usize))
        .sum()
}

/// `WRITES` served `put(1)` calls after a warm-up, each one owner exchange
/// and one shipment to each of two backups. A shipment marshals the state
/// once, into the one request both backups' exchanges borrow, and keeps no
/// copy of a flat state: the replica sections allocate the fields read off
/// the heap, their wire form, the class name and the target list, 4 per
/// put. (They allocated 7 when the shipment record kept a copy of the
/// state and each backup but the last was sent a clone of it.) Counted in
/// those sections alone: the whole put also pays for the exchanges, and
/// debug builds' gauge checks allocate per exchange.
#[test]
fn a_served_put_ships_one_copy_of_the_state() {
    counting::charge_slots_by(open_slot);
    let (cluster, obj) = deployed_store();
    cluster.enable_host_profile();
    let put = |d| cluster.call_method(NodeId(0), obj.clone(), "put", vec![Value::Int(d)]);
    for i in 1..=10 {
        assert_eq!(put(1), Ok(Value::Int(i)));
    }
    let synced = cluster.stats().replica_syncs;
    let mut got = Vec::with_capacity(WRITES as usize);
    let before = replica_allocations();
    for _ in 0..WRITES {
        got.push(put(1));
    }
    let allocations = replica_allocations() - before;
    assert_eq!(got.last(), Some(&Ok(Value::Int(10 + WRITES as i32))));
    assert_eq!(cluster.stats().replica_syncs - synced, 2 * WRITES);
    assert_eq!(allocations, 4 * WRITES);
}
