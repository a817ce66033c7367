//! Exact heap allocations of a replica read. A getter served from the
//! caller's own backup copy reads one stored field and unmarshals it: no
//! instance is built, no bytecode runs, so an `int` read allocates nothing
//! and a `String` read allocates its two copies of the text (the stored
//! wire string cloned out of the backup, then the VM's shared string). The
//! counting global allocator the host profile also uses
//! (`examples/counting_alloc.rs`) counts this thread's allocation calls, so
//! the counts are the same in every process and in debug and release
//! builds.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

#[path = "../examples/counting_alloc.rs"]
mod counting;

const READS: u64 = 1_000;

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
