//! Garbage-collection tests: unreachable objects are reclaimed, while
//! everything the distributed runtime can still reach — exports, proxy
//! imports, singletons, statics, and whole object graphs hanging off them —
//! survives collection with identical behaviour.

use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{sample, ClassKind, ClassUniverse, Field, Ty};
use rafda_net::NodeId;
use rafda_policy::{Placement, StaticPolicy};
use rafda_runtime::Cluster;
use rafda_transform::Transformer;
use rafda_vm::{Value, Vm};
use std::sync::Arc;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

#[test]
fn vm_gc_frees_unreachable_keeps_reachable() {
    let mut u = ClassUniverse::new();
    let ids = sample::build_figure2(&mut u);
    rafda_classmodel::verify_universe(&u).unwrap();
    let vm = Vm::new(Arc::new(u));
    // Reachable: y2 (passed as root). Unreachable: ten loose Ys.
    for i in 0..10 {
        vm.new_instance(ids.y, 0, vec![Value::Int(i)]).unwrap();
    }
    let y2 = vm.new_instance(ids.y, 0, vec![Value::Int(42)]).unwrap();
    let root = y2.as_ref_handle().unwrap();
    let live_before = vm.stats().heap.live;
    let freed = vm.gc(&[root]);
    assert!(freed >= 10, "freed {freed}");
    assert!(vm.stats().heap.live < live_before);
    // The root still works.
    assert_eq!(
        vm.call_virtual_by_name(y2, "n", vec![Value::Long(0)])
            .unwrap(),
        Value::Int(42)
    );
}

#[test]
fn vm_gc_traces_through_object_graphs_and_statics() {
    let mut u = ClassUniverse::new();
    let ids = sample::build_figure2(&mut u);
    let vm = Vm::new(Arc::new(u));
    // X.p forces X.<clinit>, which stores a Z into X's statics.
    vm.call_static_by_name("X", "p", vec![Value::Int(1)])
        .unwrap();
    // x -> y chain rooted only at `x`.
    let y = vm.new_instance(ids.y, 0, vec![Value::Int(5)]).unwrap();
    let x = vm.new_instance(ids.x, 0, vec![y]).unwrap();
    let freed = vm.gc(&[x.as_ref_handle().unwrap()]);
    assert_eq!(freed, 0, "statics-referenced Z and x->y graph are all live");
    // Everything still functions.
    assert_eq!(
        vm.call_virtual_by_name(x, "m", vec![Value::Long(4)])
            .unwrap(),
        Value::Int(9)
    );
    assert_eq!(
        vm.call_static_by_name("X", "p", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(14)
    );
}

fn counter_cluster() -> Cluster {
    let mut u = ClassUniverse::new();
    let c = u.declare("K", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, c);
        let v = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(c, v).ret();
        cb.ctor(&mut u, vec![Ty::Int], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(&mut u, "get", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    Cluster::new(u, outcome.plan, 2, 5, Box::new(StaticPolicy::new()))
}

#[test]
fn cluster_gc_preserves_exports_and_proxies() {
    let cluster = counter_cluster();
    // One migrated object (export on node 1, proxy on node 0) plus litter.
    let k = cluster
        .new_instance(N0, "K", 0, vec![Value::Int(9)])
        .unwrap();
    let h = k.as_ref_handle().unwrap();
    cluster.migrate(N0, h, N1).unwrap();
    for i in 0..8 {
        cluster
            .new_instance(N0, "K", 0, vec![Value::Int(i)])
            .unwrap();
    }
    let freed = cluster.gc();
    assert!(freed[0] >= 8, "node 0 litter collected: {freed:?}");
    // The migrated object and its proxy both survived.
    assert_eq!(
        cluster.call_method(N0, k, "get", vec![]).unwrap(),
        Value::Int(9)
    );
}

#[test]
fn cluster_gc_keeps_remote_singletons_working() {
    let mut u = ClassUniverse::new();
    sample::build_figure2(&mut u);
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    let policy = StaticPolicy::new()
        .default_statics(N1)
        .place("Y", Placement::Node(N1));
    let cluster = Cluster::new(u, outcome.plan, 2, 5, Box::new(policy));
    assert_eq!(
        cluster
            .call_static(N0, "X", "p", vec![Value::Int(6)])
            .unwrap(),
        Value::Int(42)
    );
    cluster.gc();
    // Singletons (local on node 1, proxied on node 0) survive collection.
    assert_eq!(
        cluster
            .call_static(N0, "X", "p", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(14)
    );
    assert_eq!(
        cluster
            .call_static(N1, "X", "p", vec![Value::Int(3)])
            .unwrap(),
        Value::Int(21)
    );
}

#[test]
fn gc_then_chaos_keeps_working() {
    // Collection interleaved with boundary changes. Host-held references
    // must be pinned to survive collection.
    let cluster = counter_cluster();
    let ks: Vec<Value> = (0..4)
        .map(|i| {
            cluster
                .new_instance(N0, "K", 0, vec![Value::Int(i)])
                .unwrap()
        })
        .collect();
    for k in &ks {
        cluster.pin(N0, k);
    }
    for (i, k) in ks.iter().enumerate() {
        let h = k.as_ref_handle().unwrap();
        if i % 2 == 0 {
            cluster.migrate(N0, h, N1).unwrap();
        }
        cluster.gc();
        assert_eq!(
            cluster.call_method(N0, k.clone(), "get", vec![]).unwrap(),
            Value::Int(i as i32)
        );
        if i % 2 == 0 {
            cluster.pull_local(N0, h).unwrap();
            cluster.gc();
            assert_eq!(
                cluster.call_method(N0, k.clone(), "get", vec![]).unwrap(),
                Value::Int(i as i32)
            );
        }
    }
}

#[test]
fn unpinned_host_references_are_collected() {
    let cluster = counter_cluster();
    let k = cluster
        .new_instance(N0, "K", 0, vec![Value::Int(1)])
        .unwrap();
    let pinned = cluster
        .new_instance(N0, "K", 0, vec![Value::Int(2)])
        .unwrap();
    cluster.pin(N0, &pinned);
    let freed = cluster.gc();
    assert!(freed[0] >= 1, "{freed:?}");
    // The unpinned reference is now stale — detected, not misread.
    assert!(cluster.call_method(N0, k, "get", vec![]).is_err());
    assert_eq!(
        cluster
            .call_method(N0, pinned.clone(), "get", vec![])
            .unwrap(),
        Value::Int(2)
    );
    // After unpinning, the next collection reclaims it too.
    cluster.unpin(N0, &pinned);
    let freed = cluster.gc();
    assert!(freed[0] >= 1, "{freed:?}");
}
