//! Tests of the persistence extension (paper Section 4: the transformed,
//! componentised program "can be extended … to provide requirements such as
//! distribution or persistence"): graph capture/restore including cycles,
//! sharing, arrays and distribution boundaries.

use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassKind, ClassUniverse, Field, Ty};
use rafda_net::NodeId;
use rafda_policy::StaticPolicy;
use rafda_runtime::Cluster;
use rafda_transform::Transformer;
use rafda_vm::Value;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// class Node { int v; Node next; … } — a linked structure that can be
/// made cyclic.
fn build() -> Cluster {
    let mut u = ClassUniverse::new();
    let node = u.declare("LinkNode", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, node);
        let v = cb.field(Field::new("v", Ty::Int));
        let next = cb.field(Field::new("next", Ty::Object(node)));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(node, v).ret();
        cb.ctor(&mut u, vec![Ty::Int], Some(mb.finish()));
        // int sum(int budget) { if (budget <= 0 || next == null) return v;
        //                       return v + next.sum(budget - 1); }
        let sum_sig = u.sig("sum", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        let base = mb.label();
        mb.load_local(1)
            .const_int(0)
            .cmp(rafda_classmodel::CmpOp::Le);
        mb.jump_if(base);
        mb.load_this()
            .get_field(node, next)
            .const_null()
            .cmp(rafda_classmodel::CmpOp::Eq);
        mb.jump_if(base);
        mb.load_this().get_field(node, v);
        mb.load_this().get_field(node, next);
        mb.load_local(1).const_int(1).sub();
        mb.invoke(sum_sig, 1);
        mb.add().ret_value();
        mb.bind(base);
        mb.load_this().get_field(node, v).ret_value();
        cb.method(&mut u, "sum", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    Cluster::new(u, outcome.plan, 2, 3, Box::new(StaticPolicy::new()))
}

fn set_next(cluster: &Cluster, node: NodeId, from: &Value, to: Value) {
    cluster
        .call_method(node, from.clone(), "set_next", vec![to])
        .unwrap();
}

#[test]
fn snapshot_restores_chain_with_state() {
    let cluster = build();
    let a = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(1)])
        .unwrap();
    let b = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(2)])
        .unwrap();
    let c = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(4)])
        .unwrap();
    set_next(&cluster, N0, &a, b.clone());
    set_next(&cluster, N0, &b, c);
    assert_eq!(
        cluster
            .call_method(N0, a.clone(), "sum", vec![Value::Int(10)])
            .unwrap(),
        Value::Int(7)
    );

    let snap = cluster.snapshot(N0, a.as_ref_handle().unwrap()).unwrap();
    assert_eq!(snap.len(), 3);

    // Mutate the original; the restored copy is unaffected (it is a copy).
    cluster
        .call_method(N0, b, "set_v", vec![Value::Int(100)])
        .unwrap();
    let restored = cluster.restore(N0, &snap).unwrap();
    assert_eq!(
        cluster
            .call_method(N0, restored, "sum", vec![Value::Int(10)])
            .unwrap(),
        Value::Int(7)
    );
    assert_eq!(
        cluster
            .call_method(N0, a, "sum", vec![Value::Int(10)])
            .unwrap(),
        Value::Int(105)
    );
}

#[test]
fn cycles_survive_snapshot_restore() {
    let cluster = build();
    let a = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(1)])
        .unwrap();
    let b = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(2)])
        .unwrap();
    set_next(&cluster, N0, &a, b.clone());
    set_next(&cluster, N0, &b, a.clone()); // cycle a -> b -> a
                                           // Budget-limited sum walks the cycle: 1+2+1+2+1 = 7 with budget 4.
    assert_eq!(
        cluster
            .call_method(N0, a.clone(), "sum", vec![Value::Int(4)])
            .unwrap(),
        Value::Int(7)
    );
    let snap = cluster.snapshot(N0, a.as_ref_handle().unwrap()).unwrap();
    assert_eq!(snap.len(), 2, "cycle must not duplicate objects");
    let restored = cluster.restore(N1, &snap).unwrap();
    assert_eq!(
        cluster
            .call_method(N1, restored.clone(), "sum", vec![Value::Int(4)])
            .unwrap(),
        Value::Int(7)
    );
    // The restored cycle is closed: next.next == self shape (walk 2 gives
    // 1+2+1).
    assert_eq!(
        cluster
            .call_method(N1, restored, "sum", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(4)
    );
}

#[test]
fn shared_subobjects_stay_shared() {
    let cluster = build();
    // a -> c, b -> c; snapshot of an array [a, b] keeps c shared.
    let a = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(1)])
        .unwrap();
    let b = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(2)])
        .unwrap();
    let c = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(8)])
        .unwrap();
    set_next(&cluster, N0, &a, c.clone());
    set_next(&cluster, N0, &b, c);
    let vm = cluster.vm(N0);
    let arr = vm.with_heap(|h| {
        h.alloc_array(
            Ty::Object(cluster.universe().by_name("LinkNode_O_Int").unwrap()),
            vec![a, b],
        )
    });
    let snap = cluster.snapshot(N0, arr).unwrap();
    assert_eq!(snap.len(), 4, "array + a + b + shared c");
    let restored = cluster.restore(N0, &snap).unwrap();
    // Pull the two roots back out and check the shared tail: mutating c
    // through a's chain must be visible through b's chain.
    let rh = restored.as_ref_handle().unwrap();
    let (ra, rb) = vm.with_heap(|h| match h.get(rh) {
        Some(rafda_vm::HeapEntry::Array { data, .. }) => (data[0].clone(), data[1].clone()),
        _ => panic!("array"),
    });
    let rc = cluster.call_method(N0, ra, "get_next", vec![]).unwrap();
    cluster
        .call_method(N0, rc, "set_v", vec![Value::Int(50)])
        .unwrap();
    assert_eq!(
        cluster
            .call_method(N0, rb, "sum", vec![Value::Int(5)])
            .unwrap(),
        Value::Int(52)
    );
}

#[test]
fn distribution_boundaries_are_reconnected() {
    let cluster = build();
    // a (node 0) -> remote (node 1 after migration); snapshot a on node 0;
    // restore: the new graph points at the SAME remote object.
    let a = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(1)])
        .unwrap();
    let r = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(2)])
        .unwrap();
    set_next(&cluster, N0, &a, r.clone());
    cluster.migrate(N0, r.as_ref_handle().unwrap(), N1).unwrap();
    let snap = cluster.snapshot(N0, a.as_ref_handle().unwrap()).unwrap();
    assert_eq!(
        snap.len(),
        1,
        "remote tail is a boundary marker, not captured"
    );
    let restored = cluster.restore(N0, &snap).unwrap();
    // Mutate the remote object; BOTH graphs see it.
    cluster
        .call_method(N0, r, "set_v", vec![Value::Int(41)])
        .unwrap();
    assert_eq!(
        cluster
            .call_method(N0, restored, "sum", vec![Value::Int(5)])
            .unwrap(),
        Value::Int(42)
    );
}

#[test]
fn snapshotting_a_proxy_root_is_rejected() {
    let cluster = build();
    let a = cluster
        .new_instance(N0, "LinkNode", 0, vec![Value::Int(1)])
        .unwrap();
    let h = a.as_ref_handle().unwrap();
    cluster.migrate(N0, h, N1).unwrap();
    let err = cluster.snapshot(N0, h).unwrap_err();
    assert!(err.to_string().contains("home node"), "{err}");
}
