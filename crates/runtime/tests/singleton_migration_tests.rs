//! Migration of *static-member* singletons — the case the paper singles out
//! as harder than persistence: "In the RAFDA project the static component
//! of a class must be handled in a more complex fashion as instances of a
//! class may be spread across multiple address spaces" (Section 3).
//! Migrating the `A_C_Local` singleton moves the class's static state while
//! every node keeps observing one coherent copy.

use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassKind, ClassUniverse, Field, Ty};
use rafda_net::NodeId;
use rafda_policy::StaticPolicy;
use rafda_runtime::Cluster;
use rafda_transform::Transformer;
use rafda_vm::Value;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

fn build() -> Cluster {
    let mut u = ClassUniverse::new();
    let reg = u.declare("Registry", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, reg);
        let total = cb.static_field(Field::new("total", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.get_static(reg, total);
        mb.load_local(0).add();
        mb.put_static(reg, total);
        mb.get_static(reg, total);
        mb.ret_value();
        cb.static_method(&mut u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        let mut mb = MethodBuilder::new(0);
        mb.const_int(1000).put_static(reg, total).ret();
        cb.clinit(&mut u, mb.finish());
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    let policy = StaticPolicy::new().default_statics(N0);
    Cluster::new(u, outcome.plan, 2, 17, Box::new(policy))
}

/// Find the Registry singleton's handle on `node`.
fn singleton_handle(cluster: &Cluster, node: NodeId) -> rafda_vm::Handle {
    let vm = cluster.vm(node);
    let mut found = None;
    vm.with_heap(|heap| {
        for h in heap.handles() {
            if let Some(class) = heap.class_of(h) {
                if &*cluster.universe().class(class).name == "Registry_C_Local" {
                    found = Some(h);
                }
            }
        }
    });
    found.expect("singleton lives here")
}

#[test]
fn static_singleton_migrates_and_stays_coherent() {
    let cluster = build();
    // Touch the singleton from both nodes (owner = node 0).
    assert_eq!(
        cluster
            .call_static(N0, "Registry", "add", vec![Value::Int(1)])
            .unwrap(),
        Value::Int(1001)
    );
    assert_eq!(
        cluster
            .call_static(N1, "Registry", "add", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(1003)
    );
    // Migrate the static state to node 1.
    let h = singleton_handle(&cluster, N0);
    let event = cluster.migrate(N0, h, N1).unwrap();
    assert_eq!(event.class, "Registry");
    // All nodes still see ONE coherent total; node 1 is now local for it.
    assert_eq!(
        cluster
            .call_static(N1, "Registry", "add", vec![Value::Int(4)])
            .unwrap(),
        Value::Int(1007)
    );
    assert_eq!(
        cluster
            .call_static(N0, "Registry", "add", vec![Value::Int(8)])
            .unwrap(),
        Value::Int(1015)
    );
    // Node 0's path is now remote (its cached singleton handle was
    // rewritten in place into a proxy): node 1 serves the call.
    let served = cluster.node_stats(N1).rpc_calls;
    cluster
        .call_static(N0, "Registry", "add", vec![Value::Int(1)])
        .unwrap();
    assert!(
        cluster.node_stats(N1).rpc_calls > served,
        "{}",
        cluster.node_stats(N1)
    );
}

#[test]
fn describe_reports_singleton_placement() {
    let cluster = build();
    cluster
        .call_static(N0, "Registry", "add", vec![Value::Int(1)])
        .unwrap();
    cluster
        .call_static(N1, "Registry", "add", vec![Value::Int(1)])
        .unwrap();
    let summary = cluster.describe();
    assert_eq!(summary.len(), 2);
    // Both nodes have resolved the Registry singleton (one locally, one as
    // a proxy).
    for s in &summary {
        assert!(s.singletons.iter().any(|c| c == "Registry"), "{s}");
    }
    // Node 0 (the owner) exports the singleton to node 1.
    assert!(summary[0].exports >= 1);
    assert!(summary[1].imports >= 1);
    assert!(summary[0].to_string().contains("Registry"));
}
