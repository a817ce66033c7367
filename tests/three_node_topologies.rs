//! Multi-node reference topology tests: proxies must never chain — a
//! reference forwarded between nodes always points at the object's true
//! home (RMI-style stub semantics), and calls route directly.

use rafda::classmodel::sample;
use rafda::{Application, NodeId, Placement, StaticPolicy, Value};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

fn cluster_with_y_on_n1_x_on_n2() -> rafda::Cluster {
    let mut app = Application::new();
    sample::build_figure2(app.universe_mut());
    let policy = StaticPolicy::new()
        .place("Y", Placement::Node(N1))
        .place("X", Placement::Node(N2))
        .default_statics(N0);
    app.transform(&["RMI"])
        .unwrap()
        .deploy(3, 5, Box::new(policy))
}

#[test]
fn forwarded_references_point_at_the_true_home() {
    let cluster = cluster_with_y_on_n1_x_on_n2();
    // Node 0 creates Y (lands on node 1) and passes its proxy into X's
    // constructor (X lands on node 2). Node 2 must hold a proxy directly to
    // node 1 — not to node 0's proxy.
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    assert_eq!(cluster.location_of(N0, &y), Some(N1));
    let x = cluster.new_instance(N0, "X", 0, vec![y.clone()]).unwrap();
    assert_eq!(cluster.location_of(N0, &x), Some(N2));

    let before = [N0, N1, N2].map(|n| cluster.node_stats(n));
    // x.m(4) from node 0: one exchange 0->2 for m, one 2->1 for y.n — and
    // critically nothing asked of node 0 (no chaining through its proxy).
    let r = cluster
        .call_method(N0, x, "m", vec![Value::Long(4)])
        .unwrap();
    assert_eq!(r, Value::Int(7));
    let [n0, n1, n2] =
        [N0, N1, N2].map(|n| cluster.node_stats(n).delta_from(&before[n.0 as usize]));
    assert_eq!(n0.exchanges(), 1, "node 0 -> X home, once: {n0}");
    assert!(n2.rpc_calls >= 1, "X home served m: {n2}");
    assert!(n2.exchanges() >= 1, "X home -> Y home: {n2}");
    assert!(n1.rpc_calls >= 1, "Y home served n: {n1}");
    assert_eq!(
        n0.rpc_calls, 0,
        "no proxy chaining through the creator: {n0}"
    );
}

#[test]
fn self_reference_passed_around_unwraps_at_home() {
    // A Y reference that travels 0 -> 2 -> (as part of X's state) and is
    // then fetched by node 1 (Y's own home) must unwrap to the local
    // object, not to a proxy-to-self.
    let cluster = cluster_with_y_on_n1_x_on_n2();
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    // Read X.y from node 1 via the property accessor: the returned
    // reference should be node 1's *local* Y.
    let xh_on_n1 = {
        // Materialise a proxy for X on node 1 by passing it through a call:
        // simplest is to ask node 1 to invoke get_y on x's proxy.
        let y_back = cluster.call_method(N0, x, "get_y", vec![]).unwrap();
        // On node 0 this is a proxy to node 1.
        assert_eq!(cluster.location_of(N0, &y_back), Some(N1));
        y_back
    };
    let _ = xh_on_n1;
}

#[test]
fn migration_between_secondary_nodes_keeps_third_party_references_valid() {
    let cluster = cluster_with_y_on_n1_x_on_n2();
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    assert_eq!(
        cluster
            .call_method(N0, x.clone(), "m", vec![Value::Long(4)])
            .unwrap(),
        Value::Int(7)
    );
    // Move Y from node 1 to node 0 (a node that only held a proxy). X on
    // node 2 still names node 1, which answers for nothing any more: its
    // proxy is redirected once, through the recorded move, to node 0.
    let y_home_handle = {
        // Find Y's handle on node 1: it is the only export there.
        let vm1 = cluster.vm(N1);
        let mut found = None;
        vm1.with_heap(|heap| {
            for h in heap.handles() {
                if let Some(class) = heap.class_of(h) {
                    if cluster.universe().class(class).name == "Y_O_Local" {
                        found = Some(h);
                    }
                }
            }
        });
        found.expect("Y lives on node 1")
    };
    cluster.migrate(N1, y_home_handle, N0).unwrap();
    // Still correct through the redirected path.
    assert_eq!(
        cluster
            .call_method(N0, x, "m", vec![Value::Long(10)])
            .unwrap(),
        Value::Int(13)
    );
    assert_eq!(cluster.stats().migrations, 1);
}
