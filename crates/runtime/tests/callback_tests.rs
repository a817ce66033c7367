//! Remote callback (re-entrant RPC) tests: a remote call that calls *back*
//! into the originating node mid-execution — the pattern that forces the
//! runtime's synchronous RPC to be re-entrant, and the reason proxies can
//! appear on both sides of one call chain.

use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassKind, ClassUniverse, CmpOp, Field, Ty};
use rafda_net::NodeId;
use rafda_policy::{Placement, StaticPolicy};
use rafda_runtime::Cluster;
use rafda_transform::Transformer;
use rafda_vm::Value;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// `Server.ping(d)` calls `client.pong(d)` back; `Client.pong(d)` returns
/// `d * 2`. A `Server.bounce(n)` ping-pongs n times through mutual
/// recursion between the two objects.
fn build() -> Cluster {
    let policy = StaticPolicy::new()
        .place("Server", Placement::Node(N1))
        .place("Client", Placement::Creator);
    build_on(2, policy)
}

/// The same program deployed over `nodes` nodes under `policy`.
fn build_on(nodes: u32, policy: StaticPolicy) -> Cluster {
    let mut u = ClassUniverse::new();
    let client = u.declare("Client", ClassKind::Class);
    let server = u.declare("Server", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, client);
        let peer = cb.field(Field::new("peer", Ty::Object(server)));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_local(1).const_int(2).mul().ret_value();
        cb.method(&mut u, "pong", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        // int volley(int n) { if (n <= 0) return 0; return peer.bounce(n); }
        let bounce_sig = u.sig("bounce", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        let base = mb.label();
        mb.load_local(1).const_int(0).cmp(CmpOp::Le);
        mb.jump_if(base);
        mb.load_this().get_field(client, peer);
        mb.load_local(1);
        mb.invoke(bounce_sig, 1);
        mb.ret_value();
        mb.bind(base);
        mb.const_int(0).ret_value();
        cb.method(&mut u, "volley", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    {
        let mut cb = ClassBuilder::new(&u, server);
        let back = cb.field(Field::new("back", Ty::Object(client)));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // int ping(int d) { return back.pong(d) + 1; }
        let pong_sig = u.sig("pong", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(server, back);
        mb.load_local(1);
        mb.invoke(pong_sig, 1);
        mb.const_int(1).add();
        mb.ret_value();
        cb.method(&mut u, "ping", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        // int bounce(int n) { return back.volley(n - 1) + 1; }  — mutual
        // recursion hopping between nodes every level.
        let volley_sig = u.sig("volley", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(server, back);
        mb.load_local(1).const_int(1).sub();
        mb.invoke(volley_sig, 1);
        mb.const_int(1).add();
        mb.ret_value();
        cb.method(&mut u, "bounce", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    Cluster::new(u, outcome.plan, nodes, 13, Box::new(policy))
}

#[test]
fn remote_call_calls_back_into_caller_node() {
    let cluster = build();
    // Client lives on node 0, server on node 1, each referencing the other.
    let client = cluster.new_instance(N0, "Client", 0, vec![]).unwrap();
    let server = cluster.new_instance(N0, "Server", 0, vec![]).unwrap();
    assert_eq!(cluster.location_of(N0, &client), Some(N0));
    assert_eq!(cluster.location_of(N0, &server), Some(N1));
    cluster
        .call_method(N0, server.clone(), "set_back", vec![client.clone()])
        .unwrap();
    // ping(20): node0 -> node1 (ping) -> node0 (pong) -> back. 20*2+1.
    let r = cluster
        .call_method(N0, server, "ping", vec![Value::Int(20)])
        .unwrap();
    assert_eq!(r, Value::Int(41));
    // Node 1 served `set_back` and `ping`; node 0 served the callback.
    let (server, client) = (cluster.node_stats(N1), cluster.node_stats(N0));
    assert!(server.rpc_calls >= 2, "{server}");
    assert!(client.rpc_calls >= 1, "callback leg: {client}");
}

#[test]
fn deep_mutual_recursion_across_nodes() {
    let cluster = build();
    let client = cluster.new_instance(N0, "Client", 0, vec![]).unwrap();
    let server = cluster.new_instance(N0, "Server", 0, vec![]).unwrap();
    cluster
        .call_method(N0, server.clone(), "set_back", vec![client.clone()])
        .unwrap();
    cluster
        .call_method(N0, client.clone(), "set_peer", vec![server])
        .unwrap();
    // volley(8): 8 cross-node hops of mutual recursion, each frame
    // suspended mid-RPC on its own node.
    let r = cluster
        .call_method(N0, client, "volley", vec![Value::Int(8)])
        .unwrap();
    assert_eq!(r, Value::Int(8));
    let messages = cluster.network().stats().messages;
    assert!(messages >= 16, "8 round trips: {messages}");
}

#[test]
fn callback_depth_is_bounded_by_vm_limit() {
    // Unbounded mutual recursion across nodes must hit the depth limit, not
    // blow the host stack: volley(-1) never reaches the base case… but n
    // decreases, so use a huge n with a small VM depth limit instead.
    let cluster = build();
    let client = cluster.new_instance(N0, "Client", 0, vec![]).unwrap();
    let server = cluster.new_instance(N0, "Server", 0, vec![]).unwrap();
    cluster
        .call_method(N0, server.clone(), "set_back", vec![client.clone()])
        .unwrap();
    cluster
        .call_method(N0, client.clone(), "set_peer", vec![server])
        .unwrap();
    cluster.vm(N0).set_max_depth(40);
    cluster.vm(N1).set_max_depth(40);
    let err = cluster
        .call_method(N0, client, "volley", vec![Value::Int(1_000_000)])
        .unwrap_err();
    // The overflow happens on one of the nodes; by the time it crosses the
    // wire it is reported as a fault (native error), locally as a trap.
    let msg = err.to_string();
    assert!(
        msg.contains("depth") || msg.contains("stack") || msg.contains("call depth"),
        "{msg}"
    );
}

/// A time-series sample that lands while a location really lags. Serving
/// the non-getter `ping` bumps the server's version at once, but its
/// shipment to the two backups comes only after the method ran — and the
/// method calls back to node 0 first. That nested exchange opens with a
/// sample, taken while the version is one past the last shipment, so the
/// exported `replica_lag` series holds a non-zero point: the gauge's
/// non-zero path, end to end.
#[test]
fn a_sample_inside_a_served_mutator_records_nonzero_replica_lag() {
    let policy = StaticPolicy::new()
        .place("Server", Placement::Node(N1))
        .place("Client", Placement::Creator)
        .replicate("Server", 2);
    let cluster = build_on(3, policy);
    let client = cluster.new_instance(N0, "Client", 0, vec![]).unwrap();
    let server = cluster.new_instance(N0, "Server", 0, vec![]).unwrap();
    cluster
        .call_method(N0, server.clone(), "set_back", vec![client])
        .unwrap();
    let r = cluster
        .call_method(N0, server, "ping", vec![Value::Int(20)])
        .unwrap();
    assert_eq!(r, Value::Int(41));
    assert!(cluster.stats().replica_syncs > 0, "the server ships state");
    let export = cluster.metrics_json();
    let line = export
        .lines()
        .find(|l| l.starts_with("{\"series\":\"replica_lag\""))
        .expect("the replica_lag series is exported");
    // Points are `[stamp,value]`; the gauge counts locations, so 0 or 1 here.
    assert!(
        line.contains(",1]"),
        "a location lagged at a sample: {line}"
    );
    assert!(
        line.ends_with(",0]]}"),
        "and was settled afterwards: {line}"
    );
}
