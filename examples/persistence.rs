//! The paper's *other* promised extension (Section 4): "This transformed
//! version can be extended while retaining program semantics in order to
//! provide requirements such as distribution **or persistence**."
//!
//! Because the transformation flattens every object into interface-typed
//! slots, state capture needs no per-class code: this example snapshots a
//! live (cyclic!) object graph, keeps working, and later restores the
//! snapshot on a *different node* — with references across the distribution
//! boundary reconnected.
//!
//! Run with: `cargo run -p rafda --example persistence`

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::{Application, NodeId, StaticPolicy, Ty, Value};

fn build() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let acct = u.declare("Account", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, acct);
    let bal = cb.field(Field::new("balance", Ty::Int));
    let peer = cb.field(Field::new("peer", Ty::Object(acct)));
    let mut mb = MethodBuilder::new(2);
    mb.load_this().load_local(1).put_field(acct, bal).ret();
    cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    // void transfer(int amount) { balance -= amount; peer.receive(amount); }
    let receive_sig = u.sig("receive", vec![Ty::Int]);
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(acct, bal);
    mb.load_local(1).sub();
    mb.put_field(acct, bal);
    mb.load_this().get_field(acct, peer);
    mb.load_local(1);
    mb.invoke(receive_sig, 1);
    mb.pop();
    mb.ret();
    cb.method(u, "transfer", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(acct, bal);
    mb.load_local(1).add();
    mb.put_field(acct, bal);
    mb.ret();
    cb.method(u, "receive", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    cb.finish(u);
    app
}

fn main() {
    let cluster = build().transform(&["RMI"]).expect("transformable").deploy(
        2,
        9,
        Box::new(StaticPolicy::new()),
    );
    let n0 = NodeId(0);
    let n1 = NodeId(1);

    // Two accounts referencing each other (a cycle).
    let alice = cluster
        .new_instance(n0, "Account", 0, vec![Value::Int(100)])
        .unwrap();
    let bob = cluster
        .new_instance(n0, "Account", 0, vec![Value::Int(50)])
        .unwrap();
    cluster
        .call_method(n0, alice.clone(), "set_peer", vec![bob.clone()])
        .unwrap();
    cluster
        .call_method(n0, bob.clone(), "set_peer", vec![alice.clone()])
        .unwrap();
    cluster
        .call_method(n0, alice.clone(), "transfer", vec![Value::Int(30)])
        .unwrap();
    let show = |tag: &str, node: NodeId, a: &Value, b: &Value| {
        let ba = cluster
            .call_method(node, a.clone(), "get_balance", vec![])
            .unwrap();
        let bb = cluster
            .call_method(node, b.clone(), "get_balance", vec![])
            .unwrap();
        println!("{tag}: alice={ba} bob={bb}");
    };
    show("before snapshot", n0, &alice, &bob);

    // Checkpoint the whole graph (cycle included) …
    let snap = cluster
        .snapshot(n0, alice.as_ref_handle().unwrap())
        .unwrap();
    println!("\n{snap}");

    // … keep mutating the live graph …
    cluster
        .call_method(n0, alice.clone(), "transfer", vec![Value::Int(70)])
        .unwrap();
    show("after more transfers", n0, &alice, &bob);

    // … and restore the checkpoint on the OTHER node.
    let restored_alice = cluster.restore(n1, &snap).unwrap();
    let restored_bob = cluster
        .call_method(n1, restored_alice.clone(), "get_peer", vec![])
        .unwrap();
    show("restored on node 1", n1, &restored_alice, &restored_bob);
    // The restored cycle is functional: transfers work on the copy.
    cluster
        .call_method(n1, restored_bob.clone(), "transfer", vec![Value::Int(10)])
        .unwrap();
    show("after transfer on copy", n1, &restored_alice, &restored_bob);
    show("original unchanged   ", n0, &alice, &bob);
}
