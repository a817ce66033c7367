//! Experiment **E1**: the paper's Figure 1 re-distribution scenario at the
//! public-API level.
//!
//! "Objects of class A and class B hold references to a shared instance of
//! class C. The application is transformed so that the instance of C is
//! remote to its reference holders. The local instance of C is replaced
//! with a proxy, Cp, to the remote implementation, C'."

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::{Application, NodeId, StaticPolicy, Ty, Value};

fn figure1_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(u, c);
        let v = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(c, v).ret();
        cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
        // int get() { return v; }   int add(int d) { v = v + d; return v; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(u, "get", vec![], Ty::Int, Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, v);
        mb.load_local(1).add();
        mb.put_field(c, v);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    }
    for name in ["A", "B"] {
        let id = u.declare(name, ClassKind::Class);
        let mut cb = ClassBuilder::new(u, id);
        let f = cb.field(Field::new("shared", Ty::Object(c)));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(id, f).ret();
        cb.ctor(u, vec![Ty::Object(c)], Some(mb.finish()));
        // int work(int d) { return shared.add(d); }
        let add_sig = u.sig("add", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(id, f);
        mb.load_local(1);
        mb.invoke(add_sig, 1);
        mb.ret_value();
        cb.method(u, "work", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    }
    app
}

#[test]
fn shared_instance_becomes_remote_and_back() {
    let app = figure1_app();
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(StaticPolicy::new()));

    let n0 = NodeId(0);
    let n1 = NodeId(1);

    // Non-distributed phase: A and B share C on node 0.
    let c = cluster
        .new_instance(n0, "C", 0, vec![Value::Int(100)])
        .unwrap();
    let a = cluster.new_instance(n0, "A", 0, vec![c.clone()]).unwrap();
    let b = cluster.new_instance(n0, "B", 0, vec![c.clone()]).unwrap();
    assert_eq!(
        cluster
            .call_method(n0, a.clone(), "work", vec![Value::Int(1)])
            .unwrap(),
        Value::Int(101)
    );
    assert_eq!(
        cluster
            .call_method(n0, b.clone(), "work", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(103)
    );
    assert_eq!(cluster.network().stats().messages, 0);
    let t_local_phase = cluster.network().now();

    // Re-distribution: C -> C' on node 1, Cp left in place.
    let handle = c.as_ref_handle().unwrap();
    let event = cluster.migrate(n0, handle, n1).unwrap();
    assert_eq!((event.from, event.to), (n0, n1));
    assert_eq!(cluster.location_of(n0, &c), Some(n1));

    // Shared state survived; A and B are untouched but now call remotely.
    assert_eq!(
        cluster
            .call_method(n0, a.clone(), "work", vec![Value::Int(3)])
            .unwrap(),
        Value::Int(106)
    );
    assert_eq!(
        cluster
            .call_method(n0, b.clone(), "work", vec![Value::Int(4)])
            .unwrap(),
        Value::Int(110)
    );
    let remote_msgs = cluster.network().stats().messages;
    assert!(remote_msgs >= 4, "two remote calls = four messages");
    let t_remote_phase = cluster.network().now();
    assert!(
        t_remote_phase > t_local_phase,
        "remote calls must cost simulated time"
    );

    // Both holders see the same instance: direct read agrees.
    assert_eq!(
        cluster.call_method(n0, c.clone(), "get", vec![]).unwrap(),
        Value::Int(110)
    );

    // Adapt back: pull C local again; the network goes quiet.
    cluster.pull_local(n0, handle).unwrap();
    assert_eq!(cluster.location_of(n0, &c), Some(n0));
    let msgs_before = cluster.network().stats().messages;
    assert_eq!(
        cluster
            .call_method(n0, a, "work", vec![Value::Int(5)])
            .unwrap(),
        Value::Int(115)
    );
    assert_eq!(
        cluster
            .call_method(n0, b, "work", vec![Value::Int(5)])
            .unwrap(),
        Value::Int(120)
    );
    assert_eq!(cluster.network().stats().messages, msgs_before);
}

#[test]
fn remote_call_latency_is_lan_scale() {
    // The simulated LAN should put a single remote call in the
    // sub-millisecond range (2003-era 100 Mbit/s switched LAN + RMI stack).
    let app = figure1_app();
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(StaticPolicy::new()));
    let c = cluster
        .new_instance(NodeId(0), "C", 0, vec![Value::Int(0)])
        .unwrap();
    let h = c.as_ref_handle().unwrap();
    cluster.migrate(NodeId(0), h, NodeId(1)).unwrap();
    let t0 = cluster.network().now();
    cluster
        .call_method(NodeId(0), c, "add", vec![Value::Int(1)])
        .unwrap();
    let rtt = cluster.network().now() - t0;
    assert!(rtt.as_ns() > 100_000, "rtt = {rtt}");
    assert!(rtt.as_ns() < 3_000_000, "rtt = {rtt}");
}

#[test]
fn migrating_a_proxy_is_rejected_with_guidance() {
    let app = figure1_app();
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(StaticPolicy::new()));
    let c = cluster
        .new_instance(NodeId(0), "C", 0, vec![Value::Int(0)])
        .unwrap();
    let h = c.as_ref_handle().unwrap();
    cluster.migrate(NodeId(0), h, NodeId(1)).unwrap();
    // `h` is now the proxy; migrating it again from node 0 must fail.
    let err = cluster.migrate(NodeId(0), h, NodeId(1)).unwrap_err();
    assert!(err.to_string().contains("proxy"), "{err}");
}
