//! End-to-end tests of the distributed runtime: the transformed Figure 2
//! program deployed over a simulated cluster, exercising factories,
//! proxies, marshalling, exceptions, failures, migration and adaptation.

use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{sample, ClassKind, ClassUniverse, Field, Ty};
use rafda_net::NodeId;
use rafda_policy::{AffinityConfig, Placement, StaticPolicy};
use rafda_runtime::{Cluster, LocalRuntime};
use rafda_transform::Transformer;
use rafda_vm::{ObserverIds, TraceEvent, Value, Vm, VmError};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

/// Build Figure 2 (+ observer + throwables + a driver class), transform it,
/// and return the transformed universe, plan and observer ids.
fn transformed_figure2() -> (ClassUniverse, rafda_transform::TransformPlan, ObserverIds) {
    let mut u = ClassUniverse::new();
    let ids = sample::build_figure2(&mut u);
    let obs = Vm::install_observer(&mut u);
    let (_t, app_error) = sample::build_throwables(&mut u);

    // class Driver {
    //   static int run(int seed) {
    //     Y y = new Y(seed); X x = new X(y);
    //     Observer.emit(x.m(4)); Observer.emit(X.p(6));
    //     return x.m(10);
    //   }
    //   static int boom(int code) { throw new AppError(code); }
    // }
    let mut cb = ClassBuilder::declare(&mut u, "Driver", ClassKind::Class);
    let m_sig = u.sig("m", vec![Ty::Long]);
    let p_sig = u.sig("p", vec![Ty::Int]);
    let mut mb = MethodBuilder::new(1);
    let y = mb.alloc_local();
    let x = mb.alloc_local();
    mb.load_local(0);
    mb.new_init(ids.y, 0, 1);
    mb.store_local(y);
    mb.load_local(y);
    mb.new_init(ids.x, 0, 1);
    mb.store_local(x);
    mb.load_local(x);
    mb.const_long(4);
    mb.invoke(m_sig, 1);
    mb.unop(rafda_classmodel::UnOp::Convert("long"));
    mb.invoke_static(obs.class, obs.emit, 1);
    mb.pop();
    mb.const_int(6);
    mb.invoke_static(ids.x, p_sig, 1);
    mb.unop(rafda_classmodel::UnOp::Convert("long"));
    mb.invoke_static(obs.class, obs.emit, 1);
    mb.pop();
    mb.load_local(x);
    mb.const_long(10);
    mb.invoke(m_sig, 1);
    mb.ret_value();
    cb.static_method(&mut u, "run", vec![Ty::Int], Ty::Int, Some(mb.finish()));

    let mut mb = MethodBuilder::new(1);
    mb.load_local(0);
    mb.new_init(app_error, 0, 1);
    mb.throw();
    cb.static_method(&mut u, "boom", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(&mut u);

    let outcome = Transformer::new()
        .protocols(&["RMI", "SOAP", "CORBA"])
        .run(&mut u)
        .unwrap();
    (u, outcome.plan, obs)
}

// ----------------------------------------------------------------------
// Local (single address space) — the paper's Section 4 milestone
// ----------------------------------------------------------------------

#[test]
fn transformed_program_runs_locally_with_same_results() {
    let (u, plan, _obs) = transformed_figure2();
    let rt = LocalRuntime::new(u, plan);
    // X.p(6) == 42 through discover() + singleton.
    assert_eq!(
        rt.call_static("X", "p", vec![Value::Int(6)]).unwrap(),
        Value::Int(42)
    );
    // new X(new Y(3)).m(4) == 7 through make() + init$0.
    let y = rt.new_instance("Y", 0, vec![Value::Int(3)]).unwrap();
    let x = rt.new_instance("X", 0, vec![y]).unwrap();
    assert_eq!(
        rt.call_method(x, "m", vec![Value::Long(4)]).unwrap(),
        Value::Int(7)
    );
}

#[test]
fn local_traces_match_original_program() {
    // Original program.
    let mut u = ClassUniverse::new();
    sample::build_figure2(&mut u);
    let obs = Vm::install_observer(&mut u);
    sample::build_throwables(&mut u);
    // (Driver must exist identically in both universes; rebuild via helper.)
    let (tu, plan, tobs) = transformed_figure2();

    // The helper built its own universe; rebuild the original for comparison.
    let mut ou = ClassUniverse::new();
    let ids = sample::build_figure2(&mut ou);
    let oobs = Vm::install_observer(&mut ou);
    let (_t, app_error) = sample::build_throwables(&mut ou);
    let mut cb = ClassBuilder::declare(&mut ou, "Driver", ClassKind::Class);
    let m_sig = ou.sig("m", vec![Ty::Long]);
    let p_sig = ou.sig("p", vec![Ty::Int]);
    let mut mb = MethodBuilder::new(1);
    let y = mb.alloc_local();
    let x = mb.alloc_local();
    mb.load_local(0);
    mb.new_init(ids.y, 0, 1);
    mb.store_local(y);
    mb.load_local(y);
    mb.new_init(ids.x, 0, 1);
    mb.store_local(x);
    mb.load_local(x);
    mb.const_long(4);
    mb.invoke(m_sig, 1);
    mb.unop(rafda_classmodel::UnOp::Convert("long"));
    mb.invoke_static(oobs.class, oobs.emit, 1);
    mb.pop();
    mb.const_int(6);
    mb.invoke_static(ids.x, p_sig, 1);
    mb.unop(rafda_classmodel::UnOp::Convert("long"));
    mb.invoke_static(oobs.class, oobs.emit, 1);
    mb.pop();
    mb.load_local(x);
    mb.const_long(10);
    mb.invoke(m_sig, 1);
    mb.ret_value();
    cb.static_method(&mut ou, "run", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    let mut mb = MethodBuilder::new(1);
    mb.load_local(0);
    mb.new_init(app_error, 0, 1);
    mb.throw();
    cb.static_method(&mut ou, "boom", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(&mut ou);
    let _ = obs;
    drop(u);

    // Original run.
    let ovm = Vm::new(std::sync::Arc::new(ou));
    ovm.bind_observer(&oobs);
    let original = ovm.run_observed("Driver", "run", vec![Value::Int(3)]);

    // Transformed local run.
    let rt = LocalRuntime::new(tu, plan);
    rt.bind_observer(&tobs);
    let transformed = rt.run_observed("Driver", "run", vec![Value::Int(3)]);

    assert_eq!(original, transformed, "semantic equivalence (local)");
    assert_eq!(original.len(), 2);
}

// ----------------------------------------------------------------------
// Distributed
// ----------------------------------------------------------------------

#[test]
fn remote_statics_work_through_proxies() {
    let (u, plan, _obs) = transformed_figure2();
    let policy = StaticPolicy::new().default_statics(N1);
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    let r = cluster
        .call_static(N0, "X", "p", vec![Value::Int(6)])
        .unwrap();
    assert_eq!(r, Value::Int(42));
    let net = cluster.network().stats();
    assert!(net.messages >= 2, "must have gone remote: {net:?}");
    assert!(cluster.stats().rpc_discovers >= 1);
    assert!(cluster.stats().rpc_calls >= 1);
}

#[test]
fn remote_instances_and_reference_arguments() {
    let (u, plan, _obs) = transformed_figure2();
    // Y instances on node 2; X instances local to creator.
    let policy = StaticPolicy::new().place("Y", Placement::Node(N2));
    let cluster = Cluster::new(u, plan, 3, 7, Box::new(policy));
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    // y is a proxy on node 0 for an object on node 2.
    assert_eq!(cluster.location_of(N0, &y), Some(N2));
    // Passing the proxy into a locally created X: X.m goes through y's
    // proxy to node 2.
    let x = cluster.new_instance(N0, "X", 0, vec![y.clone()]).unwrap();
    assert_eq!(cluster.location_of(N0, &x), Some(N0));
    let r = cluster
        .call_method(N0, x, "m", vec![Value::Long(4)])
        .unwrap();
    assert_eq!(r, Value::Int(7));
    // Calling y.n directly also works.
    let r = cluster
        .call_method(N0, y, "n", vec![Value::Long(39)])
        .unwrap();
    assert_eq!(r, Value::Int(42));
}

#[test]
fn colocation_unwraps_to_local_object() {
    let (u, plan, _obs) = transformed_figure2();
    let policy = StaticPolicy::new().place("Y", Placement::Node(N1));
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    // Create a Y from node 1 itself: must be a plain local object.
    let y = cluster
        .new_instance(N1, "Y", 0, vec![Value::Int(5)])
        .unwrap();
    assert_eq!(cluster.location_of(N1, &y), Some(N1));
    let before = cluster.network().stats().messages;
    let r = cluster
        .call_method(N1, y, "n", vec![Value::Long(1)])
        .unwrap();
    assert_eq!(r, Value::Int(6));
    assert_eq!(
        cluster.network().stats().messages,
        before,
        "local call must not touch the network"
    );
}

#[test]
fn distributed_trace_equals_local_trace() {
    let (u1, plan1, obs1) = transformed_figure2();
    let rt = LocalRuntime::new(u1, plan1);
    rt.bind_observer(&obs1);
    let local = rt.run_observed("Driver", "run", vec![Value::Int(3)]);

    let (u2, plan2, obs2) = transformed_figure2();
    let policy = StaticPolicy::new()
        .default_statics(N1)
        .place("Y", Placement::Node(N2))
        .place("X", Placement::Node(N1));
    let cluster = Cluster::new(u2, plan2, 3, 7, Box::new(policy));
    cluster.bind_observer(&obs2);
    let distributed = cluster.run_observed(N0, "Driver", "run", vec![Value::Int(3)]);

    assert_eq!(local, distributed, "semantic equivalence (distributed)");
    assert!(cluster.network().stats().messages > 4);
}

#[test]
fn exceptions_propagate_across_the_wire() {
    let (u, plan, _obs) = transformed_figure2();
    // Driver is substitutable, so calling Driver.boom from node 0 with
    // Driver statics on node 1 crosses the network and the AppError must
    // come back.
    let policy = StaticPolicy::new().default_statics(N1);
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    let err = cluster
        .call_static(N0, "Driver", "boom", vec![Value::Int(9)])
        .unwrap_err();
    let VmError::Exception(h) = err else {
        panic!("expected remote exception, got {err:?}");
    };
    let vm = cluster.vm(N0);
    let class = vm.class_of(h).unwrap();
    assert_eq!(&*cluster.universe().class(class).name, "AppError");
    // The exception's state travelled by value.
    let code = vm
        .call_virtual_by_name(Value::Ref(h), "code", vec![])
        .unwrap();
    assert_eq!(code, Value::Int(9));
}

/// `class Boot { static int k; static { throw new AppError(7); } Boot() {}
/// static int k() { return k; } }`, transformed: a class whose statics
/// fail to initialise, so its factories — `discover()` and `make()`, which
/// initialises the class first — throw.
fn transformed_failing_clinit() -> (ClassUniverse, rafda_transform::TransformPlan) {
    let mut u = ClassUniverse::new();
    let (_t, app_error) = sample::build_throwables(&mut u);
    let boot = u.declare("Boot", ClassKind::Class);
    let mut cb = ClassBuilder::new(&u, boot);
    let k = cb.static_field(Field::new("k", Ty::Int));
    let mut mb = MethodBuilder::new(0);
    mb.const_int(7);
    mb.new_init(app_error, 0, 1);
    mb.throw();
    cb.clinit(&mut u, mb.finish());
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(&mut u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(0);
    mb.get_static(boot, k).ret_value();
    cb.static_method(&mut u, "k", vec![], Ty::Int, Some(mb.finish()));
    cb.finish(&mut u);
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    (u, outcome.plan)
}

/// What node 0 gets from a factory of [`transformed_failing_clinit`] under
/// `policy` — `make()` through `new Boot()`, else `discover()` through
/// `Boot.k()` — must be the `<clinit>`'s own exception, rethrown on node 0,
/// wherever the policy put the statics or the instances.
fn assert_factory_throws_app_error(what: &str, policy: StaticPolicy, make: bool) {
    let (u, plan) = transformed_failing_clinit();
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    let err = if make {
        cluster.new_instance(N0, "Boot", 0, vec![]).unwrap_err()
    } else {
        cluster.call_static(N0, "Boot", "k", vec![]).unwrap_err()
    };
    let VmError::Exception(h) = err else {
        panic!("{what}: expected the clinit's exception, got {err:?}");
    };
    let vm = cluster.vm(N0);
    let class = vm.class_of(h).unwrap();
    assert_eq!(&*cluster.universe().class(class).name, "AppError", "{what}");
    let code = vm
        .call_virtual_by_name(Value::Ref(h), "code", vec![])
        .unwrap();
    assert_eq!(code, Value::Int(7), "{what}");
}

/// A remote `discover()` is interchangeable with a local one: it throws
/// the `<clinit>`'s exception, not a description of it.
#[test]
fn a_remote_discover_throws_what_a_local_one_throws() {
    assert_factory_throws_app_error("statics local", StaticPolicy::new(), false);
    let remote = StaticPolicy::new().default_statics(N1);
    assert_factory_throws_app_error("statics remote", remote, false);
}

/// A remote `make()` is interchangeable with a local one, whether the
/// callee initialises the class itself or discovers it back on the caller.
#[test]
fn a_remote_make_throws_what_a_local_one_throws() {
    assert_factory_throws_app_error("all local", StaticPolicy::new(), true);
    let remote = || StaticPolicy::new().place("Boot", Placement::Node(N1));
    let both = remote().default_statics(N1);
    assert_factory_throws_app_error("instances and statics remote", both, true);
    assert_factory_throws_app_error("instances remote, statics on the caller", remote(), true);
}

#[test]
fn network_partition_surfaces_as_network_failure() {
    let (u, plan, _obs) = transformed_figure2();
    let policy = StaticPolicy::new().default_statics(N1);
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    cluster.network().fault_plan(|f| f.partition(N0, N1));
    let err = cluster
        .call_static(N0, "X", "p", vec![Value::Int(6)])
        .unwrap_err();
    assert!(err.is_network(), "{err}");
    // Heal and retry: works.
    cluster.network().fault_plan(|f| f.heal_all());
    assert_eq!(
        cluster
            .call_static(N0, "X", "p", vec![Value::Int(6)])
            .unwrap(),
        Value::Int(42)
    );
}

/// A failure between nodes 1 and 2 while node 1 serves node 0's call
/// reaches node 0 as node 1's fault text, not as a typed failure: one
/// `native error: ` prefix per hop in front of the `network: ` text. It must
/// still read as a network failure, and a run that hits it must end in one.
#[test]
fn network_failure_one_hop_away_still_reads_as_network_failure() {
    for what in ["partition", "crash"] {
        let fault = |c: &Cluster| match what {
            "partition" => c.network().fault_plan(|f| f.partition(N1, N2)),
            _ => c.crash(N2),
        };
        // Driver statics on node 1, so a run's `new Y` is node 1's call.
        // No class is replicated: a crashed node 2 has no backup.
        let deploy = || {
            let (u, plan, obs) = transformed_figure2();
            let policy = StaticPolicy::new()
                .default_statics(N1)
                .place("X", Placement::Node(N1))
                .place("Y", Placement::Node(N2));
            let cluster = Cluster::new(u, plan, 3, 7, Box::new(policy));
            cluster.bind_observer(&obs);
            cluster
        };

        // Node 0 calls x on node 1, whose `m` calls y on node 2.
        let cluster = deploy();
        let y = cluster
            .new_instance(N0, "Y", 0, vec![Value::Int(3)])
            .unwrap();
        let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
        assert_eq!(cluster.location_of(N0, &x), Some(N1));
        fault(&cluster);
        let err = cluster
            .call_method(N0, x, "m", vec![Value::Long(4)])
            .unwrap_err();
        assert!(err.is_network(), "{what}: {err}");
        assert!(
            matches!(&err, VmError::Native(m) if m.starts_with("network: ")),
            "{what}: the failure crosses the hop as text: {err:?}"
        );

        // The same hop inside a run: node 0 calls `Driver.run` on node 1.
        let cluster = deploy();
        fault(&cluster);
        let trace = cluster.run_observed(N0, "Driver", "run", vec![Value::Int(3)]);
        match trace.events().last() {
            Some(TraceEvent::NetworkFailure(m)) => {
                assert!(m.starts_with("native error: network: "), "{what}: {m}")
            }
            other => panic!("{what}: the run must end in a network failure, got {other:?}"),
        }
    }
}

// ----------------------------------------------------------------------
// Figure 1: dynamic boundary changes
// ----------------------------------------------------------------------

/// Build the Figure 1 scenario: objects A and B share an instance of C.
/// C counts invocations, so state migration is observable.
fn figure1_universe() -> (ClassUniverse, rafda_transform::TransformPlan) {
    let mut u = ClassUniverse::new();
    let c = u.declare("C", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, c);
        let count = cb.field(Field::new("count", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // int tick() { count = count + 1; return count; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this();
        mb.load_this().get_field(c, count);
        mb.const_int(1).add();
        mb.put_field(c, count);
        mb.load_this().get_field(c, count);
        mb.ret_value();
        cb.method(&mut u, "tick", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    for holder in ["A", "B"] {
        let id = u.declare(holder, ClassKind::Class);
        let mut cb = ClassBuilder::new(&u, id);
        let f = cb.field(Field::new("c", Ty::Object(c)));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(id, f).ret();
        cb.ctor(&mut u, vec![Ty::Object(c)], Some(mb.finish()));
        // int use() { return c.tick(); }
        let tick = u.sig("tick", vec![]);
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(id, f);
        mb.invoke(tick, 0);
        mb.ret_value();
        cb.method(&mut u, "use", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new()
        .protocols(&["RMI", "SOAP"])
        .run(&mut u)
        .unwrap();
    (u, outcome.plan)
}

#[test]
fn figure1_redistribution_scenario() {
    let (u, plan) = figure1_universe();
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(StaticPolicy::new()));

    // Everything starts on node 0: A and B share C.
    let c = cluster.new_instance(N0, "C", 0, vec![]).unwrap();
    let a = cluster.new_instance(N0, "A", 0, vec![c.clone()]).unwrap();
    let b = cluster.new_instance(N0, "B", 0, vec![c.clone()]).unwrap();
    assert_eq!(
        cluster.call_method(N0, a.clone(), "use", vec![]).unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        cluster.call_method(N0, b.clone(), "use", vec![]).unwrap(),
        Value::Int(2)
    );
    let before = cluster.network().stats().messages;
    assert_eq!(before, 0, "all-local phase must be network-free");

    // Re-distribute: C becomes remote (C' on node 1, Cp in place).
    let ch = c.as_ref_handle().unwrap();
    let event = cluster.migrate(N0, ch, N1).unwrap();
    assert_eq!(event.class, "C");
    assert_eq!(event.from, N0);
    assert_eq!(event.to, N1);
    assert_eq!(cluster.location_of(N0, &c), Some(N1));

    // A and B still hold the SAME references — state carried over (count=2),
    // and calls now cross the network.
    assert_eq!(
        cluster.call_method(N0, a.clone(), "use", vec![]).unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        cluster.call_method(N0, b.clone(), "use", vec![]).unwrap(),
        Value::Int(4)
    );
    assert!(cluster.network().stats().messages > before);

    // And back again: pull C local; calls stop touching the network.
    cluster.pull_local(N0, ch).unwrap();
    assert_eq!(cluster.location_of(N0, &c), Some(N0));
    let msgs = cluster.network().stats().messages;
    assert_eq!(
        cluster.call_method(N0, a, "use", vec![]).unwrap(),
        Value::Int(5)
    );
    assert_eq!(cluster.network().stats().messages, msgs);
    assert_eq!(cluster.stats().migrations, 1);
    assert_eq!(cluster.stats().pulls, 1);
}

#[test]
fn migration_preserves_reference_identity_semantics() {
    // After migration, node-1 holders of the object and node-0 proxies see
    // the same state.
    let (u, plan) = figure1_universe();
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(StaticPolicy::new()));
    let c = cluster.new_instance(N0, "C", 0, vec![]).unwrap();
    let ch = c.as_ref_handle().unwrap();
    for _ in 0..3 {
        cluster.call_method(N0, c.clone(), "tick", vec![]).unwrap();
    }
    cluster.migrate(N0, ch, N1).unwrap();
    // Call through the proxy: 4.
    assert_eq!(
        cluster.call_method(N0, c.clone(), "tick", vec![]).unwrap(),
        Value::Int(4)
    );
}

#[test]
fn adaptation_moves_chatty_objects_to_their_caller() {
    let (u, plan) = figure1_universe();
    // C is placed on node 1; the caller works on node 0.
    let policy = StaticPolicy::new().place("C", Placement::Node(N1));
    let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
    let c = cluster.new_instance(N0, "C", 0, vec![]).unwrap();
    assert_eq!(cluster.location_of(N0, &c), Some(N1));
    // Hammer it from node 0.
    for _ in 0..32 {
        cluster.call_method(N0, c.clone(), "tick", vec![]).unwrap();
    }
    let events = cluster.adapt(&AffinityConfig::default());
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].to, N0);
    assert_eq!(cluster.location_of(N0, &c), Some(N0));
    // Calls keep working and stay local now.
    let msgs = cluster.network().stats().messages;
    assert_eq!(
        cluster.call_method(N0, c.clone(), "tick", vec![]).unwrap(),
        Value::Int(33)
    );
    assert_eq!(cluster.network().stats().messages, msgs);
    // A second adaptation round does nothing.
    assert!(cluster.adapt(&AffinityConfig::default()).is_empty());
}

#[test]
fn protocol_interchangeability_same_results() {
    for proto in ["RMI", "SOAP", "CORBA"] {
        let (u, plan, _obs) = transformed_figure2();
        let policy = StaticPolicy::new()
            .default_statics(N1)
            .default_protocol(proto);
        let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
        let r = cluster
            .call_static(N0, "X", "p", vec![Value::Int(6)])
            .unwrap();
        assert_eq!(r, Value::Int(42), "{proto}");
        assert!(cluster.network().stats().bytes > 0);
    }
}

#[test]
fn soap_costs_more_wire_bytes_and_time_than_rmi() {
    let run = |proto: &str| {
        let (u, plan, _obs) = transformed_figure2();
        let policy = StaticPolicy::new()
            .default_statics(N1)
            .default_protocol(proto);
        let cluster = Cluster::new(u, plan, 2, 7, Box::new(policy));
        cluster
            .call_static(N0, "X", "p", vec![Value::Int(6)])
            .unwrap();
        let stats = cluster.network().stats();
        (stats.bytes, cluster.network().now().as_ns())
    };
    let (rmi_bytes, rmi_time) = run("RMI");
    let (soap_bytes, soap_time) = run("SOAP");
    assert!(
        soap_bytes > 2 * rmi_bytes,
        "soap {soap_bytes} vs rmi {rmi_bytes}"
    );
    assert!(soap_time > rmi_time, "soap {soap_time} vs rmi {rmi_time}");
}

#[test]
fn round_robin_policy_spreads_instances() {
    let (u, plan, _obs) = transformed_figure2();
    let policy = rafda_policy::RoundRobinPolicy::new(3, "RMI");
    let cluster = Cluster::new(u, plan, 3, 7, Box::new(policy));
    let mut locations = std::collections::HashSet::new();
    let mut ys = Vec::new();
    for i in 0..6 {
        let y = cluster
            .new_instance(N0, "Y", 0, vec![Value::Int(i)])
            .unwrap();
        locations.insert(cluster.location_of(N0, &y).unwrap());
        ys.push(y);
    }
    assert_eq!(locations.len(), 3, "instances spread over all nodes");
    // All of them behave identically regardless of placement.
    for (i, y) in ys.into_iter().enumerate() {
        assert_eq!(
            cluster
                .call_method(N0, y, "n", vec![Value::Long(10)])
                .unwrap(),
            Value::Int(i as i32 + 10)
        );
    }
}
