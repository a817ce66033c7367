//! The "modulo network failure" clause (paper Sections 1 & 4): distributing
//! an application can introduce network failures; equivalence is required
//! only up to those failures. These tests inject drops, partitions and
//! crashes and check (a) failures surface as network failures — never as
//! silent wrong answers — and (b) traces stay equivalent modulo the
//! failure.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::{generate_app, AppSpec, ObserverHooks};
use rafda::{
    Application, Cluster, NodeId, Placement, RetryPolicy, StaticPolicy, Trace, TraceEvent, Ty,
    Value,
};

fn spec() -> AppSpec {
    AppSpec {
        inheritance: false,
        arrays: false,
        classes: 6,
        int_fields: 2,
        statics: true,
        seed: 77,
    }
}

fn build_cluster() -> Cluster {
    let mut app = Application::new();
    let obs = app.observer();
    generate_app(
        app.universe_mut(),
        ObserverHooks {
            class: obs.class,
            emit: obs.emit,
        },
        &spec(),
    );
    let mut policy = StaticPolicy::new().default_statics(NodeId(1));
    for i in 0..6 {
        policy = policy.place(&format!("C{i}"), Placement::Node(NodeId((i % 2) as u32)));
    }
    app.transform(&["RMI"])
        .unwrap()
        .deploy(2, 7, Box::new(policy))
}

fn clean_trace() -> Trace {
    let cluster = build_cluster();
    cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)])
}

#[test]
fn partition_mid_workload_yields_prefix_then_network_failure() {
    let clean = clean_trace();
    assert!(clean.len() > 2);

    let cluster = build_cluster();
    // Run once cleanly to warm placement, then partition and run again.
    cluster
        .network()
        .fault_plan(|f| f.partition(NodeId(0), NodeId(1)));
    let failed = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
    // The failed run must end in a network failure…
    assert!(
        matches!(failed.events().last(), Some(TraceEvent::NetworkFailure(_))),
        "{failed}"
    );
    // …and be equivalent to the clean run modulo that failure.
    assert!(
        clean.equivalent_modulo_network(&failed),
        "clean:\n{clean}\nfailed:\n{failed}"
    );
    assert!(failed.equivalent_modulo_network(&clean), "symmetry");
}

#[test]
fn crash_surfaces_as_network_failure() {
    let cluster = build_cluster();
    cluster.network().fault_plan(|f| f.crash(NodeId(1)));
    let failed = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
    assert!(matches!(
        failed.events().last(),
        Some(TraceEvent::NetworkFailure(m)) if m.contains("crashed")
    ));
    // Recovery restores full service.
    cluster.network().fault_plan(|f| f.recover(NodeId(1)));
    let after = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
    // Statics retain their mutated values across runs, so compare only the
    // failure-freeness, not the exact values.
    assert!(
        !after
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::NetworkFailure(_))),
        "{after}"
    );
}

#[test]
fn message_drops_never_corrupt_results() {
    // Under heavy loss, every run either matches the clean trace (drops
    // absorbed by retries) or ends with a typed network failure — never a
    // divergent value.
    let clean = clean_trace();
    for seed in 0..12u64 {
        let mut app = Application::new();
        let obs = app.observer();
        generate_app(
            app.universe_mut(),
            ObserverHooks {
                class: obs.class,
                emit: obs.emit,
            },
            &spec(),
        );
        let mut policy = StaticPolicy::new().default_statics(NodeId(1));
        for i in 0..6 {
            policy = policy.place(&format!("C{i}"), Placement::Node(NodeId((i % 2) as u32)));
        }
        let cluster = app
            .transform(&["RMI"])
            .unwrap()
            .deploy(2, seed, Box::new(policy));
        cluster.network().fault_plan(|f| f.drop_probability = 0.10);
        let trace = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
        assert!(
            clean.equivalent_modulo_network(&trace),
            "seed {seed}: clean:\n{clean}\ngot:\n{trace}"
        );
    }
}

/// A two-node Counter deployment: the counter lives on node 1, calls come
/// from node 0, so every `add` is one request/reply exchange.
fn counter_cluster(seed: u64) -> Cluster {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("Counter", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new().place("Counter", Placement::Node(NodeId(1)));
    app.transform(&["RMI"])
        .unwrap()
        .deploy(2, seed, Box::new(policy))
}

#[test]
fn drops_are_retried_to_success_with_identical_results() {
    // E7 with fault tolerance: under a 10% drop rate and the default
    // RetryPolicy, the run no longer ends in a network failure — it
    // produces the *identical* trace, only later on the simulated clock.
    let clean = clean_trace();
    let cluster = build_cluster();
    assert_eq!(cluster.retry_policy(), RetryPolicy::default());
    cluster.network().fault_plan(|f| f.drop_probability = 0.10);
    let trace = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
    assert_eq!(trace, clean, "retries must hide drops entirely");
    let stats = cluster.stats();
    assert!(
        stats.retries > 0,
        "a 10% drop rate must trigger retries: {stats}"
    );
    assert_eq!(stats.net_failures, 0, "{stats}");
    assert!(
        stats.attempts[1..].iter().sum::<u64>() > 0,
        "some exchange must have needed more than one attempt: {stats:?}"
    );
}

#[test]
fn retry_runs_are_deterministic_per_seed() {
    for seed in [1u64, 7, 99] {
        let run = || {
            let mut app = Application::new();
            let obs = app.observer();
            generate_app(
                app.universe_mut(),
                ObserverHooks {
                    class: obs.class,
                    emit: obs.emit,
                },
                &spec(),
            );
            let mut policy = StaticPolicy::new().default_statics(NodeId(1));
            for i in 0..6 {
                policy = policy.place(&format!("C{i}"), Placement::Node(NodeId((i % 2) as u32)));
            }
            let cluster = app
                .transform(&["RMI"])
                .unwrap()
                .deploy(2, seed, Box::new(policy));
            cluster.network().fault_plan(|f| f.drop_probability = 0.10);
            let trace = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
            (trace, cluster.stats(), cluster.network().now())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "seed {seed}: trace");
        assert_eq!(a.1, b.1, "seed {seed}: stats (incl. retry counts)");
        assert_eq!(a.2, b.2, "seed {seed}: simulated clock");
    }
}

#[test]
fn reply_drop_retransmit_does_not_double_apply() {
    // The at-most-once regression: the server executes `add(5)`, the
    // *reply* is lost, the client retransmits. The retransmission must be
    // answered from the reply cache — not applied a second time.
    let cluster = counter_cluster(3);
    let counter = cluster
        .new_instance(NodeId(0), "Counter", 0, vec![])
        .unwrap();
    cluster.pin(NodeId(0), &counter);
    let before = cluster.stats();
    // The next exchange's request gets sequence `seq`, its reply `seq + 1`.
    let seq = cluster.network().transmit_seq();
    cluster.network().fault_plan(|f| f.drop_message(seq + 1));
    let r = cluster
        .call_method(NodeId(0), counter.clone(), "add", vec![Value::Int(5)])
        .unwrap();
    assert_eq!(r, Value::Int(5));
    // Probe with a no-op delta: a double-applied add(5) would read 10.
    let r = cluster
        .call_method(NodeId(0), counter, "add", vec![Value::Int(0)])
        .unwrap();
    assert_eq!(r, Value::Int(5), "mutation applied twice");
    let stats = cluster.stats();
    assert_eq!(stats.dedup_hits - before.dedup_hits, 1, "{stats}");
    assert_eq!(stats.retries - before.retries, 1, "{stats}");
    assert_eq!(stats.retransmits - before.retransmits, 1, "{stats}");
    assert_eq!(stats.net_failures, 0, "{stats}");
}

/// `S` on node 1 and `K` on node 0: `S.outer(k)` adds 1 and calls
/// `k.back(this)`, which calls `S.inner()` (adds 10) back on node 1. So an
/// `outer` sent by node 0 has node 0 call node 1 again, nested inside it.
fn nested_chain_cluster() -> Cluster {
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let k = u.declare("K", ClassKind::Class);
    let back_sig = u.sig("back", vec![Ty::Object(s)]);
    let inner_sig = u.sig("inner", vec![]);
    let mut cb = ClassBuilder::new(u, s);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(1);
    mb.load_this();
    mb.load_this().get_field(s, v).const_int(10).add();
    mb.put_field(s, v);
    mb.load_this().get_field(s, v).ret_value();
    cb.method(u, "inner", vec![], Ty::Int, Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(s, v).const_int(1).add();
    mb.put_field(s, v);
    mb.load_local(1).load_this().invoke(back_sig, 1).pop();
    mb.load_this().get_field(s, v).ret_value();
    cb.method(u, "outer", vec![Ty::Object(k)], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let mut cb = ClassBuilder::new(u, k);
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_local(1).invoke(inner_sig, 0).ret_value();
    cb.method(u, "back", vec![Ty::Object(s)], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new()
        .place("S", Placement::Node(NodeId(1)))
        .place("K", Placement::Node(NodeId(0)));
    app.transform(&["RMI"])
        .unwrap()
        .deploy(2, 5, Box::new(policy))
}

#[test]
fn a_lost_reply_to_a_call_that_called_back_is_replayed() {
    // Node 1 keeps `outer`'s reply only once its handler returns, after
    // the nested `inner` it served to the same caller: the newest reply
    // node 0 sent is not the largest id. The retransmission of `outer`
    // must still be answered from node 0's reply window.
    let cluster = nested_chain_cluster();
    cluster.enable_monitors();
    let server = cluster.new_instance(NodeId(0), "S", 0, vec![]).unwrap();
    let client = cluster.new_instance(NodeId(0), "K", 0, vec![]).unwrap();
    cluster.pin(NodeId(0), &server);
    cluster.pin(NodeId(0), &client);
    let before = cluster.stats();
    // `outer`'s request, then `back`'s and `inner`'s requests and replies,
    // then `outer`'s reply: the sixth transmission.
    let seq = cluster.network().transmit_seq();
    cluster.network().fault_plan(|f| f.drop_message(seq + 5));
    let r = cluster.call_method(NodeId(0), server.clone(), "outer", vec![client]);
    assert_eq!(r, Ok(Value::Int(11)));
    let stats = cluster.stats();
    assert_eq!(stats.exchanges() - before.exchanges(), 3, "{stats}");
    assert_eq!(stats.retries - before.retries, 1, "{stats}");
    assert_eq!(stats.dedup_hits - before.dedup_hits, 1, "{stats}");
    // A second run of `outer` would have left 22 behind.
    let r = cluster.call_method(NodeId(0), server, "inner", vec![]);
    assert_eq!(r, Ok(Value::Int(21)), "outer ran twice");
    assert_eq!(cluster.monitor_violations(), vec![]);
}

#[test]
fn request_drop_is_retried_without_dedup() {
    // Complementary case: the *request* is lost, so the server never ran
    // the method — the retransmission executes it (exactly once overall).
    let cluster = counter_cluster(4);
    let counter = cluster
        .new_instance(NodeId(0), "Counter", 0, vec![])
        .unwrap();
    cluster.pin(NodeId(0), &counter);
    let before = cluster.stats();
    let seq = cluster.network().transmit_seq();
    cluster.network().fault_plan(|f| f.drop_message(seq));
    let r = cluster
        .call_method(NodeId(0), counter.clone(), "add", vec![Value::Int(7)])
        .unwrap();
    assert_eq!(r, Value::Int(7));
    let r = cluster
        .call_method(NodeId(0), counter, "add", vec![Value::Int(0)])
        .unwrap();
    assert_eq!(r, Value::Int(7));
    let stats = cluster.stats();
    assert_eq!(stats.retries - before.retries, 1, "{stats}");
    assert_eq!(stats.dedup_hits - before.dedup_hits, 0, "{stats}");
}

#[test]
fn exhausted_retries_surface_the_typed_failure() {
    // Non-transient failures fail fast with attempts == 1; pure drops with
    // retry disabled surface as Dropped after exactly 1 attempt; a fully
    // lossy link exhausts the whole budget.
    use rafda::NetError;
    let cluster = counter_cluster(5);
    let counter = cluster
        .new_instance(NodeId(0), "Counter", 0, vec![])
        .unwrap();
    cluster.pin(NodeId(0), &counter);

    cluster.network().fault_plan(|f| f.drop_probability = 1.0);
    let err = cluster
        .call_method(NodeId(0), counter.clone(), "add", vec![Value::Int(1)])
        .unwrap_err();
    let nf = err.net_failure().expect("typed network failure");
    assert_eq!(nf.kind, NetError::Dropped);
    assert_eq!(nf.attempts, RetryPolicy::default().max_attempts);
    assert!(err.to_string().contains("after 6 attempts"), "{err}");

    cluster.network().fault_plan(|f| f.drop_probability = 0.0);
    cluster
        .network()
        .fault_plan(|f| f.partition(NodeId(0), NodeId(1)));
    let err = cluster
        .call_method(NodeId(0), counter, "add", vec![Value::Int(1)])
        .unwrap_err();
    let nf = err.net_failure().expect("typed network failure");
    let (from, to) = (NodeId(0), NodeId(1));
    assert_eq!(nf.kind, NetError::Partitioned { from, to });
    assert_eq!(nf.attempts, 1, "non-transient failures must not be retried");
    let stats = cluster.stats();
    assert_eq!(stats.net_failures, 2, "{stats}");
}

#[test]
fn backoff_is_charged_to_the_simulated_clock() {
    // Two identical deployments; `b` additionally loses one reply and must
    // pay for the loss detection, the backoff and the retransmission.
    let a = counter_cluster(6);
    let b = counter_cluster(6);
    let ca = a.new_instance(NodeId(0), "Counter", 0, vec![]).unwrap();
    let cb = b.new_instance(NodeId(0), "Counter", 0, vec![]).unwrap();
    assert_eq!(a.network().now(), b.network().now());
    let seq = b.network().transmit_seq();
    b.network().fault_plan(|f| f.drop_message(seq + 1));
    a.call_method(NodeId(0), ca, "add", vec![Value::Int(1)])
        .unwrap();
    b.call_method(NodeId(0), cb, "add", vec![Value::Int(1)])
        .unwrap();
    assert!(
        b.network().now() > a.network().now(),
        "retried run must cost simulated time: {:?} vs {:?}",
        b.network().now(),
        a.network().now()
    );
}

#[test]
fn unaffected_traffic_keeps_flowing_during_partition() {
    // A three-node cluster with a partition between 0 and 1: node 2 remains
    // reachable from node 0.
    let mut app = Application::new();
    let obs = app.observer();
    generate_app(
        app.universe_mut(),
        ObserverHooks {
            class: obs.class,
            emit: obs.emit,
        },
        &AppSpec {
            inheritance: false,
            arrays: false,
            classes: 2,
            int_fields: 1,
            statics: false,
            seed: 5,
        },
    );
    let policy = StaticPolicy::new().place("C0", Placement::Node(NodeId(2)));
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 7, Box::new(policy));
    cluster
        .network()
        .fault_plan(|f| f.partition(NodeId(0), NodeId(1)));
    // C0 lives on node 2 (C1 placed at creator, i.e. node 2 as well since
    // C0's constructor creates it there): the whole chain avoids node 1.
    let c0 = cluster
        .new_instance(NodeId(0), "C0", 0, vec![Value::Int(3)])
        .unwrap();
    let r = cluster
        .call_method(NodeId(0), c0, "compute", vec![Value::Int(1)])
        .unwrap();
    assert!(matches!(r, Value::Int(_)));
}
