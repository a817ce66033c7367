//! The observability plane end to end: the stale-read canary (a deliberate
//! injected violation that the monitor must catch, with the offending span
//! identified), the reflective `rafda.Introspection` object served over the
//! normal RMI path, byte-identical metric exports across same-seed runs,
//! and the per-node-sums-equal-merged-view contract of `node_stats`.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::vm::Handle;
use rafda::{
    declare_introspection, Application, Cluster, NodeId, Placement, RuntimeStats, StaticPolicy, Ty,
    Value, INTROSPECTION_CLASS,
};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

/// The counter class from the property-cache suite: `C { int v; C(int);
/// int bump(int d) }`.
fn counter_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(2);
    mb.load_this().load_local(1).put_field(c, v).ret();
    cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    app
}

/// Deploy `C` cacheable with its home on node 1, create one instance from
/// node 0 and warm its property cache.
fn warmed_cached_counter() -> (Cluster, Value) {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .cache("C", true);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 42, Box::new(policy));
    cluster.enable_monitors();
    let c = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(N0, &c);
    // Miss then hit: the cache is warm and monitors saw a healthy hit.
    for _ in 0..2 {
        assert_eq!(
            cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap(),
            Value::Int(5)
        );
    }
    (cluster, c)
}

/// The home (`C_O_Local`) handle of the single counter instance on `node`.
fn home_handle(cluster: &Cluster, node: NodeId) -> Handle {
    let mut found = None;
    cluster.vm(node).with_heap(|heap| {
        for h in heap.handles() {
            if let Some(class) = heap.class_of(h) {
                if &*cluster.universe().class(class).name == "C_O_Local" {
                    found = Some(h);
                }
            }
        }
    });
    found.expect("counter home")
}

/// The canary: skip the tombstone a migration must write, so the proxy
/// cache on node 0 keeps serving the pre-migration value. The stale-read
/// monitor must flag exactly that hit and point at its span.
#[test]
fn stale_read_canary_is_caught_with_the_offending_span() {
    let (cluster, c) = warmed_cached_counter();
    assert_eq!(cluster.monitor_violations(), vec![]);

    // Inject the bug: the migration "forgets" to tombstone the old
    // location, leaving node 0's cached read valid by version tag.
    cluster.debug_skip_next_tombstone();
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();

    // The read is served from the cache — through a location the object
    // moved away from. That is precisely a stale read.
    assert_eq!(
        cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap(),
        Value::Int(5)
    );

    let violations = cluster.monitor_violations();
    assert_eq!(violations.len(), 1, "exactly one violation: {violations:?}");
    let v = &violations[0];
    assert_eq!(v.monitor, "stale-read");
    assert!(
        v.message.contains("1#") && v.message.contains("node 0"),
        "message must identify the exchange: {}",
        v.message
    );
    assert_ne!(v.span_id, 0, "violation must point at the offending span");
    let log = cluster.span_log();
    let span = log
        .by_id(v.span_id)
        .filter(|s| s.trace_id == v.trace_id)
        .expect("offending span present in the log");
    assert!(log.by_id(u64::MAX).is_none(), "an id the log never issued");
    assert_eq!(span.name, "rpc.call");
    assert!(
        log.attr(&span, "cached").is_some(),
        "the flagged span is the hit"
    );
}

/// Control run: the same migration *with* the tombstone stays silent — the
/// read goes remote and every monitor (including the quiescent-point
/// checks) sees a healthy cluster.
#[test]
fn healthy_migration_keeps_all_monitors_silent() {
    let (cluster, c) = warmed_cached_counter();
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();
    assert_eq!(
        cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap(),
        Value::Int(5)
    );
    assert_eq!(cluster.check_invariants(), vec![]);
}

/// The reflective capstone: a `rafda.Introspection` instance homed on node
/// 1, reached from node 0 through an ordinary generated proxy. Its getters
/// serve the cluster's own state, its refresh invalidates cached reads,
/// and the telemetry traffic is itself counted by the metrics it serves.
#[test]
fn introspection_object_serves_cluster_state_over_rmi() {
    let mut app = counter_app();
    declare_introspection(app.universe_mut());
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N2))
        .place(INTROSPECTION_CLASS, Placement::Node(N1))
        .default_statics(N0)
        .cache(INTROSPECTION_CLASS, true);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 7, Box::new(policy));

    // Some application traffic for the stats to describe.
    let c = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(1)])
        .unwrap();
    for d in 0..4 {
        cluster
            .call_method(N0, c.clone(), "bump", vec![Value::Int(d)])
            .unwrap();
    }

    let insp = cluster
        .new_instance(N0, INTROSPECTION_CLASS, 0, vec![])
        .unwrap();
    let calls_before = cluster.stats().rpc_calls;
    cluster
        .call_method(N0, insp.clone(), "refresh", vec![])
        .unwrap();

    let get = |name: &str| -> String {
        cluster
            .call_method(N0, insp.clone(), name, vec![])
            .unwrap()
            .as_str()
            .expect("introspection getters return strings")
            .to_string()
    };
    let stats = get("get_stats");
    assert!(
        stats.contains("rpc exchanges"),
        "stats snapshot rendered: {stats}"
    );
    let policy_text = get("get_policy");
    assert!(
        policy_text.contains("rafda.Introspection: protocol=RMI")
            && policy_text.contains("cacheable=true"),
        "policy table lists the class itself: {policy_text}"
    );
    let placement = get("get_placement");
    assert!(
        placement.contains("node1") && placement.contains("rafda.Introspection"),
        "placement table shows the object's own home: {placement}"
    );
    let prom = get("get_prometheus");
    assert!(
        prom.contains("# TYPE rafda_rpc_calls_total counter")
            && prom.contains("rafda_exchange_attempts"),
        "prometheus snapshot served through a getter: {prom}"
    );
    assert!(
        cluster.stats().rpc_calls > calls_before,
        "introspection traffic goes over the normal RMI path and is counted"
    );

    // node_stats(int) is a real remote method, not a property.
    let n1 = cluster
        .call_method(N0, insp.clone(), "node_stats", vec![Value::Int(1)])
        .unwrap();
    assert!(n1.as_str().unwrap().contains("rpc exchanges"));

    // Coherence: getters are cacheable, and refresh is a mutating call —
    // it bumps the object's version, so a re-read after refresh sees the
    // new snapshot rather than a stale cached one.
    let first = get("get_stats");
    assert_eq!(get("get_stats"), first, "second read served consistently");
    cluster
        .call_method(N0, insp.clone(), "refresh", vec![])
        .unwrap();
    let second = get("get_stats");
    assert_ne!(second, first, "refresh must invalidate cached reads");
}

/// A small mixed workload: creation, mutation, cached reads, a migration.
fn run_workload(seed: u64) -> Cluster {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .cache("C", true);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, seed, Box::new(policy));
    let c = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(N0, &c);
    for d in 0..3 {
        cluster
            .call_method(N0, c.clone(), "bump", vec![Value::Int(d)])
            .unwrap();
        cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap();
        cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap();
    }
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();
    cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap();
    cluster
}

#[test]
fn metric_exports_are_byte_identical_across_same_seed_runs() {
    let a = run_workload(42);
    let b = run_workload(42);
    assert_eq!(a.prometheus_text(), b.prometheus_text());
    assert_eq!(a.metrics_json(), b.metrics_json());
    // And non-trivial: counters moved, time series collected points.
    assert!(a.prometheus_text().lines().any(|l| {
        l.starts_with("rafda_") && l.ends_with(|c: char| c.is_ascii_digit()) && !l.ends_with(" 0")
    }));
    assert!(a.metrics_json().contains("\"series\":\"outqueue_depth\""));
}

#[test]
fn node_stats_fold_by_merge_equals_the_cluster_view() {
    let cluster = run_workload(42);
    let mut folded = RuntimeStats::default();
    for n in 0..cluster.node_count() {
        folded.merge(&cluster.node_stats(NodeId(n)));
    }
    let merged = cluster.stats();
    assert_eq!(folded, merged);
    // The breakdown is a real breakdown: the counter's home (node 1) did
    // serving work the driver (node 0) did not, and vice versa.
    assert!(cluster.node_stats(N1).rpc_calls > 0);
    assert!(cluster.node_stats(N0).cache_hits > 0);
    assert_eq!(cluster.node_stats(N1).cache_hits, 0);
}
