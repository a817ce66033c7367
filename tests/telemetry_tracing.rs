//! Causal distributed tracing acceptance tests: one trace per top-level
//! operation across all hops, retransmissions linked via `retry_of`, and
//! byte-identical telemetry across same-seed runs.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{sample, ClassKind, Field};
use rafda::telemetry::SpanOutcome;
use rafda::{
    Application, Cluster, NodeId, Placement, RetryPolicy, RuntimeStats, Span, SpanLog,
    StaticPolicy, Ty, Value,
};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

/// The paper's Figure 2 program spread over three nodes: the driver on
/// node 0, X's statics/instances on node 2, Y's on node 1 — so `x.m()`
/// from node 0 hops 0 -> 2 -> 1.
fn three_node_cluster(seed: u64) -> Cluster {
    let mut app = Application::new();
    sample::build_figure2(app.universe_mut());
    let policy = StaticPolicy::new()
        .place("Y", Placement::Node(N1))
        .place("X", Placement::Node(N2))
        .default_statics(N0);
    app.transform(&["RMI"])
        .unwrap()
        .deploy(3, seed, Box::new(policy))
}

fn find_span(log: &SpanLog, pred: impl Fn(&Span) -> bool) -> Span {
    log.spans()
        .find(|s| pred(s))
        .expect("expected span missing")
}

#[test]
fn multi_hop_call_is_one_trace_with_a_cross_node_parent_chain() {
    let cluster = three_node_cluster(5);
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    let before = cluster.span_log().spans().len();
    let r = cluster
        .call_method(N0, x, "m", vec![Value::Long(4)])
        .unwrap();
    assert_eq!(r, Value::Int(7));

    let log = cluster.span_log();
    let new: Vec<Span> = log.spans().skip(before).collect();
    // The client exchange on node 0 roots a fresh trace.
    let exch_x = new
        .iter()
        .find(|s| s.name == "rpc.call" && s.node == 0)
        .expect("client exchange span");
    assert_eq!(exch_x.parent_span_id, 0, "top-level call roots the trace");
    assert_eq!(log.attr_str(exch_x, "class"), Some("X"));
    assert_eq!(log.attr_str(exch_x, "protocol"), Some("RMI"));
    assert!(log.attr_str(exch_x, "method").unwrap().starts_with("m@"));
    let t = exch_x.trace_id;

    // Server dispatch on node 2 parents to the client exchange via the
    // wire context.
    let serve_x = find_span(&log, |s| {
        s.name == "serve.call" && s.node == 2 && s.trace_id == t
    });
    assert_eq!(serve_x.parent_span_id, exch_x.span_id);
    assert_eq!(serve_x.outcome, SpanOutcome::Ok);

    // The nested proxy->proxy call to Y on node 1 stays in the same trace:
    // node 2's client exchange is a child of its own serve span, and node
    // 1's serve span is a child of that exchange.
    let exch_y = find_span(&log, |s| {
        s.name == "rpc.call" && s.node == 2 && s.trace_id == t
    });
    assert_eq!(exch_y.parent_span_id, serve_x.span_id);
    assert_eq!(log.attr_str(&exch_y, "class"), Some("Y"));
    let serve_y = find_span(&log, |s| {
        s.name == "serve.call" && s.node == 1 && s.trace_id == t
    });
    assert_eq!(serve_y.parent_span_id, exch_y.span_id);

    // All three nodes appear in the one trace, and the critical path walks
    // the whole chain down to the innermost hop.
    let nodes: std::collections::BTreeSet<u32> = log
        .spans()
        .filter(|s| s.trace_id == t)
        .map(|s| s.node)
        .collect();
    assert_eq!(nodes.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    let path = log.critical_path(t);
    assert_eq!(path.first().map(|s| s.span_id), Some(exch_x.span_id));
    assert!(path.iter().any(|s| s.span_id == serve_y.span_id));
    // Simulated interval nesting: each child lies within its parent.
    assert!(exch_x.start_ns <= serve_x.start_ns && serve_x.end_ns <= exch_x.end_ns);
    assert!(serve_x.start_ns <= exch_y.start_ns && exch_y.end_ns <= serve_x.end_ns);
}

#[test]
fn retransmissions_reuse_the_trace_and_chain_via_retry_of() {
    let cluster = three_node_cluster(11);
    cluster.set_retry_policy(RetryPolicy::default());
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(1)])
        .unwrap();
    cluster.pin(N0, &y);
    let net = cluster.network();
    // Kill exactly the request leg of the next RPC: attempt 1 fails in
    // transit, attempt 2 retransmits the identical frame.
    let seq = net.transmit_seq();
    net.fault_plan(|f| f.drop_message(seq));
    let before = cluster.span_log().spans().len();
    let r = cluster
        .call_method(N0, y.clone(), "n", vec![Value::Long(5)])
        .unwrap();
    assert_eq!(r, Value::Int(6));

    let log = cluster.span_log();
    let new: Vec<Span> = log.spans().skip(before).collect();
    let exch = new
        .iter()
        .find(|s| s.name == "rpc.call")
        .expect("exchange span");
    let attempts: Vec<&Span> = new
        .iter()
        .filter(|s| s.name == "rpc.attempt" && s.parent_span_id == exch.span_id)
        .collect();
    assert_eq!(attempts.len(), 2, "one failed attempt + one retransmission");
    assert_eq!(attempts[0].outcome, SpanOutcome::NetFailure);
    assert_eq!(attempts[0].retry_of(), None);
    assert_eq!(attempts[1].outcome, SpanOutcome::Ok);
    assert_eq!(
        attempts[1].retry_of(),
        Some(attempts[0].span_id),
        "the retransmission points at the attempt it retries"
    );
    // Same trace, fresh span ids.
    assert_eq!(attempts[0].trace_id, exch.trace_id);
    assert_eq!(attempts[1].trace_id, exch.trace_id);
    assert_ne!(attempts[0].span_id, attempts[1].span_id);
    assert_eq!(
        log.attr(exch, "attempts").map(|a| a.to_string()),
        Some("2".into())
    );

    // Now kill a reply leg: the server runs once, the retransmission is
    // answered from the reply cache and its serve span says so.
    let seq = net.transmit_seq() + 1;
    net.fault_plan(|f| f.drop_message(seq));
    let before = cluster.span_log().spans().len();
    let r = cluster
        .call_method(N0, y, "n", vec![Value::Long(7)])
        .unwrap();
    assert_eq!(r, Value::Int(8));
    let log = cluster.span_log();
    let serves: Vec<Span> = log
        .spans()
        .skip(before)
        .filter(|s| s.name == "serve.call")
        .collect();
    assert_eq!(serves.len(), 2, "original dispatch + dedup hit");
    assert_eq!(log.attr(&serves[0], "cached"), None);
    assert_eq!(
        log.attr(&serves[1], "cached").map(|a| a.to_string()),
        Some("true".into())
    );
    assert_eq!(serves[0].trace_id, serves[1].trace_id);
}

/// Run one fixed scenario (calls, a failure, a migration) and return the
/// cluster — the determinism tests run it twice and diff the telemetry.
fn scripted_scenario(seed: u64) -> Cluster {
    let cluster = three_node_cluster(seed);
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    cluster.pin(N0, &x);
    for i in 0..4 {
        cluster
            .call_method(N0, x.clone(), "m", vec![Value::Long(i)])
            .unwrap();
    }
    let net = cluster.network();
    let seq = net.transmit_seq();
    net.fault_plan(|f| f.drop_message(seq));
    cluster
        .call_method(N0, x.clone(), "m", vec![Value::Long(9)])
        .unwrap();
    cluster
}

#[test]
fn telemetry_is_byte_identical_across_same_seed_runs() {
    let a = scripted_scenario(42);
    let b = scripted_scenario(42);
    assert_eq!(a.span_log(), b.span_log(), "span logs diverged");
    assert_eq!(
        a.span_log().chrome_trace_json(),
        b.span_log().chrome_trace_json(),
        "chrome export diverged"
    );
    assert_eq!(
        a.span_log().method_histograms(),
        b.span_log().method_histograms(),
        "histograms diverged"
    );
    assert_eq!(
        a.telemetry_report(10),
        b.telemetry_report(10),
        "report diverged"
    );
    // A different seed shifts the simulated timings.
    let c = scripted_scenario(43);
    assert_ne!(a.span_log(), c.span_log());

    // The per-node breakdown is exhaustive: folding every node's stats
    // through `merge` reproduces the cluster-wide view exactly.
    let mut folded = RuntimeStats::default();
    for n in 0..a.node_count() {
        folded.merge(&a.node_stats(NodeId(n)));
    }
    assert_eq!(folded, a.stats(), "per-node sums equal the merged view");
}

/// A batched, replicated counter: deferred `inc` mutations ride the
/// outcall queue, then the home crashes and the next read fails over to a
/// promoted backup. Batching and failover had never been traced together.
fn batched_failover_scenario(seed: u64) -> Cluster {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(2);
    mb.load_this().load_local(1).put_field(c, v).ret();
    cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    // void inc(int d) { v += d; } — void, so batching can defer it.
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.ret();
    cb.method(u, "inc", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    cb.finish(u);

    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .batch("C", true)
        .replicate("C", 1);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, seed, Box::new(policy));
    cluster.enable_monitors();
    let obj = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(0)])
        .unwrap();
    cluster.pin(N0, &obj);
    let read = || {
        cluster
            .call_method(N0, obj.clone(), "get_v", vec![])
            .unwrap()
    };
    for d in 1..4 {
        cluster
            .call_method(N0, obj.clone(), "inc", vec![Value::Int(d)])
            .unwrap();
    }
    assert_eq!(read(), Value::Int(6), "flush drained the deferred incs");
    cluster.crash(N1);
    // The read fails over: the backup promotes and serves 6.
    assert_eq!(read(), Value::Int(6));
    for d in 1..3 {
        cluster
            .call_method(N0, obj.clone(), "inc", vec![Value::Int(d)])
            .unwrap();
    }
    assert_eq!(read(), Value::Int(9));
    assert_eq!(cluster.check_invariants(), vec![], "monitors stay silent");
    cluster
}

#[test]
fn batched_failover_telemetry_is_byte_identical_across_same_seed_runs() {
    let a = batched_failover_scenario(17);
    let b = batched_failover_scenario(17);
    assert_eq!(a.span_log(), b.span_log(), "span logs diverged");
    assert_eq!(
        a.span_log().chrome_trace_json(),
        b.span_log().chrome_trace_json(),
        "chrome export diverged"
    );
    assert_eq!(
        a.telemetry_report(10),
        b.telemetry_report(10),
        "report diverged"
    );
    assert_eq!(a.prometheus_text(), b.prometheus_text());
    assert_eq!(a.metrics_json(), b.metrics_json());
    // Both features genuinely engaged, in one trace history.
    let stats = a.stats();
    assert!(stats.batched_ops > 0, "batching never deferred: {stats}");
    assert!(stats.failovers > 0, "no failover happened: {stats}");
    assert!(a.span_log().spans().any(|s| s.name == "rpc.failover"));
}

#[test]
fn histograms_and_report_cover_the_observed_methods() {
    let cluster = scripted_scenario(7);
    let log = cluster.span_log();
    let hists = log.method_histograms();
    let m_key = hists
        .keys()
        .find(|k| k.class == "X" && k.method.starts_with("m@"))
        .expect("X.m histogram");
    assert_eq!(m_key.protocol, "RMI");
    assert_eq!(hists[m_key].count, 5, "four clean calls + one retried");
    assert!(hists[m_key].mean() > 0);
    assert!(hists[m_key].percentile(50) <= hists[m_key].percentile(99));

    let report = cluster.telemetry_report(5);
    assert!(report.contains("top 5 slowest spans"), "{report}");
    assert!(report.contains("hottest methods"), "{report}");
    assert!(report.contains("per-link round-trip latency"), "{report}");
    assert!(report.contains("X.m@"), "{report}");

    let links = log.link_percentiles();
    assert!(
        links
            .iter()
            .any(|l| l.from == 0 && l.to == 2 && l.count >= 5),
        "driver -> X-home link summarised: {links:?}"
    );
    assert!(links.iter().all(|l| l.p50 <= l.p95 && l.p95 <= l.p99));
}

#[test]
fn chrome_export_writes_loadable_trace_events() {
    let cluster = scripted_scenario(3);
    let dir = std::env::temp_dir().join("rafda_telemetry_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    cluster.export_chrome_trace(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert_eq!(json, cluster.span_log().chrome_trace_json());
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"M\"") && json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"rpc.call\""));
    assert!(json.contains("\"retry_of\""), "retry links survive export");
    std::fs::remove_file(&path).ok();
}

#[test]
fn chrome_export_escapes_control_characters_in_names_and_attributes() {
    // Golden check for the JSON string escaper: spans can carry arbitrary
    // method strings (a hostile class name, a corrupted frame echoed into
    // a fault message), and the export must stay parseable.
    let mut log = SpanLog::new();
    let h = log.start_span("rpc\u{1}call", 0, 10);
    log.set_attr(h, "method", "tab\there\nnl\r\u{8}\u{1f}end");
    log.set_attr(h, "class", "quote\"back\\slash");
    log.end_span(h, 20, SpanOutcome::Ok);
    let json = log.chrome_trace_json();
    assert!(json.contains("\"name\":\"rpc\\u0001call\""), "{json}");
    assert!(
        json.contains("\"method\":\"tab\\there\\nnl\\r\\u0008\\u001fend\""),
        "{json}"
    );
    assert!(
        json.contains("\"class\":\"quote\\\"back\\\\slash\""),
        "{json}"
    );
    // No raw control byte may survive anywhere in the document.
    assert!(
        json.chars().all(|c| c >= ' ' || c == '\n'),
        "raw control characters leaked into the export"
    );
}

#[test]
fn migration_is_traced_with_its_state_transfer() {
    let cluster = three_node_cluster(9);
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    cluster.pin(N0, &x);
    // Find Y's home handle on node 1 and migrate it to node 2.
    let vm1 = cluster.vm(N1);
    let mut y_home = None;
    vm1.with_heap(|heap| {
        for h in heap.handles() {
            if let Some(class) = heap.class_of(h) {
                if &*cluster.universe().class(class).name == "Y_O_Local" {
                    y_home = Some(h);
                }
            }
        }
    });
    cluster
        .migrate(N1, y_home.expect("Y on node 1"), N2)
        .unwrap();

    let log = cluster.span_log();
    let mig = find_span(&log, |s| s.name == "migrate");
    assert_eq!(mig.outcome, SpanOutcome::Ok);
    assert_eq!(log.attr_str(&mig, "class"), Some("Y"));
    // The state transfer (install RPC + its dispatch) is inside the
    // migration span's trace.
    let install = find_span(&log, |s| s.name == "rpc.install");
    assert_eq!(install.trace_id, mig.trace_id);
    assert_eq!(install.parent_span_id, mig.span_id);
    let serve_install = find_span(&log, |s| s.name == "serve.install");
    assert_eq!(serve_install.trace_id, mig.trace_id);
    assert_eq!(serve_install.node, 2);
}

#[test]
fn describe_reflects_registries_stats_and_crash_state() {
    let cluster = three_node_cluster(21);
    let y = cluster
        .new_instance(N0, "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(N0, "X", 0, vec![y]).unwrap();
    cluster
        .call_method(N0, x, "m", vec![Value::Long(2)])
        .unwrap();

    let before = cluster.describe();
    assert_eq!(before.len(), 3);
    // The driver node imports X and Y; as the statics owner it also
    // exports the class singletons the other nodes discovered.
    assert!(before[0].exports >= 1, "{:?}", before[0]);
    assert!(before[0].imports >= 2, "{:?}", before[0]);
    // X's home exports X and holds a proxy import for Y; Y's home exports Y.
    assert!(before[2].exports >= 1, "{:?}", before[2]);
    assert!(before[2].imports >= 1, "{:?}", before[2]);
    assert!(before[1].exports >= 1, "{:?}", before[1]);
    // Statics resolve singletons on their owners; every dispatch left a
    // cached reply for at-most-once dedup.
    assert!(
        before[1].singletons.contains(&"Y".to_owned()),
        "{:?}",
        before[1]
    );
    assert!(before[1].cached_replies > 0);
    assert!(before[2].cached_replies > 0);
    assert!(before.iter().all(|s| !s.crashed));
    assert!(before[1].live_objects > 0);

    // Crash Y's home: only its summary flips, and Display says so.
    cluster.network().fault_plan(|f| f.crash(N1));
    let after = cluster.describe();
    assert!(!after[0].crashed && after[1].crashed && !after[2].crashed);
    assert!(
        after[1].to_string().contains("node1 (crashed):"),
        "{}",
        after[1]
    );
    assert!(!after[0].to_string().contains("crashed"), "{}", after[0]);
    // Everything else is unchanged by the crash flag.
    assert_eq!(after[1].exports, before[1].exports);
    assert_eq!(after[1].singletons, before[1].singletons);
}
