//! One-shot consolidated experiment report: regenerates the deterministic
//! half (counts, simulated time) of every experiment in `EXPERIMENTS.md`
//! in seconds and asserts its acceptance bars. Wall clock is the repo
//! benchmark's business (`benchmark/`).
//!
//! Run with: `cargo run -p rafda --example experiments_report --release`

use rafda::baseline::WrapperTransformer;
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::{generate_app, AppSpec, JdkProfile, ObserverHooks};
use rafda::transform::analyze;
use rafda::{
    declare_introspection, AffinityConfig, Application, ClassUniverse, NetError, NodeId, Placement,
    StaticPolicy, Ty, Value, Vm, INTROSPECTION_CLASS,
};

fn chain_app(spec: &AppSpec) -> Application {
    let mut app = Application::new();
    let obs = app.observer();
    generate_app(
        app.universe_mut(),
        ObserverHooks {
            class: obs.class,
            emit: obs.emit,
        },
        spec,
    );
    app
}

fn e1() {
    println!("== E1: Figure 1 redistribution ==");
    let mut app = Application::new();
    rafda::classmodel::sample::build_figure2(app.universe_mut());
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(StaticPolicy::new()));
    let y = cluster
        .new_instance(NodeId(0), "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let net = cluster.network();
    let t0 = net.now();
    for _ in 0..100 {
        cluster
            .call_method(NodeId(0), y.clone(), "n", vec![Value::Long(1)])
            .unwrap();
    }
    let local = (net.now() - t0).as_ns() / 100;
    let h = y.as_ref_handle().unwrap();
    cluster.migrate(NodeId(0), h, NodeId(1)).unwrap();
    let t0 = net.now();
    for _ in 0..100 {
        cluster
            .call_method(NodeId(0), y.clone(), "n", vec![Value::Long(1)])
            .unwrap();
    }
    let remote = (net.now() - t0).as_ns() / 100;
    println!("  local call:  {local} ns (simulated)");
    println!("  remote call: {remote} ns (simulated, via in-place proxy swap)");
    cluster.pull_local(NodeId(0), h).unwrap();
    println!("  boundary reversal (pull_local): ok\n");
}

fn e3() {
    println!("== E3: JDK transformability ==");
    let mut u = ClassUniverse::new();
    rafda::corpus::generate_jdk(&mut u, &JdkProfile::jdk_1_4_1());
    let report = analyze(&u);
    println!(
        "  paper: ~40% of 8,200   measured: {:.1}% of {}\n",
        100.0 * report.non_transformable_fraction(),
        report.total
    );
}

fn e4() {
    println!("== E4: overhead ordering ==");
    let spec = AppSpec {
        classes: 12,
        int_fields: 2,
        statics: false,
        inheritance: false,
        arrays: false,
        seed: 17,
    };
    let run_original = || {
        let app = chain_app(&spec);
        let vm = Vm::new(std::sync::Arc::new(app.universe().clone()));
        vm.bind_observer(&app.observer());
        vm.run_observed("Driver", "main", vec![Value::Int(9)]);
        vm.stats().steps
    };
    let run_rafda = || {
        let rt = chain_app(&spec).transform(&["RMI"]).unwrap().deploy_local();
        rt.run_observed("Driver", "main", vec![Value::Int(9)]);
        rt.vm().stats().steps
    };
    let run_wrapper = || {
        let mut app = chain_app(&spec);
        let obs = app.observer();
        WrapperTransformer::new().run(app.universe_mut()).unwrap();
        let vm = Vm::new(std::sync::Arc::new(app.universe().clone()));
        vm.bind_observer(&obs);
        vm.run_observed("Driver", "main", vec![Value::Int(9)]);
        vm.stats().steps
    };
    let (o, r, w) = (run_original(), run_rafda(), run_wrapper());
    println!(
        "  original: {o} steps   RAFDA: {r} ({:.2}x)   wrapper: {w} ({:.2}x)\n",
        r as f64 / o as f64,
        w as f64 / o as f64
    );
}

fn e5() {
    println!("== E5: protocol comparison (per remote call) ==");
    for proto in ["RMI", "CORBA", "SOAP"] {
        let mut app = Application::new();
        rafda::classmodel::sample::build_figure2(app.universe_mut());
        let policy = StaticPolicy::new()
            .default_statics(NodeId(1))
            .default_protocol(proto);
        let cluster =
            app.transform(&["RMI", "SOAP", "CORBA"])
                .unwrap()
                .deploy(2, 42, Box::new(policy));
        cluster
            .call_static(NodeId(0), "X", "p", vec![Value::Int(6)])
            .unwrap();
        let net = cluster.network();
        net.reset_stats();
        let t0 = net.now();
        for _ in 0..50 {
            cluster
                .call_static(NodeId(0), "X", "p", vec![Value::Int(6)])
                .unwrap();
        }
        let stats = net.stats();
        println!(
            "  {proto:<6} {:>5} bytes/call   {:>9} ns/call",
            stats.bytes / stats.messages.max(1) * 2,
            (net.now() - t0).as_ns() / 50
        );
    }
    println!();
}

fn e6() {
    println!("== E6: adaptation ==");
    let mut app = Application::new();
    rafda::classmodel::sample::build_figure2(app.universe_mut());
    let policy = StaticPolicy::new().place("Y", Placement::Node(NodeId(0)));
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(policy));
    let ys: Vec<Value> = (0..4)
        .map(|i| {
            cluster
                .new_instance(NodeId(1), "Y", 0, vec![Value::Int(i)])
                .unwrap()
        })
        .collect();
    let drive = |tag: &str| {
        let before = cluster.network().stats().messages;
        for y in &ys {
            for d in 0..20 {
                cluster
                    .call_method(NodeId(1), y.clone(), "n", vec![Value::Long(d)])
                    .unwrap();
            }
        }
        println!(
            "  {tag}: {} messages",
            cluster.network().stats().messages - before
        );
    };
    drive("before adapt");
    let events = cluster.adapt(&AffinityConfig::default());
    println!("  adapt: {} migrations", events.len());
    drive("after adapt ");
    println!();
}

fn e7() {
    println!("== E7: equivalence spot checks ==");
    let mut agree = 0;
    for seed in 1..=8u64 {
        let spec = AppSpec {
            classes: 5,
            int_fields: 2,
            statics: true,
            inheritance: seed % 2 == 0,
            arrays: seed % 3 == 0,
            seed,
        };
        let original = chain_app(&spec).run_original("Driver", "main", vec![Value::Int(4)]);
        let rt = chain_app(&spec).transform(&["RMI"]).unwrap().deploy_local();
        let local = rt.run_observed("Driver", "main", vec![Value::Int(4)]);
        if original == local {
            agree += 1;
        }
    }
    println!("  {agree}/8 random programs trace-identical after transformation\n");
}

fn e7_retry() {
    println!("== E7b: fault tolerance — drop rate vs. retry effort ==");
    let spec = AppSpec {
        classes: 6,
        int_fields: 2,
        statics: true,
        inheritance: false,
        arrays: false,
        seed: 77,
    };
    let deploy = || {
        let mut policy = StaticPolicy::new().default_statics(NodeId(1));
        for i in 0..6 {
            policy = policy.place(&format!("C{i}"), Placement::Node(NodeId((i % 2) as u32)));
        }
        chain_app(&spec)
            .transform(&["RMI"])
            .unwrap()
            .deploy(2, 7, Box::new(policy))
    };
    let clean = deploy().run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
    println!("  drop    mean att.  retries  dedup  identical trace");
    for drop in [0.0, 0.05, 0.10, 0.20] {
        let cluster = deploy();
        cluster.network().fault_plan(|f| f.drop_probability = drop);
        let trace = cluster.run_observed(NodeId(0), "Driver", "main", vec![Value::Int(4)]);
        let stats = cluster.stats();
        println!(
            "  {:>4.0}%   {:>9.2}  {:>7}  {:>5}  {}",
            drop * 100.0,
            stats.mean_attempts(),
            stats.retries,
            stats.dedup_hits,
            if trace == clean { "yes" } else { "NO" },
        );
    }
    println!();
}

fn e9() {
    println!("== E9: causal tracing — multi-hop latency breakdown ==");
    let mut app = Application::new();
    rafda::classmodel::sample::build_figure2(app.universe_mut());
    // Figure 2 over three nodes: driver on 0, X on 2, Y on 1 — every
    // x.m() is a two-hop chain 0 -> 2 -> 1 stitched into one trace.
    let policy = StaticPolicy::new()
        .place("Y", Placement::Node(NodeId(1)))
        .place("X", Placement::Node(NodeId(2)))
        .default_statics(NodeId(0));
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 42, Box::new(policy));
    let y = cluster
        .new_instance(NodeId(0), "Y", 0, vec![Value::Int(3)])
        .unwrap();
    let x = cluster.new_instance(NodeId(0), "X", 0, vec![y]).unwrap();
    for j in 0..20 {
        cluster
            .call_method(NodeId(0), x.clone(), "m", vec![Value::Long(j)])
            .unwrap();
    }
    // One lossy call so the trace shows a linked retransmission.
    let net = cluster.network();
    let seq = net.transmit_seq();
    net.fault_plan(|f| f.drop_message(seq));
    cluster
        .call_method(NodeId(0), x, "m", vec![Value::Long(99)])
        .unwrap();

    print!("{}", cluster.telemetry_report(5));
    let log = cluster.span_log();
    let lossy_trace = log
        .spans()
        .iter()
        .rfind(|s| s.name == "rpc.call" && s.node == 0)
        .expect("traced call")
        .trace_id;
    let path: Vec<String> = log
        .critical_path(lossy_trace)
        .iter()
        .map(|s| format!("{}@n{}", s.name, s.node))
        .collect();
    println!("  critical path (lossy call): {}", path.join(" -> "));
    let out = std::path::Path::new("target").join("e9_trace.json");
    if cluster.export_chrome_trace(&out).is_ok() {
        println!(
            "  chrome trace written to {} (open in about:tracing)",
            out.display()
        );
    }
    println!();
}

fn e10() {
    println!("== E10: coherent proxy-side property caching ==");
    let run = |cache: bool| {
        let mut app = Application::new();
        rafda::classmodel::sample::build_figure2(app.universe_mut());
        let policy = StaticPolicy::new()
            .place("Y", Placement::Node(NodeId(1)))
            .default_statics(NodeId(0))
            .cache("Y", cache);
        let cluster = app
            .transform(&["RMI"])
            .unwrap()
            .deploy(2, 42, Box::new(policy));
        let y = cluster
            .new_instance(NodeId(0), "Y", 0, vec![Value::Int(3)])
            .unwrap();
        cluster.pin(NodeId(0), &y);
        let t0 = cluster.network().now();
        for _ in 0..8 {
            cluster
                .call_method(NodeId(0), y.clone(), "set_base", vec![Value::Int(1)])
                .unwrap();
            for _ in 0..8 {
                cluster
                    .call_method(NodeId(0), y.clone(), "get_base", vec![])
                    .unwrap();
            }
        }
        (
            cluster.network().stats().messages,
            (cluster.network().now() - t0).as_ns() / 1000,
            cluster.stats(),
        )
    };
    let (m_off, us_off, _) = run(false);
    let (m_on, us_on, stats) = run(true);
    println!("  reads:writes 8:1   cache off: {m_off} messages, {us_off} us (simulated)");
    println!(
        "  cache on: {m_on} messages, {us_on} us — {} hits / {} misses / {} invalidations",
        stats.cache_hits, stats.cache_misses, stats.cache_invalidations
    );
    println!(
        "  remote exchanges removed: {}%\n",
        100 * (m_off - m_on) / m_off.max(1)
    );
}

fn e11() {
    println!("== E11: crash-stop failover — k-replicated exports ==");
    // A counter whose owner we kill mid-run: 10 calls, crash, 10 more calls.
    let run = |k: u32| {
        let mut app = Application::new();
        let u = app.universe_mut();
        let c = u.declare("C", ClassKind::Class);
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
        cb.method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .default_statics(NodeId(0))
            .replicate("C", k);
        let cluster = app
            .transform(&["RMI"])
            .unwrap()
            .deploy(3, 42, Box::new(policy));
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let mut outs = Vec::new();
        for _ in 0..10 {
            outs.push(cluster.call_method(NodeId(0), obj.clone(), "bump", vec![Value::Int(1)]));
        }
        cluster.crash(NodeId(1));
        for _ in 0..10 {
            outs.push(cluster.call_method(NodeId(0), obj.clone(), "bump", vec![Value::Int(1)]));
        }
        (outs, cluster.stats())
    };

    let (rep, rep_stats) = run(1);
    let ok = rep.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 20, "with replicate 1 every call must survive the crash");
    assert_eq!(
        rep.last().unwrap().as_ref().unwrap(),
        &Value::Int(20),
        "no acknowledged increment may be lost or double-applied"
    );
    assert!(
        rep_stats.failovers > 0,
        "the crash must be visible: {rep_stats}"
    );
    println!("  schedule: 10 calls -> crash owner (node 1) -> 10 calls, client on node 0");
    println!(
        "  replicate 1: {ok}/20 ok, final value 20, {} failovers / {} promotions / {} replica syncs",
        rep_stats.failovers, rep_stats.promotions, rep_stats.replica_syncs
    );

    let (bare, bare_stats) = run(0);
    let ok = bare.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 10, "without replication the post-crash calls must fail");
    let err = bare[10].as_ref().unwrap_err();
    let nf = err.net_failure().expect("typed network failure");
    assert_eq!(nf.kind, NetError::NodeCrashed(NodeId(1)));
    assert_eq!(bare_stats.failovers, 0);
    println!(
        "  replicate 0: {ok}/20 ok, first post-crash error: {} (typed, {} attempt)\n",
        err, nf.attempts
    );
}

fn e12() {
    println!("== E12: batched remote invocation — deferred void calls ==");
    // Write-heavy workload: each round fires 8 void `inc`s then reads the
    // total; the read is the synchronization point that flushes the batch.
    let run = |batch: bool| {
        let mut app = Application::new();
        let u = app.universe_mut();
        let c = u.declare("C", ClassKind::Class);
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
        mb.ret();
        cb.method(u, "inc", vec![Ty::Int], Ty::Void, Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(u, "total", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(u);
        let policy = StaticPolicy::new()
            .place("C", Placement::Node(NodeId(1)))
            .default_statics(NodeId(0))
            .batch("C", batch);
        let cluster = app
            .transform(&["RMI"])
            .unwrap()
            .deploy(2, 42, Box::new(policy));
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let m0 = cluster.network().stats().messages;
        let t0 = cluster.network().now();
        let mut total = Value::Int(0);
        for _ in 0..16 {
            for _ in 0..8 {
                cluster
                    .call_method(NodeId(0), obj.clone(), "inc", vec![Value::Int(1)])
                    .unwrap();
            }
            total = cluster
                .call_method(NodeId(0), obj.clone(), "total", vec![])
                .unwrap();
        }
        assert_eq!(total, Value::Int(128), "an increment was lost");
        (
            cluster.network().stats().messages - m0,
            cluster.network().now() - t0,
            cluster.stats(),
        )
    };

    let (off_msgs, off_t, off_stats) = run(false);
    let (on_msgs, on_t, on_stats) = run(true);
    assert_eq!(off_stats.batched_ops, 0, "batching off must be inert");
    assert_eq!(off_stats.flushes, 0, "batching off must be inert");
    assert!(
        on_msgs * 10 <= off_msgs * 6,
        "batching must save >= 40% of messages ({on_msgs} vs {off_msgs})"
    );
    println!("  workload: 16 rounds x (8 void incs + 1 total read), owner remote");
    println!("  batch off: {off_msgs} messages, {off_t} simulated");
    println!(
        "  batch on:  {on_msgs} messages, {on_t} simulated ({} deferred ops in {} flushes)\n",
        on_stats.batched_ops, on_stats.flushes
    );
}

fn e13() {
    println!("== E13: zero-copy wire fast path — signature interning & buffer reuse ==");
    // A chatty remote counter: every call repeats the same method signature,
    // which is exactly what per-link interning compresses. Wall-clock
    // cost lives in the benchmark's `wire.*` metrics (`ci.sh` gates header
    // decode against the full round trip); this report prints only the
    // deterministic wire-level counters.
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(1);
    mb.ret();
    cb.ctor(u, vec![], Some(mb.finish()));
    let mut mb = MethodBuilder::new(1);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.const_int(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, "tick", vec![], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .default_statics(NodeId(0));
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(2, 42, Box::new(policy));
    let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
    let net = cluster.network();
    let t0 = net.stats().bytes;
    cluster
        .call_method(NodeId(0), obj.clone(), "tick", vec![])
        .unwrap();
    let first = net.stats().bytes - t0;
    let t1 = net.stats().bytes;
    for _ in 0..31 {
        cluster
            .call_method(NodeId(0), obj.clone(), "tick", vec![])
            .unwrap();
    }
    let repeat = (net.stats().bytes - t1) / 31;
    let stats = cluster.stats();
    assert!(
        repeat < first,
        "interned repeat calls must be smaller on the wire ({repeat} vs {first})"
    );
    assert!(stats.wire_buf_reuses > 0, "encode buffers must be pooled");
    println!("  workload: 32 identical remote calls over RMI, owner remote");
    println!("  bytes/exchange: {first} first call, {repeat} repeat calls (interned)");
    println!(
        "  signature table: {} defined, {} referenced; encode buffers reused {} times\n",
        stats.sig_defs, stats.sig_refs, stats.wire_buf_reuses
    );
}

/// The E14 counter class: `C { int v; C(int); int bump(int) }`.
fn e14_counter_app() -> Application {
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

fn e14() {
    println!("== E14: reflective observability plane — metrics, monitors, introspection ==");
    // A cached, replicated counter under live monitors: mutations, cached
    // reads, then a crash-stop of the home node and a failover to its
    // promoted backup. The introspection object is itself a distributed
    // object — reading the cluster's stats goes over the normal RMI path.
    let mut app = e14_counter_app();
    declare_introspection(app.universe_mut());
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .place(INTROSPECTION_CLASS, Placement::Node(NodeId(2)))
        .default_statics(NodeId(0))
        .cache("C", true)
        .replicate("C", 1);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 42, Box::new(policy));
    cluster.enable_monitors();
    let c = cluster
        .new_instance(NodeId(0), "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(NodeId(0), &c);
    for d in 0..4 {
        cluster
            .call_method(NodeId(0), c.clone(), "bump", vec![Value::Int(d)])
            .unwrap();
        for _ in 0..2 {
            cluster
                .call_method(NodeId(0), c.clone(), "get_v", vec![])
                .unwrap();
        }
    }
    cluster.crash(NodeId(1));
    cluster
        .call_method(NodeId(0), c.clone(), "bump", vec![Value::Int(1)])
        .unwrap();
    let after = cluster
        .call_method(NodeId(0), c.clone(), "get_v", vec![])
        .unwrap();
    assert_eq!(after, Value::Int(12), "failover preserved the counter");

    let violations = cluster.check_invariants();
    assert!(violations.is_empty(), "watchdogs fired: {violations:?}");
    println!("  monitors (stale-read, at-most-once, span-tree, replica-divergence): silent");
    for n in 0..3 {
        let s = cluster.node_stats(NodeId(n));
        println!(
            "  node{n}: {} calls served, {} cache hits, {} replica syncs, {} promotions",
            s.rpc_calls, s.cache_hits, s.replica_syncs, s.promotions
        );
    }

    // The same stats, read *through* the cluster: an introspection getter
    // served over RMI (and counted by the metrics it reports).
    let insp = cluster
        .new_instance(NodeId(0), INTROSPECTION_CLASS, 0, vec![])
        .unwrap();
    cluster
        .call_method(NodeId(0), insp.clone(), "refresh", vec![])
        .unwrap();
    let stats = cluster
        .call_method(NodeId(0), insp, "get_stats", vec![])
        .unwrap();
    println!(
        "  rafda.Introspection.get_stats() over RMI: {}",
        stats.as_str().unwrap_or("<not a string>")
    );

    // Deterministic exports: ci.sh diffs both files across same-seed runs.
    let prom = cluster.prometheus_text();
    let json = cluster.metrics_json();
    let prom_path = std::path::Path::new("target").join("e14_metrics.prom");
    let json_path = std::path::Path::new("target").join("e14_metrics.jsonl");
    if std::fs::write(&prom_path, &prom).is_ok() && std::fs::write(&json_path, &json).is_ok() {
        println!(
            "  exports: {} ({} lines), {} ({} lines)",
            prom_path.display(),
            prom.lines().count(),
            json_path.display(),
            json.lines().count()
        );
    }

    // The canary, for contrast: skip one cache tombstone during a
    // migration and the stale-read watchdog pins the offending exchange.
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(NodeId(1)))
        .default_statics(NodeId(0))
        .cache("C", true);
    let canary = e14_counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 42, Box::new(policy));
    canary.enable_monitors();
    let c = canary
        .new_instance(NodeId(0), "C", 0, vec![Value::Int(5)])
        .unwrap();
    canary.pin(NodeId(0), &c);
    for _ in 0..2 {
        canary
            .call_method(NodeId(0), c.clone(), "get_v", vec![])
            .unwrap();
    }
    let mut home = None;
    canary.vm(NodeId(1)).with_heap(|heap| {
        for h in heap.handles() {
            if let Some(class) = heap.class_of(h) {
                if &*canary.universe().class(class).name == "C_O_Local" {
                    home = Some(h);
                }
            }
        }
    });
    canary.debug_skip_next_tombstone();
    canary
        .migrate(NodeId(1), home.expect("counter home"), NodeId(2))
        .unwrap();
    canary
        .call_method(NodeId(0), c.clone(), "get_v", vec![])
        .unwrap();
    let caught = canary.monitor_violations();
    assert_eq!(caught.len(), 1, "the canary must be caught: {caught:?}");
    println!(
        "  injected canary caught: [{}] {}\n",
        caught[0].monitor, caught[0].message
    );
}

/// The E15 keyed store: `S { int k; int v; S(int k); int put(int d) }`.
fn e15_store_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, s);
    let k = cb.field(Field::new("k", Ty::Int));
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(2);
    mb.load_this().load_local(1).put_field(s, k).ret();
    cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(s, v);
    mb.load_local(1).add();
    mb.put_field(s, v);
    mb.load_this().get_field(s, v).ret_value();
    cb.method(u, "put", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    app
}

fn e15() {
    println!("== E15: policy-driven sharding & replica reads — placement under skew ==");
    // A 16-key store takes the same Zipf-skewed, read-mostly stream under
    // two placement policies; the only variable is where instances live
    // and where getters are served. ci.sh diffs this whole section across
    // same-seed runs, so a hash-order or wall-clock leak anywhere in the
    // shard map, replica-read path or rebalance tick shows up as a diff.
    const KEYS: usize = 16;
    let ops = rafda::corpus::workload::ZipfWorkload::new(42, KEYS, 1.1).sequence(512);

    let run = |policy: StaticPolicy| -> (u64, u64, u64, Vec<Value>) {
        let cluster = e15_store_app()
            .transform(&["RMI"])
            .unwrap()
            .deploy(4, 42, Box::new(policy));
        cluster.enable_monitors();
        let objs: Vec<Value> = (0..KEYS)
            .map(|i| {
                let o = cluster
                    .new_instance(NodeId(0), "S", 0, vec![Value::Int(i as i32)])
                    .unwrap();
                cluster.pin(NodeId(0), &o);
                cluster
                    .call_method(NodeId(0), o.clone(), "put", vec![Value::Int(0)])
                    .unwrap();
                o
            })
            .collect();
        let m0 = cluster.network().stats().messages;
        let mut latencies: Vec<u64> = Vec::with_capacity(ops.len());
        for (i, &key) in ops.iter().enumerate() {
            let s0 = cluster.network().now().as_ns();
            let (method, args) = if i % 32 == 31 {
                ("put", vec![Value::Int(1)])
            } else {
                ("get_v", vec![])
            };
            cluster
                .call_method(NodeId(0), objs[key].clone(), method, args)
                .unwrap();
            latencies.push(cluster.network().now().as_ns() - s0);
        }
        let messages = cluster.network().stats().messages - m0;
        let finals: Vec<Value> = objs
            .iter()
            .map(|o| {
                cluster
                    .call_method(NodeId(0), o.clone(), "get_v", vec![])
                    .unwrap()
            })
            .collect();
        assert!(cluster.check_invariants().is_empty(), "a monitor fired");
        latencies.sort_unstable();
        let p95 = latencies[latencies.len() * 95 / 100];
        (messages, p95, cluster.stats().replica_reads, finals)
    };

    let single = run(StaticPolicy::new()
        .place("S", Placement::Node(NodeId(1)))
        .replicate("S", 1));
    let sharded = run(StaticPolicy::new()
        .shard("S", "get_k", 8)
        .replicate("S", 1)
        .replica_reads("S", true));
    for (name, o) in [
        ("single-owner", &single),
        ("sharded+replica-reads", &sharded),
    ] {
        println!(
            "  {name:<22} {:>5} messages, p95 {:>7} ns, {:>4} replica reads",
            o.0, o.1, o.2
        );
    }
    assert_eq!(single.3, sharded.3, "placement changed observable values");
    assert!(
        sharded.0 * 10 <= single.0 * 7,
        "sharding must cut messages >= 30%: {} vs {}",
        sharded.0,
        single.0
    );
    assert!(
        sharded.1 < single.1,
        "sharded p95 must beat single-owner: {} vs {} ns",
        sharded.1,
        single.1
    );

    // The adaptation tick: skewed call counts move the warm shard off the
    // hot node, deterministically, and converge in one step.
    let cluster = e15_store_app().transform(&["RMI"]).unwrap().deploy(
        2,
        42,
        Box::new(StaticPolicy::new().shard("S", "get_k", 4)),
    );
    let driver = NodeId(1);
    let mut on_zero = Vec::new();
    for key in 0..KEYS as i32 {
        let o = cluster
            .new_instance(driver, "S", 0, vec![Value::Int(key)])
            .unwrap();
        cluster.pin(driver, &o);
        if cluster.location_of(driver, &o) == Some(NodeId(0)) && on_zero.len() < 2 {
            on_zero.push(o);
        }
    }
    for _ in 0..20 {
        cluster
            .call_method(driver, on_zero[0].clone(), "put", vec![Value::Int(1)])
            .unwrap();
    }
    for _ in 0..4 {
        cluster
            .call_method(driver, on_zero[1].clone(), "put", vec![Value::Int(1)])
            .unwrap();
    }
    for event in cluster.rebalance_shards(&AffinityConfig::default()) {
        println!("  rebalance tick: {event}");
    }
    assert_eq!(cluster.stats().shard_rebalances, 1, "one shard moves");
    assert!(
        cluster
            .rebalance_shards(&AffinityConfig::default())
            .is_empty(),
        "second tick must converge"
    );
    println!("  second tick: converged (no-op)\n");
}

fn e16() {
    use rafda::corpus::ops::{generate_churn, ChurnConfig};
    use rafda::soak::run_schedule;
    println!("== E16: production-day soak (all features, oracle-exact) ==");
    let cfg = ChurnConfig::production_day(7, 1_500);
    let schedule = generate_churn(&cfg);
    let report = run_schedule(&cfg, &schedule).expect("the soak must match the oracle");
    assert!(report.clean(), "{report}");
    for line in report.to_string().lines() {
        println!("  {line}");
    }
    println!("  gate depth: cargo test --test soak (SOAK_OPS / SOAK_SEEDS)\n");
}

fn main() {
    println!("RAFDA reproduction — consolidated experiment report\n");
    e1();
    e3();
    e4();
    e5();
    e6();
    e7();
    e7_retry();
    e9();
    e10();
    e11();
    e12();
    e13();
    e14();
    e15();
    e16();
    println!("wall clock: benchmark/ (see BENCHMARK.json and EXPERIMENTS.md)");
}
