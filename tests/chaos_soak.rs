//! Chaos soak test: a random interleaving of calls, migrations, pulls and
//! adaptation passes over a pool of counter objects, checked against an
//! exact oracle. Whatever the boundary history, every call must return
//! exactly what a single-address-space run would have — the paper's
//! interchangeability claim under adversarial schedules.
//!
//! All four properties generate their schedules from the shared op
//! vocabulary in [`rafda::corpus::ops`] — the same [`SoakOp`] enum the
//! production-day soak gate (E16, `tests/soak.rs`) churns with, here at
//! per-feature mixes with proptest shrinking.

use proptest::prelude::*;
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::ops::{OpMix, SoakOp};
use rafda::{AffinityConfig, Application, LocalPolicy, NodeId, Placement, StaticPolicy, Ty, Value};

const POOL: usize = 4;
const NODES: u32 = 3;

fn counter_class(app: &mut Application, name: &str) {
    let u = app.universe_mut();
    let c = u.declare(name, ClassKind::Class);
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
}

fn counter_app() -> Application {
    let mut app = Application::new();
    counter_class(&mut app, "Counter");
    app
}

/// A counter with both a value-returning `add` (a synchronization point)
/// and a void `inc` (deferrable under `batch on`).
fn batched_counter_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("BCounter", ClassKind::Class);
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
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.ret();
    cb.method(u, "inc", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    cb.finish(u);
    app
}

/// The **E12** acceptance bar: on a write-heavy workload (32 rounds of
/// eight void `inc`s and one value-returning `add`, the synchronization
/// point that flushes the round's batch) `batch on` saves at least 40 % of
/// the finished exchanges at k = 0, 1 and 2, and no `inc` is lost.
#[test]
fn batching_saves_two_fifths_of_exchanges_at_every_replication_factor() {
    let exchanges = |k: u32, batch: bool| -> u64 {
        let policy = StaticPolicy::new()
            .place("BCounter", Placement::Node(NodeId(1)))
            .default_statics(NodeId(0))
            .replicate("BCounter", k)
            .batch("BCounter", batch);
        let cluster =
            batched_counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(NODES, 42, Box::new(policy));
        let c = cluster
            .new_instance(NodeId(0), "BCounter", 0, vec![])
            .unwrap();
        cluster.pin(NodeId(0), &c);
        let before = cluster.stats().exchanges();
        for round in 1..=32 {
            for _ in 0..8 {
                cluster
                    .call_method(NodeId(0), c.clone(), "inc", vec![Value::Int(1)])
                    .unwrap();
            }
            let total = cluster
                .call_method(NodeId(0), c.clone(), "add", vec![Value::Int(0)])
                .unwrap();
            assert_eq!(total, Value::Int(8 * round), "k = {k}: lost an inc");
        }
        cluster.stats().exchanges() - before
    };
    for k in [0, 1, 2] {
        let (off, on) = (exchanges(k, false), exchanges(k, true));
        assert!(
            on * 10 <= off * 6,
            "k = {k}: batching must save >= 40% of exchanges ({on} vs {off})"
        );
    }
}

// --- crash-stop chaos (see the last property below) ---

const FO_NODES: u32 = 4;
const FO_POOL: usize = 6;
/// The coordinator drives every call and is never crashed; it is also never
/// a replica target (backups prefer low node ids), so every failover really
/// crosses the wire.
const FO_COORD: NodeId = NodeId(3);

/// Three structurally identical counter classes, so each can get its own
/// placement (`C0` on node 0, `C1` on node 1, `C2` on node 2).
fn replicated_counter_app() -> Application {
    let mut app = Application::new();
    for i in 0..3 {
        counter_class(&mut app, &format!("C{i}"));
    }
    app
}

/// Proptest case count, overridable so CI can run a quick smoke pass
/// (`CHAOS_CASES=2`) with the invariant monitors enabled.
fn cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn boundary_chaos_never_changes_observable_values(
        ops in prop::collection::vec(OpMix::boundary(POOL, NODES as u8).strategy(), 1..60),
        seed in 0u64..1000,
    ) {
        let cluster = counter_app()
            .transform(&["RMI"])
            .unwrap()
            .deploy(NODES, seed, Box::new(LocalPolicy::default()));
        cluster.enable_monitors();
        // Counters created round-robin so they start on different nodes'
        // heaps (but all local to node 0's view via proxies).
        let counters: Vec<Value> = (0..POOL)
            .map(|i| {
                cluster
                    .new_instance(NodeId((i % NODES as usize) as u32), "Counter", 0, vec![])
                    .unwrap()
            })
            .collect();
        // Each node needs its own reference; get one by calling through
        // node 0 first when needed. For simplicity all calls go through the
        // creating node's reference:
        let home: Vec<NodeId> = (0..POOL).map(|i| NodeId((i % NODES as usize) as u32)).collect();
        let mut oracle = [0i32; POOL];

        for op in &ops {
            match *op {
                SoakOp::Call { idx, delta } => {
                    oracle[idx] += i32::from(delta);
                    let r = cluster
                        .call_method(
                            home[idx],
                            counters[idx].clone(),
                            "add",
                            vec![Value::Int(i32::from(delta))],
                        )
                        .unwrap();
                    prop_assert_eq!(r, Value::Int(oracle[idx]), "{:?}", op);
                }
                SoakOp::Migrate { idx, node } => {
                    let h = counters[idx].as_ref_handle().unwrap();
                    // Find where it currently lives as seen from its home.
                    let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                    if loc != NodeId(u32::from(node)) {
                        // Migration must start at the current home; the
                        // handle we hold is on `home[idx]` — if the object
                        // is local there, migrate; otherwise pull first.
                        if loc == home[idx] {
                            cluster.migrate(home[idx], h, NodeId(u32::from(node))).unwrap();
                        } else {
                            // The object is remote from home's perspective:
                            // use pull_local to bring it here instead.
                            cluster.pull_local(home[idx], h).unwrap();
                        }
                    }
                }
                SoakOp::Pull { idx } => {
                    let h = counters[idx].as_ref_handle().unwrap();
                    let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                    if loc != home[idx] {
                        cluster.pull_local(home[idx], h).unwrap();
                    }
                }
                SoakOp::Adapt => {
                    cluster.adapt(&AffinityConfig {
                        min_calls: 4,
                        min_fraction: 0.5,
                    });
                }
                ref other => unreachable!("the boundary mix never generates {other}"),
            }
        }
        // Final sweep: every counter still reachable with the right value.
        for idx in 0..POOL {
            let r = cluster
                .call_method(home[idx], counters[idx].clone(), "add", vec![Value::Int(0)])
                .unwrap();
            prop_assert_eq!(r, Value::Int(oracle[idx]), "final counter {}", idx);
        }
        prop_assert_eq!(cluster.check_invariants(), vec![]);
    }

    /// Fault-tolerant chaos: the same op schedule run fault-free and under
    /// a 10% message drop rate must produce byte-identical observable
    /// results — the retry/at-most-once machinery absorbs every loss
    /// without ever double-applying a mutation.
    #[test]
    fn drop_chaos_matches_fault_free_run_exactly(
        ops in prop::collection::vec(OpMix::boundary(POOL, NODES as u8).strategy(), 1..40),
        seed in 0u64..500,
    ) {
        let run = |drop: f64| -> (Vec<i32>, rafda::RuntimeStats) {
            let cluster = counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(NODES, seed, Box::new(rafda::LocalPolicy::default()));
            // A larger budget than the default keeps the chance of an
            // exhausted retry astronomically small even across many cases.
            cluster.set_retry_policy(rafda::RetryPolicy { max_attempts: 10 });
            cluster.network().fault_plan(|f| f.drop_probability = drop);
            cluster.enable_monitors();
            let counters: Vec<Value> = (0..POOL)
                .map(|i| {
                    cluster
                        .new_instance(NodeId((i % NODES as usize) as u32), "Counter", 0, vec![])
                        .unwrap()
                })
                .collect();
            let home: Vec<NodeId> =
                (0..POOL).map(|i| NodeId((i % NODES as usize) as u32)).collect();
            let mut results = Vec::new();
            for op in &ops {
                match *op {
                    SoakOp::Call { idx, delta } => {
                        let r = cluster
                            .call_method(
                                home[idx],
                                counters[idx].clone(),
                                "add",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                        match r {
                            Value::Int(v) => results.push(v),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    SoakOp::Migrate { idx, node } => {
                        let h = counters[idx].as_ref_handle().unwrap();
                        let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                        if loc != NodeId(u32::from(node)) {
                            if loc == home[idx] {
                                cluster.migrate(home[idx], h, NodeId(u32::from(node))).unwrap();
                            } else {
                                cluster.pull_local(home[idx], h).unwrap();
                            }
                        }
                    }
                    SoakOp::Pull { idx } => {
                        let h = counters[idx].as_ref_handle().unwrap();
                        let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                        if loc != home[idx] {
                            cluster.pull_local(home[idx], h).unwrap();
                        }
                    }
                    SoakOp::Adapt => {
                        cluster.adapt(&AffinityConfig {
                            min_calls: 4,
                            min_fraction: 0.5,
                        });
                    }
                    ref other => unreachable!("this mix never generates {other}"),
                }
            }
            for idx in 0..POOL {
                let r = cluster
                    .call_method(home[idx], counters[idx].clone(), "add", vec![Value::Int(0)])
                    .unwrap();
                match r {
                    Value::Int(v) => results.push(v),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(cluster.check_invariants(), vec![], "monitor violation");
            (results, cluster.stats())
        };
        let (clean, clean_stats) = run(0.0);
        let (chaotic, chaos_stats) = run(0.10);
        prop_assert_eq!(&clean, &chaotic, "drops changed an observable value");
        prop_assert_eq!(clean_stats.retries, 0);
        prop_assert_eq!(clean_stats.dedup_hits, 0);
        prop_assert_eq!(chaos_stats.net_failures, 0, "an exchange exhausted its budget");
    }

    /// Crash-stop chaos on top of message drops: counters replicated with
    /// k = 2 over four nodes, a coordinator (node 3) that never crashes and
    /// a random crash/restart schedule over nodes 0–2 with at most one node
    /// down at a time. Every call must still return exactly the oracle
    /// value — no lost object, no lost update, no double apply — and the
    /// same seed must reproduce the run byte-for-byte, failover counters
    /// included.
    #[test]
    fn crash_stop_chaos_loses_nothing_and_stays_deterministic(
        ops in prop::collection::vec(OpMix::crash_stop(FO_POOL, 3).strategy(), 1..50),
        seed in 0u64..500,
    ) {
        let run = || -> (Vec<i32>, rafda::RuntimeStats, u64) {
            let mut policy = StaticPolicy::new().default_statics(FO_COORD);
            for i in 0..3u32 {
                policy = policy
                    .place(&format!("C{i}"), Placement::Node(NodeId(i)))
                    .replicate(&format!("C{i}"), 2);
            }
            let cluster = replicated_counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(FO_NODES, seed, Box::new(policy));
            cluster.set_retry_policy(rafda::RetryPolicy { max_attempts: 10 });
            cluster.network().fault_plan(|f| f.drop_probability = 0.10);
            cluster.enable_monitors();
            let counters: Vec<Value> = (0..FO_POOL)
                .map(|i| {
                    cluster
                        .new_instance(FO_COORD, &format!("C{}", i % 3), 0, vec![])
                        .unwrap()
                })
                .collect();
            let mut down: Option<u32> = None;
            let mut results = Vec::new();
            // A restarted node starts with an empty replica store and only
            // re-enters the sync set at the next served mutation. Touch every
            // counter after a restart so each owner re-ships its state before
            // any further crash — otherwise two bounce cycles with no calls
            // in between really do lose the last copy.
            let touch_all = |counters: &[Value]| {
                for c in counters {
                    cluster
                        .call_method(FO_COORD, c.clone(), "add", vec![Value::Int(0)])
                        .unwrap();
                }
            };
            for op in &ops {
                match *op {
                    SoakOp::Call { idx, delta } => {
                        let r = cluster
                            .call_method(
                                FO_COORD,
                                counters[idx].clone(),
                                "add",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                        match r {
                            Value::Int(v) => results.push(v),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    SoakOp::Crash { node } => {
                        // Keep at most one node down: with k = 2 and both
                        // backups live at every owner crash, some replica is
                        // always current (restarted nodes start empty but
                        // re-enter the sync set on the next mutation).
                        if let Some(d) = down.take() {
                            cluster.restart(NodeId(d));
                            touch_all(&counters);
                        }
                        cluster.crash(NodeId(u32::from(node)));
                        down = Some(u32::from(node));
                    }
                    SoakOp::Heal => {
                        if let Some(d) = down.take() {
                            cluster.restart(NodeId(d));
                            touch_all(&counters);
                        }
                    }
                    ref other => unreachable!("the crash-stop mix never generates {other}"),
                }
            }
            // Zero lost objects: every counter must still answer, even the
            // ones whose owner is down right now.
            for c in &counters {
                let r = cluster
                    .call_method(FO_COORD, c.clone(), "add", vec![Value::Int(0)])
                    .unwrap();
                match r {
                    Value::Int(v) => results.push(v),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(cluster.check_invariants(), vec![], "monitor violation");
            (results, cluster.stats(), cluster.network().now().as_ns())
        };

        // Exact oracle, computed without any cluster.
        let mut oracle = [0i32; FO_POOL];
        let mut expected = Vec::new();
        for op in &ops {
            if let SoakOp::Call { idx, delta } = *op {
                oracle[idx] += i32::from(delta);
                expected.push(oracle[idx]);
            }
        }
        expected.extend(oracle);

        let (a, a_stats, a_now) = run();
        let (b, b_stats, b_now) = run();
        prop_assert_eq!(&a, &expected, "a crash or drop changed an observable value");
        prop_assert_eq!(&a, &b, "same seed, same schedule, different values");
        prop_assert_eq!(a_stats, b_stats, "failover counters must be deterministic");
        prop_assert_eq!(a_now, b_now, "simulated clock diverged");
    }

    /// Batched-invocation chaos (experiment **E12**'s safety half): the same
    /// schedule of void increments, value-returning adds and boundary moves
    /// must return oracle-exact values whether batching is off, on, or on
    /// *while* 10% of frames are dropped — retransmitted batch frames must
    /// dedup as a unit, never double-applying a deferred op.
    #[test]
    fn batched_boundary_chaos_matches_oracle(
        ops in prop::collection::vec(OpMix::batched(POOL, NODES as u8).strategy(), 1..50),
        seed in 0u64..500,
    ) {
        let run = |batch: bool, drop: f64| -> (Vec<i32>, rafda::RuntimeStats) {
            let policy = StaticPolicy::new()
                .default_statics(NodeId(0))
                .default_batch(batch);
            let cluster = batched_counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(NODES, seed, Box::new(policy));
            cluster.set_retry_policy(rafda::RetryPolicy { max_attempts: 10 });
            cluster.network().fault_plan(|f| f.drop_probability = drop);
            cluster.enable_monitors();
            let counters: Vec<Value> = (0..POOL)
                .map(|i| {
                    cluster
                        .new_instance(NodeId((i % NODES as usize) as u32), "BCounter", 0, vec![])
                        .unwrap()
                })
                .collect();
            let home: Vec<NodeId> =
                (0..POOL).map(|i| NodeId((i % NODES as usize) as u32)).collect();
            let mut results = Vec::new();
            for op in &ops {
                match *op {
                    SoakOp::Inc { idx, delta } => {
                        // Fire-and-forget: returns Null immediately when
                        // deferred, so nothing is recorded here — the next
                        // Add observes the accumulated effect.
                        cluster
                            .call_method(
                                home[idx],
                                counters[idx].clone(),
                                "inc",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                    }
                    SoakOp::Call { idx, delta } => {
                        let r = cluster
                            .call_method(
                                home[idx],
                                counters[idx].clone(),
                                "add",
                                vec![Value::Int(i32::from(delta))],
                            )
                            .unwrap();
                        match r {
                            Value::Int(v) => results.push(v),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    SoakOp::Migrate { idx, node } => {
                        let h = counters[idx].as_ref_handle().unwrap();
                        let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                        if loc != NodeId(u32::from(node)) {
                            if loc == home[idx] {
                                cluster.migrate(home[idx], h, NodeId(u32::from(node))).unwrap();
                            } else {
                                cluster.pull_local(home[idx], h).unwrap();
                            }
                        }
                    }
                    SoakOp::Pull { idx } => {
                        let h = counters[idx].as_ref_handle().unwrap();
                        let loc = cluster.location_of(home[idx], &counters[idx]).unwrap();
                        if loc != home[idx] {
                            cluster.pull_local(home[idx], h).unwrap();
                        }
                    }
                    SoakOp::Adapt => {
                        cluster.adapt(&AffinityConfig {
                            min_calls: 4,
                            min_fraction: 0.5,
                        });
                    }
                    ref other => unreachable!("this mix never generates {other}"),
                }
            }
            // Final sweep flushes every queue and checks every counter.
            for idx in 0..POOL {
                let r = cluster
                    .call_method(home[idx], counters[idx].clone(), "add", vec![Value::Int(0)])
                    .unwrap();
                match r {
                    Value::Int(v) => results.push(v),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(cluster.check_invariants(), vec![], "monitor violation");
            (results, cluster.stats())
        };

        // Exact oracle: program order, batching invisible.
        let mut oracle = [0i32; POOL];
        let mut expected = Vec::new();
        for op in &ops {
            match *op {
                SoakOp::Inc { idx, delta } => oracle[idx] += i32::from(delta),
                SoakOp::Call { idx, delta } => {
                    oracle[idx] += i32::from(delta);
                    expected.push(oracle[idx]);
                }
                _ => {}
            }
        }
        expected.extend(oracle);

        let (off, off_stats) = run(false, 0.0);
        let (on, _) = run(true, 0.0);
        let (on_chaotic, chaos_stats) = run(true, 0.10);
        prop_assert_eq!(&off, &expected, "unbatched run diverged from the oracle");
        prop_assert_eq!(&on, &expected, "batching changed an observable value");
        prop_assert_eq!(&on_chaotic, &expected, "drops + batching changed a value");
        // With batching off, the machinery must be provably inert.
        prop_assert_eq!(off_stats.batched_ops, 0);
        prop_assert_eq!(off_stats.flushes, 0);
        prop_assert_eq!(chaos_stats.net_failures, 0, "an exchange exhausted its budget");
    }
}
