//! Chaos soak test: a random interleaving of calls, migrations, pulls and
//! adaptation passes over a pool of counter objects, checked against an
//! exact oracle. Whatever the boundary history, every call must return
//! exactly what a single-address-space run would have — the paper's
//! interchangeability claim under adversarial schedules.
//!
//! All four properties draw their schedules from the shared op vocabulary
//! in [`rafda::corpus::ops`] — the same [`SoakOp`] enum and generator the
//! production-day soak gate (E16, `tests/soak.rs`) churns with, here at
//! per-feature mixes seeded by the proptest input — apply them through one
//! driver ([`Chaos::apply`]) and step the same exact [`Oracle`].

use proptest::prelude::*;
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::ops::{OpMix, Oracle, SoakOp};
use rafda::{AffinityConfig, Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

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

/// The exact single-address-space prediction for `ops` over a pool of
/// `pool` counters: each `Call`'s return, then every counter's final value.
fn expected(pool: usize, ops: &[SoakOp]) -> Vec<i32> {
    let mut oracle = Oracle::new(pool);
    let mut values: Vec<i32> = ops.iter().filter_map(|op| oracle.step(op)).collect();
    values.extend(oracle.values());
    values
}

/// A deployed pool of counters and the one way the chaos properties apply
/// an op to it.
struct Chaos {
    cluster: Cluster,
    counters: Vec<Value>,
    /// The node each counter is driven through: the one that created it
    /// and so holds its reference.
    home: Vec<NodeId>,
    /// The crashed node, if any: at most one is down at a time.
    down: Option<NodeId>,
}

impl Chaos {
    /// Turn the monitors on and create counter `i` as `at(i)` says: on
    /// which node, of which class.
    fn new(cluster: Cluster, pool: usize, at: impl Fn(usize) -> (NodeId, String)) -> Chaos {
        cluster.enable_monitors();
        let (counters, home) = (0..pool)
            .map(|i| {
                let (node, class) = at(i);
                (cluster.new_instance(node, &class, 0, vec![]).unwrap(), node)
            })
            .unzip();
        Chaos {
            cluster,
            counters,
            home,
            down: None,
        }
    }

    /// `method(delta)` on counter `idx`, through its home node.
    fn call(&self, idx: usize, method: &str, delta: i8) -> Value {
        let args = vec![Value::Int(i32::from(delta))];
        let counter = self.counters[idx].clone();
        self.cluster
            .call_method(self.home[idx], counter, method, args)
            .unwrap()
    }

    /// Apply one op and return what a `Call` observed.
    ///
    /// `Migrate` moves a counter from its live home, wherever that is;
    /// `Pull` brings it to its home node. `Crash` restarts the down
    /// node first and `Heal` restarts it: with k = 2 and both backups live
    /// at every owner crash, some replica is always current.
    fn apply(&mut self, op: &SoakOp) -> Option<i32> {
        match *op {
            SoakOp::Call { idx, delta } => match self.call(idx, "add", delta) {
                Value::Int(v) => return Some(v),
                other => panic!("unexpected {other:?}"),
            },
            // Fire-and-forget: returns Null immediately when deferred, so
            // nothing is observed here — the next add sees the effect.
            SoakOp::Inc { idx, delta } => {
                self.call(idx, "inc", delta);
            }
            SoakOp::Migrate { idx, node } => {
                let node = NodeId(u32::from(node));
                let (owner, h) = self
                    .cluster
                    .home_of(self.home[idx], &self.counters[idx])
                    .unwrap();
                if owner != node {
                    self.cluster.migrate(owner, h, node).unwrap();
                }
            }
            SoakOp::Pull { idx } => {
                if self.location(idx) != self.home[idx] {
                    let h = self.counters[idx].as_ref_handle().unwrap();
                    self.cluster.pull_local(self.home[idx], h).unwrap();
                }
            }
            SoakOp::Adapt => {
                self.cluster.adapt(&AffinityConfig {
                    min_calls: 4,
                    min_fraction: 0.5,
                });
            }
            SoakOp::Crash { node } => {
                self.heal();
                let node = NodeId(u32::from(node));
                self.cluster.crash(node);
                self.down = Some(node);
            }
            SoakOp::Heal => self.heal(),
            ref other => unreachable!("no chaos mix here draws {other}"),
        }
        None
    }

    /// Where counter `idx` lives, as seen from its home node.
    fn location(&self, idx: usize) -> NodeId {
        self.cluster
            .location_of(self.home[idx], &self.counters[idx])
            .unwrap()
    }

    /// Restart the down node, if any. A restarted node starts with an empty
    /// replica store and only re-enters the sync set at the next served
    /// mutation, so every counter is touched before any further crash —
    /// otherwise two bounce cycles with no calls in between really do lose
    /// the last copy.
    fn heal(&mut self) {
        if let Some(d) = self.down.take() {
            self.cluster.restart(d);
            for idx in 0..self.counters.len() {
                self.call(idx, "add", 0);
            }
        }
    }

    /// Apply `ops`, then read every counter with `add(0)` — even one whose
    /// owner is down right now — and sweep the invariants: what
    /// [`expected`] predicts, the run's stats and its simulated clock.
    fn run(mut self, ops: &[SoakOp]) -> (Vec<i32>, rafda::RuntimeStats, u64) {
        let mut observed: Vec<i32> = ops.iter().filter_map(|op| self.apply(op)).collect();
        for idx in 0..self.counters.len() {
            observed.extend(self.apply(&SoakOp::Call { idx, delta: 0 }));
        }
        assert_eq!(self.cluster.check_invariants(), vec![], "monitor violation");
        let now = self.cluster.network().now().as_ns();
        (observed, self.cluster.stats(), now)
    }
}

/// Counter `i` of `class` on node `i % NODES`, so the pool starts spread
/// over every heap.
fn round_robin(class: &str) -> impl Fn(usize) -> (NodeId, String) + '_ {
    move |i| (NodeId((i % NODES as usize) as u32), class.to_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn boundary_chaos_never_changes_observable_values(
        ops_seed in any::<u64>(),
        len in 1usize..60,
        seed in 0u64..1000,
    ) {
        let ops = OpMix::boundary(POOL, NODES as u8).sample(ops_seed, len);
        let cluster = counter_app()
            .transform(&["RMI"])
            .unwrap()
            .deploy(NODES, seed, Box::new(StaticPolicy::new()));
        let (observed, _, _) = Chaos::new(cluster, POOL, round_robin("Counter")).run(&ops);
        prop_assert_eq!(observed, expected(POOL, &ops), "{:?}", ops);
    }

    /// Fault-tolerant chaos: the same op schedule run fault-free and under
    /// a 10% message drop rate must produce byte-identical observable
    /// results — the retry/at-most-once machinery absorbs every loss
    /// without ever double-applying a mutation.
    #[test]
    fn drop_chaos_matches_fault_free_run_exactly(
        ops_seed in any::<u64>(),
        len in 1usize..40,
        seed in 0u64..500,
    ) {
        let ops = OpMix::boundary(POOL, NODES as u8).sample(ops_seed, len);
        let run = |drop: f64| {
            let cluster = counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(NODES, seed, Box::new(StaticPolicy::new()));
            // A larger budget than the default keeps the chance of an
            // exhausted retry astronomically small even across many cases.
            cluster.set_retry_policy(rafda::RetryPolicy { max_attempts: 10 });
            cluster.network().fault_plan(|f| f.drop_probability = drop);
            Chaos::new(cluster, POOL, round_robin("Counter")).run(&ops)
        };
        let (clean, clean_stats, _) = run(0.0);
        let (chaotic, chaos_stats, _) = run(0.10);
        prop_assert_eq!(&clean, &expected(POOL, &ops), "fault-free run diverged");
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
        ops_seed in any::<u64>(),
        len in 1usize..50,
        seed in 0u64..500,
    ) {
        let ops = OpMix::crash_stop(FO_POOL, 3).sample(ops_seed, len);
        let run = || {
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
            Chaos::new(cluster, FO_POOL, |i| (FO_COORD, format!("C{}", i % 3))).run(&ops)
        };
        let (a, a_stats, a_now) = run();
        let (b, b_stats, b_now) = run();
        prop_assert_eq!(&a, &expected(FO_POOL, &ops), "a crash or drop changed an observable value");
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
        ops_seed in any::<u64>(),
        len in 1usize..50,
        seed in 0u64..500,
    ) {
        let ops = OpMix::batched(POOL, NODES as u8).sample(ops_seed, len);
        let run = |batch: bool, drop: f64| {
            let policy = StaticPolicy::new()
                .default_statics(NodeId(0))
                .default_batch(batch);
            let cluster = batched_counter_app()
                .transform(&["RMI"])
                .unwrap()
                .deploy(NODES, seed, Box::new(policy));
            cluster.set_retry_policy(rafda::RetryPolicy { max_attempts: 10 });
            cluster.network().fault_plan(|f| f.drop_probability = drop);
            // The final reads flush every queue.
            Chaos::new(cluster, POOL, round_robin("BCounter")).run(&ops)
        };
        let expected = expected(POOL, &ops);
        let (off, off_stats, _) = run(false, 0.0);
        let (on, _, _) = run(true, 0.0);
        let (on_chaotic, chaos_stats, _) = run(true, 0.10);
        prop_assert_eq!(&off, &expected, "unbatched run diverged from the oracle");
        prop_assert_eq!(&on, &expected, "batching changed an observable value");
        prop_assert_eq!(&on_chaotic, &expected, "drops + batching changed a value");
        // With batching off, the machinery must be provably inert.
        prop_assert_eq!(off_stats.batched_ops, 0);
        prop_assert_eq!(off_stats.flushes, 0);
        prop_assert_eq!(chaos_stats.net_failures, 0, "an exchange exhausted its budget");
    }
}
