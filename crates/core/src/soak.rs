//! The production-day soak harness (experiment **E16**).
//!
//! One seeded churn schedule ([`rafda_corpus::ops::generate_churn`]) drives
//! an auction-shaped application over a six-node cluster through every
//! distribution feature at once — sharding with replica reads (`Item`),
//! property caching (`Acct`), invocation batching (`Tally`), k = 2
//! replication and crash-stop failover, migrations and pulls, affinity
//! adaptation and shard rebalancing, all under a 5 % message-drop rate —
//! and checks each op against the exact single-address-space
//! [`Oracle`].
//!
//! The harness is shared by the soak gate (`tests/soak.rs`), the
//! benchmark's `soak_day` workload and the experiments report:
//!
//! * [`run_schedule`] drives a phased schedule under a
//!   [`SoakRecorder`], checking invariants at
//!   every phase boundary, and returns the deterministic
//!   [`SoakReport`];
//! * [`run_flat`] drives a bare op slice and reports the first divergence —
//!   the case closure the shrinker (`proptest::shrink`) replays while
//!   minimising a failing trace.

use crate::classmodel::builder::{ClassBuilder, MethodBuilder};
use crate::classmodel::{ClassKind, Field};
use crate::corpus::ops::{ChurnConfig, ChurnSchedule, Oracle, PoolClass, SoakOp};
use crate::runtime::{Section, SoakRecorder, SoakReport};
use crate::vm::Handle;
use crate::{
    AffinityConfig, Application, Cluster, NodeId, Placement, RetryPolicy, StaticPolicy, Ty, Value,
};

/// Shard count for the `Item` class (`shard Item by get_k modulo 8`).
pub const SHARD_MODULO: u32 = 8;

/// Message-drop probability the whole soak runs under.
pub const DROP_PROBABILITY: f64 = 0.05;

/// Append one counter-shaped class to `app`.
///
/// Every class carries an `int v` balance and a value-returning mutator
/// (`v += d; return v`). `keyed` adds an `int k` field set by the ctor
/// (the shard key for `Item`); `with_inc` adds a `void inc(int)` — the
/// deferrable fire-and-forget op batching coalesces.
fn add_class(app: &mut Application, name: &str, keyed: bool, mutator: &str, with_inc: bool) {
    let u = app.universe_mut();
    let c = u.declare(name, ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let k = keyed.then(|| cb.field(Field::new("k", Ty::Int)));
    let v = cb.field(Field::new("v", Ty::Int));
    if let Some(k) = k {
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(c, k).ret();
        cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    } else {
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(u, vec![], Some(mb.finish()));
    }
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, mutator, vec![Ty::Int], Ty::Int, Some(mb.finish()));
    if with_inc {
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, v);
        mb.load_local(1).add();
        mb.put_field(c, v);
        mb.ret();
        cb.method(u, "inc", vec![Ty::Int], Ty::Void, Some(mb.finish()));
    }
    cb.finish(u);
}

/// The auction-shaped soak application: `Item { k, v; bid }` (sharded,
/// replica reads), `Acct { v; add }` (cached) and `Tally { v; add, inc }`
/// (batched).
pub fn soak_app() -> Application {
    let mut app = Application::new();
    add_class(&mut app, "Item", true, "bid", false);
    add_class(&mut app, "Acct", false, "add", false);
    add_class(&mut app, "Tally", false, "add", true);
    app
}

/// A deployed soak cluster plus the object pool and crash bookkeeping:
/// feed it [`SoakOp`]s via [`SoakHarness::apply`].
#[derive(Debug)]
pub struct SoakHarness {
    cluster: Cluster,
    objs: Vec<Value>,
    classes: Vec<PoolClass>,
    coord: NodeId,
    affinity: AffinityConfig,
    down: Option<NodeId>,
}

impl SoakHarness {
    /// Transform and deploy the soak application per `cfg`: statics and
    /// the driving client on the coordinator (the highest node id, never
    /// crashed), `Item` sharded over [`SHARD_MODULO`] shards with replica
    /// reads, `Acct` cached on node 1, `Tally` batched on node 2 — all
    /// three replicated k = 2 — with retries raised to absorb the
    /// [`DROP_PROBABILITY`] message-drop rate, monitors on, and the whole
    /// object pool created and pinned at the coordinator.
    pub fn deploy(cfg: &ChurnConfig) -> SoakHarness {
        let coord = NodeId(u32::from(ChurnConfig::NODES) - 1);
        let policy = StaticPolicy::new()
            .default_statics(coord)
            .shard("Item", "get_k", SHARD_MODULO)
            .replicate("Item", 2)
            .replica_reads("Item", true)
            .place("Acct", Placement::Node(NodeId(1)))
            .cache("Acct", true)
            .replicate("Acct", 2)
            .place("Tally", Placement::Node(NodeId(2)))
            .batch("Tally", true)
            .replicate("Tally", 2);
        let cluster = soak_app()
            .transform(&["RMI"])
            .expect("soak app transforms")
            .deploy(u32::from(ChurnConfig::NODES), cfg.seed, Box::new(policy));
        cluster.set_retry_policy(RetryPolicy { max_attempts: 10 });
        cluster
            .network()
            .fault_plan(|f| f.drop_probability = DROP_PROBABILITY);
        cluster.enable_monitors();
        let classes: Vec<PoolClass> = (0..cfg.pool()).map(|idx| cfg.class_of(idx)).collect();
        let objs: Vec<Value> = classes
            .iter()
            .enumerate()
            .map(|(idx, class)| {
                let obj = match class {
                    PoolClass::Item => cluster
                        .new_instance(coord, "Item", 0, vec![Value::Int(idx as i32)])
                        .expect("create Item"),
                    PoolClass::Acct => cluster
                        .new_instance(coord, "Acct", 0, vec![])
                        .expect("create Acct"),
                    PoolClass::Tally => cluster
                        .new_instance(coord, "Tally", 0, vec![])
                        .expect("create Tally"),
                };
                cluster.pin(coord, &obj);
                obj
            })
            .collect();
        SoakHarness {
            cluster,
            objs,
            classes,
            coord,
            affinity: AffinityConfig {
                min_calls: 4,
                min_fraction: 0.5,
            },
            down: None,
        }
    }

    /// The deployed cluster (for recorders and invariant sweeps).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The coordinator-side reference of pool object `idx`.
    pub fn obj(&self, idx: usize) -> &Value {
        &self.objs[idx]
    }

    /// The value-returning mutator of pool object `idx` (`bid` on items,
    /// `add` elsewhere).
    fn mutator(&self, idx: usize) -> &'static str {
        match self.classes[idx] {
            PoolClass::Item => "bid",
            PoolClass::Acct | PoolClass::Tally => "add",
        }
    }

    /// Restart the down node (if any) and re-ship every backup.
    ///
    /// A restarted node rejoins the replica sync set at the next served
    /// mutation, so every pool object is touched with a delta-0 mutation —
    /// which must also return the oracle value exactly — before any
    /// further crash can take the last current copy.
    fn heal(&mut self, oracle: &Oracle) -> Result<(), String> {
        if let Some(d) = self.down.take() {
            self.cluster.restart(d);
            self.touch_all(oracle)?;
        }
        Ok(())
    }

    /// Delta-0 mutation on every pool object, checked against the oracle.
    fn touch_all(&self, oracle: &Oracle) -> Result<(), String> {
        let _s = self.cluster.profile_section(Section::TouchAll);
        for (idx, obj) in self.objs.iter().enumerate() {
            let method = self.mutator(idx);
            let r = self
                .cluster
                .call_method(self.coord, obj.clone(), method, vec![Value::Int(0)])
                .map_err(|e| format!("touch #{idx} ({method}): {e}"))?;
            let expected = oracle.values()[idx];
            if r != Value::Int(expected) {
                return Err(format!(
                    "touch #{idx} ({method}): returned {r:?}, oracle says {expected}"
                ));
            }
        }
        Ok(())
    }

    /// Apply one schedule op, stepping the oracle alongside and checking
    /// every observable return value against it.
    ///
    /// Boundary ops (`Migrate` / `Pull`) whose current location or target
    /// is the down node are skipped: the contract there is a typed
    /// `Unreachable` error, not failover, and the schedule stays
    /// deterministic because the skip depends only on simulated state.
    ///
    /// # Errors
    /// The first divergence — a wrong return value, a failed exchange, or
    /// a vanished object — formatted with the offending op.
    pub fn apply(&mut self, op: &SoakOp, oracle: &mut Oracle) -> Result<(), String> {
        let cluster = self.cluster.clone();
        let _op = cluster.profile_section(Section::Other);
        let coord = self.coord;
        let expected = {
            let _s = cluster.profile_section(Section::OracleStep);
            oracle.step(op)
        };
        match *op {
            SoakOp::Call { idx, delta } => {
                let expected = expected.expect("Call returns a value");
                let method = self.mutator(idx);
                let r = self
                    .cluster
                    .call_method(
                        coord,
                        self.objs[idx].clone(),
                        method,
                        vec![Value::Int(i32::from(delta))],
                    )
                    .map_err(|e| format!("{op}: {e}"))?;
                if r != Value::Int(expected) {
                    return Err(format!("{op}: returned {r:?}, oracle says {expected}"));
                }
            }
            SoakOp::Inc { idx, delta } => {
                self.cluster
                    .call_method(
                        coord,
                        self.objs[idx].clone(),
                        "inc",
                        vec![Value::Int(i32::from(delta))],
                    )
                    .map_err(|e| format!("{op}: {e}"))?;
            }
            SoakOp::Read { idx } => {
                let expected = expected.expect("Read returns a value");
                let r = self
                    .cluster
                    .call_method(coord, self.objs[idx].clone(), "get_v", vec![])
                    .map_err(|e| format!("{op}: {e}"))?;
                if r != Value::Int(expected) {
                    return Err(format!("{op}: read {r:?}, oracle says {expected}"));
                }
            }
            SoakOp::Migrate { idx, node } => {
                let target = NodeId(u32::from(node));
                let up = |n: NodeId| self.down != Some(n);
                // Third-party migration, issued at the live home: the
                // coordinator's warmed caches must be invalidated remotely
                // for later reads to stay fresh.
                match self.live_home(op, idx)? {
                    Some((owner, handle)) if owner != target && up(owner) && up(target) => {
                        self.cluster
                            .migrate(owner, handle, target)
                            .map_err(|e| format!("{op}: {e}"))?;
                    }
                    _ => {}
                }
            }
            SoakOp::Pull { idx } => {
                let h = self.objs[idx]
                    .as_ref_handle()
                    .expect("pool objects are refs");
                // Unless the coordinator's handle is the live object itself,
                // or its home is down.
                match self.live_home(op, idx)? {
                    Some((owner, live))
                        if (owner, live) != (coord, h) && self.down != Some(owner) =>
                    {
                        self.cluster
                            .pull_local(coord, h)
                            .map_err(|e| format!("{op}: {e}"))?;
                    }
                    _ => {}
                }
            }
            SoakOp::Adapt => {
                self.cluster.adapt(&self.affinity);
            }
            SoakOp::Rebalance => {
                self.cluster.rebalance_shards(&self.affinity);
            }
            SoakOp::Crash { node } => {
                self.heal(oracle)?;
                let target = NodeId(u32::from(node));
                self.cluster.crash(target);
                self.down = Some(target);
            }
            SoakOp::Heal => {
                self.heal(oracle)?;
            }
        }
        Ok(())
    }

    /// The live home of pool object `idx` ([`Cluster::home_of`]), `None`
    /// while that home is not live (its node restarted and the object is
    /// not re-homed yet). A coordinator handle that went stale is an error.
    fn live_home(&self, op: &SoakOp, idx: usize) -> Result<Option<(NodeId, Handle)>, String> {
        if self
            .cluster
            .location_of(self.coord, &self.objs[idx])
            .is_none()
        {
            return Err(format!("{op}: object vanished"));
        }
        Ok(self.cluster.home_of(self.coord, &self.objs[idx]))
    }

    /// Quiesce and verify: restart the down node, touch every object
    /// (replica convergence plus an oracle-exact final sweep) and run the
    /// quiescent-point invariant sweep.
    ///
    /// # Errors
    /// The first divergence or invariant violation, formatted.
    pub fn finale(&mut self, oracle: &Oracle) -> Result<(), String> {
        self.heal(oracle)?;
        self.touch_all(oracle)?;
        let violations = self.cluster.check_invariants();
        if let Some(first) = violations.first() {
            return Err(format!(
                "{} invariant violation(s), first: {first}",
                violations.len()
            ));
        }
        Ok(())
    }

    /// Arm the E10 cache-coherence canary: the next relocation keeps the
    /// old location's version, leaving it cacheable, so a later read
    /// through a warmed property cache serves a stale value — the fault the
    /// soak gate's shrinking test plants and then minimises.
    pub fn arm_cache_canary(&self) {
        self.cluster.debug_skip_next_tombstone();
    }
}

/// Drive a phased churn schedule end to end under a soak recorder.
///
/// Invariants are checked at every phase boundary (the sweep flushes
/// batches and syncs replicas, so each boundary is a quiescent point);
/// the run ends with [`SoakHarness::finale`] and the recorder's own
/// monitor-verdict sweep.
///
/// # Errors
/// The first divergence, with the phase and global op index prepended —
/// the message the gate hands to the shrinker alongside the flat op list.
pub fn run_schedule(cfg: &ChurnConfig, schedule: &ChurnSchedule) -> Result<SoakReport, String> {
    let mut harness = SoakHarness::deploy(cfg);
    let mut oracle = Oracle::new(cfg.pool());
    let mut recorder = SoakRecorder::begin(harness.cluster(), cfg.seed);
    let mut global = 0usize;
    for phase in &schedule.phases {
        recorder.phase(harness.cluster(), phase.name);
        for op in &phase.ops {
            harness
                .apply(op, &mut oracle)
                .map_err(|e| format!("phase {} op {global}: {e}", phase.name))?;
            recorder.record(op.kind());
            global += 1;
        }
        let violations = harness.cluster().check_invariants();
        if let Some(first) = violations.first() {
            return Err(format!(
                "phase {} boundary: {} invariant violation(s), first: {first}",
                phase.name,
                violations.len()
            ));
        }
    }
    harness.finale(&oracle)?;
    let report = recorder.finish(harness.cluster());
    if !report.clean() {
        return Err(format!("monitors fired:\n{report}"));
    }
    Ok(report)
}

/// Drive a bare op slice (no phases, no recorder) and report the first
/// divergence — the replayable case closure for trace minimisation.
///
/// A fresh cluster is deployed per call, so the same slice always fails
/// (or passes) the same way. When `canary` is set the cache-coherence
/// canary is armed before the first op.
///
/// # Errors
/// The first divergence or final invariant violation, formatted.
pub fn run_flat(cfg: &ChurnConfig, ops: &[SoakOp], canary: bool) -> Result<(), String> {
    let mut harness = SoakHarness::deploy(cfg);
    if canary {
        harness.arm_cache_canary();
    }
    let mut oracle = Oracle::new(cfg.pool());
    for (i, op) in ops.iter().enumerate() {
        harness
            .apply(op, &mut oracle)
            .map_err(|e| format!("op {i}: {e}"))?;
    }
    harness.finale(&oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ops::generate_churn;

    #[test]
    fn a_short_schedule_runs_clean_and_reports() {
        let cfg = ChurnConfig::production_day(7, 300);
        let schedule = generate_churn(&cfg);
        let report = run_schedule(&cfg, &schedule).expect("short soak is clean");
        assert_eq!(report.total_ops() as usize, schedule.total_ops());
        assert!(report.clean());
        assert_eq!(report.phases.len(), 4, "warmup/steady/churn/quiesce");
    }

    #[test]
    fn the_flat_driver_agrees_with_the_phased_one() {
        let cfg = ChurnConfig::production_day(11, 200);
        let schedule = generate_churn(&cfg);
        run_flat(&cfg, &schedule.flatten(), false).expect("flat replay is clean");
    }

    #[test]
    fn the_cache_canary_makes_a_run_fail() {
        let cfg = ChurnConfig::production_day(13, 0);
        // `ChurnConfig::ITEMS` is the first Acct index. Warm the cache,
        // migrate (tombstone skipped), read again: the value matches the
        // oracle — only the stale-read monitor can see that the hit was
        // served through a location the object moved away from.
        let acct = ChurnConfig::ITEMS;
        let ops = vec![
            SoakOp::Call {
                idx: acct,
                delta: 5,
            },
            SoakOp::Read { idx: acct },
            SoakOp::Migrate { idx: acct, node: 3 },
            SoakOp::Read { idx: acct },
        ];
        run_flat(&cfg, &ops, false).expect("without the canary the trace is clean");
        let err = run_flat(&cfg, &ops, true).expect_err("skipped tombstone must surface");
        assert!(
            err.contains("stale-read") || err.contains("violation"),
            "unexpected failure shape: {err}"
        );
    }
}
