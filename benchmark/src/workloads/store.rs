//! `store_reads` and `store_writes` — one sharded, replicated deployment
//! used two ways.
//!
//! Four nodes, `shard S by get_k modulo 8`, `replicate 2`, `reads from
//! replicas`, 64 keys, Zipf 1.1 popularity, client on node 0, monitors on.
//!
//! * `store_reads`: one op in 32 is a `put`, the rest are `get_v`. A read
//!   is served from the client's own backup copy when its version matches,
//!   so it is message-free: the runtime lookup, the version gate and the VM
//!   getter do the work; wire and net do almost none, and no span is
//!   recorded.
//! * `store_writes`: every op is a `put`. The same runtime layer used the
//!   other way — an owner exchange plus replica shipping and dirty-set
//!   bookkeeping per op — so a read-path gain paid for on the write path
//!   shows here.
//!
//! The reference is a shadow array of the stores' values.

use super::{round_ops, scaled, ClusterMark, Counters, KindGroup, Recorder, Workload};
use crate::trace::{Layer, Tracer};
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::rng::Rng;
use rafda::corpus::workload::ZipfWorkload;
use rafda::{Application, Cluster, NodeId, StaticPolicy, Ty, Value};

const NODES: u32 = 4;
const KEYS: usize = 64;
const SHARD_MODULO: u32 = 8;
const ZIPF_EXPONENT: f64 = 1.1;
const CLIENT: NodeId = NodeId(0);
/// `store_reads`: one op in this many is a write.
const WRITE_EVERY: usize = 32;

const READ: u8 = 0;
const WRITE: u8 = 1;
const KINDS: [&str; 2] = ["runtime.store.read", "runtime.store.write"];

/// Which of the two workloads over the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mix {
    Reads,
    Writes,
}

/// `class S { int k; int v; S(int k); int put(int d) { v += d; return v; } }`
/// — `k` is the shard key (read through the generated `get_k`), reads go
/// through the generated `get_v`.
fn keyed_store_app() -> Application {
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

#[derive(Debug, Clone, Copy)]
struct Op {
    key: u8,
    /// `None` reads, `Some(d)` writes `v += d`.
    delta: Option<i8>,
    /// The value the call must return.
    expected: i32,
}

pub(crate) struct Store {
    net_seed: u64,
    ops: Vec<Op>,
    deployment: Option<(Cluster, Vec<Value>)>,
    counters: Counters,
    round_metrics: Vec<(&'static str, f64)>,
}

impl Store {
    pub(crate) fn build(mix: Mix, seed: u64, scale: f64, tracer: &mut Tracer) -> Self {
        let id = tracer.enter(Layer::Driver, "driver.generate_ops");
        let n = match mix {
            Mix::Reads => scaled(round_ops::STORE_READS, scale),
            Mix::Writes => scaled(round_ops::STORE_WRITES, scale),
        };
        let keys = ZipfWorkload::new(seed, KEYS, ZIPF_EXPONENT).sequence(n);
        let mut rng = Rng::new(seed ^ 0x5354_4f52_4544_4c54);
        let mut shadow = [0i32; KEYS];
        let ops = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                let write = mix == Mix::Writes || i % WRITE_EVERY == WRITE_EVERY - 1;
                let delta = write.then(|| (rng.below(15) as i8) - 7);
                if let Some(d) = delta {
                    shadow[key] += i32::from(d);
                }
                Op {
                    key: key as u8,
                    delta,
                    expected: shadow[key],
                }
            })
            .collect();
        tracer.exit(id);
        Store {
            net_seed: seed,
            ops,
            deployment: None,
            counters: Counters::default(),
            round_metrics: Vec::new(),
        }
    }
}

impl Workload for Store {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn layer(&self) -> Layer {
        Layer::Runtime
    }

    fn ops_per_round(&self) -> usize {
        self.ops.len()
    }

    fn kind_groups(&self) -> Vec<KindGroup> {
        vec![
            KindGroup {
                metric: "runtime.replica_read_p50_ns",
                ns_per_unit: 1.0,
                kinds: vec![READ],
            },
            KindGroup {
                metric: "runtime.store_write_p50_ns",
                ns_per_unit: 1.0,
                kinds: vec![WRITE],
            },
        ]
    }

    fn deploy(&mut self, tracer: &mut Tracer) {
        self.deployment = None;
        let (cluster, deploy_took) = tracer.span(Layer::Runtime, "runtime.deploy", |_| {
            let policy = StaticPolicy::new()
                .shard("S", "get_k", SHARD_MODULO)
                .replicate("S", 2)
                .replica_reads("S", true);
            let cluster = keyed_store_app()
                .transform(&["RMI"])
                .expect("the keyed store transforms")
                .deploy(NODES, self.net_seed, Box::new(policy));
            cluster.enable_monitors();
            cluster
        });
        let (objs, populate_took) = tracer.span(Layer::Runtime, "runtime.populate", |_| {
            let objs: Vec<Value> = (0..KEYS)
                .map(|k| {
                    let o = cluster
                        .new_instance(CLIENT, "S", 0, vec![Value::Int(k as i32)])
                        .expect("sharded create");
                    cluster.pin(CLIENT, &o);
                    o
                })
                .collect();
            objs
        });
        // One delta-0 write per key: every owner serves a mutation, so every
        // backup is seeded before the replay starts.
        tracer.span(Layer::Runtime, "runtime.seed_replicas", |_| {
            for o in &objs {
                cluster
                    .call_method(CLIENT, o.clone(), "put", vec![Value::Int(0)])
                    .expect("seeding write");
            }
        });
        self.round_metrics = vec![
            ("runtime.deploy_ms", deploy_took.as_secs_f64() * 1e3),
            (
                "runtime.new_instance_us",
                populate_took.as_secs_f64() * 1e6 / KEYS as f64,
            ),
        ];
        self.deployment = Some((cluster, objs));
    }

    fn replay(&mut self, rec: &mut Recorder) {
        let (cluster, objs) = self.deployment.as_ref().expect("deploy before replay");
        let mark = ClusterMark::take(cluster);
        for op in &self.ops {
            let recv = objs[op.key as usize].clone();
            let want = Value::Int(op.expected);
            match op.delta {
                None => rec.op(READ, || {
                    match cluster.call_method(CLIENT, recv, "get_v", vec![]) {
                        Ok(got) if got == want => Ok(()),
                        Ok(got) => Err(format!("get_v #{}: {got:?}, expected {want:?}", op.key)),
                        Err(e) => Err(format!("get_v #{}: {e}", op.key)),
                    }
                }),
                Some(d) => rec.op(WRITE, || {
                    let args = vec![Value::Int(i32::from(d))];
                    match cluster.call_method(CLIENT, recv, "put", args) {
                        Ok(got) if got == want => Ok(()),
                        Ok(got) => Err(format!("put #{}: {got:?}, expected {want:?}", op.key)),
                        Err(e) => Err(format!("put #{}: {e}", op.key)),
                    }
                }),
            }
        }
        self.counters = mark.delta(&ClusterMark::take(cluster));
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let (cluster, _) = self.deployment.as_ref().expect("deploy before verify");
        let (violations, took) =
            rec.tracer
                .span(Layer::Telemetry, "telemetry.check_invariants", |_| {
                    cluster.check_invariants()
                });
        if let Some(v) = violations.first() {
            rec.fail(format!("invariant violation: {v}"));
        }
        self.round_metrics
            .push(("telemetry.check_invariants_ms", took.as_secs_f64() * 1e3));
    }

    fn counters(&self) -> Counters {
        self.counters.clone()
    }

    fn system_spans(&self) -> u64 {
        self.deployment
            .as_ref()
            .map_or(0, |(c, _)| c.span_log().spans().len() as u64)
    }

    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        self.round_metrics.clone()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.ops[0].expected += 1;
    }

    #[cfg(test)]
    fn inputs(&self) -> String {
        format!("{:?}", self.ops)
    }
}
