//! `rpc_steady` — the bare exchange path, once per codec.
//!
//! Two nodes, no faults, no replication, caching, batching or sharding,
//! monitors off. Three copies of one keyed-store class live on node 1, one
//! bound to each protocol (`StaticPolicy::with_protocol`); the client on
//! node 0 calls them through proxies, so every op is exactly one exchange:
//! proxy → encode → transmit → serve → reply. The replica sweep and the
//! failover machinery are bypassed, which is what isolates the codec, the
//! simulated net and the per-exchange telemetry — and what guards all three
//! codecs before their frame versions are collapsed (ROADMAP item 4).
//!
//! Protocol draw 45 / 45 / 10 (RMI / CORBA / SOAP) gives each codec about
//! the same share of host time; kind draw `get_v` 40 % / `put(int)` 40 % /
//! `echo(String)` 64 B 15 % / 1 KiB 5 %. The reference is a shadow array of
//! the stores' values (and the echoed string itself).

use super::{round_ops, scaled, ClusterMark, Counters, KindGroup, Recorder, Workload};
use crate::trace::{Layer, Tracer};
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::rng::Rng;
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);
/// Store instances per protocol.
const INSTANCES: usize = 8;
/// `(class, protocol, draw weight in percent)`.
const PROTOCOLS: [(&str, &str, u32); 3] = [
    ("StoreRmi", "RMI", 45),
    ("StoreCorba", "CORBA", 45),
    ("StoreSoap", "SOAP", 10),
];

const GET: u8 = 0;
const PUT: u8 = 1;
const ECHO_64: u8 = 2;
const ECHO_1K: u8 = 3;
const OPS_PER_PROTOCOL: u8 = 4;

/// Kind index = protocol index × 4 + op.
const KINDS: [&str; 12] = [
    "runtime.rpc.rmi.get",
    "runtime.rpc.rmi.put",
    "runtime.rpc.rmi.echo64",
    "runtime.rpc.rmi.echo1k",
    "runtime.rpc.corba.get",
    "runtime.rpc.corba.put",
    "runtime.rpc.corba.echo64",
    "runtime.rpc.corba.echo1k",
    "runtime.rpc.soap.get",
    "runtime.rpc.soap.put",
    "runtime.rpc.soap.echo64",
    "runtime.rpc.soap.echo1k",
];

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    /// Index into the flat `[protocol][instance]` object table.
    target: u8,
    delta: i8,
}

/// `class <name> { int v; <name>(); int put(int d) { v += d; return v; }
/// String echo(String s) { return s; } }` — reads go through the
/// generated `get_v` property getter.
fn add_store_class(app: &mut Application, name: &str) {
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
    cb.method(u, "put", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    let mut mb = MethodBuilder::new(2);
    mb.load_local(1).ret_value();
    cb.method(u, "echo", vec![Ty::Str], Ty::Str, Some(mb.finish()));
    cb.finish(u);
}

/// Printable payload of `len` bytes.
fn payload(rng: &mut Rng, len: usize) -> Value {
    let s: String = (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect();
    Value::str(s)
}

pub(crate) struct RpcSteady {
    net_seed: u64,
    ops: Vec<Op>,
    echo_64: Value,
    echo_1k: Value,
    /// Expected `v` after each op that returns one (`get`/`put`), in op
    /// order; echoes expect their own argument.
    expected: Vec<i32>,
    deployment: Option<(Cluster, Vec<Value>)>,
    counters: Counters,
    round_metrics: Vec<(&'static str, f64)>,
}

impl RpcSteady {
    pub(crate) fn build(seed: u64, scale: f64, tracer: &mut Tracer) -> Self {
        let id = tracer.enter(Layer::Driver, "driver.generate_ops");
        let mut rng = Rng::new(seed ^ 0x5250_435f_5354_4459);
        let echo_64 = payload(&mut rng, 64);
        let echo_1k = payload(&mut rng, 1024);
        let n = scaled(round_ops::RPC_STEADY, scale);
        let mut shadow = [0i32; PROTOCOLS.len() * INSTANCES];
        let mut ops = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        for _ in 0..n {
            let roll = rng.below(100) as u32;
            let protocol = if roll < PROTOCOLS[0].2 {
                0
            } else if roll < PROTOCOLS[0].2 + PROTOCOLS[1].2 {
                1
            } else {
                2
            };
            let op = match rng.below(100) {
                0..=39 => GET,
                40..=79 => PUT,
                80..=94 => ECHO_64,
                _ => ECHO_1K,
            };
            let target = protocol * INSTANCES + rng.below(INSTANCES);
            let delta = (rng.below(15) as i8) - 7;
            if op == PUT {
                shadow[target] += i32::from(delta);
            }
            expected.push(shadow[target]);
            ops.push(Op {
                kind: protocol as u8 * OPS_PER_PROTOCOL + op,
                target: target as u8,
                delta,
            });
        }
        tracer.exit(id);
        RpcSteady {
            net_seed: seed,
            ops,
            echo_64,
            echo_1k,
            expected,
            deployment: None,
            counters: Counters::default(),
            round_metrics: Vec::new(),
        }
    }
}

impl Workload for RpcSteady {
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
        let group = |metric, kinds: Vec<u8>| KindGroup {
            metric,
            ns_per_unit: 1.0,
            kinds,
        };
        let per_protocol = |p: u8| (0..OPS_PER_PROTOCOL).map(move |o| p * OPS_PER_PROTOCOL + o);
        let per_op = |o: u8| (0..PROTOCOLS.len() as u8).map(move |p| p * OPS_PER_PROTOCOL + o);
        vec![
            group("runtime.rpc.rmi_p50_ns", per_protocol(0).collect()),
            group("runtime.rpc.corba_p50_ns", per_protocol(1).collect()),
            group("runtime.rpc.soap_p50_ns", per_protocol(2).collect()),
            group("runtime.rpc.read_p50_ns", per_op(GET).collect()),
            group("runtime.rpc.write_p50_ns", per_op(PUT).collect()),
        ]
    }

    fn deploy(&mut self, tracer: &mut Tracer) {
        self.deployment = None;
        let (cluster, deploy_took) = tracer.span(Layer::Runtime, "runtime.deploy", |_| {
            let mut app = Application::new();
            let mut policy = StaticPolicy::new();
            for (class, protocol, _) in PROTOCOLS {
                add_store_class(&mut app, class);
                policy = policy
                    .place(class, Placement::Node(SERVER))
                    .with_protocol(class, protocol);
            }
            app.transform(&["RMI", "CORBA", "SOAP"])
                .expect("the store classes transform")
                .deploy(2, self.net_seed, Box::new(policy))
        });
        let (objs, populate_took) = tracer.span(Layer::Runtime, "runtime.populate", |_| {
            let mut objs = Vec::with_capacity(PROTOCOLS.len() * INSTANCES);
            for (class, _, _) in PROTOCOLS {
                for _ in 0..INSTANCES {
                    let o = cluster
                        .new_instance(CLIENT, class, 0, vec![])
                        .expect("remote create");
                    cluster.pin(CLIENT, &o);
                    objs.push(o);
                }
            }
            objs
        });
        self.round_metrics = vec![
            ("runtime.deploy_ms", deploy_took.as_secs_f64() * 1e3),
            (
                "runtime.new_instance_us",
                populate_took.as_secs_f64() * 1e6 / objs.len() as f64,
            ),
        ];
        self.deployment = Some((cluster, objs));
    }

    fn replay(&mut self, rec: &mut Recorder) {
        let (cluster, objs) = self.deployment.as_ref().expect("deploy before replay");
        let mark = ClusterMark::take(cluster);
        for (op, &expected) in self.ops.iter().zip(&self.expected) {
            let recv = objs[op.target as usize].clone();
            rec.op(op.kind, || {
                let (method, args, want) = match op.kind % OPS_PER_PROTOCOL {
                    GET => ("get_v", vec![], Value::Int(expected)),
                    PUT => (
                        "put",
                        vec![Value::Int(i32::from(op.delta))],
                        Value::Int(expected),
                    ),
                    ECHO_64 => ("echo", vec![self.echo_64.clone()], self.echo_64.clone()),
                    _ => ("echo", vec![self.echo_1k.clone()], self.echo_1k.clone()),
                };
                match cluster.call_method(CLIENT, recv, method, args) {
                    Ok(got) if got == want => Ok(()),
                    Ok(got) => Err(format!("{method}: returned {got:?}, expected {want:?}")),
                    Err(e) => Err(format!("{method}: {e}")),
                }
            });
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

    fn protocol_mix(&self) -> [f64; 3] {
        let mut mix = [0.0; 3];
        for op in &self.ops {
            mix[(op.kind / OPS_PER_PROTOCOL) as usize] += 1.0 / self.ops.len() as f64;
        }
        mix
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
        self.expected[0] += 1;
        if self.ops[0].kind % OPS_PER_PROTOCOL > PUT {
            // The first op is an echo, which ignores `expected`: make it a
            // read of the same object instead.
            self.ops[0].kind -= self.ops[0].kind % OPS_PER_PROTOCOL;
        }
    }

    #[cfg(test)]
    fn inputs(&self) -> String {
        format!("{:?} {:?} {:?}", self.ops, self.expected, self.echo_64)
    }
}
