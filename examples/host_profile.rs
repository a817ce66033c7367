//! Where the host's time and allocations go: the runtime's own section
//! profile over the three loops the benchmark leans on hardest, and the
//! transformer's steps.
//!
//! * `soak_day` — the 10⁵-op seed-42 `production_day` soak, driven exactly
//!   as `rafda::soak::run_schedule` drives it (recorder, a quiescent check
//!   per phase, finale, report);
//! * `rpc_steady` — the benchmark workload's shape: two nodes, eight stores
//!   per protocol on node 1, RMI / CORBA / SOAP drawn 45 / 45 / 10, `get_v`
//!   40 % / `put` 40 % / 64 B echo 15 % / 1 KiB echo 5 %;
//! * `store_reads` — the benchmark workload's shape: four nodes, `shard S by
//!   get_k modulo 8`, `replicate S 2`, `reads from replicas`, 64 keys drawn
//!   Zipf 1.1, one op in 32 a `put`, the rest `get_v` served from the
//!   client's own backup copy, monitors on;
//! * `local_chain` — the benchmark workload's shape: the seed-42 12-class
//!   chain program, transformed and deployed in one address space, one
//!   `Driver.main` per op checked against the untransformed program's
//!   trace. The factory hooks (`make()`, `discover()`) and the `Observer`
//!   sink open their own sections; in a profiled run every generated
//!   `init$k` also becomes a native hook that opens `factory.init` and runs
//!   the body, moved to a static `init$k#body` beside it — so that section
//!   includes the hook's own re-entry into the VM (an argument vector and a
//!   fresh stack per call), which the unprofiled runs do not pay;
//! * `transform_corpus` — the benchmark workload's op taken apart: clone one
//!   of the sixteen seed-42 500-class JDK-shaped corpora, `Transformer::run`
//!   it for RMI / SOAP / CORBA (which verifies its output once), verify the
//!   result again. It prints wall time and the exact heap-allocation count
//!   per op of each step (`counting_alloc.rs`, this binary's global
//!   allocator, counts them per thread), then the metric line.
//!
//! Each loop runs three times with the profile off and three times with it
//! on, alternating, on fresh deployments; the profile reported is the
//! median-wall profiled run's. `rpc_steady` runs once more, profiled, to
//! charge each op's codec sections to its protocol. The three cluster loops
//! also count heap allocations per op, each charged to the section open
//! when it was made (`counting_alloc.rs` reads `Section::open`); `other`
//! holds the driver's own, such as an op's argument vector. Output: a
//! per-section table, then one metric line in the benchmark's
//! `{"metrics":{…}}` shape (with the span log's exact size,
//! `profile.span_log_bytes_per_op`, and `profile.alloc.per_op` /
//! `profile.alloc.<section>_per_op`), which the layers ledger takes as it
//! is:
//!
//! ```sh
//! cargo run --release -q -p rafda --example host_profile -- rpc_steady \
//!     | ./ledger.sh --layers host_profile.rpc_steady 0
//! ```
//!
//! Arguments: the loop (`soak_day` by default) and its op count (10⁵;
//! 20,000 for `local_chain`; 160 for `transform_corpus`, ten passes over
//! its corpora).

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::verify::verify_universe;
use rafda::classmodel::{ClassId, ClassKind, Field, Method, SigId};
use rafda::corpus::ops::{generate_churn, ChurnConfig, Oracle};
use rafda::corpus::rng::Rng;
use rafda::corpus::workload::ZipfWorkload;
use rafda::corpus::{generate_app, generate_jdk, AppSpec, JdkProfile, ObserverHooks};
use rafda::runtime::{HostProfile, Section, SoakRecorder};
use rafda::soak::SoakHarness;
use rafda::transform::{TransformPlan, Transformer};
use rafda::{
    Application, ClassUniverse, Cluster, LocalRuntime, NodeId, Placement, StaticPolicy, Ty, Value,
    Vm,
};
use std::sync::Arc;
use std::time::Instant;

#[path = "counting_alloc.rs"]
mod counting;

/// Off / on pairs per loop.
const PAIRS: usize = 3;

/// The codec's sections of an exchange: both encodes, both decodes and the
/// materialisation.
const CODEC: [Section; 5] = [
    Section::RequestEncode,
    Section::ReplyDecode,
    Section::HeaderDedup,
    Section::Materialise,
    Section::ReplyEncode,
];

/// One run: its wall clock over the ops, the profile it left, the bytes
/// its span log holds and the allocations the ops made.
struct Run {
    wall_ns: f64,
    profile: HostProfile,
    span_log_bytes: usize,
    allocs: Allocs,
}

/// Allocations over a window, per section open when each was made
/// (`counting::SLOTS - 1`: none).
#[derive(Clone, Copy)]
struct Allocs([u64; counting::SLOTS]);

impl Allocs {
    fn now() -> Allocs {
        Allocs(std::array::from_fn(counting::allocations_in))
    }

    /// What was allocated since `self`.
    fn since(self) -> Allocs {
        let now = Allocs::now();
        Allocs(std::array::from_fn(|i| now.0[i] - self.0[i]))
    }

    fn of(&self, section: Section) -> u64 {
        self.0[section as usize]
    }

    fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// The allocator's slot for an allocation made now: the open section's
/// index, or the last slot outside every section.
fn open_slot() -> usize {
    Section::open().map_or(counting::SLOTS - 1, |s| s as usize)
}

fn main() {
    assert!(Section::ALL.len() < counting::SLOTS, "a slot per section");
    counting::charge_slots_by(open_slot);
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "soak_day".to_owned());
    let ops: Option<usize> = args.next().map(|n| n.parse().expect("an op count"));
    let run: fn(usize, bool) -> Run = match which.as_str() {
        "soak_day" => soak_day,
        "rpc_steady" => rpc_steady,
        "store_reads" => store_reads,
        "local_chain" => local_chain,
        "transform_corpus" => return transform_corpus(ops.unwrap_or(160)),
        other => panic!(
            "unknown loop {other}: soak_day, rpc_steady, store_reads, local_chain or \
             transform_corpus"
        ),
    };
    let ops = ops.unwrap_or(if which == "local_chain" {
        20_000
    } else {
        100_000
    });
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        off.push(run(ops, false));
        on.push(run(ops, true));
    }
    off.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    on.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    let (off, on) = (&off[PAIRS / 2], &on[PAIRS / 2]);
    let per_op = |ns: f64| ns / 1e3 / ops as f64;
    let total = on.profile.total_ns() as f64;
    // What the profile itself costs per section entered (two clock reads).
    let entries: u64 = Section::ALL.iter().map(|&s| on.profile.count(s)).sum();
    let entry_ns = (on.wall_ns - off.wall_ns) / entries as f64;
    println!("{which}: {ops} ops, profile of the median of {PAIRS} profiled runs");
    println!(
        "{:<28} {:>10} {:>9} {:>7} {:>10}",
        "section", "entries", "us/op", "share", "allocs/op"
    );
    let mut metrics = vec![
        ("profile.wall_us_per_op", per_op(on.wall_ns), "us"),
        ("profile.off_wall_us_per_op", per_op(off.wall_ns), "us"),
        ("profile.on_cost_x", on.wall_ns / off.wall_ns, "x"),
        ("profile.entry_ns", entry_ns, "ns"),
        (
            "profile.span_log_bytes_per_op",
            on.span_log_bytes as f64 / ops as f64,
            "B",
        ),
        ("profile.coverage", total / on.wall_ns, "ratio"),
        (
            "profile.alloc.per_op",
            on.allocs.total() as f64 / ops as f64,
            "count",
        ),
        (
            "profile.other_share",
            on.profile.ns(Section::Other) as f64 / total,
            "ratio",
        ),
    ];
    let names: Vec<[String; 2]> = Section::ALL
        .iter()
        .map(|s| {
            let label = s.label();
            [
                format!("profile.{label}_us_per_op"),
                format!("profile.alloc.{label}_per_op"),
            ]
        })
        .collect();
    for (s, [time, count]) in Section::ALL.into_iter().zip(&names) {
        let ns = on.profile.ns(s) as f64;
        let allocs = on.allocs.of(s) as f64 / ops as f64;
        println!(
            "{:<28} {:>10} {:>9.3} {:>6.1}% {allocs:>10.3}",
            s.label(),
            on.profile.count(s),
            per_op(ns),
            100.0 * ns / total
        );
        metrics.push((time.as_str(), per_op(ns), "us"));
        metrics.push((count.as_str(), allocs, "count"));
    }
    if which == "rpc_steady" {
        let split = codec_split(ops);
        let codec: f64 = split.iter().map(|(_, ns, _)| ns).sum();
        for (protocol, ns, n) in split {
            println!(
                "codec sections, {protocol}: {:.3} us per {protocol} op, {:.1}% of codec time",
                ns / 1e3 / n as f64,
                100.0 * ns / codec
            );
        }
        let soap = split[2];
        metrics.push((
            "profile.codec.soap_us_per_soap_op",
            soap.1 / 1e3 / soap.2 as f64,
            "us",
        ));
        metrics.push(("profile.codec.soap_share", soap.1 / codec, "ratio"));
    }
    println!(
        "coverage {:.3} (sections / wall), other {:.1}%, profile on costs {:.3}x \
         ({entry_ns:.1} ns per section entered); span log {:.1} B per op; \
         {:.3} allocations per op",
        total / on.wall_ns,
        100.0 * on.profile.ns(Section::Other) as f64 / total,
        on.wall_ns / off.wall_ns,
        on.span_log_bytes as f64 / ops as f64,
        on.allocs.total() as f64 / ops as f64
    );
    print_metrics(&metrics);
}

/// The metric line, in the benchmark's `{"metrics":{…}}` shape.
fn print_metrics(metrics: &[(&str, f64, &str)]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!("{{\"metrics\":{{{}}}}}", fields.join(","));
}

/// `f`'s result, wall nanoseconds and allocations on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let before = counting::allocations();
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as f64;
    (out, ns, counting::allocations() - before)
}

/// `ops` ops of the benchmark's `transform_corpus` workload at seed 42, op
/// `i` on corpus `i % 16`, each step timed and counted on its own.
fn transform_corpus(ops: usize) {
    const CORPORA: usize = 16;
    let corpora: Vec<ClassUniverse> = (0..CORPORA as u64)
        .map(|k| {
            let mut profile = JdkProfile::scaled(500);
            profile.seed = 42 * CORPORA as u64 + k;
            let mut u = ClassUniverse::new();
            generate_jdk(&mut u, &profile);
            u
        })
        .collect();
    const STEPS: [&str; 3] = ["clone", "run", "verify"];
    let (mut ns, mut allocs) = ([0.0; 3], [0; 3]);
    for i in 0..ops {
        let (mut u, t, n) = measured(|| corpora[i % CORPORA].clone());
        (ns[0], allocs[0]) = (ns[0] + t, allocs[0] + n);
        let transformer = Transformer::new().protocols(&["RMI", "SOAP", "CORBA"]);
        let (outcome, t, n) = measured(|| transformer.run(&mut u));
        outcome.expect("the corpus transforms");
        (ns[1], allocs[1]) = (ns[1] + t, allocs[1] + n);
        let (verdict, t, n) = measured(|| verify_universe(&u));
        verdict.expect("the transformed corpus verifies");
        (ns[2], allocs[2]) = (ns[2] + t, allocs[2] + n);
    }
    let per_op = |x: f64| x / ops as f64;
    println!("transform_corpus: {ops} ops over {CORPORA} seed-42 corpora of 500 classes");
    println!("{:<8} {:>10} {:>12}", "step", "us/op", "allocs/op");
    let names: Vec<[String; 2]> = STEPS
        .iter()
        .map(|s| ["us", "allocs"].map(|what| format!("profile.transform.{s}_{what}_per_op")))
        .collect();
    let wall: f64 = ns.iter().sum();
    let mut metrics = vec![("profile.wall_us_per_op", per_op(wall) / 1e3, "us")];
    for (k, [time, count]) in names.iter().enumerate() {
        let (us, n) = (per_op(ns[k]) / 1e3, per_op(allocs[k] as f64));
        println!("{:<8} {us:>10.1} {n:>12.1}", STEPS[k]);
        metrics.push((time.as_str(), us, "us"));
        metrics.push((count.as_str(), n, "count"));
    }
    print_metrics(&metrics);
}

/// The seed-42 production-day soak of `ops` ops, as `run_schedule` drives
/// it; deployment and schedule generation are outside the wall clock.
fn soak_day(ops: usize, profile: bool) -> Run {
    let cfg = ChurnConfig::production_day(42, ops);
    let schedule = generate_churn(&cfg);
    let mut harness = SoakHarness::deploy(&cfg);
    let mut oracle = Oracle::new(cfg.pool());
    let mut recorder = SoakRecorder::begin(harness.cluster(), cfg.seed);
    if profile {
        harness.cluster().enable_host_profile();
    }
    let allocs = Allocs::now();
    let start = Instant::now();
    for phase in &schedule.phases {
        recorder.phase(harness.cluster(), phase.name);
        for op in &phase.ops {
            harness.apply(op, &mut oracle).expect("the soak runs clean");
            recorder.record(op.kind());
        }
        let violations = harness.cluster().check_invariants();
        assert!(violations.is_empty(), "{}", violations[0]);
    }
    harness.finale(&oracle).expect("the finale runs clean");
    assert!(recorder.finish(harness.cluster()).clean());
    let wall_ns = start.elapsed().as_nanos() as f64;
    Run {
        wall_ns,
        profile: harness.cluster().host_profile(),
        span_log_bytes: harness.cluster().span_log().retained_bytes(),
        allocs: allocs.since(),
    }
}

const PROTOCOLS: [(&str, &str, usize); 3] = [
    ("StoreRmi", "RMI", 45),
    ("StoreCorba", "CORBA", 45),
    ("StoreSoap", "SOAP", 10),
];
const INSTANCES: usize = 8;

/// One `rpc_steady` op: which protocol's store, which instance, which call.
struct Op {
    protocol: usize,
    target: usize,
    method: &'static str,
    args: Vec<Value>,
}

/// `class <name> { int v; int put(int d) { v += d; return v; } String
/// echo(String s) { return s; } }`, read through the generated `get_v`.
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

/// The seeded op list (the benchmark's draw) and a populated deployment.
fn rpc_setup(ops: usize) -> (Vec<Op>, Cluster, Vec<Value>) {
    let mut rng = Rng::new(42 ^ 0x5250_435f_5354_4459);
    let mut payload = |len: usize| {
        let s: String = (0..len)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        Value::str(s)
    };
    let (echo_64, echo_1k) = (payload(64), payload(1024));
    let ops = (0..ops)
        .map(|_| {
            let roll = rng.below(100);
            let protocol = if roll < 45 {
                0
            } else if roll < 90 {
                1
            } else {
                2
            };
            let (method, args) = match rng.below(100) {
                0..=39 => ("get_v", vec![]),
                40..=79 => ("put", vec![]),
                80..=94 => ("echo", vec![echo_64.clone()]),
                _ => ("echo", vec![echo_1k.clone()]),
            };
            let target = protocol * INSTANCES + rng.below(INSTANCES);
            let delta = rng.below(15) as i32 - 7;
            let args = if method == "put" {
                vec![Value::Int(delta)]
            } else {
                args
            };
            Op {
                protocol,
                target,
                method,
                args,
            }
        })
        .collect();
    let mut app = Application::new();
    let mut policy = StaticPolicy::new();
    for (class, protocol, _) in PROTOCOLS {
        add_store_class(&mut app, class);
        policy = policy
            .place(class, Placement::Node(NodeId(1)))
            .with_protocol(class, protocol);
    }
    let cluster = app
        .transform(&["RMI", "CORBA", "SOAP"])
        .expect("the store classes transform")
        .deploy(2, 42, Box::new(policy));
    let mut objs = Vec::new();
    for (class, _, _) in PROTOCOLS {
        for _ in 0..INSTANCES {
            let o = cluster
                .new_instance(NodeId(0), class, 0, vec![])
                .expect("create");
            cluster.pin(NodeId(0), &o);
            objs.push(o);
        }
    }
    (ops, cluster, objs)
}

fn call(cluster: &Cluster, objs: &[Value], op: &Op) {
    let _op = cluster.profile_section(Section::Other);
    let recv = objs[op.target].clone();
    cluster
        .call_method(NodeId(0), recv, op.method, op.args.clone())
        .expect("a fault-free exchange");
}

fn rpc_steady(ops: usize, profile: bool) -> Run {
    let (ops, cluster, objs) = rpc_setup(ops);
    if profile {
        cluster.enable_host_profile();
    }
    let allocs = Allocs::now();
    let start = Instant::now();
    for op in &ops {
        call(&cluster, &objs, op);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    Run {
        wall_ns,
        profile: cluster.host_profile(),
        span_log_bytes: cluster.span_log().retained_bytes(),
        allocs: allocs.since(),
    }
}

/// Codec-section nanoseconds and op count per protocol, from one profiled
/// run that reads the profile after every op.
fn codec_split(ops: usize) -> [(&'static str, f64, usize); 3] {
    let (ops, cluster, objs) = rpc_setup(ops);
    cluster.enable_host_profile();
    let codec = |p: &HostProfile| CODEC.iter().map(|&s| p.ns(s)).sum::<u64>();
    let mut split = PROTOCOLS.map(|(_, protocol, _)| (protocol, 0.0, 0));
    let mut before = 0;
    for op in &ops {
        call(&cluster, &objs, op);
        let after = codec(&cluster.host_profile());
        split[op.protocol].1 += (after - before) as f64;
        split[op.protocol].2 += 1;
        before = after;
    }
    split
}

const STORE_NODES: u32 = 4;
const STORE_KEYS: usize = 64;
/// One `store_reads` op in this many is a `put`.
const WRITE_EVERY: usize = 32;

/// One `store_reads` op: the key, `None` for `get_v` or `Some(d)` for
/// `put(d)`, and the value the call must return.
struct StoreOp {
    key: usize,
    delta: Option<i32>,
    expected: i32,
}

/// `class S { int k; int v; S(int k); int put(int d) { v += d; return v; } }`
/// — sharded on the generated `get_k`, read through the generated `get_v`.
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

/// The seeded op list (the benchmark's draw at seed 42) and a populated,
/// replica-seeded deployment.
fn store_setup(ops: usize) -> (Vec<StoreOp>, Cluster, Vec<Value>) {
    let keys = ZipfWorkload::new(42, STORE_KEYS, 1.1).sequence(ops);
    let mut rng = Rng::new(42 ^ 0x5354_4f52_4544_4c54);
    let mut shadow = [0; STORE_KEYS];
    let ops = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            let delta = (i % WRITE_EVERY == WRITE_EVERY - 1).then(|| rng.below(15) as i32 - 7);
            shadow[key] += delta.unwrap_or(0);
            StoreOp {
                key,
                delta,
                expected: shadow[key],
            }
        })
        .collect();
    let policy = StaticPolicy::new()
        .shard("S", "get_k", 8)
        .replicate("S", 2)
        .replica_reads("S", true);
    let cluster = keyed_store_app()
        .transform(&["RMI"])
        .expect("the keyed store transforms")
        .deploy(STORE_NODES, 42, Box::new(policy));
    cluster.enable_monitors();
    let objs: Vec<Value> = (0..STORE_KEYS as i32)
        .map(|k| {
            let o = cluster
                .new_instance(NodeId(0), "S", 0, vec![Value::Int(k)])
                .expect("sharded create");
            cluster.pin(NodeId(0), &o);
            o
        })
        .collect();
    // One delta-0 write per key seeds every backup before the loop.
    for o in &objs {
        cluster
            .call_method(NodeId(0), o.clone(), "put", vec![Value::Int(0)])
            .expect("seeding write");
    }
    (ops, cluster, objs)
}

fn store_reads(ops: usize, profile: bool) -> Run {
    let (ops, cluster, objs) = store_setup(ops);
    if profile {
        cluster.enable_host_profile();
    }
    let allocs = Allocs::now();
    let start = Instant::now();
    for op in &ops {
        let _op = cluster.profile_section(Section::Other);
        let recv = objs[op.key].clone();
        let got = match op.delta {
            None => cluster.call_method(NodeId(0), recv, "get_v", vec![]),
            Some(d) => cluster.call_method(NodeId(0), recv, "put", vec![Value::Int(d)]),
        };
        assert_eq!(got, Ok(Value::Int(op.expected)), "key {}", op.key);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let run = Run {
        wall_ns,
        profile: cluster.host_profile(),
        span_log_bytes: cluster.span_log().retained_bytes(),
        allocs: allocs.since(),
    };
    assert!(
        cluster.check_invariants().is_empty(),
        "the store runs clean"
    );
    run
}

/// The benchmark's `local_chain` program, untransformed: 12 classes with
/// statics, inheritance and arrays, at seed 42.
fn chain_app() -> Application {
    let mut app = Application::new();
    let obs = app.observer();
    let spec = AppSpec {
        classes: 12,
        int_fields: 2,
        statics: true,
        inheritance: true,
        arrays: true,
        seed: 42,
    };
    let hooks = ObserverHooks {
        class: obs.class,
        emit: obs.emit,
    };
    generate_app(app.universe_mut(), hooks, &spec);
    app
}

/// Make every generated `init$k` of `plan` a native method and move its
/// body to a static `init$k#body` on the same factory: `(factory, init$k,
/// body)` per constructor, for a hook that times the call and runs the
/// body.
fn hook_inits(u: &mut ClassUniverse, plan: &TransformPlan) -> Vec<(ClassId, SigId, SigId)> {
    let mut hooked = Vec::new();
    for family in plan.families.values() {
        let factory = family.obj.factory;
        for &init in &family.init_sigs {
            let info = u.sig_info(init).clone();
            let body = u.sig(&format!("{}#body", info.name), info.params.to_vec());
            let class = u.class(factory);
            let at = class.methods.iter().position(|m| m.sig == init).unwrap();
            let moved = Method {
                is_static: true,
                body: class.methods[at].body.clone(),
                ..Method::declared(u, body, Ty::Void)
            };
            let methods = &mut u.class_mut(factory).methods;
            methods[at].is_native = true;
            methods[at].body = None;
            methods.push(moved);
            hooked.push((factory, init, body));
        }
    }
    hooked
}

/// `ops` ops of the benchmark's `local_chain` workload at seed 42: its
/// argument draw, one `Driver.main` per op, each op's trace checked against
/// the untransformed program's.
fn local_chain(ops: usize, profile: bool) -> Run {
    let app = chain_app();
    let mut rng = Rng::new(42 ^ 0x4c4f_4341_4c43_484e);
    let args: Vec<i32> = (0..ops).map(|_| rng.below(1000) as i32).collect();
    let original = Vm::new(Arc::new(app.universe().clone()));
    original.bind_observer(&app.observer());
    let reference: Vec<_> = args
        .iter()
        .map(|&a| original.run_observed("Driver", "main", vec![Value::Int(a)]))
        .collect();
    let transformed = app.transform(&["RMI"]).expect("the chain app transforms");
    let mut universe = transformed.universe().clone();
    let plan = transformed.plan().clone();
    let inits = if profile {
        hook_inits(&mut universe, &plan)
    } else {
        Vec::new()
    };
    let rt = LocalRuntime::new(universe, plan);
    rt.bind_observer(&transformed.observer());
    let cluster = rt.cluster();
    for &(factory, init, body) in &inits {
        let hooked = cluster.clone();
        rt.vm().register_native(factory, init, move |vm, args| {
            let _s = hooked.profile_section(Section::FactoryInit);
            vm.call_static(factory, body, args.to_vec())
        });
    }
    if profile {
        cluster.enable_host_profile();
    }
    let allocs = Allocs::now();
    let start = Instant::now();
    for (&arg, want) in args.iter().zip(&reference) {
        let _op = cluster.profile_section(Section::Other);
        let got = rt.run_observed("Driver", "main", vec![Value::Int(arg)]);
        assert!(
            got == *want,
            "main({arg}) diverged from the original program"
        );
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let run = Run {
        wall_ns,
        profile: cluster.host_profile(),
        span_log_bytes: cluster.span_log().retained_bytes(),
        allocs: allocs.since(),
    };
    // Each hook holds the cluster that holds it: replace it, so that the
    // deployment can be dropped.
    for &(factory, init, _) in &inits {
        rt.vm()
            .register_native(factory, init, |_, _| Ok(Value::Null));
    }
    run
}
