//! Where the host's time goes: the runtime's own section profile over the
//! two loops the benchmark leans on hardest.
//!
//! * `soak_day` — the 10⁵-op seed-42 `production_day` soak, driven exactly
//!   as `rafda::soak::run_schedule` drives it (recorder, a quiescent check
//!   per phase, finale, report);
//! * `rpc_steady` — the benchmark workload's shape: two nodes, eight stores
//!   per protocol on node 1, RMI / CORBA / SOAP drawn 45 / 45 / 10, `get_v`
//!   40 % / `put` 40 % / 64 B echo 15 % / 1 KiB echo 5 %.
//!
//! Each loop runs three times with the profile off and three times with it
//! on, alternating, on fresh deployments; the profile reported is the
//! median-wall profiled run's. `rpc_steady` runs once more, profiled, to
//! charge each op's codec sections to its protocol. Output: a per-section
//! table, then one metric line in the benchmark's `{"metrics":{…}}` shape
//! (with the span log's exact size, `profile.span_log_bytes_per_op`),
//! which the layers ledger takes as it is:
//!
//! ```sh
//! cargo run --release -q -p rafda --example host_profile -- rpc_steady \
//!     | ./ledger.sh --layers host_profile.rpc_steady 0
//! ```
//!
//! Arguments: the loop (`soak_day` by default) and its op count (10⁵).

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::corpus::ops::{generate_churn, ChurnConfig, Oracle};
use rafda::corpus::rng::Rng;
use rafda::runtime::{HostProfile, Section, SoakRecorder};
use rafda::soak::SoakHarness;
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};
use std::time::Instant;

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

/// One run: its wall clock over the ops, the profile it left and the bytes
/// its span log holds.
struct Run {
    wall_ns: f64,
    profile: HostProfile,
    span_log_bytes: usize,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "soak_day".to_owned());
    let ops: usize = args
        .next()
        .map_or(100_000, |n| n.parse().expect("an op count"));
    let run: fn(usize, bool) -> Run = match which.as_str() {
        "soak_day" => soak_day,
        "rpc_steady" => rpc_steady,
        other => panic!("unknown loop {other}: soak_day or rpc_steady"),
    };
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
        "{:<28} {:>10} {:>9} {:>7}",
        "section", "entries", "us/op", "share"
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
            "profile.other_share",
            on.profile.ns(Section::Other) as f64 / total,
            "ratio",
        ),
    ];
    let names: Vec<String> = Section::ALL
        .iter()
        .map(|s| format!("profile.{}_us_per_op", s.label()))
        .collect();
    for (s, name) in Section::ALL.into_iter().zip(&names) {
        let ns = on.profile.ns(s) as f64;
        println!(
            "{:<28} {:>10} {:>9.3} {:>6.1}%",
            s.label(),
            on.profile.count(s),
            per_op(ns),
            100.0 * ns / total
        );
        metrics.push((name.as_str(), per_op(ns), "us"));
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
         ({entry_ns:.1} ns per section entered); span log {:.1} B per op",
        total / on.wall_ns,
        100.0 * on.profile.ns(Section::Other) as f64 / total,
        on.wall_ns / off.wall_ns,
        on.span_log_bytes as f64 / ops as f64
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!("{{\"metrics\":{{{}}}}}", fields.join(","));
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
    let start = Instant::now();
    for op in &ops {
        call(&cluster, &objs, op);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    Run {
        wall_ns,
        profile: cluster.host_profile(),
        span_log_bytes: cluster.span_log().retained_bytes(),
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
