//! Layer probes: workload-shaped inputs replayed straight into one layer's
//! public functions, with nothing else on the path.
//!
//! A probe gives the unit cost of a layer primitive (one codec round trip,
//! one `Network::transmit`, one span, one interpreter step). The traced run
//! multiplies those by the per-op counts the workload's own counters give
//! (exchanges, messages, spans, steps) to attribute the measured µs/op to
//! layers; what is left is `runtime.residual_us_per_op`, the bookkeeping
//! that cannot be attributed from outside.
//!
//! Every figure comes from the quietest of nine batches, in reference-speed
//! time: each batch runs between two bursts of the
//! [`calibrate`](crate::calibrate) kernel, the batch during which the host
//! ran fastest is kept, and its time is scaled by that speed — the rule the
//! driver applies to every segment of a replay.

use crate::calibrate;
use crate::trace::{Layer, Tracer};
use crate::workloads::{chain_app, chain_spec, scaled};
use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::net::{BufPool, Network};
use rafda::wire::{Protocol, ProtocolKind, Reply, Request, SigTable, WireValue};
use rafda::{
    Application, DistributionPolicy, MetricsRegistry, NodeId, Placement, SpanLog, SpanOutcome,
    StaticPolicy, TraceContext, Ty, Value, Vm,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 9;

/// Run `batch` [`BATCHES`] times, each between two reference bursts, and
/// return what the batch the host disturbed least measured, with the host
/// speed it ran at.
fn quietest<T>(mut batch: impl FnMut() -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    let mut burst_before = calibrate::burst_ns();
    for _ in 0..BATCHES {
        let measured = batch();
        let burst_after = calibrate::burst_ns();
        let speed = calibrate::host_speed(burst_before, burst_after);
        if best.as_ref().is_none_or(|(_, s)| speed > *s) {
            best = Some((measured, speed));
        }
        burst_before = burst_after;
    }
    best.expect("BATCHES is at least one")
}

/// Reference-speed nanoseconds per call of `f`, from the quietest of
/// [`BATCHES`] batches of `iters` calls. `setup` runs before each batch,
/// untimed.
fn ns_per_call<S>(iters: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    let (batch_ns, speed) = quietest(|| {
        let mut state = setup();
        let start = Instant::now();
        for _ in 0..iters {
            f(&mut state);
        }
        start.elapsed().as_nanos() as f64
    });
    batch_ns * speed / iters as f64
}

/// Cost of one `Instant::now()` + `elapsed()` pair — what the driver adds
/// to every op it times.
pub fn timer_overhead_ns() -> f64 {
    ns_per_call(
        100_000,
        || (),
        |()| {
            let t = Instant::now();
            black_box(t.elapsed());
        },
    )
}

/// Unit costs measured by the probes. Names are per-layer metric names.
pub type ProbeMetrics = Vec<(&'static str, f64)>;

/// Run every probe, one span per probe batch. `scale` multiplies the
/// iteration counts, like the workloads' round sizes.
pub fn run_all(seed: u64, scale: f64, tracer: &mut Tracer) -> ProbeMetrics {
    let mut out = ProbeMetrics::new();
    tracer.span(Layer::Wire, "probe.wire", |_| wire(scale, &mut out));
    tracer.span(Layer::Net, "probe.net", |_| net(seed, scale, &mut out));
    tracer.span(Layer::Telemetry, "probe.telemetry", |_| {
        telemetry(scale, &mut out)
    });
    tracer.span(Layer::Policy, "probe.policy", |_| policy(scale, &mut out));
    tracer.span(Layer::Vm, "probe.vm", |_| vm(seed, scale, &mut out));
    tracer.span(Layer::Runtime, "probe.runtime.local_call", |_| {
        local_call(scale, &mut out)
    });
    tracer.span(Layer::Driver, "probe.driver.timer", |_| {
        out.push(("driver.timer_overhead_ns", timer_overhead_ns()));
    });
    out
}

/// One exchange's codec work, as the runtime does it: request encode with
/// the link's `SigTable` into a reused buffer, header decode and
/// materialise on the server, reply encode, reply decode. The request is a
/// `put(int)` call, the commonest mutating exchange of the workloads.
fn wire(scale: f64, out: &mut ProbeMetrics) {
    let request = Request::Call {
        object: 17,
        method: "put@7".to_owned(),
        args: vec![WireValue::Int(3)],
    };
    let reply = Reply::Value(WireValue::Int(42));
    let ctx = TraceContext {
        trace_id: 9,
        span_id: 4,
        parent_span_id: 2,
    };
    struct Link {
        codec: Box<dyn Protocol>,
        client: SigTable,
        server: SigTable,
        request_buf: Vec<u8>,
        reply_buf: Vec<u8>,
        id: u64,
    }
    let link = |kind: ProtocolKind| Link {
        codec: kind.codec(),
        client: SigTable::new(),
        server: SigTable::new(),
        request_buf: Vec::new(),
        reply_buf: Vec::new(),
        id: 0,
    };
    for (kind, roundtrip, bytes) in [
        (
            ProtocolKind::Rmi,
            "wire.rmi.roundtrip_ns",
            "wire.rmi.request_bytes",
        ),
        (
            ProtocolKind::Corba,
            "wire.corba.roundtrip_ns",
            "wire.corba.request_bytes",
        ),
        (
            ProtocolKind::Soap,
            "wire.soap.roundtrip_ns",
            "wire.soap.request_bytes",
        ),
    ] {
        let ns = ns_per_call(
            scaled(4_000, scale),
            || link(kind),
            |l| {
                l.id += 1;
                l.codec
                    .encode_request_into(
                        l.id,
                        ctx,
                        &request,
                        Some(&mut l.client),
                        &mut l.request_buf,
                    )
                    .expect("request encodes");
                let header = l
                    .codec
                    .decode_request_header(&l.request_buf)
                    .expect("header decodes");
                let served = header
                    .materialise(Some(&mut l.server))
                    .expect("request materialises");
                l.codec
                    .encode_reply_into(
                        header.msg_id,
                        ctx,
                        1,
                        &reply,
                        Some(&mut l.server),
                        &mut l.reply_buf,
                    )
                    .expect("reply encodes");
                let decoded = l
                    .codec
                    .decode_reply_with(&l.reply_buf, Some(&mut l.client))
                    .expect("reply decodes");
                black_box((served, decoded));
            },
        );
        out.push((roundtrip, ns));
        // Steady-state frame size: the second frame on a link references
        // the signature the first one defined.
        let mut l = link(kind);
        for id in 1..=2 {
            l.codec
                .encode_request_into(id, ctx, &request, Some(&mut l.client), &mut l.request_buf)
                .expect("request encodes");
        }
        out.push((bytes, l.request_buf.len() as f64));
    }
    let mut l = link(ProtocolKind::Rmi);
    l.codec
        .encode_request_into(1, ctx, &request, Some(&mut l.client), &mut l.request_buf)
        .expect("request encodes");
    let frame = l.request_buf.clone();
    out.push((
        "wire.rmi.header_decode_ns",
        ns_per_call(
            scaled(20_000, scale),
            || (),
            |()| {
                let header = l.codec.decode_request_header(&frame).expect("header");
                black_box((header.msg_id, header.kind));
            },
        ),
    ));
}

/// `Network::transmit` of a 64-byte frame on a fault-free link and under
/// the soak's 5 % drop rate, and one `BufPool` checkout/put-back cycle.
fn net(seed: u64, scale: f64, out: &mut ProbeMetrics) {
    let (a, b) = (NodeId(0), NodeId(1));
    out.push((
        "net.transmit_ns",
        ns_per_call(
            scaled(20_000, scale),
            || Network::new(2, seed),
            |net| {
                black_box(net.transmit(a, b, 64).ok());
            },
        ),
    ));
    out.push((
        "net.transmit_drop5_ns",
        ns_per_call(
            scaled(20_000, scale),
            || {
                let net = Network::new(2, seed);
                net.fault_plan(|f| f.drop_probability = 0.05);
                net
            },
            |net| {
                black_box(net.transmit(a, b, 64).ok());
            },
        ),
    ));
    out.push((
        "net.bufpool_cycle_ns",
        ns_per_call(scaled(20_000, scale), BufPool::new, |pool| {
            let mut buf = pool.checkout(a, b);
            buf.extend_from_slice(&[0u8; 48]);
            pool.put_back(a, b, buf);
        }),
    ));
}

/// One span as the runtime records an exchange (start, four attributes,
/// end), one counter increment and one histogram observation.
fn telemetry(scale: f64, out: &mut ProbeMetrics) {
    let mut now = 0u64;
    out.push((
        "telemetry.span_ns",
        ns_per_call(scaled(20_000, scale), SpanLog::new, |log| {
            now += 100;
            let h = log.start_span("exchange", 0, now);
            log.set_attr(h, "class", "S");
            log.set_attr(h, "method", "put@7");
            log.set_attr(h, "bytes", 48u64);
            log.set_attr(h, "attempt", 1u64);
            log.end_span(h, now + 50, SpanOutcome::Ok);
        }),
    ));
    let mut registry = MetricsRegistry::new();
    let counter = registry.register_counter("probe_total", &[("node", "0")]);
    let histogram = registry.register_histogram(
        "probe_latency_ns",
        &[("node", "0")],
        rafda::telemetry::BUCKET_BOUNDS_NS.to_vec(),
    );
    out.push((
        "telemetry.counter_inc_ns",
        ns_per_call(scaled(100_000, scale), || (), |()| registry.inc(counter)),
    ));
    let mut v = 0u64;
    out.push((
        "telemetry.histogram_observe_ns",
        ns_per_call(
            scaled(100_000, scale),
            || (),
            |()| {
                v = (v + 7_919) % 3_000_000;
                registry.observe(histogram, v);
            },
        ),
    ));
    black_box(registry.counter_value(counter));
}

/// The four decisions the runtime asks a policy about one class.
fn policy(scale: f64, out: &mut ProbeMetrics) {
    let policy = StaticPolicy::new()
        .place("S", Placement::Node(NodeId(1)))
        .with_protocol("S", "CORBA")
        .replicate("S", 2)
        .cache("S", true);
    out.push((
        "policy.decision_ns",
        ns_per_call(
            scaled(20_000, scale),
            || (),
            |()| {
                black_box((
                    policy.instance_node(black_box("S"), NodeId(0)),
                    policy.protocol("S"),
                    policy.replicas("S"),
                    policy.cacheable("S"),
                ));
            },
        ),
    ));
}

/// Interpreter speed on the untransformed chain program, and the host-time
/// ratio transformed ÷ original per `Driver.main`, interleaved call by
/// call in one process so both sides see the same interference.
fn vm(seed: u64, scale: f64, out: &mut ProbeMetrics) {
    let calls = scaled(100, scale);
    let app = chain_app(&chain_spec(seed));
    let original = Vm::new(Arc::new(app.universe().clone()));
    original.bind_observer(&app.observer());
    let transformed = app
        .transform(&["RMI"])
        .expect("the chain app transforms")
        .deploy_local();
    let main = |i: usize| vec![Value::Int((i % 1000) as i32)];
    for i in 0..20 {
        black_box(original.run_observed("Driver", "main", main(i)));
        black_box(transformed.run_observed("Driver", "main", main(i)));
    }
    let ((steps, original_ns, transformed_ns), speed) = quietest(|| {
        let steps_before = original.stats().steps;
        let (mut original_ns, mut transformed_ns) = (0u64, 0u64);
        for i in 0..calls {
            let t = Instant::now();
            black_box(original.run_observed("Driver", "main", main(i)));
            original_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            black_box(transformed.run_observed("Driver", "main", main(i)));
            transformed_ns += t.elapsed().as_nanos() as u64;
        }
        (
            original.stats().steps - steps_before,
            original_ns,
            transformed_ns,
        )
    });
    out.push((
        "vm.steps_per_s",
        steps as f64 / (original_ns as f64 * speed / 1e9),
    ));
    out.push((
        "vm.local_overhead_x",
        transformed_ns as f64 / original_ns as f64,
    ));
}

/// `call_method` on a receiver that lives in the caller's own address
/// space: the runtime entry point and the VM, no proxy.
fn local_call(scale: f64, out: &mut ProbeMetrics) {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("S", ClassKind::Class);
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
    cb.finish(u);
    let rt = app
        .transform(&["RMI"])
        .expect("the store class transforms")
        .deploy_local();
    let obj = rt.new_instance("S", 0, vec![]).expect("local create");
    rt.pin(&obj);
    out.push((
        "runtime.local_call_ns",
        ns_per_call(
            scaled(20_000, scale),
            || (),
            |()| {
                black_box(
                    rt.call_method(obj.clone(), "put", vec![Value::Int(1)])
                        .expect("local call"),
                );
            },
        ),
    ));
}
