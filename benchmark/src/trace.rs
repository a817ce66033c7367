//! Outside-in layer trace: host-time spans recorded by the benchmark's own
//! code around each call into a layer of the system (round → phase → op,
//! and each probe batch). Nothing inside the program under test is
//! instrumented; that is a later change.
//!
//! Spans live in memory and are written when the run ends: a Chrome
//! trace-event file (`trace_<workload>.json`, loadable in Perfetto) and a
//! per-name summary (`layers_<workload>.json`) of count, busy time and
//! self time (a span's duration minus what its child spans cover).

use crate::json::{write_num, write_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// A layer of the system, named after the crate it lives in. `Driver` is
/// the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `rafda` facade (the soak harness).
    Core,
    /// `rafda-runtime` (cluster, proxies, replication).
    Runtime,
    /// `rafda-wire` codecs.
    Wire,
    /// `rafda-net` simulated network.
    Net,
    /// `rafda-telemetry` spans, metrics, monitors.
    Telemetry,
    /// `rafda-vm` interpreter.
    Vm,
    /// `rafda-transform` engine.
    Transform,
    /// `rafda-classmodel` universe and verifier.
    Classmodel,
    /// `rafda-policy` decisions.
    Policy,
    /// `rafda-corpus` generators.
    Corpus,
    /// The benchmark's own loop.
    Driver,
}

impl Layer {
    /// The crate-name label written to the span files.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Runtime => "runtime",
            Layer::Wire => "wire",
            Layer::Net => "net",
            Layer::Telemetry => "telemetry",
            Layer::Vm => "vm",
            Layer::Transform => "transform",
            Layer::Classmodel => "classmodel",
            Layer::Policy => "policy",
            Layer::Corpus => "corpus",
            Layer::Driver => "driver",
        }
    }
}

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
const NO_PARENT: SpanId = u32::MAX;

/// Op-level spans of the first traced round only, and at most this many,
/// go to the Chrome file: millions of events make it unloadable. The
/// layer summary always covers every span.
const CHROME_OP_SPAN_CAP: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// What was called (`core.soak.read`, `probe.wire.rmi`, …).
    pub name: &'static str,
    /// The layer the call entered.
    pub layer: Layer,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, or `NO_PARENT`.
    pub parent: SpanId,
    /// Round number (0 = set-up and warm-up).
    pub round: u16,
    /// Whether this is a per-op leaf (subject to the Chrome-file cap).
    pub op: bool,
}

/// Count, busy time and self time of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// The layer the spans entered.
    pub layer: Layer,
    /// Number of spans.
    pub count: u64,
    /// Summed durations.
    pub busy_ns: u64,
    /// Summed durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<SpanId>,
    round: u16,
    /// Whether per-op leaf spans are recorded (the traced rounds of a
    /// `--trace 1` run). Coarse spans are always recorded: there are a
    /// handful per round.
    pub ops: bool,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (process start, so set-up
    /// spans line up with `setup_s`).
    pub fn new(workload: &str, origin: Instant) -> Self {
        Tracer {
            workload: workload.to_owned(),
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            ops: false,
        }
    }

    /// Label subsequent spans with round `n`.
    pub fn set_round(&mut self, n: u16) {
        self.round = n;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: Layer, name: &'static str) -> SpanId {
        let now = self.since_origin(Instant::now());
        let id = self.spans.len() as SpanId;
        self.spans.push(SpanRec {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            op: false,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its
    /// duration.
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let now = self.since_origin(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        let s = &self.spans[id as usize];
        Duration::from_nanos(s.end_ns - s.start_ns)
    }

    /// Run `f` inside a span and return its result with the span's duration.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let id = self.enter(layer, name);
        let out = f(self);
        (out, self.exit(id))
    }

    /// Record an already-timed per-op leaf under the innermost open span.
    /// A no-op unless [`Tracer::ops`] is set.
    #[inline]
    pub fn leaf(&mut self, layer: Layer, name: &'static str, start: Instant, dur_ns: u64) {
        if !self.ops {
            return;
        }
        let start_ns = self.since_origin(start);
        self.spans.push(SpanRec {
            name,
            layer,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            op: true,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name summary over every recorded span, ordered by name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert(LayerRow {
                layer: s.layer,
                count: 0,
                busy_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.busy_ns += dur;
            row.self_ns += dur.saturating_sub(children);
        }
        rows
    }

    /// The layer summary as JSON: `{"workload":…,"spans":{name:{layer,
    /// count,busy_ns,self_ns}},"attribution":{…}}`. `attribution` carries
    /// the per-op cost split the driver derived (empty when it has none).
    pub fn summary_json(&self, attribution: &[(&'static str, f64)]) -> String {
        let mut out = String::from("{\"workload\":");
        write_str(&mut out, &self.workload);
        out.push_str(",\"spans\":{");
        for (i, (name, row)) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"layer\":\"{}\",\"count\":{},\"busy_ns\":{},\"self_ns\":{}}}",
                row.layer.label(),
                row.count,
                row.busy_ns,
                row.self_ns
            );
        }
        out.push_str("\n},\"attribution\":{");
        for (i, (name, v)) in attribution.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_num(&mut out, *v);
        }
        out.push_str("}}\n");
        out
    }

    /// The spans as Chrome trace events (complete events, `ph:"X"`,
    /// microsecond timestamps; one track per layer). Per-op leaves beyond
    /// the first traced round or the cap are left out.
    pub fn chrome_json(&self) -> String {
        let first_op_round = self.spans.iter().find(|s| s.op).map(|s| s.round);
        let mut op_spans = 0usize;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if s.op {
                if Some(s.round) != first_op_round || op_spans >= CHROME_OP_SPAN_CAP {
                    continue;
                }
                op_spans += 1;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            write_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"workload\":",
                s.layer.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.layer as u8,
            );
            write_str(&mut out, &self.workload);
            let _ = write!(out, ",\"round\":{},\"parent\":", s.round);
            if s.parent == NO_PARENT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write `trace_<workload>.json` and `layers_<workload>.json` into
    /// `dir` (created if missing).
    ///
    /// # Errors
    /// Any I/O error from creating the directory or writing the files.
    pub fn write_files(
        &self,
        dir: &Path,
        attribution: &[(&'static str, f64)],
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("trace_{}.json", self.workload)),
            self.chrome_json(),
        )?;
        std::fs::write(
            dir.join(format!("layers_{}.json", self.workload)),
            self.summary_json(attribution),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn traced() -> Tracer {
        let mut t = Tracer::new("demo", Instant::now());
        t.ops = true;
        t.set_round(1);
        let round = t.enter(Layer::Driver, "driver.round");
        let phase = t.enter(Layer::Core, "core.soak.phase");
        let at = Instant::now();
        t.leaf(Layer::Core, "core.soak.read", at, 40);
        t.leaf(Layer::Core, "core.soak.read", at, 60);
        t.exit(phase);
        t.exit(round);
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = traced();
        let rows = t.summary();
        let reads = &rows["core.soak.read"];
        assert_eq!((reads.count, reads.busy_ns, reads.self_ns), (2, 100, 100));
        let phase = &rows["core.soak.phase"];
        assert_eq!(phase.self_ns, phase.busy_ns.saturating_sub(100));
        let round = &rows["driver.round"];
        assert_eq!(round.self_ns, round.busy_ns - phase.busy_ns);
        assert_eq!(round.layer, Layer::Driver);
    }

    #[test]
    fn leaves_are_dropped_when_op_tracing_is_off() {
        let mut t = Tracer::new("demo", Instant::now());
        t.leaf(Layer::Vm, "vm.op", Instant::now(), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new("demo", Instant::now());
        let outer = t.enter(Layer::Driver, "outer");
        t.enter(Layer::Driver, "inner");
        t.exit(outer);
        assert!(t.open.is_empty());
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
    }

    #[test]
    fn both_files_are_valid_json_with_parent_links() {
        let t = traced();
        let chrome = parse(&t.chrome_json()).expect("chrome file parses");
        let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 4);
        let leaf = &events[2];
        assert_eq!(leaf.get("cat").and_then(Json::as_str), Some("core"));
        let args = leaf.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(args.get("round").and_then(Json::as_f64), Some(1.0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("demo"));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );

        let layers = parse(&t.summary_json(&[("wire_us_per_op", 1.5)])).unwrap();
        let read = layers.get("spans").unwrap().get("core.soak.read").unwrap();
        assert_eq!(read.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            layers
                .get("attribution")
                .and_then(|a| a.get("wire_us_per_op"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
    }
}
