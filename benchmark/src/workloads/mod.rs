//! The six workloads. Names are the contract (`BENCHMARK.json`, README).
//!
//! Every workload is the same shape: [`build`] generates the op sequence
//! from the seed and computes the reference answers; each round then makes
//! a **fresh deployment** ([`Workload::deploy`]) and replays the *same*
//! sequence against it ([`Workload::replay`]), timing each driver-level
//! call and checking every value it returns. Round sizes are op counts
//! fixed at scale 1.0 (never set by the clock), calibrated to about one
//! second per round on the 2-core reference host.
//!
//! The program under test only ever sees generated ops: the seed and the
//! workload name stay on this side of the API (the simulated network's own
//! fault-injection seed is derived from it, as part of the generated
//! input).

mod local_chain;
mod rpc_steady;
mod soak_day;
mod store;
mod transform_corpus;

pub(crate) use local_chain::{chain_app, chain_spec};

use crate::calibrate::{self, ReplayWall};
use crate::trace::{Layer, Tracer};
use rafda::{Cluster, NodeId, RuntimeStats};
use std::time::Instant;

/// Workload names, in the order `run` reports them.
pub const NAMES: [&str; 6] = [
    "soak_day",
    "rpc_steady",
    "store_reads",
    "store_writes",
    "local_chain",
    "transform_corpus",
];

/// Ops per round at scale 1.0, calibrated on the reference host so that a
/// round lasts 1–2 s at the seed commit. Change them together (one common
/// factor) or not at all: a metric is only comparable across commits while
/// these stay put.
pub mod round_ops {
    /// `soak_day`: the depth ROADMAP item 2 quotes.
    pub const SOAK_DAY: usize = 100_000;
    /// `rpc_steady`.
    pub const RPC_STEADY: usize = 300_000;
    /// `store_reads`.
    pub const STORE_READS: usize = 700_000;
    /// `store_writes`.
    pub const STORE_WRITES: usize = 50_000;
    /// `local_chain`.
    pub const LOCAL_CHAIN: usize = 16_000;
    /// `transform_corpus`.
    pub const TRANSFORM_CORPUS: usize = 224;
}

/// `round(base · scale)`, never below one op.
pub(crate) fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// A labelled group of op kinds whose pooled p50 is a per-layer metric.
#[derive(Debug, Clone)]
pub struct KindGroup {
    /// Metric name (`core.soak.read_p50_us`, `runtime.rpc.rmi_p50_ns`, …).
    pub metric: &'static str,
    /// Nanoseconds per reported unit (1 for ns, 1000 for µs).
    pub ns_per_unit: f64,
    /// Indices into [`Workload::kinds`].
    pub kinds: Vec<u8>,
}

/// One timed driver-level call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Nanoseconds (saturating: an op slower than 4.29 s reads as that).
    /// Host time while the op's segment is open, reference-speed time once
    /// it has closed — which it has for every sample a finished replay
    /// hands out.
    pub ns: u32,
    /// Index into [`Workload::kinds`].
    pub kind: u8,
}

/// Host-speed segments per replay, not counting the ones a workload closes
/// by hand. The neighbour that slows the host comes and goes within tens
/// of milliseconds (measured: about 10 ms quiet, 40 ms busy, the duty
/// cycle drifting over minutes), so the yardstick has to look more often
/// than that: rounds are sized to 1–2 s, so 512 segments are 2–4 ms each,
/// and a burst of a fifth of a millisecond between them keeps the
/// yardstick under a tenth of the run. Segments are cut at fixed op
/// indices, so every round is measured the same way.
pub const SEGMENTS: usize = 512;

/// Collects the per-op timings and failures of one replay, and measures
/// the host's speed alongside: the replay is cut into segments with a
/// reference burst between them, and everything timed inside a segment is
/// scaled by the host speed its two bracketing bursts saw.
#[derive(Debug)]
pub struct Recorder {
    /// Timings of the current replay, in op order.
    pub samples: Vec<Sample>,
    /// Ops that returned `Err` or disagreed with the reference.
    pub failed: u64,
    /// The first failure's message, for the operator.
    pub first_failure: Option<String>,
    /// Span sink (op leaves are recorded only in traced rounds).
    pub tracer: Tracer,
    layer: Layer,
    kinds: &'static [&'static str],
    /// Ops per segment.
    segment_ops: usize,
    /// Index of the open segment's first sample.
    segment_first: usize,
    /// Sample count at which the open segment closes.
    next_mark: usize,
    segment_start: Instant,
    last_burst_ns: u64,
    /// Time spent in reference bursts since this recorder was made.
    burst_total_ns: u64,
    wall: ReplayWall,
}

impl Recorder {
    /// A recorder writing spans to `tracer`, not yet bound to a workload.
    pub fn new(tracer: Tracer) -> Self {
        Recorder {
            samples: Vec::new(),
            failed: 0,
            first_failure: None,
            tracer,
            layer: Layer::Driver,
            kinds: &[],
            segment_ops: usize::MAX,
            segment_first: 0,
            next_mark: usize::MAX,
            segment_start: Instant::now(),
            last_burst_ns: 0,
            burst_total_ns: 0,
            wall: ReplayWall::default(),
        }
    }

    /// Take the op naming of `w` and make room for one replay's samples.
    pub fn bind(&mut self, w: &dyn Workload) {
        self.layer = w.layer();
        self.kinds = w.kinds();
        self.samples.reserve(w.ops_per_round());
        self.segment_ops = w.ops_per_round().div_ceil(SEGMENTS).max(1);
    }

    /// Start the replay wall: forget the previous replay (keeping the
    /// allocation), run one reference burst, start the clock.
    pub fn begin_replay(&mut self) {
        self.samples.clear();
        self.failed = 0;
        self.first_failure = None;
        self.wall = ReplayWall::default();
        self.segment_first = 0;
        self.next_mark = self.segment_ops;
        self.last_burst_ns = self.burst();
        self.segment_start = Instant::now();
    }

    /// One reference burst, as a span of its own: a replay or phase span
    /// that contains it does not count it as self time.
    fn burst(&mut self) -> u64 {
        let span = self.tracer.enter(Layer::Driver, "driver.burst");
        let ns = calibrate::burst_ns();
        self.tracer.exit(span);
        self.burst_total_ns += ns;
        ns
    }

    /// Nanoseconds spent in reference bursts so far (not the system's
    /// time: callers timing a window that contains replays subtract it).
    pub fn burst_total_ns(&self) -> u64 {
        self.burst_total_ns
    }

    /// Raw host nanoseconds of the current replay's closed segments: a
    /// clock that does not count the bursts. Read it right after a
    /// [`checkpoint`](Self::checkpoint).
    pub fn replay_raw_ns(&self) -> f64 {
        self.wall.raw_ns
    }

    /// Close the open segment with a burst and open the next: the
    /// segment's wall, and every op timed inside it, is scaled by the host
    /// speed the bursts on either side of it saw. Workloads call this
    /// around a long untimed call (an invariant sweep, a finale) so that
    /// the call is a segment of its own. Only between
    /// [`begin_replay`](Self::begin_replay) and
    /// [`end_replay`](Self::end_replay).
    pub fn checkpoint(&mut self) {
        let raw_ns = self.segment_start.elapsed().as_nanos() as f64;
        let burst_ns = self.burst();
        let speed = calibrate::host_speed(self.last_burst_ns, burst_ns);
        self.wall.add(raw_ns, speed);
        for s in &mut self.samples[self.segment_first..] {
            s.ns = (f64::from(s.ns) * speed) as u32;
        }
        self.segment_first = self.samples.len();
        self.next_mark = self.segment_first + self.segment_ops;
        self.last_burst_ns = burst_ns;
        self.segment_start = Instant::now();
    }

    /// Stop the replay wall and return it.
    pub fn end_replay(&mut self) -> ReplayWall {
        self.checkpoint();
        self.next_mark = usize::MAX;
        self.wall
    }

    /// Time one driver-level call. `f` returns `Err(why)` when the call
    /// failed or its value disagreed with the reference.
    #[inline]
    pub fn op(&mut self, kind: u8, f: impl FnOnce() -> Result<(), String>) {
        let start = Instant::now();
        let outcome = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.samples.push(Sample {
            ns: u32::try_from(ns).unwrap_or(u32::MAX),
            kind,
        });
        self.tracer
            .leaf(self.layer, self.kinds[kind as usize], start, ns);
        if let Err(why) = outcome {
            self.fail(why);
        }
        if self.samples.len() >= self.next_mark {
            self.checkpoint();
        }
    }

    /// Count a failure that is not tied to one timed op (a phase-boundary
    /// invariant sweep, the finale).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Deterministic counters of one replay. Equal seeds give equal values to
/// the last digit; that is what makes the three exact end-to-end metrics
/// exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Whether the workload has a cluster at all (`false` → everything
    /// below except `vm_steps` is zero and the exact metrics are omitted).
    pub cluster: bool,
    /// Simulated-clock nanoseconds the replay consumed.
    pub sim_ns: u64,
    /// `Network::stats().messages` delta.
    pub messages: u64,
    /// `Network::stats().bytes` delta.
    pub bytes: u64,
    /// `Network::stats().drops` delta.
    pub drops: u64,
    /// Runtime counter deltas.
    pub stats: RuntimeStats,
    /// Interpreter steps, summed over every node's VM.
    pub vm_steps: u64,
}

/// Snapshot of a cluster's deterministic counters; [`ClusterMark::delta`]
/// turns two of them into a [`Counters`].
#[derive(Debug, Clone)]
pub(crate) struct ClusterMark {
    sim_ns: u64,
    messages: u64,
    bytes: u64,
    drops: u64,
    stats: RuntimeStats,
    vm_steps: u64,
}

impl ClusterMark {
    pub(crate) fn take(cluster: &Cluster) -> Self {
        let net = cluster.network();
        let ns = net.stats();
        ClusterMark {
            sim_ns: net.now().as_ns(),
            messages: ns.messages,
            bytes: ns.bytes,
            drops: ns.drops,
            stats: cluster.stats(),
            vm_steps: (0..cluster.node_count())
                .map(|n| cluster.vm(NodeId(n)).stats().steps)
                .sum(),
        }
    }

    pub(crate) fn delta(&self, later: &ClusterMark) -> Counters {
        Counters {
            cluster: true,
            sim_ns: later.sim_ns - self.sim_ns,
            messages: later.messages - self.messages,
            bytes: later.bytes - self.bytes,
            drops: later.drops - self.drops,
            stats: later.stats.delta_from(&self.stats),
            vm_steps: later.vm_steps - self.vm_steps,
        }
    }
}

/// One workload: inputs and reference answers, plus the current deployment.
pub trait Workload {
    /// Span name of each op kind (the [`Sample::kind`] index space).
    fn kinds(&self) -> &'static [&'static str];

    /// The layer a driver-level op call enters.
    fn layer(&self) -> Layer;

    /// Ops one replay attempts.
    fn ops_per_round(&self) -> usize;

    /// Op-kind groups whose p50 is reported as a per-layer metric.
    fn kind_groups(&self) -> Vec<KindGroup>;

    /// Drop the previous deployment, then build, transform, deploy and
    /// populate a fresh one. Spans go to `tracer`.
    fn deploy(&mut self, tracer: &mut Tracer);

    /// Replay the op sequence against the current deployment, checking
    /// every returned value against the reference. The driver's round wall
    /// is the duration of this call.
    fn replay(&mut self, rec: &mut Recorder);

    /// Checks on the deployment after the replay that are not part of the
    /// workload itself (a final invariant sweep), outside the round wall.
    fn verify(&mut self, _rec: &mut Recorder) {}

    /// Deterministic counters of the last replay.
    fn counters(&self) -> Counters;

    /// Share of exchanges each codec carries, `[RMI, CORBA, SOAP]` — the
    /// weights the traced run prices an exchange's codec work with.
    fn protocol_mix(&self) -> [f64; 3] {
        [1.0, 0.0, 0.0]
    }

    /// Spans the system's own `SpanLog` holds after the last replay. Costs
    /// a clone of the log, so only the traced run asks.
    fn system_spans(&self) -> u64 {
        0
    }

    /// Workload-specific per-layer metrics of the last round, deploy to
    /// verify (phase throughputs, self-time shares, deploy time, …). The
    /// driver reports the median over rounds.
    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Per-layer metrics fixed at build time (reference-side step counts,
    /// generator timings).
    fn build_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Test hook: falsify one reference answer, so the next replay must
    /// report a failure.
    #[cfg(test)]
    fn corrupt_reference(&mut self);

    /// Test hook: the generated inputs and reference answers, spelled out.
    #[cfg(test)]
    fn inputs(&self) -> String;
}

/// Generate the inputs and reference answers of workload `name` from
/// `seed`, with round sizes multiplied by `scale`. `None` when `name` is
/// not one of [`NAMES`].
pub fn build(name: &str, seed: u64, scale: f64, tracer: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "soak_day" => Box::new(soak_day::SoakDay::build(seed, scale, tracer)),
        "rpc_steady" => Box::new(rpc_steady::RpcSteady::build(seed, scale, tracer)),
        "store_reads" => Box::new(store::Store::build(store::Mix::Reads, seed, scale, tracer)),
        "store_writes" => Box::new(store::Store::build(store::Mix::Writes, seed, scale, tracer)),
        "local_chain" => Box::new(local_chain::LocalChain::build(seed, scale, tracer)),
        "transform_corpus" => Box::new(transform_corpus::TransformCorpus::build(
            seed, scale, tracer,
        )),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_close_at_fixed_op_counts_and_on_checkpoints() {
        let mut rec = Recorder::new(Tracer::new("demo", Instant::now()));
        rec.kinds = &["demo.op"];
        rec.segment_ops = 4;
        rec.begin_replay();
        let mut closed = Vec::new();
        for i in 0..10 {
            rec.op(0, || Ok(()));
            if i == 5 {
                rec.checkpoint();
            }
            closed.push(rec.segment_first);
        }
        // Ops 0-3, 4-5 (checkpoint), 6-9.
        assert_eq!(closed, [0, 0, 0, 4, 4, 6, 6, 6, 6, 10]);
        let before = rec.replay_raw_ns();
        let wall = rec.end_replay();
        assert!(wall.raw_ns >= before && wall.reference_ns > 0.0);
        assert_eq!(rec.samples.len(), 10);
        rec.fail("why".into());
        rec.fail("later".into());
        assert_eq!((rec.failed, rec.first_failure.as_deref()), (2, Some("why")));
    }
}
