//! `soak_day` — the production-day churn schedule, every layer at once.
//!
//! `ChurnConfig::production_day(seed, 100_000)` replayed exactly as
//! `rafda::soak::run_schedule` does (recorder, per-phase invariant sweep,
//! finale, `SoakRecorder::finish`, `report.clean()`), but through
//! `SoakHarness::apply` so each op is timed. The reference is the corpus
//! `Oracle`, which `apply` steps alongside and compares with every value
//! the cluster returns. This is the throughput figure ROADMAP item 2
//! quotes.

use super::{round_ops, scaled, ClusterMark, Counters, KindGroup, Recorder, Workload};
use crate::trace::{Layer, Tracer};
use rafda::corpus::ops::{generate_churn, ChurnConfig, ChurnSchedule, Oracle};
use rafda::runtime::SoakRecorder;
use rafda::soak::SoakHarness;

/// Op kinds, in `SoakOp::kind()` label order.
const KINDS: [&str; 9] = [
    "core.soak.call",
    "core.soak.read",
    "core.soak.inc",
    "core.soak.migrate",
    "core.soak.pull",
    "core.soak.adapt",
    "core.soak.rebalance",
    "core.soak.crash",
    "core.soak.heal",
];

const KIND_P50: [&str; 9] = [
    "core.soak.call_p50_us",
    "core.soak.read_p50_us",
    "core.soak.inc_p50_us",
    "core.soak.migrate_p50_us",
    "core.soak.pull_p50_us",
    "core.soak.adapt_p50_us",
    "core.soak.rebalance_p50_us",
    "core.soak.crash_p50_us",
    "core.soak.heal_p50_us",
];

const PHASE_OPS_PER_S: [(&str, &str, &str); 4] = [
    (
        "warmup",
        "core.soak.phase.warmup",
        "core.soak.warmup_ops_per_s",
    ),
    (
        "steady",
        "core.soak.phase.steady",
        "core.soak.steady_ops_per_s",
    ),
    (
        "churn",
        "core.soak.phase.churn",
        "core.soak.churn_ops_per_s",
    ),
    (
        "quiesce",
        "core.soak.phase.quiesce",
        "core.soak.quiesce_ops_per_s",
    ),
];

fn kind_index(label: &str) -> u8 {
    KINDS
        .iter()
        .position(|k| k.rsplit('.').next() == Some(label))
        .expect("every SoakOp kind label has a span name") as u8
}

pub(crate) struct SoakDay {
    cfg: ChurnConfig,
    schedule: ChurnSchedule,
    /// Kind index of every op, phase by phase (looked up once, not per op).
    kinds: Vec<Vec<u8>>,
    harness: Option<SoakHarness>,
    counters: Counters,
    round_metrics: Vec<(&'static str, f64)>,
    generate_ms: f64,
    #[cfg(test)]
    corrupt: bool,
}

impl SoakDay {
    pub(crate) fn build(seed: u64, scale: f64, tracer: &mut Tracer) -> Self {
        let cfg = ChurnConfig::production_day(seed, scaled(round_ops::SOAK_DAY, scale));
        let (schedule, took) = tracer.span(Layer::Corpus, "corpus.generate_churn", |_| {
            generate_churn(&cfg)
        });
        let kinds = schedule
            .phases
            .iter()
            .map(|p| p.ops.iter().map(|op| kind_index(op.kind())).collect())
            .collect();
        SoakDay {
            cfg,
            schedule,
            kinds,
            harness: None,
            counters: Counters::default(),
            round_metrics: Vec::new(),
            generate_ms: took.as_secs_f64() * 1e3,
            #[cfg(test)]
            corrupt: false,
        }
    }
}

impl Workload for SoakDay {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn layer(&self) -> Layer {
        Layer::Core
    }

    fn ops_per_round(&self) -> usize {
        self.schedule.total_ops()
    }

    fn kind_groups(&self) -> Vec<KindGroup> {
        KIND_P50
            .iter()
            .enumerate()
            .map(|(i, metric)| KindGroup {
                metric,
                ns_per_unit: 1e3,
                kinds: vec![i as u8],
            })
            .collect()
    }

    fn deploy(&mut self, tracer: &mut Tracer) {
        // Free the previous round's cluster (and its unbounded SpanLog)
        // before building the next, so RSS stays one round deep.
        self.harness = None;
        self.round_metrics.clear();
        let (harness, took) = tracer.span(Layer::Core, "core.soak.deploy", |_| {
            SoakHarness::deploy(&self.cfg)
        });
        // `SoakHarness::deploy` creates and pins the pool too; the split
        // into deploy and per-instance creation is not visible from outside.
        self.round_metrics
            .push(("runtime.deploy_ms", took.as_secs_f64() * 1e3));
        self.harness = Some(harness);
    }

    fn replay(&mut self, rec: &mut Recorder) {
        let harness = self.harness.as_mut().expect("deploy before replay");
        let mark = ClusterMark::take(harness.cluster());
        let mut oracle = Oracle::new(self.cfg.pool());
        let mut recorder = SoakRecorder::begin(harness.cluster(), self.cfg.seed);
        // The recorder's burst-free clock, read at segment boundaries: the
        // op loops, the sweeps, the finale and the report each end on a
        // checkpoint, so each long call is a host-speed segment of its own.
        rec.checkpoint();
        let started = rec.replay_raw_ns();
        let mut lap = started;
        let mut lap_ns = |rec: &mut Recorder| {
            rec.checkpoint();
            let took = rec.replay_raw_ns() - lap;
            lap += took;
            took
        };
        let (mut apply_ns, mut invariants_ns) = (0.0, 0.0);
        let mut invariant_sweeps_ms = Vec::new();
        for (phase, kinds) in self.schedule.phases.iter().zip(&self.kinds) {
            let (_, span, metric) = PHASE_OPS_PER_S
                .iter()
                .find(|(name, _, _)| *name == phase.name)
                .expect("production-day phases are warmup/steady/churn/quiesce");
            recorder.phase(harness.cluster(), phase.name);
            let id = rec.tracer.enter(Layer::Core, span);
            #[cfg(test)]
            if self.corrupt && phase.name == "steady" {
                // Push the oracle off by one: every later value of object 0
                // disagrees with what the cluster returns.
                oracle.step(&rafda::corpus::ops::SoakOp::Inc { idx: 0, delta: 1 });
            }
            for (op, &kind) in phase.ops.iter().zip(kinds) {
                rec.op(kind, || harness.apply(op, &mut oracle));
                recorder.record(op.kind());
            }
            rec.tracer.exit(id);
            let took = lap_ns(rec);
            apply_ns += took;
            self.round_metrics
                .push((*metric, phase.ops.len() as f64 / (took / 1e9)));
            let (violations, _) =
                rec.tracer
                    .span(Layer::Telemetry, "telemetry.check_invariants", |_| {
                        harness.cluster().check_invariants()
                    });
            let took = lap_ns(rec);
            invariants_ns += took;
            invariant_sweeps_ms.push(took / 1e6);
            if let Some(v) = violations.first() {
                rec.fail(format!("phase {} boundary: {v}", phase.name));
            }
        }
        let (finale, _) = rec
            .tracer
            .span(Layer::Core, "core.soak.finale", |_| harness.finale(&oracle));
        let finale_ns = lap_ns(rec);
        if let Err(why) = finale {
            rec.fail(format!("finale: {why}"));
        }
        let (report, _) = rec.tracer.span(Layer::Core, "core.soak.finish", |_| {
            recorder.finish(harness.cluster())
        });
        let finish_ns = lap_ns(rec);
        if !report.clean() {
            rec.fail(format!("monitors fired:\n{report}"));
        }
        if report.total_ops() as usize != self.schedule.total_ops() {
            rec.fail("the soak report lost ops".into());
        }
        self.counters = mark.delta(&ClusterMark::take(harness.cluster()));
        let wall_ns = lap - started;
        self.round_metrics.extend([
            ("core.soak.apply_share", apply_ns / wall_ns),
            ("core.soak.invariants_share", invariants_ns / wall_ns),
            ("core.soak.finale_share", finale_ns / wall_ns),
            ("core.soak.finish_share", finish_ns / wall_ns),
            (
                "telemetry.check_invariants_ms",
                crate::stats::median(&invariant_sweeps_ms),
            ),
        ]);
    }

    fn counters(&self) -> Counters {
        self.counters.clone()
    }

    fn system_spans(&self) -> u64 {
        self.harness
            .as_ref()
            .map_or(0, |h| h.cluster().span_log().spans().len() as u64)
    }

    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        self.round_metrics.clone()
    }

    fn build_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("corpus.generate_churn_ms", self.generate_ms)]
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.corrupt = true;
    }

    #[cfg(test)]
    fn inputs(&self) -> String {
        format!("{:?}", self.schedule)
    }
}
