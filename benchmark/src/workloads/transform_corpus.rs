//! `transform_corpus` — the developer-facing "compile time".
//!
//! One op transforms a JDK-shaped corpus of about 500 classes for all
//! three protocols (`Transformer::new().protocols([RMI, SOAP, CORBA])
//! .run(&mut universe)`) and runs the bytecode verifier over the result.
//! No VM, no runtime, no network: analysis, planning, generation and
//! rewriting are all there is. Each op works on its own clone of a
//! corpus, made inside the round but outside the op timer. The reference is
//! the verifier passing plus a `TransformReport` equal to the one computed
//! for this seed in set-up.
//!
//! The ops rotate over [`CORPORA`] corpora generated from the seed. How
//! many classes of a generated corpus turn out transformable — and so what
//! one transform costs — swings by ±8 % from seed to seed (non-
//! transformability spreads along reference edges); over sixteen
//! independent corpora that averages out, so that two seeds measure about
//! the same amount of work. Sixteen corpora of 500 classes rather than
//! four of 2 000, because an op is the shortest stretch the driver can
//! measure the host's speed around: at 4 ms an op it sees the neighbour
//! come and go, at 16 ms it does not (run-to-run spread of `ops_per_s`
//! 4 % against 9 %).

use super::{round_ops, scaled, Counters, KindGroup, Recorder, Workload};
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use rafda::classmodel::verify::verify_universe;
use rafda::corpus::{generate_jdk, JdkProfile};
use rafda::transform::{analyze, TransformReport, Transformer};
use rafda::ClassUniverse;
use std::time::Instant;

const CORPUS_CLASSES: usize = 500;
/// Independent corpora per seed; op `i` transforms corpus `i % CORPORA`.
const CORPORA: usize = 16;
const PROTOCOLS: [&str; 3] = ["RMI", "SOAP", "CORBA"];
const KINDS: [&str; 1] = ["transform.run_and_verify"];

fn transform(universe: &mut ClassUniverse) -> Result<TransformReport, String> {
    Transformer::new()
        .protocols(&PROTOCOLS)
        .run(universe)
        .map(|outcome| outcome.report)
        .map_err(|e| format!("transform: {e}"))
}

pub(crate) struct TransformCorpus {
    /// Each corpus with the report its transformation must produce.
    corpora: Vec<(ClassUniverse, TransformReport)>,
    ops: usize,
    build_metrics: Vec<(&'static str, f64)>,
    round_metrics: Vec<(&'static str, f64)>,
}

impl TransformCorpus {
    pub(crate) fn build(seed: u64, scale: f64, tracer: &mut Tracer) -> Self {
        let mut generate_ms = Vec::new();
        let corpora = (0..CORPORA as u64)
            .map(|k| {
                let mut profile = JdkProfile::scaled(CORPUS_CLASSES);
                profile.seed = seed.wrapping_mul(CORPORA as u64).wrapping_add(k);
                let (corpus, took) = tracer.span(Layer::Corpus, "corpus.generate_jdk", |_| {
                    let mut u = ClassUniverse::new();
                    generate_jdk(&mut u, &profile);
                    u
                });
                generate_ms.push(took.as_secs_f64() * 1e3);
                let (reference, _) =
                    tracer.span(Layer::Transform, "transform.reference_run", |_| {
                        let mut u = corpus.clone();
                        let report = transform(&mut u).expect("the generated corpus transforms");
                        verify_universe(&u).expect("the transformed corpus verifies");
                        report
                    });
                (corpus, reference)
            })
            .collect();
        TransformCorpus {
            corpora,
            ops: scaled(round_ops::TRANSFORM_CORPUS, scale),
            build_metrics: vec![("corpus.generate_jdk_ms", median(&generate_ms))],
            round_metrics: Vec::new(),
        }
    }
}

impl Workload for TransformCorpus {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn layer(&self) -> Layer {
        Layer::Transform
    }

    fn ops_per_round(&self) -> usize {
        self.ops
    }

    fn kind_groups(&self) -> Vec<KindGroup> {
        Vec::new()
    }

    /// Nothing is deployed; the untimed slot before the replay measures the
    /// analysis pass on its own.
    fn deploy(&mut self, tracer: &mut Tracer) {
        let (report, took) = tracer.span(Layer::Transform, "transform.analyze", |_| {
            analyze(&self.corpora[0].0)
        });
        std::hint::black_box(report);
        self.round_metrics = vec![("transform.analyze_ms", took.as_secs_f64() * 1e3)];
    }

    fn replay(&mut self, rec: &mut Recorder) {
        let (mut clone_ms, mut run_ms, mut verify_ms) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..self.ops {
            let (corpus, reference) = &self.corpora[i % CORPORA];
            let (mut universe, took) =
                rec.tracer
                    .span(Layer::Classmodel, "classmodel.universe_clone", |_| {
                        corpus.clone()
                    });
            clone_ms.push(took.as_secs_f64() * 1e3);
            rec.op(0, || {
                let start = Instant::now();
                let report = transform(&mut universe)?;
                let transformed = Instant::now();
                let verdict = verify_universe(&universe);
                run_ms.push((transformed - start).as_secs_f64() * 1e3);
                verify_ms.push(transformed.elapsed().as_secs_f64() * 1e3);
                verdict.map_err(|e| format!("op {i}: verifier rejected the output: {e}"))?;
                if report == *reference {
                    Ok(())
                } else {
                    Err(format!(
                        "op {i}: transform report differs from the reference:\n{report}"
                    ))
                }
            });
        }
        if run_ms.is_empty() {
            // Every transform failed (already counted); there is no split to report.
            return;
        }
        let run = median(&run_ms);
        let mean = |count: fn(&TransformReport) -> usize| {
            self.corpora.iter().map(|(_, r)| count(r)).sum::<usize>() as f64 / CORPORA as f64
        };
        self.round_metrics.extend([
            ("classmodel.universe_clone_ms", median(&clone_ms)),
            ("transform.run_ms", run),
            ("classmodel.verify_ms", median(&verify_ms)),
            (
                "transform.classes_per_s",
                mean(|r| r.analyzed) / (run / 1e3),
            ),
            ("transform.generated_classes", mean(|r| r.generated_classes)),
            ("transform.generated_methods", mean(|r| r.generated_methods)),
        ]);
    }

    fn counters(&self) -> Counters {
        Counters::default()
    }

    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        self.round_metrics.clone()
    }

    fn build_metrics(&self) -> Vec<(&'static str, f64)> {
        self.build_metrics.clone()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.corpora[0].1.generated_methods += 1;
    }

    #[cfg(test)]
    fn inputs(&self) -> String {
        let reports: Vec<&TransformReport> = self.corpora.iter().map(|(_, r)| r).collect();
        format!("{reports:?}")
    }
}
