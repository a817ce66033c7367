//! `local_chain` — what the transformed program costs when nothing is
//! remote.
//!
//! A generated 12-class chain application (statics, inheritance, arrays)
//! is transformed and run in a single address space:
//! `deploy_local().run_observed("Driver", "main", [i])` per op. No network,
//! no codec, no replication — the VM interpreter and the generated-code
//! indirection (interfaces, property accessors, factories) are all there
//! is. The reference is the observation trace of the *untransformed*
//! program on a bare `Vm` over the same call sequence, computed in set-up:
//! the paper's semantic-equivalence criterion, checked on every op.

use super::{round_ops, scaled, Counters, KindGroup, Recorder, Workload};
use crate::trace::{Layer, Tracer};
use rafda::corpus::rng::Rng;
use rafda::corpus::{generate_app, AppSpec, ObserverHooks};
use rafda::{Application, LocalRuntime, Trace, Value, Vm};
use std::sync::Arc;

const KINDS: [&str; 1] = ["runtime.local.driver_main"];

/// The chain program's shape: 12 classes, statics, inheritance, arrays.
pub(crate) fn chain_spec(seed: u64) -> AppSpec {
    AppSpec {
        classes: 12,
        int_fields: 2,
        statics: true,
        inheritance: true,
        arrays: true,
        seed,
    }
}

/// The generated chain application, untransformed.
pub(crate) fn chain_app(spec: &AppSpec) -> Application {
    let mut app = Application::new();
    let obs = app.observer();
    generate_app(
        app.universe_mut(),
        ObserverHooks {
            class: obs.class,
            emit: obs.emit,
        },
        spec,
    );
    app
}

pub(crate) struct LocalChain {
    spec: AppSpec,
    args: Vec<i32>,
    /// Trace of the original program for each call, in order.
    reference: Vec<Trace>,
    runtime: Option<LocalRuntime>,
    counters: Counters,
    build_metrics: Vec<(&'static str, f64)>,
    round_metrics: Vec<(&'static str, f64)>,
}

impl LocalChain {
    pub(crate) fn build(seed: u64, scale: f64, tracer: &mut Tracer) -> Self {
        let spec = chain_spec(seed);
        let mut rng = Rng::new(seed ^ 0x4c4f_4341_4c43_484e);
        let args: Vec<i32> = (0..scaled(round_ops::LOCAL_CHAIN, scale))
            .map(|_| rng.below(1000) as i32)
            .collect();
        let (app, generate_took) =
            tracer.span(Layer::Corpus, "corpus.generate_app", |_| chain_app(&spec));
        let ((reference, steps), _) = tracer.span(Layer::Vm, "vm.reference_run", |_| {
            let vm = Vm::new(Arc::new(app.universe().clone()));
            vm.bind_observer(&app.observer());
            let reference: Vec<Trace> = args
                .iter()
                .map(|&a| vm.run_observed("Driver", "main", vec![Value::Int(a)]))
                .collect();
            (reference, vm.stats().steps)
        });
        LocalChain {
            spec,
            build_metrics: vec![
                ("corpus.generate_app_ms", generate_took.as_secs_f64() * 1e3),
                ("vm.steps_per_op_original", steps as f64 / args.len() as f64),
            ],
            args,
            reference,
            runtime: None,
            counters: Counters::default(),
            round_metrics: Vec::new(),
        }
    }
}

impl Workload for LocalChain {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn layer(&self) -> Layer {
        Layer::Runtime
    }

    fn ops_per_round(&self) -> usize {
        self.args.len()
    }

    fn kind_groups(&self) -> Vec<KindGroup> {
        Vec::new()
    }

    fn deploy(&mut self, tracer: &mut Tracer) {
        self.runtime = None;
        let (app, _) = tracer.span(Layer::Corpus, "corpus.generate_app", |_| {
            chain_app(&self.spec)
        });
        let (transformed, _) = tracer.span(Layer::Transform, "transform.run", |_| {
            app.transform(&["RMI"]).expect("the chain app transforms")
        });
        let (runtime, took) = tracer.span(Layer::Runtime, "runtime.deploy", |_| {
            transformed.deploy_local()
        });
        self.round_metrics = vec![("runtime.deploy_ms", took.as_secs_f64() * 1e3)];
        self.runtime = Some(runtime);
    }

    fn replay(&mut self, rec: &mut Recorder) {
        let rt = self.runtime.as_ref().expect("deploy before replay");
        let steps_before = rt.vm().stats().steps;
        for (i, (&arg, want)) in self.args.iter().zip(&self.reference).enumerate() {
            rec.op(0, || {
                let got = rt.run_observed("Driver", "main", vec![Value::Int(arg)]);
                if got == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "call {i} main({arg}): trace diverged from the original program"
                    ))
                }
            });
        }
        self.counters = Counters {
            vm_steps: rt.vm().stats().steps - steps_before,
            ..Counters::default()
        };
    }

    fn counters(&self) -> Counters {
        self.counters.clone()
    }

    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        self.round_metrics.clone()
    }

    fn build_metrics(&self) -> Vec<(&'static str, f64)> {
        self.build_metrics.clone()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[0].push(rafda::TraceEvent::Emit(-1));
    }

    #[cfg(test)]
    fn inputs(&self) -> String {
        format!("{:?} {:?}", self.args, self.reference)
    }
}
