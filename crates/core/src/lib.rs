//! # rafda
//!
//! A Rust reproduction of **"A Reflective Approach to Providing Flexibility
//! in Application Distribution"** (Rebón Portillo, Walker, Kirby, Dearle;
//! Middleware 2003) — the RAFDA project.
//!
//! RAFDA transforms a non-distributed program into a semantically
//! equivalent one whose **distribution boundaries are flexible**: for every
//! substitutable class it extracts interfaces (`A_O_Int`, `A_C_Int`),
//! generates local and remote-proxy implementations plus factories, and
//! rewrites all code against the interfaces — so a local object and a proxy
//! to a remote instance become interchangeable, and a running program can
//! re-draw its distribution boundaries dynamically.
//!
//! This crate is the facade over the full system:
//!
//! | Sub-crate | Role |
//! |---|---|
//! | [`classmodel`] | Java-like class model + mini-bytecode IR (the BCEL stand-in) |
//! | [`vm`] | interpreter, one per simulated address space (the JVM stand-in) |
//! | [`transform`] | the paper's transformation engine (Section 2) |
//! | [`net`] | deterministic simulated LAN with failure injection |
//! | [`wire`] | RMI-, SOAP- and CORBA-like protocol codecs |
//! | [`policy`] | distribution policy (placement, protocols, adaptation) |
//! | [`telemetry`] | causal tracing: spans on the simulated clock, histograms, Chrome export |
//! | [`runtime`] | distributed runtime: factories, proxies, migration, adaptation |
//! | [`baseline`] | the wrapper-per-object alternative (Section 3) |
//! | [`corpus`] | JDK-shaped corpus + executable workload generators |
//!
//! ## Quickstart
//!
//! ```
//! use rafda::{Application, NodeId, StaticPolicy, Value};
//!
//! // 1. An ordinary, non-distributed program (the paper's Figure 2).
//! let mut app = Application::new();
//! let _ids = rafda::classmodel::sample::build_figure2(app.universe_mut());
//!
//! // 2. Transform: extract interfaces, generate proxies and factories.
//! let transformed = app.transform(&["RMI", "SOAP"]).unwrap();
//!
//! // 3. Deploy over two nodes with X/Y/Z statics on node 1 — no source
//! //    changes, placement is pure policy.
//! let policy = StaticPolicy::new().default_statics(NodeId(1));
//! let cluster = transformed.deploy(2, 42, Box::new(policy));
//!
//! // 4. Same answers as the original program, now computed remotely.
//! let r = cluster.call_static(NodeId(0), "X", "p", vec![Value::Int(6)]).unwrap();
//! assert_eq!(r, Value::Int(42));
//! assert!(cluster.network().stats().messages > 0);
//! ```

#![warn(missing_docs)]

pub mod soak;

pub use rafda_baseline as baseline;
pub use rafda_classmodel as classmodel;
pub use rafda_corpus as corpus;
pub use rafda_net as net;
pub use rafda_policy as policy;
pub use rafda_runtime as runtime;
pub use rafda_telemetry as telemetry;
pub use rafda_transform as transform;
pub use rafda_vm as vm;
pub use rafda_wire as wire;

pub use rafda_classmodel::{ClassUniverse, Ty};
pub use rafda_net::{NodeId, SimTime};
pub use rafda_policy::{
    AffinityConfig, DistributionPolicy, LocalPolicy, Placement, RoundRobinPolicy, StaticPolicy,
};
pub use rafda_runtime::{
    declare_introspection, Cluster, LocalRuntime, MigrationEvent, RetryPolicy, RuntimeError,
    RuntimeStats, INTROSPECTION_CLASS,
};
pub use rafda_telemetry::{
    LatencyHistogram, LinkSummary, MethodKey, MetricsRegistry, Span, SpanLog, SpanOutcome,
    TimeSeriesRecorder, TraceContext, Violation,
};
pub use rafda_transform::{TransformError, Transformer};
pub use rafda_vm::{NetFailure, NetFailureKind, ObserverIds, Trace, TraceEvent, Value, Vm};

use rafda_transform::{TransformOutcome, TransformPlan};

/// A non-distributed application under construction: a class universe with
/// the `Observer` built-in pre-installed.
///
/// Populate it through [`Application::universe_mut`] (hand-built classes,
/// the Figure 2 sample, or a generated workload), then call
/// [`Application::transform`].
#[derive(Debug)]
pub struct Application {
    universe: ClassUniverse,
    observer: ObserverIds,
}

impl Application {
    /// A fresh application with the observation built-in installed.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let mut universe = ClassUniverse::new();
        let observer = Vm::install_observer(&mut universe);
        Application { universe, observer }
    }

    /// The class universe (add your program here).
    pub fn universe_mut(&mut self) -> &mut ClassUniverse {
        &mut self.universe
    }

    /// Read access to the universe.
    pub fn universe(&self) -> &ClassUniverse {
        &self.universe
    }

    /// The `Observer` ids (pass to [`rafda_corpus::generate_app`] via
    /// [`rafda_corpus::ObserverHooks`]).
    pub fn observer(&self) -> ObserverIds {
        self.observer
    }

    /// Run the **original** (untransformed) program on a fresh VM and
    /// return its observation trace — the reference side of every
    /// equivalence check.
    pub fn run_original(&self, class: &str, method: &str, args: Vec<Value>) -> Trace {
        let vm = Vm::new(std::sync::Arc::new(self.universe.clone()));
        vm.bind_observer(&self.observer);
        vm.run_observed(class, method, args)
    }

    /// Transform the application (all transformable classes substitutable),
    /// generating proxy families for `protocols`.
    ///
    /// # Errors
    /// See [`TransformError`].
    pub fn transform(self, protocols: &[&str]) -> Result<TransformedApplication, TransformError> {
        self.transform_with(Transformer::new().protocols(protocols))
    }

    /// Transform with a custom [`Transformer`] configuration (restricted
    /// substitutable sets etc.).
    ///
    /// # Errors
    /// See [`TransformError`].
    pub fn transform_with(
        mut self,
        transformer: Transformer,
    ) -> Result<TransformedApplication, TransformError> {
        let outcome = transformer.run(&mut self.universe)?;
        Ok(TransformedApplication {
            universe: self.universe,
            observer: self.observer,
            outcome,
        })
    }
}

/// A transformed application, ready to deploy.
#[derive(Debug)]
pub struct TransformedApplication {
    universe: ClassUniverse,
    observer: ObserverIds,
    outcome: TransformOutcome,
}

impl TransformedApplication {
    /// The transformed universe.
    pub fn universe(&self) -> &ClassUniverse {
        &self.universe
    }

    /// The transformation plan.
    pub fn plan(&self) -> &TransformPlan {
        &self.outcome.plan
    }

    /// The full transformation outcome (analysis + statistics).
    pub fn outcome(&self) -> &TransformOutcome {
        &self.outcome
    }

    /// The observer ids.
    pub fn observer(&self) -> ObserverIds {
        self.observer
    }

    /// Render the declaration surface of every generated artefact
    /// (interfaces, locals, proxies, factories) as Java-like source — the
    /// equivalent of decompiling the paper's BCEL output.
    pub fn dump_generated(&self) -> String {
        rafda_classmodel::pretty::dump_universe(&self.universe, true)
    }

    /// Deploy in a single address space (the paper's "local version of the
    /// transformed application"). The observer is bound automatically.
    pub fn deploy_local(self) -> LocalRuntime {
        let rt = LocalRuntime::new(self.universe, self.outcome.plan);
        rt.bind_observer(&self.observer);
        rt
    }

    /// Deploy over a simulated cluster with the given placement policy.
    /// The observer is bound cluster-wide automatically.
    pub fn deploy(self, nodes: u32, seed: u64, policy: Box<dyn DistributionPolicy>) -> Cluster {
        let cluster = Cluster::new(self.universe, self.outcome.plan, nodes, seed, policy);
        cluster.bind_observer(&self.observer);
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_local_pipeline() {
        let mut app = Application::new();
        rafda_classmodel::sample::build_figure2(app.universe_mut());
        let original = app.run_original("X", "p", vec![Value::Int(5)]);
        assert!(original.is_empty()); // X.p emits nothing by itself
        let transformed = app.transform(&["RMI"]).unwrap();
        assert_eq!(transformed.outcome().report.substitutable_count, 3);
        let rt = transformed.deploy_local();
        assert_eq!(
            rt.call_static("X", "p", vec![Value::Int(5)]).unwrap(),
            Value::Int(35)
        );
    }

    #[test]
    fn transform_errors_surface() {
        let mut app = Application::new();
        rafda_classmodel::sample::build_figure2(app.universe_mut());
        let err = app
            .transform_with(Transformer::new().substitutable_names(&["Missing"]))
            .unwrap_err();
        assert_eq!(err, TransformError::UnknownClass("Missing".into()));
    }

    #[test]
    fn dump_generated_lists_every_artefact_family() {
        let mut app = Application::new();
        rafda_classmodel::sample::build_figure2(app.universe_mut());
        let t = app.transform(&["RMI", "SOAP"]).unwrap();
        let dump = t.dump_generated();
        for name in [
            "interface X_O_Int",
            "class X_O_Local",
            "class X_O_Proxy_RMI",
            "class X_O_Proxy_SOAP",
            "class X_O_Factory",
            "interface X_C_Int",
            "class X_C_Factory",
            "interface Y_O_Int",
            "interface Z_O_Int",
        ] {
            assert!(dump.contains(name), "missing {name} in dump");
        }
        // Original classes are excluded from the generated-only dump.
        assert!(!dump.contains("public class X {"));
    }

    #[test]
    fn observer_is_not_substitutable() {
        let mut app = Application::new();
        rafda_classmodel::sample::build_figure2(app.universe_mut());
        let transformed = app.transform(&["RMI"]).unwrap();
        assert!(transformed.universe().by_name("Observer_O_Int").is_none());
    }
}
