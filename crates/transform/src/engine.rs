//! The transformation engine: analysis → plan → generate → rewrite → verify.

use crate::analysis::{analyze, TransformabilityReport};
use crate::generate::{generate_families, rewrite_in_place};
use crate::plan::{build_plan, TransformPlan};
use rafda_classmodel::{
    verify_universe, ClassId, ClassKind, ClassOrigin, ClassUniverse, GenKind, Role,
};
use std::collections::BTreeSet;
use std::fmt;

/// Why a transformation run was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The universe already contains generated artefacts.
    AlreadyTransformed,
    /// A requested substitutable class does not exist.
    UnknownClass(String),
    /// A requested substitutable class is not transformable.
    NotTransformable(String),
    /// A requested substitutable class is an interface.
    NotAClass(String),
    /// The rewritten universe failed verification (engine bug).
    VerifyFailed(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::AlreadyTransformed => {
                write!(f, "universe already contains generated artefacts")
            }
            TransformError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            TransformError::NotTransformable(n) => {
                write!(f, "class `{n}` is not transformable")
            }
            TransformError::NotAClass(n) => write!(f, "`{n}` is an interface, not a class"),
            TransformError::VerifyFailed(e) => write!(f, "post-transform verification failed: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Summary statistics of a transformation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Classes analysed.
    pub analyzed: usize,
    /// Non-transformable classes found.
    pub non_transformable: usize,
    /// Classes for which an artefact family was generated.
    pub substitutable_count: usize,
    /// Transformable classes rewritten in place (no family).
    pub rewritten_in_place: usize,
    /// Generated classes (interfaces, locals, proxies, factories).
    pub generated_classes: usize,
    /// Generated methods across all generated classes.
    pub generated_methods: usize,
    /// Property accessors generated (get/set pairs count as 2).
    pub accessors: usize,
    /// Proxy classes generated.
    pub proxy_classes: usize,
}

impl fmt::Display for TransformReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "classes analysed:      {:6}", self.analyzed)?;
        writeln!(f, "non-transformable:     {:6}", self.non_transformable)?;
        writeln!(f, "substitutable:         {:6}", self.substitutable_count)?;
        writeln!(f, "rewritten in place:    {:6}", self.rewritten_in_place)?;
        writeln!(f, "generated classes:     {:6}", self.generated_classes)?;
        writeln!(f, "generated methods:     {:6}", self.generated_methods)?;
        writeln!(f, "property accessors:    {:6}", self.accessors)?;
        writeln!(f, "proxy classes:         {:6}", self.proxy_classes)
    }
}

/// Everything a transformation run produced.
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    /// The plan (families, signature maps) — the runtime needs this to
    /// install factory hooks.
    pub plan: TransformPlan,
    /// The Section 2.4 analysis result.
    pub analysis: TransformabilityReport,
    /// Summary statistics.
    pub report: TransformReport,
}

/// Builder-style configuration of a transformation run.
///
/// "Policy dictates which classes are substitutable and which proxy
/// implementations are used" (Section 1): `substitutable_names` is that
/// policy input (default: every transformable class), `protocols` selects
/// the proxy families to generate.
#[derive(Debug, Clone, Default)]
pub struct Transformer {
    protocols: Vec<String>,
    substitutable: Option<Vec<String>>,
}

impl Transformer {
    /// A transformer with default settings (all transformable classes,
    /// no proxy protocols).
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate proxy families for these protocols (e.g. `"SOAP"`, `"RMI"`,
    /// `"CORBA"`).
    pub fn protocols(mut self, protocols: &[&str]) -> Self {
        self.protocols = protocols.iter().map(|p| (*p).to_owned()).collect();
        self
    }

    /// Restrict substitutability to the named classes (plus any
    /// substitutable ancestors, which are added automatically — a subclass
    /// family cannot exist without its superclass family).
    pub fn substitutable_names(mut self, names: &[&str]) -> Self {
        self.substitutable = Some(names.iter().map(|n| (*n).to_owned()).collect());
        self
    }

    /// Run the transformation, mutating `universe` into the transformed
    /// program.
    ///
    /// # Errors
    /// See [`TransformError`].
    pub fn run(self, universe: &mut ClassUniverse) -> Result<TransformOutcome, TransformError> {
        if universe
            .iter()
            .any(|(_, c)| matches!(c.origin, ClassOrigin::Generated { .. }))
        {
            return Err(TransformError::AlreadyTransformed);
        }
        let analysis = analyze(universe);

        // Resolve the substitutable set.
        let mut subs: BTreeSet<ClassId> = BTreeSet::new();
        match &self.substitutable {
            None => {
                for (id, c) in universe.iter() {
                    if matches!(c.origin, ClassOrigin::Original)
                        && c.kind == ClassKind::Class
                        && !c.is_special
                        && analysis.is_transformable(id)
                    {
                        subs.insert(id);
                    }
                }
            }
            Some(names) => {
                for name in names {
                    let id = universe
                        .by_name(name)
                        .ok_or_else(|| TransformError::UnknownClass(name.clone()))?;
                    if !analysis.is_transformable(id) {
                        return Err(TransformError::NotTransformable(name.clone()));
                    }
                    if universe.class(id).kind != ClassKind::Class {
                        return Err(TransformError::NotAClass(name.clone()));
                    }
                    subs.insert(id);
                }
                // Close under superclasses (all transformable by the
                // subclass rule).
                let seed: Vec<ClassId> = subs.iter().copied().collect();
                for id in seed {
                    for anc in universe.ancestry(id) {
                        subs.insert(anc);
                    }
                }
            }
        }
        let subs: Vec<ClassId> = subs.into_iter().collect();

        let plan = build_plan(universe, &analysis, &subs, &self.protocols);
        generate_families(universe, &plan);

        // Rewrite transformable classes that did not get a family.
        let mut rewritten_in_place = 0;
        let mut rewrite_targets: Vec<ClassId> = plan
            .transformable
            .iter()
            .copied()
            .filter(|id| !plan.is_substitutable(*id))
            .collect();
        rewrite_targets.sort();
        for id in rewrite_targets {
            rewrite_in_place(universe, &plan, id);
            rewritten_in_place += 1;
        }

        verify_universe(universe).map_err(|e| TransformError::VerifyFailed(e.to_string()))?;

        // Report.
        let mut report = TransformReport {
            analyzed: analysis.total,
            non_transformable: analysis.non_transformable_count(),
            substitutable_count: subs.len(),
            rewritten_in_place,
            ..Default::default()
        };
        for (_, c) in universe.iter() {
            if let ClassOrigin::Generated { kind, .. } = &c.origin {
                report.generated_classes += 1;
                report.generated_methods += c.methods.len();
                report.accessors += c
                    .methods
                    .iter()
                    .filter(|m| m.name.starts_with("get_") || m.name.starts_with("set_"))
                    .count();
                if matches!(kind, GenKind::Family(_, Role::Proxy(_))) {
                    report.proxy_classes += 1;
                }
            }
        }

        Ok(TransformOutcome {
            plan,
            analysis,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{sample, Ty};

    #[test]
    fn default_run_transforms_everything_transformable() {
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        let outcome = Transformer::new()
            .protocols(&["SOAP", "RMI", "CORBA"])
            .run(&mut u)
            .unwrap();
        assert_eq!(outcome.report.substitutable_count, 3);
        assert_eq!(outcome.report.rewritten_in_place, 0);
        // X: 8 (O-family: int, local, 3 proxies, factory = 6; C-family … )
        assert!(outcome.report.generated_classes >= 3 * 6);
        assert!(outcome.report.proxy_classes >= 9);
        verify_universe(&u).unwrap();
    }

    #[test]
    fn special_and_native_classes_are_skipped() {
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        sample::build_throwables(&mut u);
        let outcome = Transformer::new().run(&mut u).unwrap();
        assert_eq!(outcome.report.substitutable_count, 3);
        assert_eq!(outcome.report.non_transformable, 2);
        assert!(u.by_name("Throwable_O_Int").is_none());
    }

    #[test]
    fn named_subset_is_closed_over_ancestors() {
        let mut u = ClassUniverse::new();
        // B extends A; request only B.
        let a = u.declare("A", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            cb.finish(&mut u);
        }
        let b = u.declare("B", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, b);
            cb.superclass(a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            cb.finish(&mut u);
        }
        let outcome = Transformer::new()
            .substitutable_names(&["B"])
            .run(&mut u)
            .unwrap();
        assert_eq!(outcome.report.substitutable_count, 2);
        assert!(u.by_name("A_O_Int").is_some());
        assert!(u.by_name("B_O_Int").is_some());
        // B_O_Int extends A_O_Int; B_O_Local extends A_O_Local.
        let fb = outcome.plan.family(b).unwrap();
        let fa = outcome.plan.family(a).unwrap();
        assert!(u.is_subtype(fb.obj.int, fa.obj.int));
        assert_eq!(u.class(fb.obj.local).superclass, Some(fa.obj.local));
        verify_universe(&u).unwrap();
    }

    #[test]
    fn partial_substitutability_rewrites_referencers_in_place() {
        // Only Z substitutable: X references Z statics… X must be rewritten
        // in place so its `new Z` goes through Z_O_Factory.
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        let outcome = Transformer::new()
            .substitutable_names(&["Z"])
            .run(&mut u)
            .unwrap();
        assert_eq!(outcome.report.substitutable_count, 1);
        assert_eq!(outcome.report.rewritten_in_place, 2); // X and Y
        assert!(u.by_name("Z_O_Int").is_some());
        assert!(u.by_name("X_O_Int").is_none());
        // X.<clinit> now calls Z_O_Factory.make.
        let x = u.by_name("X").unwrap();
        let xc = u.class(x);
        let clinit = xc.methods[xc.clinit.unwrap() as usize]
            .body
            .as_ref()
            .unwrap();
        let zf = u.by_name("Z_O_Factory").unwrap();
        assert!(clinit.code.iter().any(
            |i| matches!(i, rafda_classmodel::Insn::InvokeStatic { class, .. } if *class == zf)
        ));
        verify_universe(&u).unwrap();
    }

    #[test]
    fn double_transform_rejected() {
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        Transformer::new().run(&mut u).unwrap();
        assert_eq!(
            Transformer::new().run(&mut u).unwrap_err(),
            TransformError::AlreadyTransformed
        );
    }

    #[test]
    fn unknown_and_invalid_substitutable_names_rejected() {
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        sample::build_throwables(&mut u);
        let iface = u.declare("IFace", ClassKind::Interface);
        let _ = iface;
        assert_eq!(
            Transformer::new()
                .substitutable_names(&["Nope"])
                .run(&mut u.clone())
                .unwrap_err(),
            TransformError::UnknownClass("Nope".into())
        );
        assert_eq!(
            Transformer::new()
                .substitutable_names(&["Throwable"])
                .run(&mut u.clone())
                .unwrap_err(),
            TransformError::NotTransformable("Throwable".into())
        );
        assert_eq!(
            Transformer::new()
                .substitutable_names(&["IFace"])
                .run(&mut u.clone())
                .unwrap_err(),
            TransformError::NotAClass("IFace".into())
        );
    }

    #[test]
    fn report_display_is_readable() {
        let mut u = ClassUniverse::new();
        sample::build_figure2(&mut u);
        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        let s = outcome.report.to_string();
        assert!(s.contains("substitutable"));
        assert!(s.contains("generated classes"));
    }

    #[test]
    fn transform_with_methods_taking_transformed_params() {
        // A method taking and returning substitutable types exercises the
        // signature rewriting path end to end.
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let mut cb = ClassBuilder::declare(&mut u, "Holder", ClassKind::Class);
        let holder = cb.id();
        let yf = cb.field(rafda_classmodel::Field::new("held", Ty::Object(ids.y)));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // Y swap(Y next) { Y old = held; held = next; return old; }
        let mut mb = MethodBuilder::new(2);
        let old = mb.alloc_local();
        mb.load_this().get_field(holder, yf).store_local(old);
        mb.load_this().load_local(1).put_field(holder, yf);
        mb.load_local(old).ret_value();
        cb.method(
            &mut u,
            "swap",
            vec![Ty::Object(ids.y)],
            Ty::Object(ids.y),
            Some(mb.finish()),
        );
        cb.finish(&mut u);

        let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
        verify_universe(&u).unwrap();
        let fh = outcome.plan.family(holder).unwrap();
        let fy = outcome.plan.family(ids.y).unwrap();
        let c = u.class(fh.obj.int);
        let swap = &c.methods[c.method_index("swap").unwrap() as usize];
        assert_eq!(swap.params, vec![Ty::Object(fy.obj.int)]);
        assert_eq!(swap.ret, Ty::Object(fy.obj.int));
    }
}
