//! Planning pass: declare every generated class and pre-intern every
//! signature the rewriter and generators will need.
//!
//! Generation is two-phase because the artefact family is mutually
//! recursive: `X_O_Int.get_y()` returns `Y_O_Int`, so all interfaces must be
//! *declared* (ids reserved) before any member types can be computed.

use crate::analysis::TransformabilityReport;
use crate::naming;
use rafda_classmodel::{
    Class, ClassId, ClassKind, ClassUniverse, Field, Method, Role, Side, SigId, Ty,
};
use std::collections::{HashMap, HashSet};

/// One half of a family: the artefacts generated over either the instance
/// members (`A_O_*`) or the static members (`A_C_*`) of the original class.
#[derive(Debug, Clone)]
pub struct Half {
    /// `A_O_Int` / `A_C_Int`.
    pub int: ClassId,
    /// `A_O_Local` / `A_C_Local`.
    pub local: ClassId,
    /// `A_O_Proxy_<P>` / `A_C_Proxy_<P>` per protocol, in protocol order.
    pub proxies: Vec<(String, ClassId)>,
    /// `A_O_Factory` / `A_C_Factory`.
    pub factory: ClassId,
    /// Property getter signatures per declared field of this side.
    pub getters: Vec<SigId>,
    /// Property setter signatures per declared field of this side.
    pub setters: Vec<SigId>,
}

/// The generated artefact family of one substitutable class `A`.
#[derive(Debug, Clone)]
pub struct Family {
    /// The original class.
    pub base: ClassId,
    /// The half over `A`'s instance members.
    pub obj: Half,
    /// The half over `A`'s static members, when it has any: a static field,
    /// a static method or a `<clinit>`.
    pub cls: Option<Half>,
    /// `make()` signature.
    pub make_sig: SigId,
    /// `init$k(that, …)` signature per constructor ordinal.
    pub init_sigs: Vec<SigId>,
    /// `discover()` signature (one signature, shared by every family).
    pub discover_sig: SigId,
    /// `clinit(that)` signature (present iff the original has `<clinit>`).
    pub clinit_sig: Option<SigId>,
}

impl Family {
    /// The half generated for `side`, if the original has members there.
    pub fn half(&self, side: Side) -> Option<&Half> {
        match side {
            Side::Obj => Some(&self.obj),
            Side::Cls => self.cls.as_ref(),
        }
    }
}

/// The declared fields of an original class that `side`'s artefacts carry.
pub(crate) fn fields_of(class: &Class, side: Side) -> &[Field] {
    match side {
        Side::Obj => &class.fields,
        Side::Cls => &class.static_fields,
    }
}

/// Whether an original method becomes a member of `side`'s interface: every
/// non-constructor instance method on the object side, every static method
/// but `<clinit>` on the class side (constructors and the static initialiser
/// move to the factories).
pub(crate) fn is_member_of(m: &Method, side: Side) -> bool {
    match side {
        Side::Obj => !m.is_static && !m.is_ctor(),
        Side::Cls => m.is_static && !m.is_clinit(),
    }
}

/// The full transformation plan.
#[derive(Debug, Clone, Default)]
pub struct TransformPlan {
    /// Families keyed by the original (substitutable) class.
    pub families: HashMap<ClassId, Family>,
    /// All transformable original classes (substitutable or not): their
    /// bodies and signatures are rewritten.
    pub transformable: HashSet<ClassId>,
    /// Map from each pre-existing signature whose parameters mention a
    /// substitutable class to its type-rewritten version (absent means
    /// identity).
    pub sig_map: HashMap<SigId, SigId>,
    /// Rewritten *instance-ised* signature of each method, keyed by
    /// `(declaring class, method index)`. For static methods this is the
    /// signature they carry after being made non-static.
    pub method_sigs: HashMap<(ClassId, u16), SigId>,
    /// Protocols proxies are generated for.
    pub protocols: Vec<String>,
}

impl TransformPlan {
    /// The family generated for `base`, if it was substitutable.
    pub fn family(&self, base: ClassId) -> Option<&Family> {
        self.families.get(&base)
    }

    /// Whether `class` is substitutable.
    pub fn is_substitutable(&self, class: ClassId) -> bool {
        self.families.contains_key(&class)
    }

    /// Rewrite a type: references to substitutable classes become references
    /// to the extracted instance interface.
    pub fn rewrite_ty(&self, ty: &Ty) -> Ty {
        match ty {
            Ty::Object(c) => match self.families.get(c) {
                Some(f) => Ty::Object(f.obj.int),
                None => ty.clone(),
            },
            Ty::Array(e) => Ty::Array(Box::new(self.rewrite_ty(e))),
            other => other.clone(),
        }
    }

    /// Whether [`rewrite_ty`](Self::rewrite_ty) changes `ty`: it names a
    /// substitutable class, directly or as an array's element type.
    fn rewrites(&self, ty: &Ty) -> bool {
        ty.referenced_class()
            .is_some_and(|c| self.is_substitutable(c))
    }

    /// Rewrite a signature id (identity for unknown sigs).
    pub fn rewrite_sig(&self, sig: SigId) -> SigId {
        self.sig_map.get(&sig).copied().unwrap_or(sig)
    }
}

/// Build the plan: declare all generated classes and intern all signatures.
///
/// `substitutable` must contain only transformable, non-interface original
/// classes and be closed under (transformable) superclasses — validated by
/// the engine before calling this.
pub fn build_plan(
    universe: &mut ClassUniverse,
    report: &TransformabilityReport,
    substitutable: &[ClassId],
    protocols: &[String],
) -> TransformPlan {
    let mut plan = TransformPlan {
        protocols: protocols.to_vec(),
        ..Default::default()
    };
    for (id, _) in universe.iter() {
        if report.is_transformable(id) {
            plan.transformable.insert(id);
        }
    }

    // Phase 1: declare every generated class so ids exist for typing; the
    // signatures are placeholders until phase 4.
    for &base in substitutable {
        let c = universe.class(base);
        let name = c.name.clone();
        let has_cls = !c.static_fields.is_empty()
            || c.clinit.is_some()
            || c.methods.iter().any(|m| is_member_of(m, Side::Cls));
        let mut declare_half = |side| {
            let mut declare =
                |role, kind| universe.declare(&naming::artefact(&name, side, &role), kind);
            Half {
                int: declare(Role::Interface, ClassKind::Interface),
                local: declare(Role::Local, ClassKind::Class),
                proxies: protocols
                    .iter()
                    .map(|p| (p.clone(), declare(Role::Proxy(p.clone()), ClassKind::Class)))
                    .collect(),
                factory: declare(Role::Factory, ClassKind::Class),
                getters: Vec::new(),
                setters: Vec::new(),
            }
        };
        let family = Family {
            base,
            obj: declare_half(Side::Obj),
            cls: has_cls.then(|| declare_half(Side::Cls)),
            make_sig: SigId(0),
            init_sigs: Vec::new(),
            discover_sig: SigId(0),
            clinit_sig: None,
        };
        plan.families.insert(base, family);
    }

    // Phase 2: rewrite the pre-existing signatures that mention a
    // substitutable class; every other one maps to itself.
    for sig in (0..universe.sig_count() as u32).map(SigId) {
        let info = universe.sig_info(sig);
        if !info.params.iter().any(|t| plan.rewrites(t)) {
            continue;
        }
        let (name, params) = (info.name.clone(), info.params.clone());
        let new_params = params.iter().map(|t| plan.rewrite_ty(t)).collect();
        plan.sig_map.insert(sig, universe.sig(&name, new_params));
    }

    // Phase 3: per-method rewritten signatures for every transformable class.
    for &class in &plan.transformable {
        for (idx, m) in universe.class(class).methods.iter().enumerate() {
            let new_sig = plan.rewrite_sig(m.sig);
            plan.method_sigs.insert((class, idx as u16), new_sig);
        }
    }

    // Phase 4: family member signatures. Sorted: this loop interns fresh
    // signature ids, and `families` is a HashMap — iterating it raw would
    // assign accessor sig ids in a different order on every run, leaking
    // nondeterminism into wire bytes and traces.
    let mut bases: Vec<ClassId> = plan.families.keys().copied().collect();
    bases.sort();
    let make_sig = universe.sig(naming::MAKE, vec![]);
    let discover_sig = universe.sig(naming::DISCOVER, vec![]);
    for base in bases {
        // Interning order is part of the output: per side a getter/setter
        // pair per field (a class without a class half has no static field
        // to intern for), then every `init$k`, then `clinit`.
        let obj_sigs = accessor_sigs(universe, &plan, base, Side::Obj);
        let cls_sigs = accessor_sigs(universe, &plan, base, Side::Cls);

        let (c, family) = (universe.class(base), &plan.families[&base]);
        let that = Ty::Object(family.obj.int);
        let init_params: Vec<Vec<Ty>> = (c.ctors.iter())
            .map(|&mi| {
                let own = c.methods[mi as usize].params.iter();
                let own = own.map(|t| plan.rewrite_ty(t));
                std::iter::once(that.clone()).chain(own).collect()
            })
            .collect();
        let clinit_that = c.clinit.and(family.cls.as_ref()).map(|cls| cls.int);
        let init_sigs = (init_params.into_iter().enumerate())
            .map(|(k, ps)| universe.sig(&naming::init_method(k), ps))
            .collect();
        let clinit_sig =
            clinit_that.map(|that| universe.sig(naming::CLINIT, vec![Ty::Object(that)]));

        let family = plan.families.get_mut(&base).expect("planned");
        (family.obj.getters, family.obj.setters) = obj_sigs;
        if let Some(cls) = &mut family.cls {
            (cls.getters, cls.setters) = cls_sigs;
        }
        family.make_sig = make_sig;
        family.init_sigs = init_sigs;
        family.discover_sig = discover_sig;
        family.clinit_sig = clinit_sig;
    }

    plan
}

/// Intern a `get_f`/`set_f` signature pair per field `side`'s artefacts
/// carry, in field order, getter first.
fn accessor_sigs(
    universe: &mut ClassUniverse,
    plan: &TransformPlan,
    base: ClassId,
    side: Side,
) -> (Vec<SigId>, Vec<SigId>) {
    let count = fields_of(universe.class(base), side).len();
    let pair = |i: usize| {
        let f = &fields_of(universe.class(base), side)[i];
        let (get, set) = (naming::getter(&f.name), naming::setter(&f.name));
        let ty = plan.rewrite_ty(&f.ty);
        (universe.sig(&get, vec![]), universe.sig(&set, vec![ty]))
    };
    (0..count).map(pair).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use rafda_classmodel::sample;

    fn plan_figure2() -> (ClassUniverse, TransformPlan, sample::SampleIds) {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let report = analyze(&u);
        let subs = vec![ids.x, ids.y, ids.z];
        let plan = build_plan(
            &mut u,
            &report,
            &subs,
            &["SOAP".to_owned(), "RMI".to_owned()],
        );
        (u, plan, ids)
    }

    #[test]
    fn declares_full_family_for_x() {
        let (u, plan, ids) = plan_figure2();
        let fx = plan.family(ids.x).unwrap();
        assert_eq!(&*u.class(fx.obj.int).name, "X_O_Int");
        assert_eq!(&*u.class(fx.obj.local).name, "X_O_Local");
        assert_eq!(&*u.class(fx.obj.factory).name, "X_O_Factory");
        assert_eq!(fx.obj.proxies.len(), 2);
        let cls = fx.cls.as_ref().unwrap();
        assert_eq!(&*u.class(cls.int).name, "X_C_Int");
        assert_eq!(&*u.class(cls.factory).name, "X_C_Factory");
        assert_eq!(cls.proxies.len(), 2);
        assert!(fx.clinit_sig.is_some());
    }

    #[test]
    fn z_has_no_static_family() {
        let (_u, plan, ids) = plan_figure2();
        let fz = plan.family(ids.z).unwrap();
        assert!(fz.cls.is_none());
        assert!(fz.half(Side::Cls).is_none());
        assert!(fz.clinit_sig.is_none());
        // Y has a static field K, so it gets a static family.
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(fy.half(Side::Cls).unwrap().getters.len(), 1);
    }

    /// The class half exists exactly when the original has something static
    /// to put in it — and each of the three kinds of static member is enough
    /// on its own.
    #[test]
    fn a_family_has_a_class_half_exactly_when_the_base_has_a_static_member() {
        use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
        let mut u = ClassUniverse::new();
        let mut class = |name: &str, member: u8| {
            let mut cb = ClassBuilder::declare(&mut u, name, ClassKind::Class);
            cb.field(Field::new("f", Ty::Int));
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.method(&mut u, "m", vec![], Ty::Void, Some(mb.finish()));
            let mut mb = MethodBuilder::new(0);
            mb.ret();
            match member {
                1 => drop(cb.static_field(Field::new("s", Ty::Int))),
                2 => drop(cb.static_method(&mut u, "p", vec![], Ty::Void, Some(mb.finish()))),
                3 => drop(cb.clinit(&mut u, mb.finish())),
                _ => {}
            }
            cb.finish(&mut u)
        };
        let cases = [
            (class("Plain", 0), false),
            (class("Field", 1), true),
            (class("Method", 2), true),
            (class("Clinit", 3), true),
        ];
        let report = analyze(&u);
        let bases: Vec<ClassId> = cases.iter().map(|&(id, _)| id).collect();
        let plan = build_plan(&mut u, &report, &bases, &["RMI".to_owned()]);
        for (base, has_statics) in cases {
            let family = plan.family(base).unwrap();
            let name = &u.class(base).name;
            assert!(family.half(Side::Obj).is_some(), "{name}");
            assert_eq!(family.half(Side::Cls).is_some(), has_statics, "{name}");
            assert_eq!(u.by_name(&format!("{name}_C_Int")).is_some(), has_statics);
        }
    }

    #[test]
    fn rewrite_ty_maps_substitutable_references() {
        let (_u, plan, ids) = plan_figure2();
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(plan.rewrite_ty(&Ty::Object(ids.y)), Ty::Object(fy.obj.int));
        assert_eq!(
            plan.rewrite_ty(&Ty::Object(ids.y).array_of()),
            Ty::Object(fy.obj.int).array_of()
        );
        assert_eq!(plan.rewrite_ty(&Ty::Int), Ty::Int);
    }

    #[test]
    fn sig_map_rewrites_object_params_only() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let n_sig = u.sig("n", vec![Ty::Long]);
        let takes_y = u.sig("t", vec![Ty::Object(ids.y)]);
        let report = analyze(&u);
        let plan = build_plan(&mut u, &report, &[ids.x, ids.y, ids.z], &["RMI".to_owned()]);
        assert_eq!(plan.rewrite_sig(n_sig), n_sig);
        let rewritten = plan.rewrite_sig(takes_y);
        assert_ne!(rewritten, takes_y);
        let info = u.sig_info(rewritten);
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(*info.params, vec![Ty::Object(fy.obj.int)]);
    }

    #[test]
    fn init_sigs_take_interface_receiver_first() {
        let (u, plan, ids) = plan_figure2();
        let fx = plan.family(ids.x).unwrap();
        assert_eq!(fx.init_sigs.len(), 1);
        let info = u.sig_info(fx.init_sigs[0]);
        assert_eq!(&*info.name, "init$0");
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(
            *info.params,
            vec![Ty::Object(fx.obj.int), Ty::Object(fy.obj.int)]
        );
    }

    #[test]
    fn make_and_discover_sigs_are_shared() {
        let (_u, plan, ids) = plan_figure2();
        let fx = plan.family(ids.x).unwrap();
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(fx.make_sig, fy.make_sig);
        assert_eq!(fx.discover_sig, fy.discover_sig);
    }
}
