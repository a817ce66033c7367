//! Generation of the artefact family (paper Figures 3, 4, 5).

use crate::plan::{fields_of, is_member_of, Family, Half, TransformPlan};
use crate::rewrite::{rewrite_body, BodyCtx};
use rafda_classmodel::{
    Class, ClassBuilder, ClassId, ClassOrigin, ClassUniverse, Field, FieldRef, GenKind, Method,
    MethodBody, Role, Side, SigId, Ty,
};

/// Generate every family in the plan, defining the classes declared by the
/// planning pass: per family the object half, then the class half if the
/// original has static members; per half the interface, the local
/// implementation, one proxy per protocol, and the factory.
pub fn generate_families(universe: &mut ClassUniverse, plan: &TransformPlan) {
    // Deterministic order.
    let mut bases: Vec<ClassId> = plan.families.keys().copied().collect();
    if bases.is_empty() {
        // Nothing to generate, so no `<init>$0()` signature to intern.
        return;
    }
    bases.sort();
    let default_ctor = Method::default_ctor(universe);
    for base in bases {
        // The whole family is built from one borrow of the original class
        // and installed once that borrow has ended.
        let gen = FamilyGen {
            universe,
            plan,
            family: &plan.families[&base],
            base: universe.class(base),
            default_ctor: &default_ctor,
        };
        let mut artefacts = Vec::new();
        for side in [Side::Obj, Side::Cls] {
            let Some(members) = gen.members(side) else {
                continue;
            };
            artefacts.push(gen.interface(&members));
            artefacts.push(gen.local(&members));
            artefacts.extend(gen.proxies(&members));
            artefacts.push(match side {
                Side::Obj => gen.obj_factory(&members),
                Side::Cls => gen.cls_factory(&members),
            });
        }
        for artefact in artefacts {
            artefact.finish(universe);
        }
    }
}

/// What one half of a family is generated over: the members of the original
/// class that belong to the side, plus the few facts that exist on one side
/// only.
struct Members<'a> {
    side: Side,
    half: &'a Half,
    /// The side's fields, in declaration order (so parallel to the half's
    /// accessor signatures).
    fields: &'a [Field],
    /// The side's original methods, each with its rewritten, instance-ised
    /// signature.
    methods: Vec<(&'a Method, SigId)>,
    /// How the side's bodies are re-hosted.
    ctx: BodyCtx,
    /// The same half of the superclass's family. Interfaces, locals and
    /// proxies chain along the class hierarchy on the object side only: a
    /// singleton has no superclass.
    parent: Option<&'a Half>,
    /// Interfaces the original class itself implements (object side only).
    user_interfaces: &'a [ClassId],
    /// Whether the local implementation is abstract (object side only).
    is_abstract: bool,
}

/// The generators of one family.
struct FamilyGen<'a> {
    universe: &'a ClassUniverse,
    plan: &'a TransformPlan,
    family: &'a Family,
    /// The original class.
    base: &'a Class,
    /// `<init>$0() {}`, carried by every local and proxy.
    default_ctor: &'a Method,
}

impl<'a> FamilyGen<'a> {
    /// Describe `side` of the original class, if the family has that half.
    fn members(&self, side: Side) -> Option<Members<'a>> {
        let half = self.family.half(side)?;
        let (id, base) = (self.family.base, self.base);
        let methods = (base.methods.iter().enumerate())
            .filter(|(_, m)| is_member_of(m, side))
            .map(|(i, m)| (m, self.plan.method_sigs[&(id, i as u16)]))
            .collect();
        let (ctx, parent, user_interfaces, is_abstract) = match side {
            Side::Obj => {
                let family_of = |s| self.plan.family(s).expect("superclass is substitutable");
                let parent = base.superclass.map(|s| &family_of(s).obj);
                let implemented = base.interfaces.as_slice();
                (BodyCtx::instance(id), parent, implemented, base.is_abstract)
            }
            Side::Cls => (BodyCtx::former_static(id), None, &[][..], false),
        };
        Some(Members {
            side,
            half,
            fields: fields_of(base, side),
            methods,
            ctx,
            parent,
            user_interfaces,
            is_abstract,
        })
    }

    /// Start the `role` artefact of a half, already declared as `id`.
    fn artefact(&self, id: ClassId, side: Side, role: Role) -> ClassBuilder {
        let mut cb = ClassBuilder::new(self.universe, id);
        cb.origin(ClassOrigin::Generated {
            from: self.family.base,
            kind: GenKind::Family(side, role),
        });
        cb
    }

    /// A member of the original class as a generated artefact declares it:
    /// public, non-static, types and signature rewritten, no body yet.
    fn declared(&self, m: &Method, sig: SigId) -> Method {
        Method::declared(self.universe, sig, self.plan.rewrite_ty(&m.ret))
    }

    /// The members of a half as its interface declares them: a property
    /// accessor pair per field, then the side's methods.
    fn surface(&self, s: &Members) -> Vec<Method> {
        let mut out = Vec::with_capacity(2 * s.fields.len() + s.methods.len());
        for (i, f) in s.fields.iter().enumerate() {
            let (get, set) = (s.half.getters[i], s.half.setters[i]);
            let ty = self.plan.rewrite_ty(&f.ty);
            out.push(Method::declared(self.universe, get, ty));
            out.push(Method::declared(self.universe, set, Ty::Void));
        }
        out.extend(s.methods.iter().map(|&(m, sig)| self.declared(m, sig)));
        out
    }

    /// `A_O_Int` (Figure 3) / `A_C_Int` (Figure 4): property accessors for
    /// every attribute plus every method of the side, all with
    /// interface-rewritten signatures. Interface inheritance mirrors the
    /// class hierarchy.
    fn interface(&self, s: &Members) -> ClassBuilder {
        let mut cb = self.artefact(s.half.int, s.side, Role::Interface);
        if let Some(parent) = s.parent {
            cb.implements(parent.int);
        }
        for m in self.surface(s) {
            cb.add_method(m);
        }
        cb
    }

    /// `A_O_Local` (Figure 3) / `A_C_Local` (Figure 4): fields become private
    /// properties with accessors (the only remaining direct field access);
    /// the side's methods are installed with rewritten bodies — former
    /// statics, now instance methods of the singleton, short-circuit
    /// own-static access through `this`; a default parameter-less
    /// constructor replaces the originals (whose logic moved to the factory).
    fn local(&self, s: &Members) -> ClassBuilder {
        let me = s.half.local;
        let mut cb = self.artefact(me, s.side, Role::Local);
        if let Some(parent) = s.parent {
            cb.superclass(parent.local);
        }
        cb.implements(s.half.int);
        for &iface in s.user_interfaces {
            cb.implements(iface);
        }
        if s.is_abstract {
            cb.abstract_();
        }
        cb.add_method(self.default_ctor.clone());
        for (i, f) in s.fields.iter().enumerate() {
            let ty = self.plan.rewrite_ty(&f.ty);
            let field = FieldRef {
                owner: me,
                index: cb.field(Field::new(f.name.clone(), ty.clone())),
            };
            let (get, set) = (s.half.getters[i], s.half.setters[i]);
            cb.add_method(Method::getter(self.universe, get, ty, field));
            cb.add_method(Method::setter(self.universe, set, field));
        }
        for &(m, sig) in &s.methods {
            let body = m.body.as_ref().map(|b| self.rewrite(s.ctx, b));
            cb.add_method(Method {
                body,
                ..self.declared(m, sig)
            });
        }
        cb
    }

    /// `A_O_Proxy_<P>` (Figure 3) / `A_C_Proxy_<P>` (Figure 4): implements
    /// the interface with `native` methods whose hooks (installed by the
    /// runtime) marshal the call over protocol `P`.
    fn proxies(&self, s: &Members) -> Vec<ClassBuilder> {
        let surface = self.surface(s);
        let each = s.half.proxies.iter().enumerate();
        each.map(|(pi, (protocol, me))| {
            let mut cb = self.artefact(*me, s.side, Role::Proxy(protocol.clone()));
            // Chain proxies along the class hierarchy so inherited members
            // resolve to the superclass proxy's hooks, and its state.
            if let Some(parent) = s.parent {
                cb.superclass(parent.proxies[pi].1);
            } else {
                for f in proxy_state_fields() {
                    cb.field(f);
                }
            }
            cb.implements(s.half.int);
            cb.add_method(self.default_ctor.clone());
            for m in &surface {
                cb.add_method(Method {
                    is_native: true,
                    ..m.clone()
                });
            }
            cb
        })
        .collect()
    }

    /// `A_O_Factory` (Figure 5): `native make()` (the policy decision point)
    /// plus one generated `init$k(that, …)` per original constructor.
    fn obj_factory(&self, obj: &Members) -> ClassBuilder {
        let (family, base) = (self.family, self.base);
        let that = Ty::Object(obj.half.int);
        let mut cb = self.artefact(obj.half.factory, Side::Obj, Role::Factory);
        cb.add_method(Method {
            is_static: true,
            is_native: true,
            ..Method::declared(self.universe, family.make_sig, that)
        });
        for (&ci, &sig) in base.ctors.iter().zip(&family.init_sigs) {
            let ctor = &base.methods[ci as usize];
            cb.add_method(Method {
                is_static: true,
                body: ctor.body.as_ref().map(|b| self.rewrite(obj.ctx, b)),
                ..Method::declared(self.universe, sig, Ty::Void)
            });
        }
        cb
    }

    /// `A_C_Factory` (Figure 5): `native discover()` plus the translated
    /// `clinit(that)` mirroring the original static initialiser.
    fn cls_factory(&self, cls: &Members) -> ClassBuilder {
        let (family, base) = (self.family, self.base);
        let that = Ty::Object(cls.half.int);
        let mut cb = self.artefact(cls.half.factory, Side::Cls, Role::Factory);
        cb.add_method(Method {
            is_static: true,
            is_native: true,
            ..Method::declared(self.universe, family.discover_sig, that)
        });
        if let (Some(ci), Some(sig)) = (base.clinit, family.clinit_sig) {
            let clinit = &base.methods[ci as usize];
            cb.add_method(Method {
                is_static: true,
                body: clinit.body.as_ref().map(|b| self.rewrite(cls.ctx, b)),
                ..Method::declared(self.universe, sig, Ty::Void)
            });
        }
        cb
    }

    fn rewrite(&self, ctx: BodyCtx, body: &MethodBody) -> MethodBody {
        rewrite_body(self.universe, self.plan, ctx, body)
    }
}

/// Proxy state: every root proxy class declares `__node` (Int) and `__oid`
/// (Long) at field offsets 0 and 1; subclass proxies inherit them.
pub const PROXY_NODE_FIELD: usize = 0;
/// See [`PROXY_NODE_FIELD`].
pub const PROXY_OID_FIELD: usize = 1;

fn proxy_state_fields() -> [Field; 2] {
    [Field::new("__node", Ty::Int), Field::new("__oid", Ty::Long)]
}

/// Rewrite a transformable but non-substitutable class **in place**: its
/// types and call sites must use the extracted interfaces of the
/// substitutable classes it references ("Every reference to a substitutable
/// class must then be transformed to use the extracted interface",
/// Section 1).
pub fn rewrite_in_place(universe: &mut ClassUniverse, plan: &TransformPlan, class: ClassId) {
    let mut updated = universe.class(class).clone();
    for f in updated
        .fields
        .iter_mut()
        .chain(updated.static_fields.iter_mut())
    {
        f.ty = plan.rewrite_ty(&f.ty);
    }
    for (idx, m) in updated.methods.iter_mut().enumerate() {
        m.sig = plan.method_sigs[&(class, idx as u16)];
        m.params = universe.sig_info(m.sig).params.clone();
        m.ret = plan.rewrite_ty(&m.ret);
        if let Some(body) = &m.body {
            // Static methods stay static here (no receiver shift); own-static
            // access still goes through discover only for *substitutable*
            // classes, which `class` is not — so plain instance context.
            m.body = Some(rewrite_body(universe, plan, BodyCtx::instance(class), body));
        }
    }
    universe.define(class, updated);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::plan::build_plan;
    use rafda_classmodel::{sample, verify_universe, ClassKind, Insn};

    fn generated_figure2() -> (ClassUniverse, TransformPlan, sample::SampleIds) {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let report = analyze(&u);
        let plan = build_plan(
            &mut u,
            &report,
            &[ids.x, ids.y, ids.z],
            &["SOAP".to_owned(), "RMI".to_owned()],
        );
        generate_families(&mut u, &plan);
        (u, plan, ids)
    }

    #[test]
    fn generated_universe_verifies() {
        let (u, _, _) = generated_figure2();
        verify_universe(&u).unwrap();
    }

    #[test]
    fn x_o_int_matches_figure3_surface() {
        let (u, plan, ids) = generated_figure2();
        let fx = plan.family(ids.x).unwrap();
        let c = u.class(fx.obj.int);
        assert_eq!(c.kind, ClassKind::Interface);
        let names: Vec<&str> = c.methods.iter().map(|m| &*m.name).collect();
        assert_eq!(names, vec!["get_y", "set_y", "m"]);
        // get_y returns Y_O_Int.
        let fy = plan.family(ids.y).unwrap();
        assert_eq!(c.methods[0].ret, Ty::Object(fy.obj.int));
        assert_eq!(*c.methods[1].params, vec![Ty::Object(fy.obj.int)]);
    }

    #[test]
    fn x_o_local_implements_interface_with_accessor_bodies() {
        let (u, plan, ids) = generated_figure2();
        let fx = plan.family(ids.x).unwrap();
        let c = u.class(fx.obj.local);
        assert!(c.interfaces.contains(&fx.obj.int));
        assert_eq!(c.ctors.len(), 1);
        assert!(c.methods[c.ctors[0] as usize].params.is_empty());
        let m = &c.methods[c.method_index("m").unwrap() as usize];
        let body = m.body.as_ref().unwrap();
        // m uses interface calls only (get_y then n), no direct GetField.
        assert!(body
            .code
            .iter()
            .all(|i| !matches!(i, Insn::GetField(fr) if fr.owner != fx.obj.local)));
        assert!(u.is_subtype(fx.obj.local, fx.obj.int));
    }

    #[test]
    fn proxies_are_native_and_chain_to_interface() {
        let (u, plan, ids) = generated_figure2();
        let fx = plan.family(ids.x).unwrap();
        for (proto, p) in &fx.obj.proxies {
            let c = u.class(*p);
            assert!(c.name.contains(proto));
            assert!(u.is_subtype(*p, fx.obj.int));
            assert_eq!(c.fields.len(), 2, "__node/__oid");
            assert_eq!(c.fields[PROXY_NODE_FIELD].name, "__node");
            assert_eq!(c.fields[PROXY_OID_FIELD].name, "__oid");
            for m in &c.methods {
                if !m.is_ctor() {
                    assert!(m.is_native, "{} must be native", m.name);
                }
            }
        }
    }

    #[test]
    fn factories_match_figure5() {
        let (u, plan, ids) = generated_figure2();
        let fx = plan.family(ids.x).unwrap();
        let of = u.class(fx.obj.factory);
        let make = &of.methods[of.method_index("make").unwrap() as usize];
        assert!(make.is_native && make.is_static);
        assert_eq!(make.ret, Ty::Object(fx.obj.int));
        let init = &of.methods[of.method_index("init$0").unwrap() as usize];
        assert!(init.is_static && !init.is_native);
        assert!(init.body.is_some());

        let cf = u.class(fx.cls.as_ref().unwrap().factory);
        let discover = &cf.methods[cf.method_index("discover").unwrap() as usize];
        assert!(discover.is_native && discover.is_static);
        let clinit = &cf.methods[cf.method_index("clinit").unwrap() as usize];
        assert!(clinit.body.is_some());
    }

    #[test]
    fn cls_local_p_matches_figure4() {
        let (u, plan, ids) = generated_figure2();
        let fx = plan.family(ids.x).unwrap();
        let c = u.class(fx.cls.as_ref().unwrap().local);
        // Members: ctor, get_z, set_z, p.
        let names: Vec<&str> = c.methods.iter().map(|m| &*m.name).collect();
        assert_eq!(names, vec!["<init>$0", "get_z", "set_z", "p"]);
        let p = &c.methods[3];
        assert!(!p.is_static, "p was made non-static");
        let body = p.body.as_ref().unwrap();
        // p's body: load this, invoke get_z, load i, invoke q, return.
        assert_eq!(body.code[0], Insn::LoadLocal(0));
        assert!(matches!(body.code[1], Insn::Invoke { .. }));
    }

    #[test]
    fn y_family_exposes_static_k() {
        let (u, plan, ids) = generated_figure2();
        let fy = plan.family(ids.y).unwrap();
        let ci = u.class(fy.cls.as_ref().unwrap().int);
        assert!(ci.method_index("get_K").is_some());
        assert!(ci.method_index("set_K").is_some());
    }
}
