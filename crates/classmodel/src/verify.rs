//! Structural and stack-discipline verification.
//!
//! The paper relies on the fact that transformations are "performed on code
//! that has already been verified by a standard compiler" (Section 2.1).
//! This module is that verifier: it is run over original programs before
//! transformation *and* over the generated/rewritten code afterwards, which
//! gives the test suite a strong check that every rewrite preserves
//! well-formedness.
//!
//! ## Calling convention verified here
//!
//! Every call instruction ([`Insn::Invoke`], [`Insn::InvokeStatic`],
//! [`Insn::NewInit`]) pushes exactly one result; `void` methods return
//! `Null`, which the caller pops. This uniform convention keeps stack-depth
//! verification independent of dynamic dispatch.

use crate::class::{Class, ClassKind, MethodBody};
use crate::insn::Insn;
use crate::universe::{ClassId, ClassUniverse};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Class in which the error occurred.
    pub class: String,
    /// Method (empty for class-level errors).
    pub method: String,
    /// Instruction index (`None` for non-code errors).
    pub pc: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in {}", self.class)?;
        if !self.method.is_empty() {
            write!(f, "::{}", self.method)?;
        }
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(class: &str, method: &str, pc: Option<u32>, message: impl Into<String>) -> VerifyError {
    VerifyError {
        class: class.to_owned(),
        method: method.to_owned(),
        pc,
        message: message.into(),
    }
}

/// Verify every class in the universe.
///
/// # Errors
/// Returns the first [`VerifyError`] found.
pub fn verify_universe(universe: &ClassUniverse) -> Result<(), VerifyError> {
    let mut scratch = Scratch::default();
    for (_, class) in universe.iter() {
        verify_with(universe, class, &mut scratch)?;
    }
    Ok(())
}

/// Verify a single class: structural invariants plus stack discipline of
/// every method body.
///
/// # Errors
/// Returns the first [`VerifyError`] found.
pub fn verify_class(universe: &ClassUniverse, id: ClassId) -> Result<(), VerifyError> {
    verify_with(universe, universe.class(id), &mut Scratch::default())
}

/// The depth table and work list of [`verify_body`], kept across bodies.
#[derive(Default)]
struct Scratch {
    depth_at: Vec<Option<u32>>,
    work: VecDeque<(u32, u32)>,
}

fn verify_with(
    universe: &ClassUniverse,
    class: &Class,
    scratch: &mut Scratch,
) -> Result<(), VerifyError> {
    verify_structure(universe, class)?;
    for method in &class.methods {
        if let Some(body) = &method.body {
            verify_body(universe, class, &method.name, body, scratch)?;
        }
    }
    Ok(())
}

fn verify_structure(universe: &ClassUniverse, class: &Class) -> Result<(), VerifyError> {
    let cname = &class.name;
    if let Some(sup) = class.superclass {
        if universe.class(sup).kind != ClassKind::Class {
            return Err(err(cname, "", None, "superclass is not a class"));
        }
        // Reject inheritance cycles: an acyclic chain reaches its root in
        // fewer steps than there are classes.
        let mut cur = Some(sup);
        for steps in 0.. {
            let Some(c) = cur else { break };
            if steps == universe.len() || universe.class(c).name == *cname {
                return Err(err(cname, "", None, "inheritance cycle"));
            }
            cur = universe.class(c).superclass;
        }
    }
    for &iface in &class.interfaces {
        if universe.class(iface).kind != ClassKind::Interface {
            return Err(err(cname, "", None, "implements a non-interface"));
        }
    }
    if class.kind == ClassKind::Interface {
        if class.superclass.is_some() {
            return Err(err(cname, "", None, "interface with a superclass"));
        }
        if !class.fields.is_empty() {
            return Err(err(cname, "", None, "interface with instance fields"));
        }
        for m in &class.methods {
            if m.body.is_some() {
                return Err(err(cname, &m.name, None, "interface method with body"));
            }
        }
    }
    for &ci in &class.ctors {
        let m = class
            .methods
            .get(ci as usize)
            .ok_or_else(|| err(cname, "", None, "ctor index out of range"))?;
        if !m.is_ctor() || m.is_static {
            return Err(err(cname, &m.name, None, "ctor entry is not a constructor"));
        }
    }
    if let Some(ci) = class.clinit {
        let m = class
            .methods
            .get(ci as usize)
            .ok_or_else(|| err(cname, "", None, "clinit index out of range"))?;
        if !m.is_clinit() || !m.is_static {
            return Err(err(cname, &m.name, None, "clinit entry is not <clinit>"));
        }
    }
    for m in &class.methods {
        if m.sig.0 as usize >= universe.sig_count() {
            return Err(err(cname, &m.name, None, "signature id out of range"));
        }
        let sig = universe.sig_info(m.sig);
        let same_name = Arc::ptr_eq(&m.name, &sig.name) || m.name == sig.name;
        let same_params = Arc::ptr_eq(&m.params, &sig.params) || m.params == sig.params;
        if !(same_name && same_params) {
            return Err(err(
                cname,
                &m.name,
                None,
                "name or params differ from its signature",
            ));
        }
        if m.is_native && m.body.is_some() {
            return Err(err(cname, &m.name, None, "native method with body"));
        }
        if !m.is_native && m.body.is_none() && class.kind == ClassKind::Class && !class.is_abstract
        {
            return Err(err(
                cname,
                &m.name,
                None,
                "non-abstract class with bodiless non-native method",
            ));
        }
    }
    Ok(())
}

/// Abstract interpretation over stack *depths* with a work-list, merging at
/// join points; any mismatch, underflow, bad local, bad field reference or
/// fall-off-the-end is an error.
fn verify_body(
    universe: &ClassUniverse,
    class: &Class,
    method: &str,
    body: &MethodBody,
    scratch: &mut Scratch,
) -> Result<(), VerifyError> {
    let cname = &class.name;
    let n = body.code.len();
    if n == 0 {
        return Err(err(cname, method, None, "empty body"));
    }
    let Scratch { depth_at, work } = scratch;
    depth_at.clear();
    depth_at.resize(n, None);
    work.clear();
    work.push_back((0, 0));
    for h in &body.handlers {
        if h.start as usize >= n || h.end as usize > n || h.target as usize >= n {
            return Err(err(cname, method, None, "handler range out of bounds"));
        }
        // Handler entry: stack holds just the exception.
        work.push_back((h.target, 1));
    }

    while let Some((pc, depth)) = work.pop_front() {
        let pcu = pc as usize;
        if pcu >= n {
            return Err(err(cname, method, Some(pc), "control falls off the end"));
        }
        match depth_at[pcu] {
            Some(d) if d == depth => continue,
            Some(d) => {
                return Err(err(
                    cname,
                    method,
                    Some(pc),
                    format!("stack depth mismatch at join: {d} vs {depth}"),
                ))
            }
            None => depth_at[pcu] = Some(depth),
        }
        let insn = &body.code[pcu];
        // Structural operand checks.
        match insn {
            Insn::LoadLocal(i) | Insn::StoreLocal(i) if *i >= body.max_locals => {
                return Err(err(cname, method, Some(pc), "local index out of range"));
            }
            Insn::GetField(fr) | Insn::PutField(fr)
                if fr.index as usize >= universe.class(fr.owner).fields.len() =>
            {
                return Err(err(cname, method, Some(pc), "field index out of range"));
            }
            Insn::GetStatic(fr) | Insn::PutStatic(fr)
                if fr.index as usize >= universe.class(fr.owner).static_fields.len() =>
            {
                return Err(err(cname, method, Some(pc), "static field out of range"));
            }
            Insn::NewInit {
                class: c,
                ctor,
                argc,
            } => {
                let target = universe.class(*c);
                let Some(&mi) = target.ctors.get(*ctor as usize) else {
                    return Err(err(cname, method, Some(pc), "ctor ordinal out of range"));
                };
                let m = &target.methods[mi as usize];
                if m.params.len() != *argc as usize {
                    return Err(err(cname, method, Some(pc), "ctor argc mismatch"));
                }
                if target.kind == ClassKind::Interface || target.is_abstract {
                    return Err(err(
                        cname,
                        method,
                        Some(pc),
                        "cannot instantiate interface/abstract class",
                    ));
                }
            }
            Insn::InvokeStatic {
                class: c,
                sig,
                argc,
            } => match universe.resolve_static(*c, *sig) {
                None => {
                    return Err(err(
                        cname,
                        method,
                        Some(pc),
                        format!(
                            "unresolved static call {}::{}",
                            universe.class(*c).name,
                            universe.sig_info(*sig).name
                        ),
                    ))
                }
                Some((oc, mi)) => {
                    if universe.method(oc, mi).params.len() != *argc as usize {
                        return Err(err(cname, method, Some(pc), "static argc mismatch"));
                    }
                }
            },
            Insn::Invoke { sig, argc }
                if universe.sig_info(*sig).params.len() != *argc as usize =>
            {
                return Err(err(cname, method, Some(pc), "virtual argc mismatch"));
            }
            _ => {}
        }

        // Stack effect.
        match insn.stack_delta() {
            None => {
                // Terminator: Return pops 0, ReturnValue/Throw pop 1.
                let need = match insn {
                    Insn::Return => 0,
                    _ => 1,
                };
                if depth < need {
                    return Err(err(cname, method, Some(pc), "stack underflow at return"));
                }
            }
            Some((pop, push)) => {
                if depth < pop {
                    return Err(err(
                        cname,
                        method,
                        Some(pc),
                        format!("stack underflow: need {pop}, have {depth}"),
                    ));
                }
                let next = depth - pop + push;
                if let Some(t) = insn.branch_target() {
                    if t as usize >= n {
                        return Err(err(cname, method, Some(pc), "branch target out of range"));
                    }
                    work.push_back((t, next));
                }
                if !insn.is_terminator() {
                    work.push_back((pc + 1, next));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ClassBuilder, MethodBuilder};
    use crate::class::Field;
    use crate::ty::Ty;

    fn simple_class(
        build: impl FnOnce(&mut ClassUniverse, &mut ClassBuilder),
    ) -> (ClassUniverse, ClassId) {
        let mut u = ClassUniverse::new();
        let mut cb = ClassBuilder::declare(&mut u, "T", ClassKind::Class);
        build(&mut u, &mut cb);
        let id = cb.finish(&mut u);
        (u, id)
    }

    #[test]
    fn accepts_wellformed_method() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(2);
            mb.load_local(1).const_int(1).add().ret_value();
            cb.method(u, "inc", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        });
        assert!(verify_class(&u, id).is_ok());
    }

    #[test]
    fn rejects_stack_underflow() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(1);
            mb.pop().ret();
            cb.method(u, "bad", vec![], Ty::Void, Some(mb.finish()));
        });
        let e = verify_class(&u, id).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_fall_off_end() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(1);
            mb.const_int(1).pop();
            cb.method(u, "bad", vec![], Ty::Void, Some(mb.finish()));
        });
        let e = verify_class(&u, id).unwrap_err();
        assert!(e.message.contains("falls off"), "{e}");
    }

    #[test]
    fn rejects_depth_mismatch_at_join() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(1);
            let join = mb.label();
            let other = mb.label();
            mb.const_bool(true);
            mb.jump_if(other); // depth 0 falls through
            mb.const_int(1); // push 1 -> depth 1
            mb.jump(join);
            mb.bind(other); // depth 0
            mb.bind(join); // joined with depth 1 — mismatch
            mb.ret();
            cb.method(u, "bad", vec![], Ty::Void, Some(mb.finish()));
        });
        let e = verify_class(&u, id).unwrap_err();
        assert!(
            e.message.contains("mismatch") || e.message.contains("underflow"),
            "{e}"
        );
    }

    #[test]
    fn rejects_bad_local_and_field() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(1);
            mb.load_local(9).pop().ret();
            cb.method(u, "bad", vec![], Ty::Void, Some(mb.finish()));
        });
        assert!(verify_class(&u, id)
            .unwrap_err()
            .message
            .contains("local index"));

        let (u2, id2) = simple_class(|u, cb| {
            cb.field(Field::new("x", Ty::Int));
            let me = cb.id();
            let mut mb = MethodBuilder::new(1);
            mb.load_this().get_field(me, 5).ret_value();
            cb.method(u, "bad", vec![], Ty::Int, Some(mb.finish()));
        });
        assert!(verify_class(&u2, id2)
            .unwrap_err()
            .message
            .contains("field index"));
    }

    #[test]
    fn rejects_unresolved_static_call() {
        let (u, id) = simple_class(|u, cb| {
            let me = cb.id();
            let sig = u.sig("nothere", vec![]);
            let mut mb = MethodBuilder::new(1);
            mb.invoke_static(me, sig, 0).pop().ret();
            cb.method(u, "bad", vec![], Ty::Void, Some(mb.finish()));
        });
        assert!(verify_class(&u, id)
            .unwrap_err()
            .message
            .contains("unresolved static"));
    }

    #[test]
    fn rejects_instantiating_interface() {
        let mut u = ClassUniverse::new();
        let iface = u.declare("I", ClassKind::Interface);
        let mut cb = ClassBuilder::declare(&mut u, "T", ClassKind::Class);
        let mut mb = MethodBuilder::new(1);
        mb.new_init(iface, 0, 0).pop().ret();
        cb.method(&mut u, "bad", vec![], Ty::Void, Some(mb.finish()));
        let id = cb.finish(&mut u);
        let e = verify_class(&u, id).unwrap_err();
        assert!(
            e.message.contains("ctor ordinal") || e.message.contains("instantiate"),
            "{e}"
        );
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let mut u = ClassUniverse::new();
        let a = u.declare("A", ClassKind::Class);
        let b = u.declare("B", ClassKind::Class);
        u.class_mut(a).superclass = Some(b);
        u.class_mut(b).superclass = Some(a);
        assert!(verify_class(&u, a).unwrap_err().message.contains("cycle"));
    }

    #[test]
    fn rejects_a_method_that_is_not_its_signature() {
        let (u, id) = simple_class(|u, cb| {
            cb.native_method(u, "m", vec![Ty::Int], Ty::Void);
        });
        assert!(verify_class(&u, id).is_ok());
        let with = |edit: fn(&mut crate::class::Method)| {
            let mut u = u.clone();
            edit(&mut u.class_mut(id).methods[0]);
            verify_class(&u, id)
        };
        // Equal by value but not shared: still the signature's.
        assert!(with(|m| m.name = "m".into()).is_ok());
        assert!(with(|m| m.params = [Ty::Int].into()).is_ok());
        for bad in [
            with(|m| m.name = "n".into()),
            with(|m| m.params = [Ty::Long].into()),
            with(|m| m.params = [].into()),
        ] {
            let e = bad.unwrap_err();
            assert!(e.message.contains("differ from its signature"), "{e}");
        }
        let e = with(|m| m.sig = crate::universe::SigId(99)).unwrap_err();
        assert!(e.message.contains("signature id out of range"), "{e}");
    }

    #[test]
    fn handler_entry_gets_exception_on_stack() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(1);
            // 0: const 1 ; 1: pop ; 2: return  -- handler at 3 pops exc
            mb.const_int(1).pop().ret();
            mb.emit(Insn::Pop); // 3: handler target pops exception
            mb.ret(); // 4
            mb.handler(0, 3, 3, None);
            cb.method(u, "h", vec![], Ty::Void, Some(mb.finish()));
        });
        assert!(verify_class(&u, id).is_ok());
    }

    #[test]
    fn accepts_loop_with_stable_depth() {
        let (u, id) = simple_class(|u, cb| {
            let mut mb = MethodBuilder::new(2);
            let top = mb.label();
            mb.bind(top);
            mb.load_local(1);
            mb.const_int(0);
            mb.cmp(crate::insn::CmpOp::Gt);
            let done = mb.label();
            mb.jump_if_not(done);
            mb.load_local(1).const_int(1).sub().store_local(1);
            mb.jump(top);
            mb.bind(done);
            mb.ret();
            cb.method(u, "count", vec![Ty::Int], Ty::Void, Some(mb.finish()));
        });
        assert!(verify_class(&u, id).is_ok());
    }
}
