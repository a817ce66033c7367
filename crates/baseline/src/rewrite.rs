//! Call-site rewriting for the wrapper approach: field accesses become
//! accessor calls; every `new A(…)` additionally allocates the wrapper
//! ("all references to that object are altered to refer to the wrapper").

use rafda_classmodel::{ClassId, Insn, MethodBody, SigId};
use std::collections::HashMap;

/// What the rewriter needs to know per wrapped class.
#[derive(Debug, Clone)]
pub struct WrapPlan {
    /// Getter signature per `(wrapped class, field index)`.
    pub getters: HashMap<(ClassId, u16), SigId>,
    /// Setter signature per `(wrapped class, field index)`.
    pub setters: HashMap<(ClassId, u16), SigId>,
    /// Wrapper class and its constructor ordinal per wrapped class.
    pub wrappers: HashMap<ClassId, (ClassId, u16)>,
}

/// Rewrite one body under the wrapper plan.
pub fn rewrite_body(plan: &WrapPlan, body: &MethodBody) -> MethodBody {
    body.splice(|insn, out| match insn {
        Insn::GetField(fr) => match plan.getters.get(&(fr.owner, fr.index)) {
            Some(&sig) => out.push(Insn::Invoke { sig, argc: 0 }),
            None => out.push(insn.clone()),
        },
        Insn::PutField(fr) => match plan.setters.get(&(fr.owner, fr.index)) {
            Some(&sig) => {
                out.push(Insn::Invoke { sig, argc: 1 });
                out.push(Insn::Pop);
            }
            None => out.push(insn.clone()),
        },
        Insn::NewInit { class, ctor, argc } => match plan.wrappers.get(class) {
            Some(&(wrapper, wrapper_ctor)) => {
                out.push(Insn::NewInit {
                    class: *class,
                    ctor: *ctor,
                    argc: *argc,
                });
                out.push(Insn::NewInit {
                    class: wrapper,
                    ctor: wrapper_ctor,
                    argc: 1,
                });
            }
            None => out.push(insn.clone()),
        },
        other => out.push(other.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::FieldRef;

    fn plan() -> WrapPlan {
        let mut plan = WrapPlan {
            getters: HashMap::new(),
            setters: HashMap::new(),
            wrappers: HashMap::new(),
        };
        plan.getters.insert((ClassId(1), 0), SigId(10));
        plan.setters.insert((ClassId(1), 0), SigId(11));
        plan.wrappers.insert(ClassId(1), (ClassId(9), 0));
        plan
    }

    #[test]
    fn field_sites_become_accessor_calls() {
        let body = MethodBody {
            max_locals: 2,
            code: vec![
                Insn::LoadLocal(0),
                Insn::GetField(FieldRef {
                    owner: ClassId(1),
                    index: 0,
                }),
                Insn::ReturnValue,
            ],
            handlers: vec![],
        };
        let out = rewrite_body(&plan(), &body);
        assert_eq!(
            out.code[1],
            Insn::Invoke {
                sig: SigId(10),
                argc: 0
            }
        );
    }

    #[test]
    fn new_sites_wrap() {
        let new_a = Insn::NewInit {
            class: ClassId(1),
            ctor: 0,
            argc: 0,
        };
        let body = MethodBody::straight_line(vec![new_a.clone(), Insn::Pop, Insn::Return], 1);
        let out = rewrite_body(&plan(), &body);
        let wrap = Insn::NewInit {
            class: ClassId(9),
            ctor: 0,
            argc: 1,
        };
        assert_eq!(out.code, [new_a, wrap, Insn::Pop, Insn::Return]);
    }

    #[test]
    fn unwrapped_classes_untouched() {
        let body = MethodBody {
            max_locals: 1,
            code: vec![
                Insn::LoadLocal(0),
                Insn::GetField(FieldRef {
                    owner: ClassId(7),
                    index: 0,
                }),
                Insn::ReturnValue,
            ],
            handlers: vec![],
        };
        let out = rewrite_body(&plan(), &body);
        assert_eq!(out.code, body.code);
    }
}
