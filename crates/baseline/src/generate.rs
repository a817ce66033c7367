//! Generation of accessors and wrapper classes.

use rafda_classmodel::{
    Class, ClassId, ClassKind, ClassOrigin, ClassUniverse, Field, FieldRef, GenKind, Insn, Method,
    MethodBody, SigId, Ty, Visibility,
};
use std::collections::HashMap;

/// Accessor signatures added to a class: `(getter, setter)` per declared
/// instance field.
#[derive(Debug, Clone, Default)]
pub struct Accessors {
    /// Getter signature per declared instance field.
    pub getters: Vec<SigId>,
    /// Setter signature per declared instance field.
    pub setters: Vec<SigId>,
}

/// Add direct `get_f`/`set_f` accessors for every declared instance field of
/// `class` (idempotent per run; the engine calls it once per class).
pub fn add_accessors(universe: &mut ClassUniverse, class: ClassId) -> Accessors {
    let fields: Vec<(u16, String, Ty)> = universe
        .class(class)
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u16, f.name.clone(), f.ty.clone()))
        .collect();
    let mut accessors = Accessors::default();
    for (index, name, ty) in fields {
        let g_sig = universe.sig(&format!("get_{name}"), vec![]);
        let s_sig = universe.sig(&format!("set_{name}"), vec![ty.clone()]);
        accessors.getters.push(g_sig);
        accessors.setters.push(s_sig);
        let fr = FieldRef {
            owner: class,
            index,
        };
        let getter = Method::getter(universe, g_sig, ty, fr);
        let setter = Method::setter(universe, s_sig, fr);
        let c = universe.class_mut(class);
        c.methods.push(getter);
        c.methods.push(setter);
    }
    accessors
}

/// Generate `A_Wrapper` for `class`: one `target` field, a constructor
/// taking the wrapped object, and a forwarding method for every instance
/// method (including the accessors added by [`add_accessors`]).
pub fn generate_wrapper(
    universe: &mut ClassUniverse,
    class: ClassId,
) -> (ClassId, u16 /* ctor ordinal */) {
    let base = universe.class(class).clone();
    let wrapper_name = format!("{}_Wrapper", base.name);
    let wrapper = universe.declare(&wrapper_name, ClassKind::Class);
    let target_fr = FieldRef {
        owner: wrapper,
        index: 0,
    };
    // Wrapper(target) { this.target = target; } — a setter by another name.
    let ctor_sig = universe.sig("<init>$0", vec![Ty::Object(class)]);
    let ctor = Method::setter(universe, ctor_sig, target_fr);
    let mut methods = vec![ctor];
    // Forwarders for every instance method (walking the superclass chain so
    // inherited behaviour is intercepted too, most-derived first).
    let mut seen: HashMap<SigId, ()> = HashMap::new();
    let mut cur = Some(class);
    while let Some(c) = cur {
        let cls = universe.class(c).clone();
        for m in &cls.methods {
            if m.is_static || m.is_ctor() || seen.contains_key(&m.sig) {
                continue;
            }
            seen.insert(m.sig, ());
            let argc = m.params.len() as u8;
            let mut code = vec![Insn::LoadLocal(0), Insn::GetField(target_fr)];
            for i in 0..argc {
                code.push(Insn::LoadLocal(u16::from(i) + 1));
            }
            code.push(Insn::Invoke { sig: m.sig, argc });
            code.push(Insn::ReturnValue);
            methods.push(Method {
                body: Some(MethodBody::straight_line(code, u16::from(argc) + 1)),
                ..Method::declared(universe, m.sig, m.ret.clone())
            });
        }
        cur = cls.superclass;
    }
    let name = universe.class(wrapper).name.clone();
    universe.define(
        wrapper,
        Class {
            name,
            kind: ClassKind::Class,
            superclass: None,
            interfaces: vec![],
            fields: vec![Field {
                name: "target".to_owned(),
                ty: Ty::Object(class),
                visibility: Visibility::Private,
                is_final: true,
            }],
            static_fields: vec![],
            methods,
            ctors: vec![0],
            clinit: None,
            is_special: false,
            is_abstract: false,
            origin: ClassOrigin::Generated {
                from: class,
                kind: GenKind::Wrapper,
            },
        },
    );
    (wrapper, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::{sample, verify_universe};

    #[test]
    fn accessors_are_added_with_direct_bodies() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        let acc = add_accessors(&mut u, ids.x);
        assert_eq!(acc.getters.len(), 1);
        let x = u.class(ids.x);
        let g = &x.methods[x.method_index("get_y").unwrap() as usize];
        assert!(matches!(
            g.body.as_ref().unwrap().code[1],
            Insn::GetField(_)
        ));
        verify_universe(&u).unwrap();
    }

    #[test]
    fn wrapper_forwards_every_instance_method() {
        let mut u = ClassUniverse::new();
        let ids = sample::build_figure2(&mut u);
        add_accessors(&mut u, ids.x);
        let (w, ctor) = generate_wrapper(&mut u, ids.x);
        assert_eq!(ctor, 0);
        let wc = u.class(w);
        assert_eq!(&*wc.name, "X_Wrapper");
        // m + get_y + set_y + ctor
        assert!(wc.method_index("m").is_some());
        assert!(wc.method_index("get_y").is_some());
        assert!(wc.method_index("set_y").is_some());
        assert_eq!(wc.fields.len(), 1);
        verify_universe(&u).unwrap();
    }

    #[test]
    fn wrapper_covers_inherited_methods_once() {
        let mut u = ClassUniverse::new();
        use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
        let a = u.declare("A", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.const_int(1).ret_value();
            cb.method(&mut u, "f", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let b = u.declare("B", ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(&u, b);
            cb.superclass(a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(&mut u, vec![], Some(mb.finish()));
            // override
            let mut mb = MethodBuilder::new(1);
            mb.const_int(2).ret_value();
            cb.method(&mut u, "f", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(&mut u);
        }
        let (w, _) = generate_wrapper(&mut u, b);
        let wc = u.class(w);
        let count = wc.methods.iter().filter(|m| &*m.name == "f").count();
        assert_eq!(count, 1, "override must not duplicate the forwarder");
        verify_universe(&u).unwrap();
    }
}
