//! "Policy dictates which classes are substitutable" (Section 1): only the
//! shared class `C` is made substitutable; its reference holders `A` and
//! `B` stay un-familied but have their call sites rewritten to `C_O_Int`
//! ("Every reference to a substitutable class must then be transformed to
//! use the extracted interface") — and the Figure 1 scenario still works.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::{Application, NodeId, StaticPolicy, Transformer, Ty, Value};

fn figure1_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(u, c);
        let v = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, v);
        mb.load_local(1).add();
        mb.put_field(c, v);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(u, "add", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    }
    for name in ["A", "B"] {
        let id = u.declare(name, ClassKind::Class);
        let mut cb = ClassBuilder::new(u, id);
        let f = cb.field(Field::new("shared", Ty::Object(c)));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(id, f).ret();
        cb.ctor(u, vec![Ty::Object(c)], Some(mb.finish()));
        let add_sig = u.sig("add", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(id, f);
        mb.load_local(1);
        mb.invoke(add_sig, 1);
        mb.ret_value();
        cb.method(u, "work", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    }
    app
}

#[test]
fn only_c_gets_a_family_but_holders_are_rewritten() {
    let app = figure1_app();
    let transformed = app
        .transform_with(
            Transformer::new()
                .protocols(&["RMI"])
                .substitutable_names(&["C"]),
        )
        .unwrap();
    let u = transformed.universe();
    assert!(u.by_name("C_O_Int").is_some());
    assert!(u.by_name("A_O_Int").is_none());
    assert!(u.by_name("B_O_Int").is_none());
    assert_eq!(transformed.outcome().report.substitutable_count, 1);
    assert_eq!(transformed.outcome().report.rewritten_in_place, 2);
    // A's field type is now the interface.
    let a = u.by_name("A").unwrap();
    let fy = &u.class(a).fields[0];
    assert_eq!(fy.ty, Ty::Object(u.by_name("C_O_Int").unwrap()));
}

#[test]
fn figure1_works_with_only_c_substitutable() {
    let cluster = figure1_app()
        .transform_with(
            Transformer::new()
                .protocols(&["RMI"])
                .substitutable_names(&["C"]),
        )
        .unwrap()
        .deploy(2, 11, Box::new(StaticPolicy::new()));
    let n0 = NodeId(0);
    // A and B are created through the ordinary (non-factory) path — they
    // are not substitutable — but hold interface-typed references to C.
    let c = cluster.new_instance(n0, "C", 0, vec![]).unwrap();
    let a = cluster.new_instance(n0, "A", 0, vec![c.clone()]).unwrap();
    let b = cluster.new_instance(n0, "B", 0, vec![c.clone()]).unwrap();
    assert_eq!(
        cluster
            .call_method(n0, a.clone(), "work", vec![Value::Int(1)])
            .unwrap(),
        Value::Int(1)
    );
    // Only C can migrate — and that is all Figure 1 needs.
    let h = c.as_ref_handle().unwrap();
    cluster.migrate(n0, h, NodeId(1)).unwrap();
    assert_eq!(
        cluster
            .call_method(n0, b, "work", vec![Value::Int(2)])
            .unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        cluster
            .call_method(n0, a, "work", vec![Value::Int(3)])
            .unwrap(),
        Value::Int(6)
    );
    assert!(cluster.network().stats().messages >= 4);
    // A and B themselves are not migratable — the policy decision the
    // substitutable set captures.
    let ah = cluster
        .new_instance(n0, "A", 0, vec![c])
        .unwrap()
        .as_ref_handle()
        .unwrap();
    let err = cluster.migrate(n0, ah, NodeId(1)).unwrap_err();
    assert!(err.to_string().contains("transformed"), "{err}");
}
