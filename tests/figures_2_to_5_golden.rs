//! Experiment **E2**: golden test of the transformation output against the
//! paper's Figures 3, 4 and 5.
//!
//! The paper shows, for the sample class `X` of Figure 2, the generated
//! `X_O_Int` / `X_O_Local` / `X_O_Proxy_*` family (Figure 3), the
//! `X_C_Int` / `X_C_Local` / `X_C_Proxy_*` family (Figure 4) and the two
//! factories (Figure 5). These tests pin the generated *declaration
//! surface* and the load-bearing body shapes to the listings.

use rafda::classmodel::{pretty, sample};
use rafda::{Application, Transformer};

fn transformed() -> (rafda::ClassUniverse, rafda::transform::TransformPlan) {
    let mut app = Application::new();
    sample::build_figure2(app.universe_mut());
    let t = app
        .transform_with(Transformer::new().protocols(&["SOAP", "RMI"]))
        .unwrap();
    (t.universe().clone(), t.plan().clone())
}

#[test]
fn figure3_x_o_int_interface() {
    let (u, _) = transformed();
    let id = u.by_name("X_O_Int").unwrap();
    let decl = pretty::declaration(&u, id);
    // public interface X_O_Int {
    //     Y_O_Int get_y();
    //     void set_y(Y_O_Int y);
    //     int m(long j);
    // }
    assert!(decl.contains("public interface X_O_Int"), "{decl}");
    assert!(decl.contains("Y_O_Int get_y()"), "{decl}");
    assert!(decl.contains("void set_y(Y_O_Int a0)"), "{decl}");
    assert!(decl.contains("int m(long a0)"), "{decl}");
    // Exactly the three members of Figure 3 — nothing else leaked in.
    assert_eq!(u.class(id).methods.len(), 3);
}

#[test]
fn figure3_x_o_local_implementation() {
    let (u, _) = transformed();
    let id = u.by_name("X_O_Local").unwrap();
    let decl = pretty::declaration(&u, id);
    assert!(
        decl.contains("public class X_O_Local implements X_O_Int"),
        "{decl}"
    );
    // private Y_O_Int y; public X_O_Local() {}
    assert!(decl.contains("private Y_O_Int y;"), "{decl}");
    assert!(decl.contains("X_O_Local()"), "{decl}");
    // "get_y() and n(j) below are interface calls": X_O_Local.m must not
    // touch any field directly.
    let c = u.class(id);
    let m = &c.methods[c.method_index("m").unwrap() as usize];
    let body = m.body.as_ref().unwrap();
    assert!(
        !body
            .code
            .iter()
            .any(|i| matches!(i, rafda::classmodel::Insn::GetField(_))),
        "m must use interface calls only: {}",
        pretty::disassemble(&u, id)
    );
    let dis = pretty::disassemble(&u, id);
    assert!(dis.contains("invoke get_y/0"), "{dis}");
    assert!(dis.contains("invoke n/1"), "{dis}");
}

#[test]
fn figure3_proxies_for_each_protocol() {
    let (u, _) = transformed();
    for proto in ["SOAP", "RMI"] {
        let id = u.by_name(&format!("X_O_Proxy_{proto}")).unwrap();
        let decl = pretty::declaration(&u, id);
        assert!(
            decl.contains(&format!(
                "public class X_O_Proxy_{proto} implements X_O_Int"
            )),
            "{decl}"
        );
        // All interface methods present and native ("these methods perform
        // SOAP calls on the real remote object").
        for m in &u.class(id).methods {
            if !m.is_ctor() {
                assert!(m.is_native, "{}.{} must be native", decl, m.name);
            }
        }
        assert!(u.class(id).method_index("get_y").is_some());
        assert!(u.class(id).method_index("set_y").is_some());
        assert!(u.class(id).method_index("m").is_some());
    }
}

#[test]
fn figure4_x_c_int_and_local() {
    let (u, _) = transformed();
    let ci = u.by_name("X_C_Int").unwrap();
    let decl = pretty::declaration(&u, ci);
    // public interface X_C_Int { Z_O_Int get_z(); int p(int i); }
    assert!(decl.contains("public interface X_C_Int"), "{decl}");
    assert!(decl.contains("Z_O_Int get_z()"), "{decl}");
    assert!(decl.contains("int p(int a0)"), "{decl}");

    let cl = u.by_name("X_C_Local").unwrap();
    let decl = pretty::declaration(&u, cl);
    assert!(
        decl.contains("public class X_C_Local implements X_C_Int"),
        "{decl}"
    );
    assert!(decl.contains("private Z_O_Int z;"), "{decl}");
    // p was made non-static ("static members are made non-static").
    let c = u.class(cl);
    let p = &c.methods[c.method_index("p").unwrap() as usize];
    assert!(!p.is_static);
    // Figure 4: public int p(int i) { return get_z().q(i); } — own-static
    // access short-circuits through `this`, no discover() call.
    let dis = pretty::disassemble(&u, cl);
    assert!(dis.contains("invoke get_z/0"), "{dis}");
    assert!(dis.contains("invoke q/1"), "{dis}");
    assert!(!dis.contains("discover"), "{dis}");
}

#[test]
fn figure4_class_proxies() {
    let (u, _) = transformed();
    for proto in ["SOAP", "RMI"] {
        let id = u.by_name(&format!("X_C_Proxy_{proto}")).unwrap();
        let c = u.class(id);
        assert!(c.method_index("get_z").is_some());
        assert!(c.method_index("p").is_some());
        for m in &c.methods {
            if !m.is_ctor() {
                assert!(m.is_native);
            }
        }
    }
}

#[test]
fn figure5_x_o_factory() {
    let (u, plan) = transformed();
    let id = u.by_name("X_O_Factory").unwrap();
    let c = u.class(id);
    // public static X_O_Int make()  — implementation-aware, hence native.
    let make = &c.methods[c.method_index("make").unwrap() as usize];
    assert!(make.is_static && make.is_native);
    let x = u.by_name("X").unwrap();
    let fx = plan.family(x).unwrap();
    assert_eq!(make.ret, rafda::Ty::Object(fx.obj.int));
    // public static void init(X_O_Int that, Y_O_Int y) { that.set_y(y); }
    let init = &c.methods[c.method_index("init$0").unwrap() as usize];
    assert!(init.is_static && !init.is_native);
    assert_eq!(init.params.len(), 2);
    let dis = pretty::disassemble(&u, id);
    assert!(dis.contains("invoke set_y/1"), "{dis}");
}

#[test]
fn figure5_x_c_factory_clinit() {
    let (u, _) = transformed();
    let id = u.by_name("X_C_Factory").unwrap();
    let c = u.class(id);
    let discover = &c.methods[c.method_index("discover").unwrap() as usize];
    assert!(discover.is_static && discover.is_native);
    // public static void clinit(X_C_Int that) {
    //     Z_O_Int t = Z_O_Factory.make();
    //     Z_O_Factory.init(t, Y_C_Factory.discover().get_K());
    //     that.set_z(t);
    // }
    let dis = pretty::disassemble(&u, id);
    assert!(dis.contains("invoke_static Z_O_Factory::make/0"), "{dis}");
    assert!(dis.contains("invoke_static Z_O_Factory::init$0/2"), "{dis}");
    assert!(
        dis.contains("invoke_static Y_C_Factory::discover/0"),
        "{dis}"
    );
    assert!(dis.contains("invoke get_K/0"), "{dis}");
    assert!(dis.contains("invoke set_z/1"), "{dis}");
}

#[test]
fn full_family_inventory_for_all_three_classes() {
    let (u, _) = transformed();
    // X and Y have static members -> full 10-class family each (O-int,
    // O-local, 2 O-proxies, O-factory, C-int, C-local, 2 C-proxies,
    // C-factory); Z has no statics -> 5.
    for name in [
        "X_O_Int",
        "X_O_Local",
        "X_O_Proxy_SOAP",
        "X_O_Proxy_RMI",
        "X_O_Factory",
        "X_C_Int",
        "X_C_Local",
        "X_C_Proxy_SOAP",
        "X_C_Proxy_RMI",
        "X_C_Factory",
        "Y_O_Int",
        "Y_O_Local",
        "Y_C_Int",
        "Y_C_Local",
        "Y_C_Factory",
        "Z_O_Int",
        "Z_O_Local",
        "Z_O_Proxy_SOAP",
        "Z_O_Proxy_RMI",
        "Z_O_Factory",
    ] {
        assert!(u.by_name(name).is_some(), "missing {name}");
    }
    for name in ["Z_C_Int", "Z_C_Local", "Z_C_Factory"] {
        assert!(u.by_name(name).is_none(), "unexpected {name}");
    }
}

#[test]
fn full_generated_surface_matches_golden_file() {
    // The complete declaration surface of every generated artefact is
    // pinned to `tests/golden/figure2_generated.txt`. If a deliberate
    // change to the generators alters the output, regenerate the file by
    // copying the `actual` dump this assertion prints.
    let mut app = Application::new();
    sample::build_figure2(app.universe_mut());
    let t = app
        .transform_with(Transformer::new().protocols(&["SOAP", "RMI"]))
        .unwrap();
    let actual = t.dump_generated();
    let golden = include_str!("golden/figure2_generated.txt");
    assert_eq!(
        actual.trim(),
        golden.trim(),
        "generated surface drifted from the golden file;\nactual:\n{actual}"
    );
}
