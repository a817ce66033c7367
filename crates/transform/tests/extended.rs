//! Extended transformation coverage: the §2.4 "language specific issues"
//! the paper says solutions exist for (user-defined interfaces, arrays),
//! abstract classes, and robustness properties of the analysis.

use proptest::prelude::*;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{
    sample, verify_universe, ClassKind, ClassUniverse, Field, SigId, Ty, Visibility,
};
use rafda_transform::{analyze, TransformReport, Transformer};

// ----------------------------------------------------------------------
// Arrays of transformed types (§2.4 "arrays")
// ----------------------------------------------------------------------

#[test]
fn array_types_are_rewritten_to_interface_arrays() {
    let mut u = ClassUniverse::new();
    let ids = sample::build_figure2(&mut u);
    // class Pool { Y[] items; Y[] all() { return items; } void fill(int n) { items = new Y[n]; } }
    let pool = u.declare("Pool", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, pool);
        let items = cb.field(Field::new("items", Ty::Object(ids.y).array_of()));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(pool, items).ret_value();
        cb.method(
            &mut u,
            "all",
            vec![],
            Ty::Object(ids.y).array_of(),
            Some(mb.finish()),
        );
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_local(1).new_array(Ty::Object(ids.y));
        mb.put_field(pool, items);
        mb.ret();
        cb.method(&mut u, "fill", vec![Ty::Int], Ty::Void, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    verify_universe(&u).unwrap();
    let fy = outcome.plan.family(ids.y).unwrap();
    let fp = outcome.plan.family(pool).unwrap();
    let c = u.class(fp.obj.local);
    // The field type became Y_O_Int[].
    assert_eq!(c.fields[0].ty, Ty::Object(fy.obj.int).array_of());
    // NewArray sites were rewritten.
    let fill = &c.methods[c.method_index("fill").unwrap() as usize];
    assert!(fill
        .body
        .as_ref()
        .unwrap()
        .code
        .iter()
        .any(|i| matches!(i, rafda_classmodel::Insn::NewArray(Ty::Object(t)) if *t == fy.obj.int)));
}

// ----------------------------------------------------------------------
// User-defined interfaces (§2.4 "user-defined interfaces")
// ----------------------------------------------------------------------

#[test]
fn user_interfaces_are_kept_and_implemented_by_locals() {
    let mut u = ClassUniverse::new();
    let iface = u.declare("Greeter", ClassKind::Interface);
    let greet_sig = u.sig("greet", vec![Ty::Int]);
    u.class_mut(iface).methods.push(rafda_classmodel::Method {
        name: "greet".into(),
        sig: greet_sig,
        params: vec![Ty::Int].into(),
        ret: Ty::Int,
        visibility: Visibility::Public,
        is_static: false,
        is_native: false,
        body: None,
    });
    let impl_class = u.declare("Hello", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, impl_class);
        cb.implements(iface);
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_local(1).const_int(1).add().ret_value();
        cb.method(&mut u, "greet", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    verify_universe(&u).unwrap();
    let fh = outcome.plan.family(impl_class).unwrap();
    // Hello_O_Local implements both Hello_O_Int and the user interface, so
    // instanceof/checkcast against Greeter keep working.
    assert!(u.is_subtype(fh.obj.local, fh.obj.int));
    assert!(u.is_subtype(fh.obj.local, iface));
    // The user interface itself was not familied (only classes are
    // substitutable).
    assert!(u.by_name("Greeter_O_Int").is_none());
}

#[test]
fn instanceof_and_checkcast_sites_use_the_extracted_interface() {
    let mut u = ClassUniverse::new();
    let ids = sample::build_figure2(&mut u);
    let probe = u.declare("Probe", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, probe);
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // boolean is_y(Y o) { return o instanceof Y; }
        let mut mb = MethodBuilder::new(2);
        mb.load_local(1);
        mb.emit(rafda_classmodel::Insn::InstanceOf(ids.y));
        mb.ret_value();
        cb.method(
            &mut u,
            "is_y",
            vec![Ty::Object(ids.y)],
            Ty::Bool,
            Some(mb.finish()),
        );
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    let fy = outcome.plan.family(ids.y).unwrap();
    let fp = outcome.plan.family(probe).unwrap();
    let c = u.class(fp.obj.local);
    let m = &c.methods[c.method_index("is_y").unwrap() as usize];
    assert!(m
        .body
        .as_ref()
        .unwrap()
        .code
        .iter()
        .any(|i| matches!(i, rafda_classmodel::Insn::InstanceOf(t) if *t == fy.obj.int)));
}

// ----------------------------------------------------------------------
// Abstract classes
// ----------------------------------------------------------------------

#[test]
fn abstract_classes_produce_abstract_locals() {
    let mut u = ClassUniverse::new();
    let base = u.declare("Shape", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, base);
        cb.abstract_();
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        // abstract int area();
        let area_sig = u.sig("area", vec![]);
        cb.add_method(rafda_classmodel::Method {
            name: "area".into(),
            sig: area_sig,
            params: vec![].into(),
            ret: Ty::Int,
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        });
        cb.finish(&mut u);
    }
    let square = u.declare("Square", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(&u, square);
        cb.superclass(base);
        let side = cb.field(Field::new("side", Ty::Int));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(square, side).ret();
        cb.ctor(&mut u, vec![Ty::Int], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(square, side);
        mb.load_this().get_field(square, side);
        mb.mul().ret_value();
        cb.method(&mut u, "area", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(&mut u);
    }
    let outcome = Transformer::new().protocols(&["RMI"]).run(&mut u).unwrap();
    verify_universe(&u).unwrap();
    let fb = outcome.plan.family(base).unwrap();
    let fs = outcome.plan.family(square).unwrap();
    assert!(u.class(fb.obj.local).is_abstract);
    assert!(!u.class(fs.obj.local).is_abstract);
    // Square_O_Local extends Shape_O_Local; interface mirrors hierarchy.
    assert_eq!(u.class(fs.obj.local).superclass, Some(fb.obj.local));
    assert!(u.is_subtype(fs.obj.int, fb.obj.int));
}

// ----------------------------------------------------------------------
// Analysis properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding a native method can only grow the non-transformable set.
    #[test]
    fn analysis_is_monotone_in_native_seeds(seed in 1u64..1000, poison_idx in 0usize..20) {
        let build = |poison: Option<usize>| {
            let mut u = ClassUniverse::new();
            // A small random-ish chain with cross references.
            let n = 20;
            let ids: Vec<_> = (0..n)
                .map(|i| u.declare(&format!("K{i}"), ClassKind::Class))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                let mut cb = ClassBuilder::new(&u, id);
                let mut mb = MethodBuilder::new(1);
                mb.ret();
                cb.ctor(&mut u, vec![], Some(mb.finish()));
                // reference a pseudo-random other class
                let target = ids[(i * 7 + seed as usize) % n];
                if target != id {
                    cb.field(Field::new("r", Ty::Object(target)));
                }
                if poison == Some(i) {
                    cb.native_method(&mut u, "nat", vec![], Ty::Void);
                }
                cb.finish(&mut u);
            }
            let report = analyze(&u);
            (0..n)
                .filter(|&i| !report.is_transformable(ids[i]))
                .collect::<Vec<_>>()
        };
        let clean = build(None);
        let poisoned = build(Some(poison_idx));
        for i in &clean {
            prop_assert!(poisoned.contains(i), "poisoning removed {i} from NT set");
        }
        prop_assert!(poisoned.contains(&poison_idx));
    }

    /// Transforming any generated app yields a verifiable universe with a
    /// complete family per class.
    #[test]
    fn transform_always_verifies_on_generated_programs(
        seed in 1u64..2000,
        classes in 1usize..10,
        statics in any::<bool>(),
    ) {
        let mut u = ClassUniverse::new();
        let hooks = observer_stand_in(&mut u);
        let info = rafda_corpus::generate_app(
            &mut u,
            hooks,
            &rafda_corpus::AppSpec { classes, int_fields: 2, statics, inheritance: seed % 2 == 0, arrays: seed % 3 == 0, seed },
        );
        let outcome = Transformer::new()
            .protocols(&["RMI", "SOAP", "CORBA"])
            .run(&mut u)
            .unwrap();
        verify_universe(&u).unwrap();
        prop_assert_eq!(
            outcome.report.substitutable_count,
            info.classes.len() + info.subclasses.len() + 1 // + Driver
        );
        // Every family has a complete O-side.
        for family in outcome.plan.families.values() {
            prop_assert_eq!(family.obj.proxies.len(), 3);
            prop_assert_eq!(
                family.obj.getters.len(),
                u.class(family.base).fields.len()
            );
        }
    }
}

/// Observer stand-in so the app generator has an emit target.
fn observer_stand_in(u: &mut ClassUniverse) -> rafda_corpus::ObserverHooks {
    let class = u.declare("Obs", ClassKind::Class);
    let emit = u.sig("emit", vec![Ty::Long]);
    u.class_mut(class).is_special = true;
    u.class_mut(class).methods.push(rafda_classmodel::Method {
        name: "emit".into(),
        sig: emit,
        params: vec![Ty::Long].into(),
        ret: Ty::Void,
        visibility: Visibility::Public,
        is_static: true,
        is_native: true,
        body: None,
    });
    rafda_corpus::ObserverHooks { class, emit }
}

// ----------------------------------------------------------------------
// The generated universe at corpus scale is a pinned artefact
// ----------------------------------------------------------------------

/// FNV-1a over the disassembly and the method signature ids of every class
/// in id order, then over every interned signature's name and parameter
/// types in id order: class ids, the signature table, member order and
/// rewritten bodies folded into one number.
fn universe_fingerprint(u: &ClassUniverse) -> u64 {
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (id, class) in u.iter() {
        feed(rafda_classmodel::pretty::disassemble(u, id).as_bytes());
        for m in &class.methods {
            feed(&m.sig.0.to_le_bytes());
        }
    }
    for sig in (0..u.sig_count() as u32).map(SigId) {
        let info = u.sig_info(sig);
        feed(info.name.as_bytes());
        for ty in info.params.iter() {
            feed(b"\x1f");
            feed(rafda_classmodel::pretty::ty_str(u, ty).as_bytes());
        }
        feed(b"\n");
    }
    fnv
}

/// A pinned JDK-shaped corpus: its seed, fingerprint and signature count,
/// and its `TransformReport` counts in field order.
type Pinned = (u64, u64, usize, [usize; 8]);

/// 500-class JDK-shaped corpora (no static members: `_O_` halves only) —
/// seed 42 and the sixteen the `transform_corpus` workload rotates over at
/// seed 42 (`42 * 16 + k`) — and a 40-class generated application
/// (statics, inheritance, arrays: both halves), each transformed for three
/// protocols. The literals were minted by running this test on the commit
/// before names and parameter lists were shared; a refactoring of the
/// planner, the generators or the signature table must leave them alone.
#[test]
fn corpus_scale_universe_fingerprint_is_pinned() {
    let transform = |u: &mut ClassUniverse| {
        let transformer = Transformer::new().protocols(&["RMI", "SOAP", "CORBA"]);
        let report = transformer.run(u).unwrap().report;
        (universe_fingerprint(u), u.sig_count(), report)
    };

    const JDK: [Pinned; 17] = [
        (
            42,
            0x48e62981a4e58c72,
            699,
            [555, 235, 263, 57, 1578, 9168, 4210, 789],
        ),
        (
            672,
            0x8de41eb550ccb746,
            733,
            [555, 197, 289, 69, 1734, 9849, 4610, 867],
        ),
        (
            673,
            0xec6d18c54707b8c7,
            674,
            [555, 245, 255, 55, 1530, 8940, 4120, 765],
        ),
        (
            674,
            0xb6a3b8258c0da82e,
            656,
            [555, 259, 242, 54, 1452, 8577, 3960, 726],
        ),
        (
            675,
            0x0234f700e01d9aac,
            615,
            [555, 288, 209, 58, 1254, 7414, 3550, 627],
        ),
        (
            676,
            0x050dfb6873907d9c,
            717,
            [555, 233, 268, 54, 1608, 9438, 4620, 804],
        ),
        (
            677,
            0xbfd0fafac6293a56,
            634,
            [555, 281, 216, 58, 1296, 7751, 3620, 648],
        ),
        (
            678,
            0x35cfc04fd8e487e7,
            687,
            [555, 219, 274, 62, 1644, 9404, 4430, 822],
        ),
        (
            679,
            0xd637a706f0ef20a0,
            683,
            [555, 278, 223, 54, 1338, 8063, 3850, 669],
        ),
        (
            680,
            0x7fa1a66ee7ea62ce,
            695,
            [555, 234, 257, 64, 1542, 9002, 4180, 771],
        ),
        (
            681,
            0x3ab8e71be3c95e4b,
            599,
            [555, 293, 199, 63, 1194, 7049, 3280, 597],
        ),
        (
            682,
            0xbddcc4ebddef28a5,
            659,
            [555, 249, 255, 51, 1530, 8765, 4070, 765],
        ),
        (
            683,
            0x6843f2a200e096cd,
            645,
            [555, 258, 241, 56, 1446, 8191, 3820, 723],
        ),
        (
            684,
            0xf2c44f37e54672a5,
            688,
            [555, 246, 256, 53, 1536, 8801, 4080, 768],
        ),
        (
            685,
            0x7a919cbe881b2ffe,
            634,
            [555, 266, 233, 56, 1398, 7983, 3730, 699],
        ),
        (
            686,
            0xb39a9f675a0c3225,
            689,
            [555, 233, 261, 61, 1566, 9086, 4340, 783],
        ),
        (
            687,
            0xa3d75953a917d052,
            656,
            [555, 278, 225, 52, 1350, 7915, 3720, 675],
        ),
    ];
    let jdk: Vec<Pinned> = JDK
        .iter()
        .map(|&(seed, ..)| {
            let mut profile = rafda_corpus::JdkProfile::scaled(500);
            profile.seed = seed;
            let mut u = ClassUniverse::new();
            rafda_corpus::generate_jdk(&mut u, &profile);
            let (fingerprint, sigs, r) = transform(&mut u);
            let counts = [
                r.analyzed,
                r.non_transformable,
                r.substitutable_count,
                r.rewritten_in_place,
                r.generated_classes,
                r.generated_methods,
                r.accessors,
                r.proxy_classes,
            ];
            (seed, fingerprint, sigs, counts)
        })
        .collect();
    let rows: Vec<String> = jdk
        .iter()
        .map(|(seed, fp, sigs, counts)| format!("({seed}, {fp:#018x}, {sigs}, {counts:?}),"))
        .collect();
    assert_eq!(jdk, JDK, "actual:\n{}", rows.join("\n"));

    let mut u = ClassUniverse::new();
    let hooks = observer_stand_in(&mut u);
    let spec = rafda_corpus::AppSpec {
        classes: 40,
        int_fields: 2,
        statics: true,
        inheritance: true,
        arrays: true,
        seed: 42,
    };
    rafda_corpus::generate_app(&mut u, hooks, &spec);
    let app = TransformReport {
        analyzed: 52,
        non_transformable: 1,
        substitutable_count: 51,
        rewritten_in_place: 0,
        generated_classes: 396,
        generated_methods: 2749,
        accessors: 1830,
        proxy_classes: 198,
    };
    assert_eq!(transform(&mut u), (0x81fc_45fd_5f9e_be6a, 124, app));
}
