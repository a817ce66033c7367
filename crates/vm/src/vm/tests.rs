use super::*;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::sample;

fn vm_with(build: impl FnOnce(&mut ClassUniverse)) -> Vm {
    let mut u = ClassUniverse::new();
    build(&mut u);
    rafda_classmodel::verify_universe(&u).expect("test universe verifies");
    Vm::new(Arc::new(u))
}

fn figure2_vm() -> Vm {
    vm_with(|u| {
        sample::build_figure2(u);
    })
}

#[test]
fn figure2_instance_path() {
    // new X(new Y(3)).m(4) == 3 + 4
    let vm = figure2_vm();
    let u = vm.universe().clone();
    let y = u.by_name("Y").unwrap();
    let x = u.by_name("X").unwrap();
    let yobj = vm.new_instance(y, 0, vec![Value::Int(3)]).unwrap();
    let xobj = vm.new_instance(x, 0, vec![yobj]).unwrap();
    let r = vm
        .call_virtual_by_name(xobj, "m", vec![Value::Long(4)])
        .unwrap();
    assert_eq!(r, Value::Int(7));
}

#[test]
fn figure2_static_path_initialises_classes_in_order() {
    // X.p(6) forces X.<clinit>, which reads Y.K (forcing Y.<clinit>) and
    // constructs Z. 6 * 7 = 42.
    let vm = figure2_vm();
    let r = vm
        .call_static_by_name("X", "p", vec![Value::Int(6)])
        .unwrap();
    assert_eq!(r, Value::Int(42));
    // Second call must not re-run <clinit>.
    let allocs_before = vm.stats().heap.objects_allocated;
    let r2 = vm
        .call_static_by_name("X", "p", vec![Value::Int(1)])
        .unwrap();
    assert_eq!(r2, Value::Int(7));
    assert_eq!(vm.stats().heap.objects_allocated, allocs_before);
}

#[test]
fn arithmetic_and_branching() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Calc", rafda_classmodel::ClassKind::Class);
        // static int abs(int a) { return a < 0 ? -a : a; }
        let mut mb = MethodBuilder::new(1);
        mb.load_local(0).const_int(0).cmp(CmpOp::Lt);
        let neg = mb.label();
        mb.jump_if(neg);
        mb.load_local(0).ret_value();
        mb.bind(neg);
        mb.load_local(0).unop(UnOp::Neg).ret_value();
        cb.static_method(u, "abs", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    assert_eq!(
        vm.call_static_by_name("Calc", "abs", vec![Value::Int(-5)]),
        Ok(Value::Int(5))
    );
    assert_eq!(
        vm.call_static_by_name("Calc", "abs", vec![Value::Int(11)]),
        Ok(Value::Int(11))
    );
}

#[test]
fn loops_terminate_and_accumulate() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Loop", rafda_classmodel::ClassKind::Class);
        // static long sum(int n) { long s=0; while(n>0){ s+=n; n--; } return s; }
        let mut mb = MethodBuilder::new(1);
        let s = mb.alloc_local();
        mb.const_long(0).store_local(s);
        let top = mb.label();
        let done = mb.label();
        mb.bind(top);
        mb.load_local(0).const_int(0).cmp(CmpOp::Gt);
        mb.jump_if_not(done);
        mb.load_local(s);
        mb.load_local(0).unop(UnOp::Convert("long"));
        mb.add().store_local(s);
        mb.load_local(0).const_int(1).sub().store_local(0);
        mb.jump(top);
        mb.bind(done);
        mb.load_local(s).ret_value();
        cb.static_method(u, "sum", vec![Ty::Int], Ty::Long, Some(mb.finish()));
        cb.finish(u);
    });
    assert_eq!(
        vm.call_static_by_name("Loop", "sum", vec![Value::Int(100)]),
        Ok(Value::Long(5050))
    );
}

#[test]
fn virtual_dispatch_uses_runtime_class() {
    let vm = vm_with(|u| {
        let a = u.declare("A", rafda_classmodel::ClassKind::Class);
        let b = u.declare("B", rafda_classmodel::ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(u, a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.const_int(1).ret_value();
            cb.method(u, "tag", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(u);
        }
        {
            let mut cb = ClassBuilder::new(u, b);
            cb.superclass(a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.const_int(2).ret_value();
            cb.method(u, "tag", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(u);
        }
    });
    let u = vm.universe().clone();
    let a = u.by_name("A").unwrap();
    let b = u.by_name("B").unwrap();
    let ao = vm.new_instance(a, 0, vec![]).unwrap();
    let bo = vm.new_instance(b, 0, vec![]).unwrap();
    assert_eq!(
        vm.call_virtual_by_name(ao, "tag", vec![]),
        Ok(Value::Int(1))
    );
    assert_eq!(
        vm.call_virtual_by_name(bo, "tag", vec![]),
        Ok(Value::Int(2))
    );
}

#[test]
fn inherited_method_found_through_superclass() {
    let vm = vm_with(|u| {
        let a = u.declare("A", rafda_classmodel::ClassKind::Class);
        let b = u.declare("B", rafda_classmodel::ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(u, a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.const_int(41).const_int(1).add().ret_value();
            cb.method(u, "forty_two", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(u);
        }
        {
            let mut cb = ClassBuilder::new(u, b);
            cb.superclass(a);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            cb.finish(u);
        }
    });
    let b = vm.universe().by_name("B").unwrap();
    let bo = vm.new_instance(b, 0, vec![]).unwrap();
    assert_eq!(
        vm.call_virtual_by_name(bo, "forty_two", vec![]),
        Ok(Value::Int(42))
    );
}

#[test]
fn exceptions_unwind_to_matching_handler() {
    let vm = vm_with(|u| {
        let (_t, e) = sample::build_throwables(u);
        let mut cb = ClassBuilder::declare(u, "Try", rafda_classmodel::ClassKind::Class);
        let code_sig = u.sig("code", vec![]);
        // static int f(int x) {
        //   try { if (x > 0) throw new AppError(x); return 0; }
        //   catch (AppError err) { return err.code() + 100; }
        // }
        let mut mb = MethodBuilder::new(1);
        let no_throw = mb.label();
        mb.load_local(0).const_int(0).cmp(CmpOp::Gt); // 0..2
        mb.jump_if_not(no_throw); // 3
        mb.load_local(0); // 4
        mb.new_init(e, 0, 1); // 5
        mb.throw(); // 6
        mb.bind(no_throw);
        mb.const_int(0).ret_value(); // 7,8
        let handler_pc = mb.pc(); // 9
        mb.invoke(code_sig, 0); // handler: [err] -> [code]
        mb.const_int(100).add().ret_value();
        mb.handler(0, handler_pc, handler_pc, Some(e));
        cb.static_method(u, "f", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    assert_eq!(
        vm.call_static_by_name("Try", "f", vec![Value::Int(0)]),
        Ok(Value::Int(0))
    );
    assert_eq!(
        vm.call_static_by_name("Try", "f", vec![Value::Int(5)]),
        Ok(Value::Int(105))
    );
}

#[test]
fn uncaught_exception_propagates_across_frames() {
    let vm = vm_with(|u| {
        let (_t, e) = sample::build_throwables(u);
        let mut cb = ClassBuilder::declare(u, "Boom", rafda_classmodel::ClassKind::Class);
        let mut mb = MethodBuilder::new(0);
        mb.const_int(9).new_init(e, 0, 1).throw();
        cb.static_method(u, "inner", vec![], Ty::Void, Some(mb.finish()));
        let inner_sig = u.sig("inner", vec![]);
        let me = cb.id();
        let mut mb = MethodBuilder::new(0);
        mb.invoke_static(me, inner_sig, 0).pop().ret();
        cb.static_method(u, "outer", vec![], Ty::Void, Some(mb.finish()));
        cb.finish(u);
    });
    let err = vm.call_static_by_name("Boom", "outer", vec![]).unwrap_err();
    let VmError::Exception(h) = err else {
        panic!("expected exception, got {err:?}");
    };
    let class = vm.class_of(h).unwrap();
    assert_eq!(vm.universe().class(class).name, "AppError");
}

#[test]
fn handler_catch_type_is_respected() {
    // A handler for Throwable catches AppError; a handler for an unrelated
    // class does not.
    let vm = vm_with(|u| {
        let (t, e) = sample::build_throwables(u);
        let other = u.declare("Other", rafda_classmodel::ClassKind::Class);
        {
            let mut cb = ClassBuilder::new(u, other);
            cb.special();
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            cb.finish(u);
        }
        let mut cb = ClassBuilder::declare(u, "Sel", rafda_classmodel::ClassKind::Class);
        // catches Throwable -> returns 1
        let mut mb = MethodBuilder::new(0);
        mb.const_int(1).new_init(e, 0, 1).throw(); // 0..2
        mb.pop(); // 3 handler
        mb.const_int(1).ret_value();
        mb.handler(0, 3, 3, Some(t));
        cb.static_method(u, "caught", vec![], Ty::Int, Some(mb.finish()));
        // handler for Other -> uncaught
        let mut mb = MethodBuilder::new(0);
        mb.const_int(1).new_init(e, 0, 1).throw();
        mb.pop();
        mb.const_int(1).ret_value();
        mb.handler(0, 3, 3, Some(other));
        cb.static_method(u, "missed", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    assert_eq!(
        vm.call_static_by_name("Sel", "caught", vec![]),
        Ok(Value::Int(1))
    );
    assert!(matches!(
        vm.call_static_by_name("Sel", "missed", vec![]),
        Err(VmError::Exception(_))
    ));
}

#[test]
fn native_hooks_dispatch_and_reenter() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Nat", rafda_classmodel::ClassKind::Class);
        let sig = u.sig("twice_of_plain", vec![Ty::Int]);
        cb.add_method(rafda_classmodel::Method {
            name: "twice_of_plain".into(),
            sig,
            params: vec![Ty::Int],
            ret: Ty::Int,
            visibility: Visibility::Public,
            is_static: true,
            is_native: true,
            body: None,
        });
        let mut mb = MethodBuilder::new(1);
        mb.load_local(0).const_int(1).add().ret_value();
        cb.static_method(u, "plain", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    let u = vm.universe().clone();
    let nat = u.by_name("Nat").unwrap();
    let sig = u.class(nat).methods[0].sig;
    // The hook re-enters the interpreter: twice_of_plain(x) = 2 * plain(x).
    vm.register_native(nat, sig, move |vm, args| {
        let x = args[0].clone();
        let r = vm.call_static_by_name("Nat", "plain", vec![x])?;
        let v = r.as_int().unwrap();
        Ok(Value::Int(v * 2))
    });
    assert_eq!(
        vm.call_static_by_name("Nat", "twice_of_plain", vec![Value::Int(10)]),
        Ok(Value::Int(22))
    );
    assert_eq!(vm.stats().native_calls, 1);
}

#[test]
fn missing_native_hook_is_a_trap() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Nat", rafda_classmodel::ClassKind::Class);
        cb.native_method(u, "orphan", vec![], Ty::Void);
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(u, vec![], Some(mb.finish()));
        cb.finish(u);
    });
    let nat = vm.universe().by_name("Nat").unwrap();
    let o = vm.new_instance(nat, 0, vec![]).unwrap();
    let err = vm.call_virtual_by_name(o, "orphan", vec![]).unwrap_err();
    assert!(matches!(err, VmError::Trap(Trap::NoNativeHook(_))));
}

#[test]
fn observer_records_trace() {
    let mut u = ClassUniverse::new();
    let ids = Vm::install_observer(&mut u);
    let mut cb = ClassBuilder::declare(&mut u, "Main", rafda_classmodel::ClassKind::Class);
    let mut mb = MethodBuilder::new(0);
    mb.const_long(7).invoke_static(ids.class, ids.emit, 1).pop();
    mb.const_str("done")
        .invoke_static(ids.class, ids.emit_str, 1)
        .pop();
    mb.ret();
    cb.static_method(&mut u, "main", vec![], Ty::Void, Some(mb.finish()));
    cb.finish(&mut u);
    rafda_classmodel::verify_universe(&u).unwrap();

    let vm = Vm::new(Arc::new(u));
    vm.bind_observer(&ids);
    let trace = vm.run_observed("Main", "main", vec![]);
    assert_eq!(
        trace.events(),
        &[TraceEvent::Emit(7), TraceEvent::EmitStr("done".to_owned())]
    );
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Spin", rafda_classmodel::ClassKind::Class);
        let mut mb = MethodBuilder::new(0);
        let top = mb.label();
        mb.bind(top);
        mb.jump(top);
        cb.static_method(u, "spin", vec![], Ty::Void, Some(mb.finish()));
        cb.finish(u);
    });
    vm.set_fuel(Some(10_000));
    let err = vm.call_static_by_name("Spin", "spin", vec![]).unwrap_err();
    assert_eq!(err, VmError::Trap(Trap::OutOfFuel));
}

#[test]
fn depth_limit_stops_unbounded_recursion() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Rec", rafda_classmodel::ClassKind::Class);
        let sig = u.sig("r", vec![]);
        let me = cb.id();
        let mut mb = MethodBuilder::new(0);
        mb.invoke_static(me, sig, 0).pop().ret();
        cb.static_method(u, "r", vec![], Ty::Void, Some(mb.finish()));
        cb.finish(u);
    });
    vm.set_max_depth(64);
    let err = vm.call_static_by_name("Rec", "r", vec![]).unwrap_err();
    assert_eq!(err, VmError::Trap(Trap::StackOverflow));
}

#[test]
fn arrays_allocate_index_and_bound_check() {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Arr", rafda_classmodel::ClassKind::Class);
        // static int get(int n, int i) { int[] a = new int[n]; a[0]=5; return a[i] + a.length; }
        let mut mb = MethodBuilder::new(2);
        let a = mb.alloc_local();
        mb.load_local(0).new_array(Ty::Int).store_local(a);
        mb.load_local(a).const_int(0).const_int(5).array_set();
        mb.load_local(a).load_local(1).array_get();
        mb.load_local(a).array_len();
        mb.add().ret_value();
        cb.static_method(u, "get", vec![Ty::Int, Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    assert_eq!(
        vm.call_static_by_name("Arr", "get", vec![Value::Int(3), Value::Int(0)]),
        Ok(Value::Int(8))
    );
    assert_eq!(
        vm.call_static_by_name("Arr", "get", vec![Value::Int(3), Value::Int(1)]),
        Ok(Value::Int(3))
    );
    let err = vm
        .call_static_by_name("Arr", "get", vec![Value::Int(3), Value::Int(7)])
        .unwrap_err();
    assert!(matches!(
        err,
        VmError::Trap(Trap::IndexOutOfBounds { index: 7, len: 3 })
    ));
}

#[test]
fn division_by_zero_and_null_deref_trap() {
    let vm = figure2_vm();
    let x = vm.universe().by_name("X").unwrap();
    // new X(null).m(1) -> null deref on y.n(j)
    let xo = vm.new_instance(x, 0, vec![Value::Null]).unwrap();
    let err = vm
        .call_virtual_by_name(xo, "m", vec![Value::Long(1)])
        .unwrap_err();
    assert_eq!(err, VmError::Trap(Trap::NullDeref));

    assert_eq!(
        bin_op(BinOp::Div, Value::Int(1), Value::Int(0)),
        Err(VmError::Trap(Trap::DivByZero))
    );
    assert_eq!(
        bin_op(BinOp::Rem, Value::Long(1), Value::Long(0)),
        Err(VmError::Trap(Trap::DivByZero))
    );
}

#[test]
fn instanceof_and_checkcast() {
    let vm = vm_with(|u| {
        sample::build_throwables(u);
    });
    let u = vm.universe().clone();
    let t = u.by_name("Throwable").unwrap();
    let e = u.by_name("AppError").unwrap();
    let eo = vm.new_instance(e, 0, vec![Value::Int(1)]).unwrap();
    let h = eo.as_ref_handle().unwrap();
    // Drive instanceof/checkcast through the step interface indirectly:
    assert!(u.is_subtype(vm.class_of(h).unwrap(), t));
    // CheckCast failure surfaces as ClassCast: cast a Throwable-only object
    // to AppError.
    let to = vm.new_instance(t, 0, vec![]).unwrap();
    let th = to.as_ref_handle().unwrap();
    assert!(!u.is_subtype(vm.class_of(th).unwrap(), e));
}

#[test]
fn in_place_swap_changes_dispatch_for_existing_references() {
    // The core RAFDA primitive: replace a live object with another
    // implementation; an existing reference now dispatches differently.
    let vm = vm_with(|u| {
        let iface = u.declare("I", rafda_classmodel::ClassKind::Interface);
        let sig = u.sig("v", vec![]);
        u.class_mut(iface).methods.push(rafda_classmodel::Method {
            name: "v".into(),
            sig,
            params: vec![],
            ret: Ty::Int,
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        });
        for (name, k) in [("Impl1", 1), ("Impl2", 2)] {
            let id = u.declare(name, rafda_classmodel::ClassKind::Class);
            let mut cb = ClassBuilder::new(u, id);
            cb.implements(iface);
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(u, vec![], Some(mb.finish()));
            let mut mb = MethodBuilder::new(1);
            mb.const_int(k).ret_value();
            cb.method(u, "v", vec![], Ty::Int, Some(mb.finish()));
            cb.finish(u);
        }
    });
    let u = vm.universe().clone();
    let i1 = u.by_name("Impl1").unwrap();
    let i2 = u.by_name("Impl2").unwrap();
    let obj = vm.new_instance(i1, 0, vec![]).unwrap();
    let h = obj.as_ref_handle().unwrap();
    assert_eq!(
        vm.call_virtual_by_name(obj.clone(), "v", vec![]),
        Ok(Value::Int(1))
    );
    assert!(vm.replace_object(h, i2, vec![]));
    assert_eq!(vm.call_virtual_by_name(obj, "v", vec![]), Ok(Value::Int(2)));
    assert_eq!(vm.stats().heap.replacements, 1);
}

#[test]
fn string_concat_and_comparison() {
    assert_eq!(
        bin_op(BinOp::Add, Value::str("foo"), Value::str("bar")),
        Ok(Value::str("foobar"))
    );
    assert_eq!(
        cmp_op(CmpOp::Lt, Value::str("a"), Value::str("b")),
        Ok(true)
    );
    assert_eq!(
        cmp_op(CmpOp::Eq, Value::str("a"), Value::str("a")),
        Ok(true)
    );
}

#[test]
fn conversions_cover_numeric_lattice() {
    assert_eq!(convert("long", Value::Int(-3)), Ok(Value::Long(-3)));
    assert_eq!(convert("int", Value::Long(1 << 40)), Ok(Value::Int(0)));
    assert_eq!(convert("double", Value::Int(2)), Ok(Value::Double(2.0)));
    assert_eq!(convert("int", Value::Double(3.9)), Ok(Value::Int(3)));
    assert!(convert("int", Value::str("x")).is_err());
}

#[test]
fn stats_count_steps_and_calls() {
    let vm = figure2_vm();
    vm.reset_stats();
    let _ = vm.call_static_by_name("X", "p", vec![Value::Int(6)]);
    let s = vm.stats();
    assert!(s.steps > 5, "steps = {}", s.steps);
    assert!(s.calls >= 3, "calls = {}", s.calls); // p, clinits, q…
}

#[test]
fn nan_ordering_is_false_like_java() {
    assert_eq!(
        cmp_op(CmpOp::Lt, Value::Double(f64::NAN), Value::Double(1.0)),
        Ok(false)
    );
    assert_eq!(
        cmp_op(CmpOp::Ge, Value::Double(f64::NAN), Value::Double(1.0)),
        Ok(false)
    );
}

#[test]
fn get_set_static_field_api() {
    let vm = figure2_vm();
    let y = vm.universe().by_name("Y").unwrap();
    assert_eq!(vm.get_static_field(y, 0), Ok(Value::Int(7)));
    vm.set_static_field(y, 0, Value::Int(9)).unwrap();
    assert_eq!(vm.get_static_field(y, 0), Ok(Value::Int(9)));
}

// ----------------------------------------------------------------------
// The frame contract: a call is a window on the executing stack
// ----------------------------------------------------------------------

/// `Win`: `leaf(a)` has two locals beyond its argument and returns `a` if
/// the last one reads null; `dirty()` leaves junk where `leaf`'s window
/// will be; `thrower(c)` throws `AppError(c)` and `mid(c)` calls it.
fn window_universe(u: &mut ClassUniverse) -> (ClassId, ClassId) {
    let (_t, e) = sample::build_throwables(u);
    let mut cb = ClassBuilder::declare(u, "Win", ClassKind::Class);
    let me = cb.id();

    let mut mb = MethodBuilder::new(1);
    mb.alloc_local();
    let last = mb.alloc_local();
    let filled = mb.label();
    mb.load_local(last).const_null().cmp(CmpOp::Eq);
    mb.jump_if_not(filled);
    mb.load_local(0).ret_value();
    mb.bind(filled);
    mb.const_int(-1).ret_value();
    cb.static_method(u, "leaf", vec![Ty::Int], Ty::Int, Some(mb.finish()));

    let mut mb = MethodBuilder::new(0);
    mb.const_int(1).const_int(2).const_int(3).const_int(4);
    mb.add().add().add().ret_value();
    cb.static_method(u, "dirty", vec![], Ty::Int, Some(mb.finish()));

    let mut mb = MethodBuilder::new(1);
    mb.load_local(0).new_init(e, 0, 1).throw();
    cb.static_method(u, "thrower", vec![Ty::Int], Ty::Int, Some(mb.finish()));

    let thrower = u.sig("thrower", vec![Ty::Int]);
    let mut mb = MethodBuilder::new(1);
    mb.const_int(55).load_local(0);
    mb.invoke_static(me, thrower, 1).add().ret_value();
    cb.static_method(u, "mid", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    (cb.finish(u), e)
}

#[test]
fn callee_window_is_null_padded_and_caller_operands_survive() {
    let vm = vm_with(|u| {
        let (win, e) = window_universe(u);
        let sig = |u: &mut ClassUniverse, name| u.sig(name, vec![Ty::Int]);
        let (leaf, mid) = (sig(u, "leaf"), sig(u, "mid"));
        let dirty = u.sig("dirty", vec![]);
        let code = u.sig("code", vec![]);
        let mut cb = ClassBuilder::declare(u, "Caller", ClassKind::Class);

        // static int plain(int x) { dirty(); return 100 + (20 + leaf(x)); }
        let mut mb = MethodBuilder::new(1);
        mb.invoke_static(win, dirty, 0).pop();
        mb.const_int(100).const_int(20).load_local(0);
        mb.invoke_static(win, leaf, 1).add().add().ret_value();
        cb.static_method(u, "plain", vec![Ty::Int], Ty::Int, Some(mb.finish()));

        // static int guarded(int x) {
        //   int s = 7;
        //   try { return 1000 + mid(x); }     // throws two frames down
        //   catch (AppError err) { return err.code() + s + x; }
        // }
        let mut mb = MethodBuilder::new(1);
        let s = mb.alloc_local();
        mb.const_int(7).store_local(s);
        let start = mb.pc();
        mb.const_int(1000).load_local(0);
        mb.invoke_static(win, mid, 1).add().ret_value();
        let handler = mb.pc();
        mb.invoke(code, 0).load_local(s).add().load_local(0).add();
        mb.ret_value();
        mb.handler(start, handler, handler, Some(e));
        cb.static_method(u, "guarded", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    let call = |m, x| vm.call_static_by_name("Caller", m, vec![Value::Int(x)]);
    assert_eq!(call("plain", 3), Ok(Value::Int(123)));
    // Handler entry keeps the locals (s, x) and pushes the exception.
    assert_eq!(call("guarded", 4), Ok(Value::Int(4 + 7 + 4)));
    // The unwound frames left nothing behind for the next call.
    assert_eq!(call("plain", 5), Ok(Value::Int(125)));
    assert_eq!(vm.state.borrow().cur_depth, 0);
}

#[test]
#[should_panic(expected = "verified stack underflow")]
fn handler_entry_drops_operands_and_a_pop_never_reaches_a_local() {
    // Unverifiable on purpose: the handler pops the exception and then
    // once more. Neither the operand the try block left (1000) nor the
    // local beneath the floor may satisfy that second pop.
    let mut u = ClassUniverse::new();
    let (win, e) = window_universe(&mut u);
    let mid = u.sig("mid", vec![Ty::Int]);
    let mut cb = ClassBuilder::declare(&mut u, "Bad", ClassKind::Class);
    let mut mb = MethodBuilder::new(1);
    mb.const_int(1000).load_local(0);
    mb.invoke_static(win, mid, 1).add().ret_value();
    let handler = mb.pc();
    mb.pop().pop().const_int(0).ret_value();
    mb.handler(0, handler, handler, Some(e));
    cb.static_method(&mut u, "f", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(&mut u);
    let vm = Vm::new(Arc::new(u));
    let _ = vm.call_static_by_name("Bad", "f", vec![Value::Int(1)]);
}

/// Declare `static native ret name(params)` on the class under construction.
fn static_native(
    cb: &mut ClassBuilder,
    u: &mut ClassUniverse,
    name: &str,
    params: Vec<Ty>,
    ret: Ty,
) -> SigId {
    let sig = u.sig(name, params.clone());
    cb.add_method(rafda_classmodel::Method {
        name: name.into(),
        sig,
        params,
        ret,
        visibility: Visibility::Public,
        is_static: true,
        is_native: true,
        body: None,
    });
    sig
}

/// `Re`: `hook(int)` is native; `plain(x) = x + 1`; `boom()` divides by
/// zero; `driver(x) = 1000 + hook(x) + t` with a local `t = 5`.
fn reentrant_vm() -> (Vm, ClassId, SigId) {
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Re", ClassKind::Class);
        let me = cb.id();
        let hook = static_native(&mut cb, u, "hook", vec![Ty::Int], Ty::Int);
        let mut mb = MethodBuilder::new(1);
        mb.alloc_local();
        mb.load_local(0).const_int(1).add().ret_value();
        cb.static_method(u, "plain", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        let mut mb = MethodBuilder::new(0);
        mb.const_int(1).const_int(0).div().ret_value();
        cb.static_method(u, "boom", vec![], Ty::Int, Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        let t = mb.alloc_local();
        mb.const_int(5).store_local(t);
        mb.const_int(1000).load_local(0);
        mb.invoke_static(me, hook, 1).add();
        mb.load_local(t).add().ret_value();
        cb.static_method(u, "driver", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    });
    let re = vm.universe().by_name("Re").unwrap();
    let hook = vm.universe().class(re).methods[0].sig;
    (vm, re, hook)
}

#[test]
fn reentrant_hook_runs_on_its_own_stack_and_depth_unwinds() {
    let (vm, re, hook) = reentrant_vm();
    // hook(x): x < 0 fails inside a nested call, otherwise 2 * plain(x).
    vm.register_native(re, hook, move |vm, args| {
        let depth = vm.state.borrow().cur_depth;
        assert_eq!(depth, 2, "driver + hook");
        assert_eq!(args.len(), 1, "the window is just the argument");
        assert_eq!(
            vm.state.borrow().spare.capacity(),
            0,
            "entry stack is taken"
        );
        let x = args[0].as_int().unwrap();
        let nested = if x < 0 {
            vm.call_static_by_name("Re", "boom", vec![])
        } else {
            vm.call_static_by_name("Re", "plain", vec![args[0].clone()])
        };
        // The nested run used another stack: this window did not move.
        assert_eq!(args, [Value::Int(x)]);
        assert_eq!(vm.state.borrow().cur_depth, depth);
        Ok(Value::Int(nested?.as_int().unwrap() * 2))
    });
    assert_eq!(
        vm.call_static_by_name("Re", "driver", vec![Value::Int(10)]),
        Ok(Value::Int(1000 + 22 + 5))
    );
    assert_eq!(vm.state.borrow().cur_depth, 0);
    assert_eq!(
        vm.call_static_by_name("Re", "driver", vec![Value::Int(-1)]),
        Err(VmError::Trap(Trap::DivByZero))
    );
    assert_eq!(vm.state.borrow().cur_depth, 0);
    // And the outer entry stack is back, empty, for the next top-level call.
    assert!(vm.state.borrow().spare.is_empty());
    assert_eq!(
        vm.call_static_by_name("Re", "driver", vec![Value::Int(0)]),
        Ok(Value::Int(1000 + 2 + 5))
    );
}

#[test]
fn stack_overflow_trips_at_the_same_nesting_plain_and_reentrant() {
    // static void r() { n++; r(); }    static void a() { n++; h(); }
    // with native h() re-entering a(): every frame, bytecode or native,
    // top-level or nested in a hook, counts once against the limit.
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Deep", ClassKind::Class);
        let me = cb.id();
        let n = cb.static_field(rafda_classmodel::Field::new("n", Ty::Int));
        let h = static_native(&mut cb, u, "h", vec![], Ty::Void);
        for (name, next) in [("r", u.sig("r", vec![])), ("a", h)] {
            let mut mb = MethodBuilder::new(0);
            mb.get_static(me, n).const_int(1).add().put_static(me, n);
            mb.invoke_static(me, next, 0).pop().ret();
            cb.static_method(u, name, vec![], Ty::Void, Some(mb.finish()));
        }
        cb.finish(u);
    });
    let deep = vm.universe().by_name("Deep").unwrap();
    let h = vm.universe().class(deep).methods[0].sig;
    vm.register_native(deep, h, |vm, _| vm.call_static_by_name("Deep", "a", vec![]));
    vm.set_max_depth(64);
    for (entry, frames_run) in [("r", 64), ("a", 32)] {
        vm.set_static_field(deep, 0, Value::Int(0)).unwrap();
        assert_eq!(
            vm.call_static_by_name("Deep", entry, vec![]),
            Err(VmError::Trap(Trap::StackOverflow))
        );
        assert_eq!(vm.get_static_field(deep, 0), Ok(Value::Int(frames_run)));
        assert_eq!(vm.state.borrow().cur_depth, 0);
    }
}

#[test]
fn failed_clinit_leaves_a_statics_row_and_never_reruns() {
    // static int f; static { f = 1; for (;;) {} }
    let vm = vm_with(|u| {
        let mut cb = ClassBuilder::declare(u, "Init", ClassKind::Class);
        let me = cb.id();
        let f = cb.static_field(rafda_classmodel::Field::new("f", Ty::Int));
        let mut mb = MethodBuilder::new(0);
        mb.const_int(1).put_static(me, f);
        let top = mb.label();
        mb.bind(top);
        mb.jump(top);
        cb.clinit(u, mb.finish());
        cb.finish(u);
    });
    let init = vm.universe().by_name("Init").unwrap();
    vm.set_fuel(Some(50));
    assert_eq!(
        vm.get_static_field(init, 0),
        Err(VmError::Trap(Trap::OutOfFuel))
    );
    assert_eq!(vm.stats().steps, 51, "the step that found the tank empty");
    vm.set_fuel(None);
    let before = vm.stats();
    assert_eq!(vm.get_static_field(init, 0), Ok(Value::Int(1)));
    assert_eq!(vm.stats(), before, "the initialiser did not run again");
    assert_eq!(vm.state.borrow().cur_depth, 0);
}

#[test]
fn figure2_static_path_work_counters_are_pinned() {
    // X.p(5) on the untransformed program (both <clinit>s included); the
    // transformed program's 55 / 13 / 2 are pinned in tests/overhead_ordering.rs.
    let vm = figure2_vm();
    assert_eq!(
        vm.call_static_by_name("X", "p", vec![Value::Int(5)]),
        Ok(Value::Int(35))
    );
    let s = vm.stats();
    assert_eq!((s.steps, s.calls, s.native_calls), (20, 5, 0));
}
