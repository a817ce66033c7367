//! Executable application generator.
//!
//! Produces a small, deterministic, *terminating* program with observable
//! output: a chain of classes `C0 … C(n-1)` where each `Ci` owns a `C(i+1)`,
//! carries integer state behind (to-be-transformed) fields, optionally has
//! static members, and emits results through the `Observer` built-in. The
//! semantic-equivalence property tests (E7) run the same generated program
//! as original bytecode, transformed-local, and distributed, and compare
//! traces; the overhead benchmarks (E4/E8) use it as a workload.

use crate::rng::Rng;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{BinOp, ClassId, ClassKind, ClassUniverse, CmpOp, Field, SigId, Ty, UnOp};

/// Where the generated program reports observable values: the class and
/// signature of `Observer.emit(long)` (install with
/// `rafda_vm::Vm::install_observer` and pass the ids here — the generator
/// itself has no dependency on the interpreter).
#[derive(Debug, Clone, Copy)]
pub struct ObserverHooks {
    /// The `Observer` class id.
    pub class: ClassId,
    /// The `emit(long)` signature.
    pub emit: SigId,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Chain length (number of generated classes).
    pub classes: usize,
    /// Extra integer fields per class (state width).
    pub int_fields: usize,
    /// Whether every third class gets static members (field + method +
    /// `<clinit>`).
    pub statics: bool,
    /// Whether every fourth class (from index 4 on) gets a `Ci_Sub`
    /// subclass overriding `compute`, which the driver also exercises.
    pub inheritance: bool,
    /// Whether every class gets an `int[]` scratch field folded into
    /// `compute` (exercises array allocation, indexing and marshalling).
    pub arrays: bool,
    /// RNG seed; also perturbs the arithmetic each class performs.
    pub seed: u64,
}

impl Default for AppSpec {
    fn default() -> Self {
        AppSpec {
            classes: 6,
            int_fields: 2,
            statics: true,
            inheritance: false,
            arrays: false,
            seed: 1,
        }
    }
}

/// What was generated.
#[derive(Debug, Clone)]
pub struct AppInfo {
    /// The generated chain classes, head first.
    pub classes: Vec<ClassId>,
    /// The driver class; run `Driver.main(seed)` to execute the workload.
    pub driver: ClassId,
    /// Classes that received static members.
    pub static_classes: Vec<ClassId>,
    /// `(base, subclass)` pairs generated when inheritance is enabled.
    pub subclasses: Vec<(ClassId, ClassId)>,
}

/// Generate the application into `universe`.
///
/// The program shape (all arithmetic is wrapping, all recursion is along
/// the finite chain, so every run terminates):
///
/// ```text
/// class Ci {
///     int f0 … f(k-1);  Ci+1 next;          // last class has no next
///     Ci(int seed) { f* = mix(seed); next = new Ci+1(seed + i + 1); }
///     int compute(int d) {
///         int acc = fj ⊕ d;                 // ⊕ per-class random op
///         if (next != null) acc = acc ⊕ next.compute(d + 1);
///         return acc;
///     }
///     void mutate(int v) { f0 = f0 + v; }
///     // every 3rd class, when statics are enabled:
///     static int total;  static { total = i; }
///     static int bump(int v) { total = total + v; return total; }
/// }
/// class Driver {
///     static int main(int seed) {
///         C0 root = new C0(seed);
///         Observer.emit(root.compute(1));
///         root.mutate(seed % 7 + 1);
///         Observer.emit(root.compute(2));
///         Observer.emit(Ci.bump(seed % 5 + 1)) for each static class;
///         return 0;
///     }
/// }
/// ```
pub fn generate_app(
    universe: &mut ClassUniverse,
    observer: ObserverHooks,
    spec: &AppSpec,
) -> AppInfo {
    assert!(spec.classes >= 1, "need at least one class");
    let mut rng = Rng::new(spec.seed);

    // Declare the chain (forward references to `next` need ids up front).
    let ids: Vec<ClassId> = (0..spec.classes)
        .map(|i| universe.declare(&format!("C{i}"), ClassKind::Class))
        .collect();
    let compute_sig = universe.sig("compute", vec![Ty::Int]);
    let mut static_classes = Vec::new();

    for (i, &id) in ids.iter().enumerate() {
        let next = ids.get(i + 1).copied();
        let op = match rng.below(4) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Xor,
            _ => BinOp::Mul,
        };
        let salt = (rng.below(97) + 3) as i32;
        let has_statics = spec.statics && i % 3 == 0;

        let mut cb = ClassBuilder::new(universe, id);
        // Fields.
        let mut int_fields = Vec::new();
        for k in 0..spec.int_fields.max(1) {
            int_fields.push(cb.field(Field::new(format!("f{k}"), Ty::Int)));
        }
        let next_field = next.map(|n| cb.field(Field::new("next", Ty::Object(n))));
        let scratch_field = spec
            .arrays
            .then(|| cb.field(Field::new("scratch", Ty::Int.array_of())));
        let total_field = has_statics.then(|| {
            static_classes.push(id);
            cb.static_field(Field::new("total", Ty::Int))
        });

        // Ci(int seed)
        {
            let mut mb = MethodBuilder::new(2);
            for (k, &fk) in int_fields.iter().enumerate() {
                mb.load_this();
                mb.load_local(1);
                mb.const_int(salt + k as i32);
                mb.binop(op);
                mb.put_field(id, fk);
            }
            if let (Some(n), Some(nf)) = (next, next_field) {
                mb.load_this();
                mb.load_local(1);
                mb.const_int(i as i32 + 1);
                mb.add();
                mb.new_init(n, 0, 1);
                mb.put_field(id, nf);
            }
            if let Some(sf) = scratch_field {
                // scratch = new int[3]; scratch[1] = seed * (i+2);
                let tmp = mb.alloc_local();
                mb.const_int(3).new_array(Ty::Int).store_local(tmp);
                mb.load_local(tmp);
                mb.const_int(1);
                mb.load_local(1).const_int(i as i32 + 2).mul();
                mb.array_set();
                mb.load_this().load_local(tmp).put_field(id, sf);
            }
            mb.ret();
            cb.ctor(universe, vec![Ty::Int], Some(mb.finish()));
        }

        // int compute(int d)
        {
            let mut mb = MethodBuilder::new(2);
            let acc = mb.alloc_local();
            let pick = int_fields[rng.below(int_fields.len())];
            mb.load_this();
            mb.get_field(id, pick);
            mb.load_local(1);
            mb.binop(op);
            mb.store_local(acc);
            if let Some(sf) = scratch_field {
                // acc = acc ⊕ scratch[1] + scratch.length
                mb.load_local(acc);
                mb.load_this().get_field(id, sf);
                mb.const_int(1);
                mb.array_get();
                mb.load_this().get_field(id, sf);
                mb.array_len();
                mb.add();
                mb.binop(op);
                mb.store_local(acc);
            }
            if let (Some(_n), Some(nf)) = (next, next_field) {
                let skip = mb.label();
                mb.load_this();
                mb.get_field(id, nf);
                mb.const_null();
                mb.cmp(CmpOp::Eq);
                mb.jump_if(skip);
                mb.load_local(acc);
                mb.load_this();
                mb.get_field(id, nf);
                mb.load_local(1);
                mb.const_int(1);
                mb.add();
                mb.invoke(compute_sig, 1);
                mb.binop(op);
                mb.store_local(acc);
                mb.bind(skip);
            }
            mb.load_local(acc);
            mb.ret_value();
            cb.method(
                universe,
                "compute",
                vec![Ty::Int],
                Ty::Int,
                Some(mb.finish()),
            );
        }

        // void mutate(int v)
        {
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_this();
            mb.get_field(id, int_fields[0]);
            mb.load_local(1);
            mb.add();
            mb.put_field(id, int_fields[0]);
            mb.ret();
            cb.method(
                universe,
                "mutate",
                vec![Ty::Int],
                Ty::Void,
                Some(mb.finish()),
            );
        }

        if let Some(tf) = total_field {
            // static int bump(int v) { total = total + v; return total; }
            let mut mb = MethodBuilder::new(1);
            mb.get_static(id, tf);
            mb.load_local(0);
            mb.add();
            mb.put_static(id, tf);
            mb.get_static(id, tf);
            mb.ret_value();
            cb.static_method(universe, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
            // static { total = i; }
            let mut mb = MethodBuilder::new(0);
            mb.const_int(i as i32);
            mb.put_static(id, tf);
            mb.ret();
            cb.clinit(universe, mb.finish());
        }

        cb.finish(universe);
    }

    // Subclasses overriding compute (inheritance coverage).
    let mut subclasses: Vec<(ClassId, ClassId)> = Vec::new();
    if spec.inheritance {
        for (i, &base) in ids.iter().enumerate() {
            if i % 4 != 0 || i + 1 >= spec.classes.max(1) {
                continue;
            }
            let sub = universe.declare(&format!("C{i}_Sub"), ClassKind::Class);
            let mut cb = ClassBuilder::new(universe, sub);
            cb.superclass(base);
            let extra = cb.field(Field::new("extra", Ty::Int));
            // Ci_Sub(int seed) { extra = seed + 13; }  (base fields stay at
            // defaults — the model has no constructor chaining)
            let mut mb = MethodBuilder::new(2);
            mb.load_this();
            mb.load_local(1).const_int(13).add();
            mb.put_field(sub, extra);
            mb.ret();
            cb.ctor(universe, vec![Ty::Int], Some(mb.finish()));
            // override: int compute(int d) { return extra - d; }
            let mut mb = MethodBuilder::new(2);
            mb.load_this().get_field(sub, extra);
            mb.load_local(1).sub();
            mb.ret_value();
            cb.method(
                universe,
                "compute",
                vec![Ty::Int],
                Ty::Int,
                Some(mb.finish()),
            );
            cb.finish(universe);
            subclasses.push((base, sub));
        }
    }

    // Driver.
    let driver = universe.declare("Driver", ClassKind::Class);
    let bump_sig = universe.sig("bump", vec![Ty::Int]);
    {
        let mut cb = ClassBuilder::new(universe, driver);
        let mut mb = MethodBuilder::new(1);
        let root = mb.alloc_local();
        mb.load_local(0);
        mb.new_init(ids[0], 0, 1);
        mb.store_local(root);
        let emit = |mb: &mut MethodBuilder| {
            mb.unop(UnOp::Convert("long"));
            mb.invoke_static(observer.class, observer.emit, 1);
            mb.pop();
        };
        mb.load_local(root);
        mb.const_int(1);
        mb.invoke(compute_sig, 1);
        emit(&mut mb);
        // root.mutate(seed % 7 + 1)
        mb.load_local(root);
        mb.load_local(0);
        mb.const_int(7);
        mb.binop(BinOp::Rem);
        mb.const_int(1);
        mb.add();
        let mutate_sig = universe.sig("mutate", vec![Ty::Int]);
        mb.invoke(mutate_sig, 1);
        mb.pop();
        mb.load_local(root);
        mb.const_int(2);
        mb.invoke(compute_sig, 1);
        emit(&mut mb);
        for &sc in &static_classes {
            mb.load_local(0);
            mb.const_int(5);
            mb.binop(BinOp::Rem);
            mb.const_int(1);
            mb.add();
            mb.invoke_static(sc, bump_sig, 1);
            emit(&mut mb);
        }
        // Exercise the overriding subclasses through base-typed dispatch.
        for &(_base, sub) in &subclasses {
            mb.load_local(0);
            mb.new_init(sub, 0, 1);
            mb.const_int(3);
            mb.invoke(compute_sig, 1);
            emit(&mut mb);
        }
        mb.const_int(0);
        mb.ret_value();
        cb.static_method(universe, "main", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(universe);
    }

    AppInfo {
        classes: ids,
        driver,
        static_classes,
        subclasses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer_stub(universe: &mut ClassUniverse) -> ObserverHooks {
        // A minimal Observer lookalike (native static emit(long)); real
        // callers use `Vm::install_observer`.
        let class = universe.declare("Observer", ClassKind::Class);
        let emit = universe.sig("emit", vec![Ty::Long]);
        let mut c = universe.class(class).clone();
        c.is_special = true;
        c.methods.push(rafda_classmodel::Method {
            name: "emit".into(),
            sig: emit,
            params: vec![Ty::Long].into(),
            ret: Ty::Void,
            visibility: rafda_classmodel::Visibility::Public,
            is_static: true,
            is_native: true,
            body: None,
        });
        universe.define(class, c);
        ObserverHooks { class, emit }
    }

    #[test]
    fn generated_app_verifies() {
        for seed in [1, 2, 3, 99] {
            let mut u = ClassUniverse::new();
            let obs = observer_stub(&mut u);
            let info = generate_app(
                &mut u,
                obs,
                &AppSpec {
                    inheritance: false,
                    arrays: false,
                    classes: 5,
                    int_fields: 3,
                    statics: true,
                    seed,
                },
            );
            rafda_classmodel::verify_universe(&u).expect("generated app verifies");
            assert_eq!(info.classes.len(), 5);
            assert_eq!(info.static_classes.len(), 2); // C0, C3
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |seed| {
            let mut u = ClassUniverse::new();
            let obs = observer_stub(&mut u);
            generate_app(
                &mut u,
                obs,
                &AppSpec {
                    seed,
                    ..Default::default()
                },
            );
            u
        };
        let a = build(7);
        let b = build(7);
        let c = build(8);
        for (id, class) in a.iter() {
            assert_eq!(class.methods.len(), b.class(id).methods.len());
        }
        // Different seeds give different arithmetic somewhere.
        let differs = a.iter().any(|(id, class)| {
            c.class(id)
                .methods
                .iter()
                .zip(&class.methods)
                .any(|(x, y)| x.body.as_ref().map(|b| &b.code) != y.body.as_ref().map(|b| &b.code))
        });
        assert!(differs);
    }

    #[test]
    fn single_class_chain_works() {
        let mut u = ClassUniverse::new();
        let obs = observer_stub(&mut u);
        let info = generate_app(
            &mut u,
            obs,
            &AppSpec {
                inheritance: false,
                arrays: false,
                classes: 1,
                int_fields: 1,
                statics: false,
                seed: 4,
            },
        );
        rafda_classmodel::verify_universe(&u).unwrap();
        assert!(info.static_classes.is_empty());
    }
}
