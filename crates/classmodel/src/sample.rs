//! The paper's running example (Figure 2) plus small helper programs used
//! throughout the test suites.
//!
//! Figure 2 of the paper:
//!
//! ```java
//! public class X {
//!     private Y y;
//!     public X(Y y) { this.y = y; }
//!     protected int m(long j) { return y.n(j); }
//!     static final Z z = new Z(Y.K);
//!     static int p(int i) { return z.q(i); }
//! }
//! ```
//!
//! We give the auxiliary classes `Y` and `Z` concrete behaviour so that the
//! equivalence experiments can observe results:
//!
//! * `Y` has an `int base` field, constructor `Y(int)`, instance method
//!   `int n(long j) = base + (int) j` and static field `K = 7`.
//! * `Z` has an `int c` field, constructor `Z(int)` and method
//!   `int q(int i) = i * c`.

use crate::builder::{ClassBuilder, MethodBuilder};
use crate::class::{ClassKind, Field, Visibility};
use crate::insn::UnOp;
use crate::ty::Ty;
use crate::universe::{ClassId, ClassUniverse};

/// The class ids of the Figure 2 sample program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleIds {
    /// The paper's sample class `X`.
    pub x: ClassId,
    /// Auxiliary class `Y` (field target, static `K`).
    pub y: ClassId,
    /// Auxiliary class `Z` (constructed in `X.<clinit>`).
    pub z: ClassId,
}

/// Build the Figure 2 sample program (`X`, `Y`, `Z`) into `universe` and
/// return the ids.
pub fn build_figure2(universe: &mut ClassUniverse) -> SampleIds {
    let xid = universe.declare("X", ClassKind::Class);
    let yid = universe.declare("Y", ClassKind::Class);
    let zid = universe.declare("Z", ClassKind::Class);

    // ---- class Y ----
    {
        let mut cb = ClassBuilder::new(universe, yid);
        let base = cb.field(Field::new("base", Ty::Int));
        let mut k_field = Field::new("K", Ty::Int);
        k_field.visibility = Visibility::Public;
        k_field.is_final = true;
        let k = cb.static_field(k_field);

        // Y(int base) { this.base = base; }
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(yid, base).ret();
        cb.ctor(universe, vec![Ty::Int], Some(mb.finish()));

        // int n(long j) { return base + (int) j; }
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(yid, base);
        mb.load_local(1).unop(UnOp::Convert("int"));
        mb.add().ret_value();
        cb.method(universe, "n", vec![Ty::Long], Ty::Int, Some(mb.finish()));

        // static { K = 7; }
        let mut mb = MethodBuilder::new(0);
        mb.const_int(7).put_static(yid, k).ret();
        cb.clinit(universe, mb.finish());
        cb.finish(universe);
    }

    // ---- class Z ----
    {
        let mut cb = ClassBuilder::new(universe, zid);
        let c = cb.field(Field::new("c", Ty::Int));

        // Z(int c) { this.c = c; }
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(zid, c).ret();
        cb.ctor(universe, vec![Ty::Int], Some(mb.finish()));

        // int q(int i) { return i * c; }
        let mut mb = MethodBuilder::new(2);
        mb.load_local(1);
        mb.load_this().get_field(zid, c);
        mb.mul().ret_value();
        cb.method(universe, "q", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(universe);
    }

    // ---- class X ----
    {
        let mut cb = ClassBuilder::new(universe, xid);
        let mut y_field = Field::new("y", Ty::Object(yid));
        y_field.visibility = Visibility::Private;
        let y = cb.field(y_field);
        let mut z_field = Field::new("z", Ty::Object(zid));
        z_field.visibility = Visibility::Package;
        z_field.is_final = true;
        let z = cb.static_field(z_field);

        // public X(Y y) { this.y = y; }
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(xid, y).ret();
        cb.ctor(universe, vec![Ty::Object(yid)], Some(mb.finish()));

        // protected int m(long j) { return y.n(j); }
        let n_sig = universe.sig("n", vec![Ty::Long]);
        let mut mb = MethodBuilder::new(2);
        mb.load_this().get_field(xid, y);
        mb.load_local(1);
        mb.invoke(n_sig, 1);
        mb.ret_value();
        let m_idx = cb.method(universe, "m", vec![Ty::Long], Ty::Int, Some(mb.finish()));
        // The paper declares m as protected.
        let method = m_idx as usize;
        // (patched below after finish — ClassBuilder defaults to public)

        // static int p(int i) { return z.q(i); }
        let q_sig = universe.sig("q", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(1);
        mb.get_static(xid, z);
        mb.load_local(0);
        mb.invoke(q_sig, 1);
        mb.ret_value();
        cb.static_method(universe, "p", vec![Ty::Int], Ty::Int, Some(mb.finish()));

        // static { z = new Z(Y.K); }
        let yk = universe.class(yid).static_field_index("K").unwrap();
        let mut mb = MethodBuilder::new(0);
        mb.get_static(yid, yk);
        mb.new_init(zid, 0, 1);
        mb.put_static(xid, z);
        mb.ret();
        cb.clinit(universe, mb.finish());

        cb.finish(universe);
        universe.class_mut(xid).methods[method].visibility = Visibility::Protected;
    }

    SampleIds {
        x: xid,
        y: yid,
        z: zid,
    }
}

/// Build a tiny `Throwable`-like special hierarchy:
/// `Throwable` (special) ← `AppError`. Returns `(throwable, app_error)`.
///
/// `AppError` carries an `int code` field with a matching constructor and
/// getter, so tests can observe which exception was thrown.
pub fn build_throwables(universe: &mut ClassUniverse) -> (ClassId, ClassId) {
    let t = universe.declare("Throwable", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(universe, t);
        cb.special();
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(universe, vec![], Some(mb.finish()));
        cb.finish(universe);
    }
    let e = universe.declare("AppError", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(universe, e);
        cb.superclass(t);
        cb.special();
        let code = cb.field(Field::new("code", Ty::Int));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(e, code).ret();
        cb.ctor(universe, vec![Ty::Int], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(e, code).ret_value();
        cb.method(universe, "code", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(universe);
    }
    (t, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_universe;

    #[test]
    fn figure2_sample_verifies() {
        let mut u = ClassUniverse::new();
        let ids = build_figure2(&mut u);
        verify_universe(&u).unwrap();
        assert_eq!(&*u.class(ids.x).name, "X");
        assert_eq!(u.class(ids.x).ctors.len(), 1);
        assert!(u.class(ids.x).clinit.is_some());
        assert_eq!(u.class(ids.y).static_field_index("K"), Some(0));
    }

    #[test]
    fn m_is_protected_as_in_the_paper() {
        let mut u = ClassUniverse::new();
        let ids = build_figure2(&mut u);
        let x = u.class(ids.x);
        let m = &x.methods[x.method_index("m").unwrap() as usize];
        assert_eq!(m.visibility, Visibility::Protected);
    }

    #[test]
    fn throwable_hierarchy_is_special() {
        let mut u = ClassUniverse::new();
        let (t, e) = build_throwables(&mut u);
        verify_universe(&u).unwrap();
        assert!(u.class(t).is_special);
        assert!(u.is_subtype(e, t));
    }

    #[test]
    fn x_references_y_and_z() {
        let mut u = ClassUniverse::new();
        let ids = build_figure2(&mut u);
        let refs = u.referenced_classes(ids.x);
        assert!(refs.contains(&ids.y));
        assert!(refs.contains(&ids.z));
    }
}
