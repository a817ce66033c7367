//! Ergonomic builders for classes and method bodies.
//!
//! [`MethodBuilder`] assembles an instruction stream with forward-label
//! support and local-slot allocation; [`ClassBuilder`] assembles a [`Class`]
//! and installs it into a [`ClassUniverse`]. Both the hand-written sample
//! programs and the transformation engine's code generators use these.

use crate::class::{
    Class, ClassKind, ClassOrigin, Field, Method, MethodBody, TryHandler, Visibility,
};
use crate::insn::{BinOp, CmpOp, Const, FieldRef, Insn, UnOp};
use crate::ty::Ty;
use crate::universe::{ClassId, ClassUniverse, SigId};

/// A forward-referencable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Builds a [`MethodBody`] instruction by instruction.
///
/// # Example
///
/// ```
/// use rafda_classmodel::builder::MethodBuilder;
/// use rafda_classmodel::{Const, Insn};
///
/// let mut mb = MethodBuilder::new(1); // one parameter slot
/// mb.const_int(2);
/// mb.load_local(0);
/// mb.add();
/// mb.ret_value();
/// let body = mb.finish();
/// assert_eq!(body.code.len(), 4);
/// assert_eq!(body.max_locals, 1);
/// ```
#[derive(Debug, Default)]
pub struct MethodBuilder {
    code: Vec<Insn>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
    next_local: u16,
    max_locals: u16,
    handlers: Vec<TryHandler>,
}

impl MethodBuilder {
    /// Start a body for a method whose receiver+parameters occupy
    /// `param_slots` locals.
    pub fn new(param_slots: u16) -> Self {
        MethodBuilder {
            next_local: param_slots,
            max_locals: param_slots,
            ..Default::default()
        }
    }

    /// Current instruction index (the position the next emit lands at).
    pub fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Allocate a fresh local slot.
    pub fn alloc_local(&mut self) -> u16 {
        let l = self.next_local;
        self.next_local += 1;
        self.max_locals = self.max_locals.max(self.next_local);
        l
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.pc());
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, insn: Insn) -> &mut Self {
        self.code.push(insn);
        self
    }

    fn emit_branch(&mut self, label: Label, make: fn(u32) -> Insn) {
        self.patches.push((self.code.len(), label));
        self.code.push(make(u32::MAX));
    }

    // --- constants ---
    /// Push the `null` constant.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Insn::Const(Const::Null))
    }
    /// Push a boolean constant.
    pub fn const_bool(&mut self, v: bool) -> &mut Self {
        self.emit(Insn::Const(Const::Bool(v)))
    }
    /// Push an `int` constant.
    pub fn const_int(&mut self, v: i32) -> &mut Self {
        self.emit(Insn::Const(Const::Int(v)))
    }
    /// Push a `long` constant.
    pub fn const_long(&mut self, v: i64) -> &mut Self {
        self.emit(Insn::Const(Const::Long(v)))
    }
    /// Push a `double` constant.
    pub fn const_double(&mut self, v: f64) -> &mut Self {
        self.emit(Insn::Const(Const::Double(v)))
    }
    /// Push a string constant.
    pub fn const_str(&mut self, v: &str) -> &mut Self {
        self.emit(Insn::Const(Const::Str(v.to_owned())))
    }

    // --- locals ---
    /// Push local slot `n`.
    pub fn load_local(&mut self, n: u16) -> &mut Self {
        self.emit(Insn::LoadLocal(n))
    }
    /// Pop into local slot `n`.
    pub fn store_local(&mut self, n: u16) -> &mut Self {
        self.emit(Insn::StoreLocal(n))
    }
    /// Load `this` (local 0 of an instance method).
    pub fn load_this(&mut self) -> &mut Self {
        self.emit(Insn::LoadLocal(0))
    }

    // --- fields ---
    /// Read an instance field (`[obj] -> [v]`).
    pub fn get_field(&mut self, owner: ClassId, index: u16) -> &mut Self {
        self.emit(Insn::GetField(FieldRef { owner, index }))
    }
    /// Write an instance field (`[obj, v] -> []`).
    pub fn put_field(&mut self, owner: ClassId, index: u16) -> &mut Self {
        self.emit(Insn::PutField(FieldRef { owner, index }))
    }
    /// Read a static field.
    pub fn get_static(&mut self, owner: ClassId, index: u16) -> &mut Self {
        self.emit(Insn::GetStatic(FieldRef { owner, index }))
    }
    /// Write a static field.
    pub fn put_static(&mut self, owner: ClassId, index: u16) -> &mut Self {
        self.emit(Insn::PutStatic(FieldRef { owner, index }))
    }

    // --- calls / allocation ---
    /// Allocate + construct (`new` + `<init>$ctor`).
    pub fn new_init(&mut self, class: ClassId, ctor: u16, argc: u8) -> &mut Self {
        self.emit(Insn::NewInit { class, ctor, argc })
    }
    /// Virtual/interface call dispatched on the receiver.
    pub fn invoke(&mut self, sig: SigId, argc: u8) -> &mut Self {
        self.emit(Insn::Invoke { sig, argc })
    }
    /// Static call on `class`.
    pub fn invoke_static(&mut self, class: ClassId, sig: SigId, argc: u8) -> &mut Self {
        self.emit(Insn::InvokeStatic { class, sig, argc })
    }

    // --- control flow ---
    /// Return from a `void` method.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Insn::Return)
    }
    /// Return the top of stack.
    pub fn ret_value(&mut self) -> &mut Self {
        self.emit(Insn::ReturnValue)
    }
    /// Throw the exception on top of the stack.
    pub fn throw(&mut self) -> &mut Self {
        self.emit(Insn::Throw)
    }
    /// Unconditional branch to `l`.
    pub fn jump(&mut self, l: Label) -> &mut Self {
        self.emit_branch(l, Insn::Jump);
        self
    }
    /// Branch to `l` when the popped boolean is true.
    pub fn jump_if(&mut self, l: Label) -> &mut Self {
        self.emit_branch(l, Insn::JumpIf);
        self
    }
    /// Branch to `l` when the popped boolean is false.
    pub fn jump_if_not(&mut self, l: Label) -> &mut Self {
        self.emit_branch(l, Insn::JumpIfNot);
        self
    }

    // --- arithmetic & stack ---
    /// Pop two operands, push their sum.
    pub fn add(&mut self) -> &mut Self {
        self.emit(Insn::BinOp(BinOp::Add))
    }
    /// Pop two operands, push their difference.
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Insn::BinOp(BinOp::Sub))
    }
    /// Pop two operands, push their product.
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Insn::BinOp(BinOp::Mul))
    }
    /// Pop two operands, push their quotient.
    pub fn div(&mut self) -> &mut Self {
        self.emit(Insn::BinOp(BinOp::Div))
    }
    /// Emit an arbitrary binary operator.
    pub fn binop(&mut self, op: BinOp) -> &mut Self {
        self.emit(Insn::BinOp(op))
    }
    /// Emit a unary operator.
    pub fn unop(&mut self, op: UnOp) -> &mut Self {
        self.emit(Insn::UnOp(op))
    }
    /// Emit a comparison, pushing a boolean.
    pub fn cmp(&mut self, op: CmpOp) -> &mut Self {
        self.emit(Insn::Cmp(op))
    }
    /// Duplicate the top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Insn::Dup)
    }
    /// Discard the top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Insn::Pop)
    }
    /// Swap the two top stack values.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Insn::Swap)
    }

    // --- arrays ---
    /// Allocate an array (`[len] -> [arr]`).
    pub fn new_array(&mut self, elem: Ty) -> &mut Self {
        self.emit(Insn::NewArray(elem))
    }
    /// Index an array (`[arr, idx] -> [v]`).
    pub fn array_get(&mut self) -> &mut Self {
        self.emit(Insn::ArrayGet)
    }
    /// Store into an array (`[arr, idx, v] -> []`).
    pub fn array_set(&mut self) -> &mut Self {
        self.emit(Insn::ArraySet)
    }
    /// Push an array's length.
    pub fn array_len(&mut self) -> &mut Self {
        self.emit(Insn::ArrayLen)
    }

    /// Register an exception handler covering `[start, end)`.
    pub fn handler(&mut self, start: u32, end: u32, target: u32, catch: Option<ClassId>) {
        self.handlers.push(TryHandler {
            start,
            end,
            target,
            catch,
        });
    }

    /// Patch labels and produce the body.
    ///
    /// # Panics
    /// Panics if any referenced label was never bound.
    pub fn finish(self) -> MethodBody {
        let mut code = self.code;
        for (at, label) in self.patches {
            let target = self.labels[label.0].expect("unbound label at finish");
            match &mut code[at] {
                Insn::Jump(t) | Insn::JumpIf(t) | Insn::JumpIfNot(t) => *t = target,
                other => unreachable!("patch site is not a branch: {other:?}"),
            }
        }
        MethodBody {
            max_locals: self.max_locals,
            code,
            handlers: self.handlers,
        }
    }
}

/// Builds a [`Class`] and installs it into a [`ClassUniverse`].
///
/// The class must already be *declared* (so mutually recursive classes can
/// reference each other); `ClassBuilder::finish` overwrites the placeholder.
#[derive(Debug)]
pub struct ClassBuilder {
    id: ClassId,
    class: Class,
}

impl ClassBuilder {
    /// Start building the declared class `id`.
    pub fn new(universe: &ClassUniverse, id: ClassId) -> Self {
        let proto = universe.class(id);
        ClassBuilder {
            id,
            class: Class {
                name: proto.name.clone(),
                kind: proto.kind,
                superclass: None,
                interfaces: Vec::new(),
                fields: Vec::new(),
                static_fields: Vec::new(),
                methods: Vec::new(),
                ctors: Vec::new(),
                clinit: None,
                is_special: false,
                is_abstract: proto.kind == ClassKind::Interface,
                origin: ClassOrigin::Original,
            },
        }
    }

    /// Declare a fresh class in `universe` and start building it.
    pub fn declare(universe: &mut ClassUniverse, name: &str, kind: ClassKind) -> Self {
        let id = universe.declare(name, kind);
        Self::new(universe, id)
    }

    /// The id being built.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// Set the superclass.
    pub fn superclass(&mut self, sup: ClassId) -> &mut Self {
        self.class.superclass = Some(sup);
        self
    }

    /// Add an implemented interface.
    pub fn implements(&mut self, iface: ClassId) -> &mut Self {
        self.class.interfaces.push(iface);
        self
    }

    /// Mark the class as having special JVM semantics.
    pub fn special(&mut self) -> &mut Self {
        self.class.is_special = true;
        self
    }

    /// Mark the class abstract.
    pub fn abstract_(&mut self) -> &mut Self {
        self.class.is_abstract = true;
        self
    }

    /// Set the provenance of the class.
    pub fn origin(&mut self, origin: ClassOrigin) -> &mut Self {
        self.class.origin = origin;
        self
    }

    /// Add an instance field; returns its declared index.
    pub fn field(&mut self, field: Field) -> u16 {
        self.class.fields.push(field);
        (self.class.fields.len() - 1) as u16
    }

    /// Add a static field; returns its declared index.
    pub fn static_field(&mut self, field: Field) -> u16 {
        self.class.static_fields.push(field);
        (self.class.static_fields.len() - 1) as u16
    }

    /// Add a fully formed method; returns its index.
    pub fn add_method(&mut self, method: Method) -> u16 {
        let idx = self.class.methods.len() as u16;
        if method.is_ctor() {
            self.class.ctors.push(idx);
        }
        if method.is_clinit() {
            self.class.clinit = Some(idx);
        }
        self.class.methods.push(method);
        idx
    }

    /// Add a public instance method.
    pub fn method(
        &mut self,
        universe: &mut ClassUniverse,
        name: &str,
        params: Vec<Ty>,
        ret: Ty,
        body: Option<MethodBody>,
    ) -> u16 {
        let sig = universe.sig(name, params);
        self.add_method(Method {
            body,
            ..Method::declared(universe, sig, ret)
        })
    }

    /// Add a public static method.
    pub fn static_method(
        &mut self,
        universe: &mut ClassUniverse,
        name: &str,
        params: Vec<Ty>,
        ret: Ty,
        body: Option<MethodBody>,
    ) -> u16 {
        let sig = universe.sig(name, params);
        self.add_method(Method {
            is_static: true,
            body,
            ..Method::declared(universe, sig, ret)
        })
    }

    /// Add a native instance method (no body).
    pub fn native_method(
        &mut self,
        universe: &mut ClassUniverse,
        name: &str,
        params: Vec<Ty>,
        ret: Ty,
    ) -> u16 {
        let sig = universe.sig(name, params);
        self.add_method(Method {
            is_native: true,
            ..Method::declared(universe, sig, ret)
        })
    }

    /// Add a constructor (named `<init>$k` where `k` is its ordinal).
    pub fn ctor(
        &mut self,
        universe: &mut ClassUniverse,
        params: Vec<Ty>,
        body: Option<MethodBody>,
    ) -> u16 {
        let k = self.class.ctors.len();
        let sig = universe.sig(&format!("<init>${k}"), params);
        self.add_method(Method {
            body,
            ..Method::declared(universe, sig, Ty::Void)
        })
    }

    /// Add the static initialiser.
    pub fn clinit(&mut self, universe: &mut ClassUniverse, body: MethodBody) -> u16 {
        let sig = universe.sig("<clinit>", vec![]);
        self.add_method(Method {
            visibility: Visibility::Package,
            is_static: true,
            body: Some(body),
            ..Method::declared(universe, sig, Ty::Void)
        })
    }

    /// Install the built class, replacing the declared placeholder.
    pub fn finish(self, universe: &mut ClassUniverse) -> ClassId {
        universe.define(self.id, self.class);
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_patch_forward_and_backward() {
        let mut mb = MethodBuilder::new(1);
        let top = mb.label();
        mb.bind(top);
        let done = mb.label();
        mb.load_local(0);
        mb.jump_if_not(done);
        mb.jump(top);
        mb.bind(done);
        mb.ret();
        let body = mb.finish();
        assert_eq!(body.code[1], Insn::JumpIfNot(3));
        assert_eq!(body.code[2], Insn::Jump(0));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut mb = MethodBuilder::new(0);
        let l = mb.label();
        mb.jump(l);
        let _ = mb.finish();
    }

    #[test]
    fn local_allocation_tracks_max() {
        let mut mb = MethodBuilder::new(2);
        assert_eq!(mb.alloc_local(), 2);
        assert_eq!(mb.alloc_local(), 3);
        mb.ret();
        assert_eq!(mb.finish().max_locals, 4);
    }

    #[test]
    fn class_builder_assembles_members() {
        let mut u = ClassUniverse::new();
        let mut cb = ClassBuilder::declare(&mut u, "A", ClassKind::Class);
        let f = cb.field(Field::new("x", Ty::Int));
        let s = cb.static_field(Field::new("k", Ty::Long));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut u, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(cb.id(), f).ret_value();
        cb.method(&mut u, "x", vec![], Ty::Int, Some(mb.finish()));
        let a = cb.finish(&mut u);
        let c = u.class(a);
        assert_eq!(c.ctors, vec![0]);
        assert_eq!(&*c.methods[0].name, "<init>$0");
        assert_eq!(c.method_index("x"), Some(1));
        assert_eq!((f, s), (0, 0));
    }

    #[test]
    fn clinit_registered() {
        let mut u = ClassUniverse::new();
        let mut cb = ClassBuilder::declare(&mut u, "B", ClassKind::Class);
        let mut mb = MethodBuilder::new(0);
        mb.ret();
        cb.clinit(&mut u, mb.finish());
        let b = cb.finish(&mut u);
        assert_eq!(u.class(b).clinit, Some(0));
        assert!(u.class(b).methods[0].is_clinit());
    }
}
