//! Class, member and method-body metadata.

use crate::insn::{FieldRef, Insn};
use crate::ty::Ty;
use crate::universe::{ClassId, ClassUniverse, SigId};
use std::sync::Arc;

/// Java-style member visibility.
///
/// The transformation makes all members of a substitutable class `Public`
/// (Section 2.1: "Since all members will be accessed via an interface they
/// must be made public. This process is safe as the transformations are
/// performed on code that has already been verified by a standard
/// compiler.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Visibility {
    /// Visible only within the declaring class.
    Private,
    /// Package-private (the Java default).
    Package,
    /// Visible to subclasses and the package.
    Protected,
    /// Visible everywhere.
    Public,
}

/// Whether a [`Class`] entry is a class or an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// A concrete or abstract class.
    Class,
    /// An interface (no instance state, all methods bodiless).
    Interface,
}

/// Which half of an artefact family a generated class belongs to. The
/// paper turns a class's static members into the instance members of a
/// singleton (Section 2.2) precisely so both halves get the same treatment.
/// `side as usize` indexes a per-side pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Instance members (the `_O_` artefacts).
    Obj = 0,
    /// Static members, de-staticised (the `_C_` artefacts).
    Cls = 1,
}

/// Which artefact of its half a generated class is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Role {
    /// `A_O_Int` / `A_C_Int` — the extracted interface.
    Interface,
    /// `A_O_Local` / `A_C_Local` — the non-remote implementation.
    Local,
    /// `A_O_Proxy_<protocol>` / `A_C_Proxy_<protocol>` — a remote proxy.
    Proxy(String),
    /// `A_O_Factory` (`make` + `init$k`) / `A_C_Factory` (`discover` +
    /// `clinit`).
    Factory,
}

/// What kind of generated artefact a class is (for reporting and golden
/// tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GenKind {
    /// A member of the paper's artefact family of an original class `A`.
    Family(Side, Role),
    /// Wrapper class of the Section 3 baseline approach.
    Wrapper,
}

/// Provenance of a class in the universe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClassOrigin {
    /// Part of the original (untransformed) application or library.
    Original,
    /// Generated by the transformation engine from the given original class.
    Generated {
        /// The original class this artefact was derived from.
        from: ClassId,
        /// Which artefact of the family this is.
        kind: GenKind,
    },
}

/// A field declaration ("attribute" in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (unique within the declaring class).
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Declared visibility (forced to `Public` behind generated accessors).
    pub visibility: Visibility,
    /// Whether the field is `final`.
    pub is_final: bool,
}

impl Field {
    /// Convenience constructor for a private mutable field.
    pub fn new(name: impl Into<String>, ty: Ty) -> Self {
        Field {
            name: name.into(),
            ty,
            visibility: Visibility::Private,
            is_final: false,
        }
    }
}

/// An exception-handler table entry: if an exception of (a subclass of)
/// `catch` escapes instructions `[start, end)`, control transfers to
/// `target` with the exception pushed on an emptied stack. `catch == None`
/// catches everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryHandler {
    /// First covered instruction index (inclusive).
    pub start: u32,
    /// One past the last covered instruction index.
    pub end: u32,
    /// Handler entry point (stack holds just the exception).
    pub target: u32,
    /// Exception class caught (subclasses included); `None` catches all.
    pub catch: Option<ClassId>,
}

/// A method body: a register file of `max_locals` slots (parameters are
/// loaded into the leading slots, preceded by `this` for instance methods)
/// and a verified instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodBody {
    /// Number of local slots (receiver + parameters + temporaries).
    pub max_locals: u16,
    /// The instruction stream.
    pub code: Vec<Insn>,
    /// Exception-handler table.
    pub handlers: Vec<TryHandler>,
}

impl MethodBody {
    /// A body with no exception handlers.
    pub fn straight_line(code: Vec<Insn>, max_locals: u16) -> Self {
        MethodBody {
            max_locals,
            code,
            handlers: Vec::new(),
        }
    }

    /// The body with every instruction replaced by what `expand` appends
    /// for it. Branch targets and handler ranges name instructions of
    /// `self` and are moved to where those instructions' expansions start
    /// (a handler `end` one past the last pc maps to the new length);
    /// `max_locals` is carried over.
    pub fn splice(&self, mut expand: impl FnMut(&Insn, &mut Vec<Insn>)) -> MethodBody {
        let mut code = Vec::with_capacity(self.code.len());
        let mut new_pc = Vec::with_capacity(self.code.len() + 1);
        for insn in &self.code {
            new_pc.push(code.len() as u32);
            expand(insn, &mut code);
        }
        new_pc.push(code.len() as u32);
        for insn in &mut code {
            if let Insn::Jump(t) | Insn::JumpIf(t) | Insn::JumpIfNot(t) = insn {
                *t = new_pc[*t as usize];
            }
        }
        let handlers = self
            .handlers
            .iter()
            .map(|h| TryHandler {
                start: new_pc[h.start as usize],
                end: new_pc[h.end as usize],
                target: new_pc[h.target as usize],
                catch: h.catch,
            })
            .collect();
        MethodBody {
            max_locals: self.max_locals,
            code,
            handlers,
        }
    }
}

/// A method (including constructors, named `<init>$k`, and the static
/// initialiser `<clinit>`). Its `name` and `params` are those of its
/// signature, `universe.sig_info(sig)`, and share that entry's `Arc`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    /// Method name (constructors are `<init>$k`, the static initialiser is
    /// `<clinit>`).
    pub name: Arc<str>,
    /// Interned `(name, params)` signature; the dynamic-dispatch key.
    pub sig: SigId,
    /// Parameter types (excluding the receiver).
    pub params: Arc<[Ty]>,
    /// Return type (`Ty::Void` for procedures).
    pub ret: Ty,
    /// Declared visibility.
    pub visibility: Visibility,
    /// Whether the method is `static` (no receiver).
    pub is_static: bool,
    /// `native` methods have no body and make their class non-transformable
    /// (Section 2.4).
    pub is_native: bool,
    /// `None` for native and abstract/interface methods.
    pub body: Option<MethodBody>,
}

impl Method {
    /// A public instance method declaration of signature `sig`: no body, not
    /// native. Name and parameters are the signature table's.
    pub fn declared(universe: &ClassUniverse, sig: SigId, ret: Ty) -> Self {
        let info = universe.sig_info(sig);
        Method {
            name: info.name.clone(),
            sig,
            params: info.params.clone(),
            ret,
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        }
    }

    /// The property getter `ty name() { return this.field; }` of the
    /// parameter-less signature `sig`.
    pub fn getter(universe: &ClassUniverse, sig: SigId, ty: Ty, field: FieldRef) -> Self {
        let code = vec![Insn::LoadLocal(0), Insn::GetField(field), Insn::ReturnValue];
        Method {
            body: Some(MethodBody::straight_line(code, 1)),
            ..Self::declared(universe, sig, ty)
        }
    }

    /// The property setter `void name(ty v) { this.field = v; }` of the
    /// one-parameter signature `sig`.
    pub fn setter(universe: &ClassUniverse, sig: SigId, field: FieldRef) -> Self {
        let code = vec![
            Insn::LoadLocal(0),
            Insn::LoadLocal(1),
            Insn::PutField(field),
            Insn::Return,
        ];
        Method {
            body: Some(MethodBody::straight_line(code, 2)),
            ..Self::declared(universe, sig, Ty::Void)
        }
    }

    /// The parameter-less constructor `<init>$0() {}` every generated
    /// implementation class carries (the original constructors' logic moves
    /// to the factory's `init$k`).
    pub fn default_ctor(universe: &mut ClassUniverse) -> Self {
        let sig = universe.sig("<init>$0", vec![]);
        Method {
            body: Some(MethodBody::straight_line(vec![Insn::Return], 1)),
            ..Self::declared(universe, sig, Ty::Void)
        }
    }

    /// Number of local slots occupied by the receiver (if any) plus
    /// parameters.
    pub fn param_slots(&self) -> u16 {
        self.params.len() as u16 + u16::from(!self.is_static)
    }

    /// Whether this is a constructor (`<init>$k`).
    pub fn is_ctor(&self) -> bool {
        self.name.starts_with("<init>")
    }

    /// Whether this is the static initialiser.
    pub fn is_clinit(&self) -> bool {
        &*self.name == "<clinit>"
    }
}

/// A class or interface in the universe.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class name (unique within the universe); the universe's `by_name`
    /// key is this same `Arc`.
    pub name: Arc<str>,
    /// Whether this is a class or an interface.
    pub kind: ClassKind,
    /// Single superclass, if any (no universal root in this model).
    pub superclass: Option<ClassId>,
    /// Implemented interfaces (super-interfaces for interfaces).
    pub interfaces: Vec<ClassId>,
    /// Declared instance fields (inherited fields live on the superclass).
    pub fields: Vec<Field>,
    /// Declared static fields.
    pub static_fields: Vec<Field>,
    /// All methods, including constructors and `<clinit>`.
    pub methods: Vec<Method>,
    /// Indices into `methods` that are constructors, in declaration order.
    pub ctors: Vec<u16>,
    /// Index into `methods` of the static initialiser, if present.
    pub clinit: Option<u16>,
    /// Class has special JVM semantics (e.g. `Throwable` hierarchy, `Object`,
    /// `String`, `Class`) — never transformable (Section 2.4).
    pub is_special: bool,
    /// Whether the class is abstract (never instantiated).
    pub is_abstract: bool,
    /// Provenance: original program or generated artefact.
    pub origin: ClassOrigin,
}

impl Class {
    /// Whether any declared method is `native`.
    pub fn has_native_method(&self) -> bool {
        self.methods.iter().any(|m| m.is_native)
    }

    /// Find a declared method index by name (first match).
    pub fn method_index(&self, name: &str) -> Option<u16> {
        self.methods
            .iter()
            .position(|m| &*m.name == name)
            .map(|i| i as u16)
    }

    /// Find a declared instance-field index by name.
    pub fn field_index(&self, name: &str) -> Option<u16> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }

    /// Find a declared static-field index by name.
    pub fn static_field_index(&self, name: &str) -> Option<u16> {
        self.static_fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }

    /// Whether this entry is an interface.
    pub fn is_interface(&self) -> bool {
        self.kind == ClassKind::Interface
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_method(name: &str, is_static: bool, is_native: bool) -> Method {
        Method {
            name: name.into(),
            sig: SigId(0),
            params: [Ty::Int].into(),
            ret: Ty::Void,
            visibility: Visibility::Public,
            is_static,
            is_native,
            body: None,
        }
    }

    fn dummy_class(name: &str) -> Class {
        Class {
            name: name.into(),
            kind: ClassKind::Class,
            superclass: None,
            interfaces: vec![],
            fields: vec![Field::new("f", Ty::Int)],
            static_fields: vec![Field::new("s", Ty::Long)],
            methods: vec![
                dummy_method("<init>$0", false, false),
                dummy_method("m", false, false),
                dummy_method("<clinit>", true, false),
            ],
            ctors: vec![0],
            clinit: Some(2),
            is_special: false,
            is_abstract: false,
            origin: ClassOrigin::Original,
        }
    }

    #[test]
    fn member_lookup() {
        let c = dummy_class("A");
        assert_eq!(c.method_index("m"), Some(1));
        assert_eq!(c.method_index("zzz"), None);
        assert_eq!(c.field_index("f"), Some(0));
        assert_eq!(c.static_field_index("s"), Some(0));
        assert_eq!(c.static_field_index("f"), None);
    }

    #[test]
    fn ctor_and_clinit_detection() {
        let c = dummy_class("A");
        assert!(c.methods[0].is_ctor());
        assert!(!c.methods[1].is_ctor());
        assert!(c.methods[2].is_clinit());
    }

    #[test]
    fn param_slots_counts_receiver() {
        assert_eq!(dummy_method("m", false, false).param_slots(), 2);
        assert_eq!(dummy_method("p", true, false).param_slots(), 1);
    }

    #[test]
    fn native_detection() {
        let mut c = dummy_class("A");
        assert!(!c.has_native_method());
        c.methods.push(dummy_method("n", false, true));
        assert!(c.has_native_method());
    }

    #[test]
    fn splice_remaps_jumps_and_handlers() {
        // `Dup` grows to two instructions and `Pop` vanishes, so targets
        // after them move by +1 and then back by -1.
        let body = MethodBody {
            max_locals: 3,
            code: vec![
                Insn::JumpIf(3),    // 0 -> 0
                Insn::Dup,          // 1 -> 1,2
                Insn::JumpIfNot(1), // 2 -> 3
                Insn::Pop,          // 3 -> (nothing)
                Insn::Jump(4),      // 4 -> 4
                Insn::Return,       // 5 -> 5
            ],
            handlers: vec![
                TryHandler {
                    start: 1,
                    end: 3,
                    target: 5,
                    catch: Some(ClassId(7)),
                },
                // `end` is one past the last pc: it names no instruction.
                TryHandler {
                    start: 2,
                    end: 6,
                    target: 2,
                    catch: None,
                },
            ],
        };
        let out = body.splice(|insn, out| match insn {
            Insn::Dup => out.extend([Insn::Dup, Insn::Swap]),
            Insn::Pop => {}
            other => out.push(other.clone()),
        });
        assert_eq!(out.max_locals, 3);
        assert_eq!(
            out.code,
            [
                Insn::JumpIf(4),
                Insn::Dup,
                Insn::Swap,
                Insn::JumpIfNot(1),
                Insn::Jump(4),
                Insn::Return,
            ]
        );
        let ranges: Vec<_> = out
            .handlers
            .iter()
            .map(|h| (h.start, h.end, h.target, h.catch))
            .collect();
        assert_eq!(
            ranges,
            [(1, 4, 5, Some(ClassId(7))), (3, 6, 3, None)],
            "{out:?}"
        );
    }

    #[test]
    fn visibility_is_ordered() {
        assert!(Visibility::Private < Visibility::Public);
        assert!(Visibility::Protected < Visibility::Public);
    }
}
