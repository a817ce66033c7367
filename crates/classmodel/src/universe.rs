//! The [`ClassUniverse`]: the interned collection of all classes, the
//! signature table, and the resolution queries (subtyping, dynamic dispatch,
//! field layout) shared by the transformation engine and the interpreter.

use crate::class::{Class, ClassKind, Method};
use crate::ty::Ty;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifier of a class or interface within a [`ClassUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Interned method signature id: two methods with the same [`MethodSig`]
/// (name + parameter types) share a `SigId`, which is the dynamic-dispatch
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

/// A method signature: name plus parameter types. Return types do not
/// participate in dispatch (as in the JVM source level).
///
/// The signature table owns both halves; every [`Method`] carrying the
/// signature holds the same two `Arc`s, so a member copied into an
/// interface, a local and its proxies copies no name and no list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodSig {
    /// Method name.
    pub name: Arc<str>,
    /// Parameter types (excluding any receiver).
    pub params: Arc<[Ty]>,
}

/// The collection of all classes plus interning tables.
///
/// Classes are *declared* first (reserving a [`ClassId`], so that mutually
/// recursive references can be built) and *defined* later. Undefined classes
/// are placeholders that fail verification.
#[derive(Debug, Default, Clone)]
pub struct ClassUniverse {
    classes: Vec<Class>,
    /// Keyed by the class's own `name`.
    by_name: HashMap<Arc<str>, ClassId>,
    sigs: Vec<MethodSig>,
    /// Keyed by [`sig_key`] of the signature's name and parameters; a
    /// signature whose key is taken sits at the next free key up.
    sig_ids: HashMap<u64, SigId>,
}

impl ClassUniverse {
    /// Create an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of classes (defined or declared).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the universe contains no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterate over all `(id, class)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }

    /// Declare a class name, reserving its id. The placeholder is an empty
    /// non-special class; it must be overwritten by [`define`](Self::define)
    /// before use.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn declare(&mut self, name: &str, kind: ClassKind) -> ClassId {
        assert!(
            !self.by_name.contains_key(name),
            "class `{name}` already declared"
        );
        let id = ClassId(self.classes.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.by_name.insert(name.clone(), id);
        self.classes.push(Class {
            name,
            kind,
            superclass: None,
            interfaces: Vec::new(),
            fields: Vec::new(),
            static_fields: Vec::new(),
            methods: Vec::new(),
            ctors: Vec::new(),
            clinit: None,
            is_special: false,
            is_abstract: kind == ClassKind::Interface,
            origin: crate::class::ClassOrigin::Original,
        });
        id
    }

    /// Replace the definition of a declared class. The class keeps the
    /// declared name's `Arc`, which is also its `by_name` key.
    ///
    /// # Panics
    /// Panics if the new definition changes the class name.
    pub fn define(&mut self, id: ClassId, class: Class) {
        let slot = &mut self.classes[id.0 as usize];
        assert_eq!(
            slot.name, class.name,
            "definition must keep the declared name"
        );
        let name = slot.name.clone();
        *slot = Class { name, ..class };
    }

    /// Declare and immediately define a class, returning its id.
    pub fn add(&mut self, class: Class) -> ClassId {
        let id = self.declare(&class.name, class.kind);
        self.define(id, class);
        id
    }

    /// Access a class by id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    /// Mutable access to a class by id.
    pub fn class_mut(&mut self, id: ClassId) -> &mut Class {
        &mut self.classes[id.0 as usize]
    }

    /// Look up a class id by name.
    pub fn by_name(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Intern a method signature. An existing one is found by its key
    /// without allocating, then compared in full; a key held by another
    /// signature (a 64-bit hash collision) moves the search one key up.
    pub fn sig(&mut self, name: &str, params: Vec<Ty>) -> SigId {
        let mut key = sig_key(name, &params);
        while let Some(&id) = self.sig_ids.get(&key) {
            let sig = &self.sigs[id.0 as usize];
            if *sig.name == *name && *sig.params == *params {
                return id;
            }
            key = key.wrapping_add(1);
        }
        let id = SigId(self.sigs.len() as u32);
        self.sigs.push(MethodSig {
            name: name.into(),
            params: params.into(),
        });
        self.sig_ids.insert(key, id);
        id
    }

    /// Resolve an interned signature.
    pub fn sig_info(&self, id: SigId) -> &MethodSig {
        &self.sigs[id.0 as usize]
    }

    /// Number of interned signatures.
    pub fn sig_count(&self) -> usize {
        self.sigs.len()
    }

    // ------------------------------------------------------------------
    // Resolution queries
    // ------------------------------------------------------------------

    /// The superclass chain of `id`, starting at `id` itself.
    pub fn ancestry(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = vec![id];
        let mut cur = id;
        while let Some(sup) = self.class(cur).superclass {
            out.push(sup);
            cur = sup;
        }
        out
    }

    /// Whether `sub` is a subtype of `sup` (reflexive; walks superclasses and
    /// all transitively implemented/extended interfaces).
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let c = self.class(sub);
        if let Some(s) = c.superclass {
            if self.is_subtype(s, sup) {
                return true;
            }
        }
        c.interfaces.iter().any(|&i| self.is_subtype(i, sup))
    }

    /// Resolve a virtual call: find the concrete method with signature `sig`
    /// starting at runtime class `class`, walking up the superclass chain.
    pub fn resolve_virtual(&self, class: ClassId, sig: SigId) -> Option<(ClassId, u16)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for (i, m) in cls.methods.iter().enumerate() {
                if m.sig == sig && !m.is_static {
                    return Some((c, i as u16));
                }
            }
            cur = cls.superclass;
        }
        None
    }

    /// Resolve a static call: find the static method with signature `sig`
    /// declared by `class` or (as in Java) an ancestor.
    pub fn resolve_static(&self, class: ClassId, sig: SigId) -> Option<(ClassId, u16)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for (i, m) in cls.methods.iter().enumerate() {
                if m.sig == sig && m.is_static {
                    return Some((c, i as u16));
                }
            }
            cur = cls.superclass;
        }
        None
    }

    /// Convenience: fetch the resolved [`Method`].
    pub fn method(&self, class: ClassId, index: u16) -> &Method {
        &self.class(class).methods[index as usize]
    }

    /// Total number of instance-field slots for an object of runtime class
    /// `id` (inherited fields first).
    pub fn instance_field_count(&self, id: ClassId) -> usize {
        let c = self.class(id);
        let base = c
            .superclass
            .map(|s| self.instance_field_count(s))
            .unwrap_or(0);
        base + c.fields.len()
    }

    /// Offset within an object's field slots of the fields *declared by*
    /// `id` (i.e. the number of inherited slots).
    pub fn field_base(&self, id: ClassId) -> usize {
        self.class(id)
            .superclass
            .map(|s| self.instance_field_count(s))
            .unwrap_or(0)
    }

    /// The full flattened field layout of class `id`:
    /// `(declaring class, declared index, field)` per slot, root-first.
    pub fn field_layout(&self, id: ClassId) -> Vec<(ClassId, u16)> {
        let mut out = match self.class(id).superclass {
            Some(s) => self.field_layout(s),
            None => Vec::new(),
        };
        for i in 0..self.class(id).fields.len() {
            out.push((id, i as u16));
        }
        out
    }

    /// All class ids referenced by the *signatures and field types* of class
    /// `id` (the reference notion of the Section 2.4 propagation rule),
    /// excluding `id` itself. Includes superclass and implemented
    /// interfaces.
    pub fn referenced_classes(&self, id: ClassId) -> Vec<ClassId> {
        let c = self.class(id);
        let mut out = Vec::new();
        let push = |x: Option<ClassId>, out: &mut Vec<ClassId>| {
            if let Some(cid) = x {
                if cid != id && !out.contains(&cid) {
                    out.push(cid);
                }
            }
        };
        push(c.superclass, &mut out);
        for &i in &c.interfaces {
            push(Some(i), &mut out);
        }
        for f in c.fields.iter().chain(c.static_fields.iter()) {
            push(f.ty.referenced_class(), &mut out);
        }
        for m in &c.methods {
            push(m.ret.referenced_class(), &mut out);
            for p in m.params.iter() {
                push(p.referenced_class(), &mut out);
            }
        }
        out
    }
}

/// The signature table's key for `name(params)`: a hash with fixed keys.
fn sig_key(name: &str, params: &[Ty]) -> u64 {
    let mut hasher = DefaultHasher::new();
    (name, params).hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassOrigin, Field, Visibility};

    fn mk(u: &mut ClassUniverse, name: &str, superclass: Option<ClassId>) -> ClassId {
        let id = u.declare(name, ClassKind::Class);
        let mut c = u.class(id).clone();
        c.superclass = superclass;
        c.origin = ClassOrigin::Original;
        u.define(id, c);
        id
    }

    #[test]
    fn declare_define_roundtrip() {
        let mut u = ClassUniverse::new();
        let a = u.declare("A", ClassKind::Class);
        assert_eq!(u.by_name("A"), Some(a));
        assert_eq!(&*u.class(a).name, "A");
        assert_eq!(u.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_declare_panics() {
        let mut u = ClassUniverse::new();
        u.declare("A", ClassKind::Class);
        u.declare("A", ClassKind::Interface);
    }

    #[test]
    fn sig_interning_dedupes() {
        let mut u = ClassUniverse::new();
        let s1 = u.sig("m", vec![Ty::Int]);
        let s2 = u.sig("m", vec![Ty::Int]);
        let s3 = u.sig("m", vec![Ty::Long]);
        let s4 = u.sig("n", vec![Ty::Int]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s1, s4);
        assert_eq!(&*u.sig_info(s1).name, "m");
        assert_eq!(u.sig_count(), 3);
    }

    #[test]
    fn members_share_their_signature() {
        let mut u = ClassUniverse::new();
        let a = u.sig("m", vec![Ty::Int]);
        let b = u.sig("m", vec![Ty::Long]);
        let c = u.sig("m", vec![]);
        assert_eq!([u.sig("m", vec![Ty::Long]), u.sig("m", vec![])], [b, c]);
        assert_ne!(a, b);
        let info = u.sig_info(b);
        assert_eq!(*info.params, [Ty::Long]);
        let m = Method::declared(&u, b, Ty::Void);
        assert!(Arc::ptr_eq(&m.name, &info.name) && Arc::ptr_eq(&m.params, &info.params));
        assert_eq!(u.sig_count(), 3);
    }

    #[test]
    fn a_signature_whose_key_is_taken_moves_one_key_up() {
        let mut u = ClassUniverse::new();
        let other = u.sig("other", vec![]);
        // `m(int)`'s key collides with `other()`'s.
        u.sig_ids.insert(sig_key("m", &[Ty::Int]), other);
        let m = u.sig("m", vec![Ty::Int]);
        assert_ne!(m, other);
        assert_eq!(u.sig("m", vec![Ty::Int]), m);
        assert_eq!(u.sig("other", vec![]), other);
        assert_eq!(u.sig_count(), 2);
    }

    #[test]
    fn a_class_name_is_its_by_name_key() {
        let mut u = ClassUniverse::new();
        let a = u.declare("A", ClassKind::Class);
        let redefined = u.class(a).clone();
        u.define(
            a,
            Class {
                name: "A".into(),
                ..redefined
            },
        );
        let (key, _) = u.by_name.get_key_value("A").unwrap();
        assert!(Arc::ptr_eq(key, &u.class(a).name));
    }

    #[test]
    fn subtype_walks_classes_and_interfaces() {
        let mut u = ClassUniverse::new();
        let obj = mk(&mut u, "Object", None);
        let i = u.declare("I", ClassKind::Interface);
        let a = mk(&mut u, "A", Some(obj));
        u.class_mut(a).interfaces.push(i);
        let b = mk(&mut u, "B", Some(a));
        assert!(u.is_subtype(b, b));
        assert!(u.is_subtype(b, a));
        assert!(u.is_subtype(b, obj));
        assert!(u.is_subtype(b, i));
        assert!(!u.is_subtype(a, b));
        assert!(!u.is_subtype(obj, i));
        assert_eq!(u.ancestry(b), vec![b, a, obj]);
    }

    #[test]
    fn virtual_resolution_prefers_subclass_override() {
        let mut u = ClassUniverse::new();
        let sig = u.sig("m", vec![]);
        let a = mk(&mut u, "A", None);
        let b = mk(&mut u, "B", Some(a));
        let mth = |sig| Method {
            name: "m".into(),
            sig,
            params: [].into(),
            ret: Ty::Void,
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        };
        u.class_mut(a).methods.push(mth(sig));
        assert_eq!(u.resolve_virtual(b, sig), Some((a, 0)));
        u.class_mut(b).methods.push(mth(sig));
        assert_eq!(u.resolve_virtual(b, sig), Some((b, 0)));
        assert_eq!(u.resolve_virtual(a, sig), Some((a, 0)));
    }

    #[test]
    fn static_resolution_ignores_instance_methods() {
        let mut u = ClassUniverse::new();
        let sig = u.sig("p", vec![]);
        let a = mk(&mut u, "A", None);
        u.class_mut(a).methods.push(Method {
            name: "p".into(),
            sig,
            params: [].into(),
            ret: Ty::Void,
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        });
        assert_eq!(u.resolve_static(a, sig), None);
        assert_eq!(u.resolve_virtual(a, sig), Some((a, 0)));
    }

    #[test]
    fn field_layout_is_root_first() {
        let mut u = ClassUniverse::new();
        let a = mk(&mut u, "A", None);
        u.class_mut(a).fields.push(Field::new("x", Ty::Int));
        let b = mk(&mut u, "B", Some(a));
        u.class_mut(b).fields.push(Field::new("y", Ty::Long));
        u.class_mut(b).fields.push(Field::new("z", Ty::Bool));
        assert_eq!(u.instance_field_count(b), 3);
        assert_eq!(u.field_base(b), 1);
        assert_eq!(u.field_base(a), 0);
        assert_eq!(u.field_layout(b), vec![(a, 0), (b, 0), (b, 1)]);
    }

    #[test]
    fn referenced_classes_covers_all_member_positions() {
        let mut u = ClassUniverse::new();
        let y = mk(&mut u, "Y", None);
        let z = mk(&mut u, "Z", None);
        let w = mk(&mut u, "W", None);
        let sup = mk(&mut u, "Sup", None);
        let x = mk(&mut u, "X", Some(sup));
        u.class_mut(x).fields.push(Field::new("y", Ty::Object(y)));
        u.class_mut(x)
            .static_fields
            .push(Field::new("z", Ty::Object(z).array_of()));
        let sig = u.sig("m", vec![Ty::Object(w)]);
        u.class_mut(x).methods.push(Method {
            name: "m".into(),
            sig,
            params: [Ty::Object(w)].into(),
            ret: Ty::Object(y),
            visibility: Visibility::Public,
            is_static: false,
            is_native: false,
            body: None,
        });
        let refs = u.referenced_classes(x);
        assert!(refs.contains(&y));
        assert!(refs.contains(&z));
        assert!(refs.contains(&w));
        assert!(refs.contains(&sup));
        assert!(!refs.contains(&x));
    }
}
