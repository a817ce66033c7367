//! Native-method hooks.
//!
//! `native` methods in the class model have no bytecode body; when the
//! interpreter reaches one it calls the Rust closure registered for the
//! *(declaring class, signature)* pair. The distributed runtime implements
//! proxy methods this way: a proxy class's methods are all `native`, and the
//! registered hook marshals the call over the simulated network.
//!
//! Hooks receive the calling [`Vm`] handle and may re-enter the
//! interpreter (e.g. a remote callback executing locally).

use crate::error::VmError;
use crate::value::Value;
use crate::vm::Vm;
use rafda_classmodel::{ClassId, ClassUniverse, SigId};
use std::rc::Rc;

/// A native-method implementation. For instance methods `args[0]` is the
/// receiver; for static methods `args` are just the parameters.
pub type NativeFn = Rc<dyn Fn(&Vm, &[Value]) -> Result<Value, VmError>>;

/// A VM's native hooks, indexed by declaring class and then by method
/// index: the interpreter, which holds both, finds a hook without hashing.
#[derive(Default)]
pub(crate) struct NativeRegistry {
    hooks: Vec<Vec<Option<NativeFn>>>,
}

impl NativeRegistry {
    /// Register (or replace) `hook` for every method `class` declares with
    /// signature `sig`.
    pub(crate) fn register(
        &mut self,
        universe: &ClassUniverse,
        class: ClassId,
        sig: SigId,
        hook: NativeFn,
    ) {
        let methods = &universe.class(class).methods;
        let at = class.0 as usize;
        if self.hooks.len() <= at {
            self.hooks.resize_with(at + 1, Vec::new);
        }
        let row = &mut self.hooks[at];
        row.resize(methods.len(), None);
        for (slot, method) in row.iter_mut().zip(methods) {
            if method.sig == sig {
                *slot = Some(Rc::clone(&hook));
            }
        }
    }

    /// The hook of method `method` of `class`, if one is registered.
    pub(crate) fn get(&self, class: ClassId, method: u16) -> Option<NativeFn> {
        self.hooks
            .get(class.0 as usize)?
            .get(method as usize)?
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::{ClassKind, Method, Ty, Visibility};
    use std::sync::Arc;

    /// `N` declares a static `m()`, a virtual `m()` and a virtual `n()`.
    fn universe() -> (Vm, ClassId, SigId, SigId) {
        let mut u = ClassUniverse::new();
        let class = u.declare("N", ClassKind::Class);
        let (m, n) = (u.sig("m", vec![]), u.sig("n", vec![]));
        for (name, sig, is_static) in [("m", m, true), ("m", m, false), ("n", n, false)] {
            u.class_mut(class).methods.push(Method {
                name: name.into(),
                sig,
                params: vec![].into(),
                ret: Ty::Int,
                visibility: Visibility::Public,
                is_static,
                is_native: true,
                body: None,
            });
        }
        (Vm::new(Arc::new(u)), class, m, n)
    }

    fn answer(reg: &NativeRegistry, vm: &Vm, class: ClassId, method: u16) -> Option<Value> {
        reg.get(class, method).map(|hook| hook(vm, &[]).unwrap())
    }

    #[test]
    fn register_and_lookup() {
        // A hook serves every method of its signature, and no other.
        let (vm, class, m, _) = universe();
        let mut reg = NativeRegistry::default();
        reg.register(vm.universe(), class, m, Rc::new(|_, _| Ok(Value::Int(1))));
        assert_eq!(answer(&reg, &vm, class, 0), Some(Value::Int(1)));
        assert_eq!(answer(&reg, &vm, class, 1), Some(Value::Int(1)));
        assert_eq!(answer(&reg, &vm, class, 2), None);
        assert_eq!(answer(&reg, &vm, ClassId(class.0 + 1), 0), None);
    }

    #[test]
    fn replace_overwrites() {
        let (vm, class, m, n) = universe();
        let mut reg = NativeRegistry::default();
        reg.register(vm.universe(), class, n, Rc::new(|_, _| Ok(Value::Int(1))));
        reg.register(vm.universe(), class, m, Rc::new(|_, _| Ok(Value::Int(2))));
        reg.register(vm.universe(), class, n, Rc::new(|_, _| Ok(Value::Int(3))));
        assert_eq!(answer(&reg, &vm, class, 0), Some(Value::Int(2)));
        assert_eq!(answer(&reg, &vm, class, 2), Some(Value::Int(3)));
    }
}
