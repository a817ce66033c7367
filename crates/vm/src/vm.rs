//! The interpreter: one [`Vm`] per simulated address space.

use crate::error::{Trap, VmError};
use crate::heap::{Handle, Heap, HeapEntry, HeapStats};
use crate::native::{NativeFn, NativeRegistry};
use crate::trace::{Trace, TraceEvent};
use crate::value::Value;
use rafda_classmodel::{
    BinOp, ClassId, ClassKind, ClassUniverse, CmpOp, Const, Insn, SigId, Ty, UnOp, Visibility,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Work counters exposed for the overhead experiments (E4/E8): interpreter
/// steps are the machine-independent cost metric.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions executed.
    pub steps: u64,
    /// Bytecode method invocations (all kinds).
    pub calls: u64,
    /// Native hook invocations.
    pub native_calls: u64,
    /// Heap statistics snapshot.
    pub heap: HeapStats,
}

#[derive(Debug)]
struct VmState {
    heap: Heap,
    /// One row per class whose initialisation has started (JVM §5.5: an
    /// in-progress class already reads as initialised to its own thread).
    statics: HashMap<ClassId, Vec<Value>>,
    /// The stack a top-level call runs on, kept between calls.
    spare: Vec<Value>,
    steps: u64,
    calls: u64,
    native_calls: u64,
    fuel_limit: Option<u64>,
    max_depth: u32,
    cur_depth: u32,
    trace: Trace,
}

impl Default for VmState {
    fn default() -> Self {
        VmState {
            heap: Heap::new(),
            statics: HashMap::new(),
            spare: Vec::new(),
            steps: 0,
            calls: 0,
            native_calls: 0,
            fuel_limit: None,
            max_depth: 512,
            cur_depth: 0,
            trace: Trace::new(),
        }
    }
}

/// Signature ids of the built-in `Observer` class installed by
/// [`Vm::install_observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverIds {
    /// The `Observer` class id.
    pub class: ClassId,
    /// `emit(long)` signature.
    pub emit: SigId,
    /// `emit_str(String)` signature.
    pub emit_str: SigId,
    /// `emit_double(double)` signature.
    pub emit_double: SigId,
}

/// An interpreter for the mini-bytecode, modelling one address space.
///
/// `Vm` is a cheap-to-clone handle over shared interior state, so native
/// hooks (proxies) can hold a `Vm` and re-enter execution.
#[derive(Clone)]
pub struct Vm {
    universe: Arc<ClassUniverse>,
    state: Rc<RefCell<VmState>>,
    natives: Rc<RefCell<NativeRegistry>>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Vm")
            .field("classes", &self.universe.len())
            .field("steps", &s.steps)
            .field("live_objects", &s.heap.live())
            .finish()
    }
}

impl Vm {
    /// Create a VM over a (typically already transformed) class universe.
    pub fn new(universe: Arc<ClassUniverse>) -> Self {
        Vm {
            universe,
            state: Rc::new(RefCell::new(VmState::default())),
            natives: Rc::new(RefCell::new(NativeRegistry::new())),
        }
    }

    /// The shared class universe.
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// Register a native hook for `(class, sig)`.
    pub fn register_native(
        &self,
        class: ClassId,
        sig: SigId,
        hook: impl Fn(&Vm, &[Value]) -> Result<Value, VmError> + 'static,
    ) {
        self.natives.borrow_mut().register(class, sig, hook);
    }

    /// Limit total interpreter steps (`None` = unlimited).
    pub fn set_fuel(&self, limit: Option<u64>) {
        self.state.borrow_mut().fuel_limit = limit;
    }

    /// Limit call depth (default 512).
    pub fn set_max_depth(&self, max_depth: u32) {
        self.state.borrow_mut().max_depth = max_depth;
    }

    /// Snapshot the work counters.
    pub fn stats(&self) -> VmStats {
        let s = self.state.borrow();
        VmStats {
            steps: s.steps,
            calls: s.calls,
            native_calls: s.native_calls,
            heap: s.heap.stats(),
        }
    }

    /// Reset the work counters (not the heap).
    pub fn reset_stats(&self) {
        let mut s = self.state.borrow_mut();
        s.steps = 0;
        s.calls = 0;
        s.native_calls = 0;
    }

    // ------------------------------------------------------------------
    // Trace / observer
    // ------------------------------------------------------------------

    /// Append an event to the observation trace.
    pub fn push_trace(&self, event: TraceEvent) {
        self.state.borrow_mut().trace.push(event);
    }

    /// Take the trace, leaving an empty one.
    pub fn take_trace(&self) -> Trace {
        std::mem::take(&mut self.state.borrow_mut().trace)
    }

    /// Clone the current trace.
    pub fn trace(&self) -> Trace {
        self.state.borrow().trace.clone()
    }

    /// Install the built-in `Observer` class into a universe (call **before**
    /// wrapping it in `Arc` and building VMs). Returns the ids needed by
    /// [`Vm::bind_observer`].
    ///
    /// `Observer` is marked *special*, so the transformation engine leaves it
    /// alone — like `java.lang.System`, it is part of the non-transformable
    /// JVM boundary.
    pub fn install_observer(universe: &mut ClassUniverse) -> ObserverIds {
        use rafda_classmodel::{Class, ClassOrigin, Method};
        let class = universe.declare("Observer", ClassKind::Class);
        let emit = universe.sig("emit", vec![Ty::Long]);
        let emit_str = universe.sig("emit_str", vec![Ty::Str]);
        let emit_double = universe.sig("emit_double", vec![Ty::Double]);
        let mk = |name: &str, sig: SigId, params: Vec<Ty>| Method {
            name: name.to_owned(),
            sig,
            params,
            ret: Ty::Void,
            visibility: Visibility::Public,
            is_static: true,
            is_native: true,
            body: None,
        };
        universe.define(
            class,
            Class {
                name: "Observer".to_owned(),
                kind: ClassKind::Class,
                superclass: None,
                interfaces: vec![],
                fields: vec![],
                static_fields: vec![],
                methods: vec![
                    mk("emit", emit, vec![Ty::Long]),
                    mk("emit_str", emit_str, vec![Ty::Str]),
                    mk("emit_double", emit_double, vec![Ty::Double]),
                ],
                ctors: vec![],
                clinit: None,
                is_special: true,
                is_abstract: false,
                origin: ClassOrigin::Original,
            },
        );
        ObserverIds {
            class,
            emit,
            emit_str,
            emit_double,
        }
    }

    /// Bind the `Observer` native hooks to this VM's trace.
    pub fn bind_observer(&self, ids: &ObserverIds) {
        self.bind_observer_to(ids, |vm, event| {
            vm.push_trace(event);
            Ok(())
        });
    }

    /// Bind the `Observer` native hooks to `sink`: the one place that says
    /// which arguments each hook accepts and which [`TraceEvent`] they make.
    pub fn bind_observer_to(
        &self,
        ids: &ObserverIds,
        sink: impl Fn(&Vm, TraceEvent) -> Result<(), VmError> + 'static,
    ) {
        type Decode = fn(&[Value]) -> Result<TraceEvent, VmError>;
        let hooks: [(SigId, Decode); 3] = [
            (ids.emit, |args| match args {
                [Value::Long(v)] => Ok(TraceEvent::Emit(*v)),
                [Value::Int(v)] => Ok(TraceEvent::Emit(i64::from(*v))),
                _ => Err(VmError::type_error("Observer.emit expects long")),
            }),
            (ids.emit_str, |args| match args {
                [Value::Str(s)] => Ok(TraceEvent::EmitStr(s.to_string())),
                _ => Err(VmError::type_error("Observer.emit_str expects String")),
            }),
            (ids.emit_double, |args| match args {
                [Value::Double(d)] => Ok(TraceEvent::EmitDouble(d.to_bits())),
                _ => Err(VmError::type_error("Observer.emit_double expects double")),
            }),
        ];
        let sink = Rc::new(sink);
        for (sig, decode) in hooks {
            let sink = Rc::clone(&sink);
            self.register_native(ids.class, sig, move |vm, args| {
                sink(vm, decode(args)?)?;
                Ok(Value::Null)
            });
        }
    }

    // ------------------------------------------------------------------
    // Heap access for the distributed runtime
    // ------------------------------------------------------------------

    /// Run a closure with mutable access to the heap.
    ///
    /// # Panics
    /// Panics if called re-entrantly from within another `with_heap` borrow.
    pub fn with_heap<R>(&self, f: impl FnOnce(&mut Heap) -> R) -> R {
        f(&mut self.state.borrow_mut().heap)
    }

    /// Read `(runtime class, field slots)` of a live object.
    pub fn read_object(&self, h: Handle) -> Option<(ClassId, Vec<Value>)> {
        match self.state.borrow().heap.get(h) {
            Some(HeapEntry::Object { class, fields }) => Some((*class, fields.clone())),
            _ => None,
        }
    }

    /// Allocate an object without running a constructor (used when
    /// materialising migrated state or proxies).
    pub fn alloc_raw(&self, class: ClassId, fields: Vec<Value>) -> Handle {
        self.state.borrow_mut().heap.alloc_object(class, fields)
    }

    /// Rewrite a live object in place (the boundary swap primitive).
    pub fn replace_object(&self, h: Handle, class: ClassId, fields: Vec<Value>) -> bool {
        self.state
            .borrow_mut()
            .heap
            .replace_object(h, class, fields)
            .is_some()
    }

    /// The runtime class of a live object.
    pub fn class_of(&self, h: Handle) -> Option<ClassId> {
        self.state.borrow().heap.class_of(h)
    }

    /// Whether the entry at `h` may have changed since the last
    /// [`Vm::clear_written`] on it (always `true` for a stale handle).
    pub fn written(&self, h: Handle) -> bool {
        self.state.borrow().heap.written(h)
    }

    /// Clear the written mark of `h`: the caller has just recorded the
    /// entry's current state and wants to hear of the next write.
    pub fn clear_written(&self, h: Handle) {
        self.state.borrow_mut().heap.clear_written(h)
    }

    /// Drain the heap's write log: see [`Heap::take_written`].
    pub fn take_written(&self) -> Option<Vec<Handle>> {
        self.state.borrow_mut().heap.take_written()
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// Roots are all static fields of initialised classes plus the
    /// caller-supplied `extra_roots` (a distributed runtime passes its
    /// exported objects, proxy imports and singletons). Everything
    /// unreachable is freed; returns the number of entries collected.
    ///
    /// Must not be called while interpretation is in progress (operand
    /// stacks and locals are not scanned) — the runtime only collects
    /// between top-level calls.
    pub fn gc(&self, extra_roots: &[Handle]) -> usize {
        let mut marked: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut work: Vec<Handle> = extra_roots.to_vec();
        {
            let s = self.state.borrow();
            for values in s.statics.values() {
                for v in values {
                    if let Value::Ref(h) = v {
                        work.push(*h);
                    }
                }
            }
        }
        while let Some(h) = work.pop() {
            if !marked.insert(h.index) {
                continue;
            }
            let fields: Vec<Value> = {
                let s = self.state.borrow();
                match s.heap.get(h) {
                    Some(HeapEntry::Object { fields, .. }) => fields.clone(),
                    Some(HeapEntry::Array { data, .. }) => data.clone(),
                    None => continue,
                }
            };
            for v in fields {
                if let Value::Ref(next) = v {
                    work.push(next);
                }
            }
        }
        self.state.borrow_mut().heap.sweep(&marked)
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Call a static method by resolved signature.
    ///
    /// # Errors
    /// Any [`VmError`] raised during execution.
    pub fn call_static(
        &self,
        class: ClassId,
        sig: SigId,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.ensure_initialized(class)?;
        let (owner, idx) = self.resolve(class, sig, ClassUniverse::resolve_static)?;
        self.on_entry_stack(|stack| {
            stack.extend(args);
            self.invoke(owner, idx, stack, 0)
        })
    }

    /// Call an instance method, dispatching on the receiver's runtime class.
    ///
    /// # Errors
    /// Any [`VmError`] raised during execution; `NullDeref` for a null
    /// receiver.
    pub fn call_virtual(
        &self,
        recv: Value,
        sig: SigId,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let h = match recv {
            Value::Ref(h) => h,
            Value::Null => return Err(VmError::Trap(Trap::NullDeref)),
            other => {
                return Err(VmError::type_error(format!(
                    "virtual call on non-reference {}",
                    other.kind()
                )))
            }
        };
        let class = self.class_of(h).ok_or(VmError::Trap(Trap::StaleHandle))?;
        let (owner, idx) = self.resolve(class, sig, ClassUniverse::resolve_virtual)?;
        self.on_entry_stack(|stack| {
            stack.push(Value::Ref(h));
            stack.extend(args);
            self.invoke(owner, idx, stack, 0)
        })
    }

    /// Construct an instance of `class` using constructor ordinal `ctor`.
    ///
    /// # Errors
    /// Any [`VmError`] raised by the constructor or class initialiser.
    pub fn new_instance(
        &self,
        class: ClassId,
        ctor: u16,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.ensure_initialized(class)?;
        self.on_entry_stack(|stack| {
            stack.extend(args);
            self.construct(class, ctor, stack, 0)
        })
    }

    /// Run `f` on the spare stack: the floor-0 window of a top-level call.
    /// A hook that re-enters the VM finds the spare taken and starts on a
    /// fresh one, so no two activations share a stack.
    fn on_entry_stack<R>(&self, f: impl FnOnce(&mut Vec<Value>) -> R) -> R {
        let mut stack = std::mem::take(&mut self.state.borrow_mut().spare);
        let r = f(&mut stack);
        stack.clear();
        self.state.borrow_mut().spare = stack;
        r
    }

    /// `(declaring class, method index)` of `sig` on `class`, by the given
    /// lookup.
    fn resolve(
        &self,
        class: ClassId,
        sig: SigId,
        lookup: impl FnOnce(&ClassUniverse, ClassId, SigId) -> Option<(ClassId, u16)>,
    ) -> Result<(ClassId, u16), VmError> {
        lookup(&self.universe, class, sig).ok_or_else(|| {
            VmError::Trap(Trap::UnresolvedMethod(format!(
                "{}::{}",
                self.universe.class(class).name,
                self.universe.sig_info(sig).name
            )))
        })
    }

    /// Resolve a static method by class & method *name* and call it
    /// (convenience for tests and examples; the first method with a matching
    /// name wins).
    ///
    /// # Errors
    /// `UnresolvedMethod` if the class or method does not exist, plus any
    /// execution error.
    pub fn call_static_by_name(
        &self,
        class_name: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let (class, sig) = self.lookup(class_name, method)?;
        self.call_static(class, sig, args)
    }

    /// Resolve an instance method by name on the receiver's class and call it.
    ///
    /// # Errors
    /// As for [`Vm::call_static_by_name`].
    pub fn call_virtual_by_name(
        &self,
        recv: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let h = recv.as_ref_handle().ok_or(VmError::Trap(Trap::NullDeref))?;
        let class = self.class_of(h).ok_or(VmError::Trap(Trap::StaleHandle))?;
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(idx) = self.universe.class(c).method_index(method) {
                let sig = self.universe.class(c).methods[idx as usize].sig;
                return self.call_virtual(recv, sig, args);
            }
            cur = self.universe.class(c).superclass;
        }
        Err(VmError::Trap(Trap::UnresolvedMethod(format!(
            "{}::{method}",
            self.universe.class(class).name
        ))))
    }

    fn lookup(&self, class_name: &str, method: &str) -> Result<(ClassId, SigId), VmError> {
        let class = self
            .universe
            .by_name(class_name)
            .ok_or_else(|| VmError::Trap(Trap::UnresolvedMethod(class_name.to_owned())))?;
        let idx = self
            .universe
            .class(class)
            .method_index(method)
            .ok_or_else(|| {
                VmError::Trap(Trap::UnresolvedMethod(format!("{class_name}::{method}")))
            })?;
        Ok((class, self.universe.class(class).methods[idx as usize].sig))
    }

    /// Run `class_name::method` and return the observable [`Trace`],
    /// including uncaught exceptions and network failures as terminal
    /// events. This is the entry point of the equivalence experiments (E7).
    pub fn run_observed(&self, class_name: &str, method: &str, args: Vec<Value>) -> Trace {
        self.take_trace();
        let result = self.call_static_by_name(class_name, method, args);
        match result {
            Ok(_) => {}
            Err(VmError::Exception(h)) => {
                let name = self
                    .class_of(h)
                    .map(|c| self.universe.class(c).name.clone())
                    .unwrap_or_else(|| "<stale>".to_owned());
                self.push_trace(TraceEvent::UncaughtException(name));
            }
            Err(e) if e.is_network() => {
                let msg = match e {
                    VmError::Native(msg) => msg,
                    other => other.to_string(),
                };
                self.push_trace(TraceEvent::NetworkFailure(msg));
            }
            Err(other) => {
                self.push_trace(TraceEvent::EmitStr(format!("<error: {other}>")));
            }
        }
        self.take_trace()
    }

    // ------------------------------------------------------------------
    // Class initialisation & statics
    // ------------------------------------------------------------------

    /// Ensure the class (and its superclasses) are initialised, running
    /// `<clinit>` if needed. A class is initialised — or being initialised,
    /// or failed to — exactly when it has a statics row, so an initialiser
    /// runs at most once.
    ///
    /// # Errors
    /// Any error raised by a static initialiser.
    pub fn ensure_initialized(&self, class: ClassId) -> Result<(), VmError> {
        if self.state.borrow().statics.contains_key(&class) {
            return Ok(());
        }
        let cls = self.universe.class(class);
        let defaults: Vec<Value> = cls
            .static_fields
            .iter()
            .map(|f| Value::default_for(&f.ty))
            .collect();
        self.state.borrow_mut().statics.insert(class, defaults);
        if let Some(sup) = cls.superclass {
            self.ensure_initialized(sup)?;
        }
        if let Some(ci) = cls.clinit {
            self.on_entry_stack(|stack| self.invoke(class, ci, stack, 0))?;
        }
        Ok(())
    }

    /// Read a static field (initialising the class if needed).
    ///
    /// # Errors
    /// Initialisation errors.
    pub fn get_static_field(&self, class: ClassId, index: u16) -> Result<Value, VmError> {
        self.ensure_initialized(class)?;
        Ok(self.state.borrow().statics[&class][index as usize].clone())
    }

    /// Write a static field (initialising the class if needed).
    ///
    /// # Errors
    /// Initialisation errors.
    pub fn set_static_field(&self, class: ClassId, index: u16, v: Value) -> Result<(), VmError> {
        self.ensure_initialized(class)?;
        self.state
            .borrow_mut()
            .statics
            .get_mut(&class)
            .expect("initialised")[index as usize] = v;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Core interpreter
    // ------------------------------------------------------------------

    /// Allocate a `class` instance and run constructor `ctor` on it. The
    /// constructor's arguments are `stack[base..]`; the fresh receiver is
    /// slotted in beneath them.
    fn construct(
        &self,
        class: ClassId,
        ctor: u16,
        stack: &mut Vec<Value>,
        base: usize,
    ) -> Result<Value, VmError> {
        let cls = self.universe.class(class);
        let &mi = cls.ctors.get(ctor as usize).ok_or_else(|| {
            VmError::Trap(Trap::UnresolvedMethod(format!(
                "{}::<init>${ctor}",
                cls.name
            )))
        })?;
        let defaults: Vec<Value> = self
            .universe
            .field_layout(class)
            .iter()
            .map(|&(owner, idx)| {
                Value::default_for(&self.universe.class(owner).fields[idx as usize].ty)
            })
            .collect();
        let h = self.state.borrow_mut().heap.alloc_object(class, defaults);
        stack.insert(base, Value::Ref(h));
        self.invoke(class, mi, stack, base)?;
        Ok(Value::Ref(h))
    }

    /// Execute method `method_idx` of `class`: the one way a call is made.
    ///
    /// The frame is a window on `stack`. The arguments (receiver first for
    /// instance methods) are `stack[base..]`, where the caller left them; a
    /// native hook is handed that slice, a bytecode body takes it as its
    /// first locals, null-pads up to `max_locals` and runs its operands
    /// above that floor. Every exit truncates back to `base` and the caller
    /// pushes the result.
    ///
    /// `cur_depth` lives in VM state, so re-entrant executions through
    /// native hooks — e.g. a remote callback arriving mid-call — keep
    /// accumulating against the limit.
    fn invoke(
        &self,
        class: ClassId,
        method_idx: u16,
        stack: &mut Vec<Value>,
        base: usize,
    ) -> Result<Value, VmError> {
        let result = 'frame: {
            {
                let mut s = self.state.borrow_mut();
                s.calls += 1;
                s.cur_depth += 1;
                if s.cur_depth > s.max_depth {
                    break 'frame Err(VmError::Trap(Trap::StackOverflow));
                }
            }
            let method = self.universe.method(class, method_idx);
            if method.is_native {
                let hook: Option<NativeFn> = self.natives.borrow().get(class, method.sig);
                let Some(hook) = hook else {
                    break 'frame Err(VmError::Trap(Trap::NoNativeHook(format!(
                        "{}::{}",
                        self.universe.class(class).name,
                        method.name
                    ))));
                };
                self.state.borrow_mut().native_calls += 1;
                break 'frame hook(self, &stack[base..]);
            }
            let Some(body) = method.body.as_ref() else {
                break 'frame Err(VmError::Trap(Trap::UnresolvedMethod(format!(
                    "abstract {}::{}",
                    self.universe.class(class).name,
                    method.name
                ))));
            };
            let floor = base + body.max_locals as usize;
            stack.resize(floor, Value::Null);
            let mut pc: u32 = 0;
            loop {
                {
                    let mut s = self.state.borrow_mut();
                    s.steps += 1;
                    if s.fuel_limit.is_some_and(|limit| s.steps > limit) {
                        break 'frame Err(VmError::Trap(Trap::OutOfFuel));
                    }
                }
                match self.step(&body.code[pc as usize], stack, base, floor) {
                    Ok(Flow::Next) => pc += 1,
                    Ok(Flow::Jump(t)) => pc = t,
                    Ok(Flow::Return(v)) => break 'frame Ok(v),
                    Err(VmError::Exception(exc)) => {
                        let Some(exc_class) = self.class_of(exc) else {
                            break 'frame Err(VmError::Trap(Trap::StaleHandle));
                        };
                        let handler = body.handlers.iter().find(|h| {
                            h.start <= pc
                                && pc < h.end
                                && h.catch
                                    .map(|c| self.universe.is_subtype(exc_class, c))
                                    .unwrap_or(true)
                        });
                        match handler {
                            Some(h) => {
                                stack.truncate(floor);
                                stack.push(Value::Ref(exc));
                                pc = h.target;
                            }
                            None => break 'frame Err(VmError::Exception(exc)),
                        }
                    }
                    Err(other) => break 'frame Err(other),
                }
            }
        };
        stack.truncate(base);
        self.state.borrow_mut().cur_depth -= 1;
        result
    }

    /// Execute one instruction of the frame whose locals are
    /// `stack[base..floor]` and whose operands are `stack[floor..]`.
    fn step(
        &self,
        insn: &Insn,
        stack: &mut Vec<Value>,
        base: usize,
        floor: usize,
    ) -> Result<Flow, VmError> {
        // The verifier proved operand depths; a pop that would reach below
        // the floor is a verifier bug, never a read of a local.
        macro_rules! operands {
            ($n:expr) => {
                stack
                    .len()
                    .checked_sub($n)
                    .filter(|&at| at >= floor)
                    .expect("verified stack underflow")
            };
        }
        macro_rules! pop {
            () => {{
                operands!(1);
                stack.pop().expect("verified stack underflow")
            }};
        }
        match insn {
            Insn::Const(c) => {
                stack.push(match c {
                    Const::Null => Value::Null,
                    Const::Bool(b) => Value::Bool(*b),
                    Const::Int(i) => Value::Int(*i),
                    Const::Long(i) => Value::Long(*i),
                    Const::Float(x) => Value::Float(*x),
                    Const::Double(x) => Value::Double(*x),
                    Const::Str(s) => Value::str(s),
                });
            }
            Insn::LoadLocal(n) => {
                let v = stack[base..floor][*n as usize].clone();
                stack.push(v);
            }
            Insn::StoreLocal(n) => {
                let v = pop!();
                stack[base..floor][*n as usize] = v;
            }
            Insn::GetField(fr) => {
                let h = ref_handle(&pop!())?;
                let offset = self.universe.field_base(fr.owner) + fr.index as usize;
                let v = self
                    .state
                    .borrow()
                    .heap
                    .field(h, offset)
                    .cloned()
                    .ok_or(VmError::Trap(Trap::StaleHandle))?;
                stack.push(v);
            }
            Insn::PutField(fr) => {
                let v = pop!();
                let h = ref_handle(&pop!())?;
                let offset = self.universe.field_base(fr.owner) + fr.index as usize;
                if !self.state.borrow_mut().heap.set_field(h, offset, v) {
                    return Err(VmError::Trap(Trap::StaleHandle));
                }
            }
            Insn::GetStatic(fr) => stack.push(self.get_static_field(fr.owner, fr.index)?),
            Insn::PutStatic(fr) => self.set_static_field(fr.owner, fr.index, pop!())?,
            Insn::NewInit { class, ctor, argc } => {
                self.ensure_initialized(*class)?;
                let at = operands!(*argc as usize);
                let obj = self.construct(*class, *ctor, stack, at)?;
                stack.push(obj);
            }
            Insn::Invoke { sig, argc } => {
                let at = operands!(*argc as usize + 1);
                let h = ref_handle(&stack[at])?;
                let rt_class = self.class_of(h).ok_or(VmError::Trap(Trap::StaleHandle))?;
                let (owner, idx) = self.resolve(rt_class, *sig, ClassUniverse::resolve_virtual)?;
                let r = self.invoke(owner, idx, stack, at)?;
                stack.push(r);
            }
            Insn::InvokeStatic { class, sig, argc } => {
                self.ensure_initialized(*class)?;
                let at = operands!(*argc as usize);
                let (owner, idx) = self.resolve(*class, *sig, ClassUniverse::resolve_static)?;
                let r = self.invoke(owner, idx, stack, at)?;
                stack.push(r);
            }
            Insn::Return => return Ok(Flow::Return(Value::Null)),
            Insn::ReturnValue => return Ok(Flow::Return(pop!())),
            Insn::Throw => return Err(VmError::Exception(ref_handle(&pop!())?)),
            Insn::Jump(t) => return Ok(Flow::Jump(*t)),
            Insn::JumpIf(t) => {
                let b = pop!()
                    .as_bool()
                    .ok_or_else(|| VmError::type_error("branch on non-boolean"))?;
                if b {
                    return Ok(Flow::Jump(*t));
                }
            }
            Insn::JumpIfNot(t) => {
                let b = pop!()
                    .as_bool()
                    .ok_or_else(|| VmError::type_error("branch on non-boolean"))?;
                if !b {
                    return Ok(Flow::Jump(*t));
                }
            }
            Insn::BinOp(op) => {
                let b = pop!();
                let a = pop!();
                stack.push(bin_op(*op, a, b)?);
            }
            Insn::UnOp(op) => {
                let a = pop!();
                stack.push(un_op(*op, a)?);
            }
            Insn::Cmp(op) => {
                let b = pop!();
                let a = pop!();
                stack.push(Value::Bool(cmp_op(*op, a, b)?));
            }
            Insn::NewArray(elem) => {
                let len = pop!()
                    .as_int()
                    .ok_or_else(|| VmError::type_error("array length must be int"))?;
                if len < 0 {
                    return Err(VmError::Trap(Trap::NegativeArrayLen));
                }
                let data = vec![Value::default_for(elem); len as usize];
                let h = self.state.borrow_mut().heap.alloc_array(elem.clone(), data);
                stack.push(Value::Ref(h));
            }
            Insn::ArrayGet => {
                let idx = pop!();
                let arr = pop!();
                stack.push(self.array_get(arr, idx)?);
            }
            Insn::ArraySet => {
                let v = pop!();
                let idx = pop!();
                let arr = pop!();
                self.array_set(arr, idx, v)?;
            }
            Insn::ArrayLen => {
                let h = ref_handle(&pop!())?;
                let len = match self.state.borrow().heap.get(h) {
                    Some(HeapEntry::Array { data, .. }) => data.len(),
                    Some(_) => return Err(VmError::type_error("arraylen of non-array")),
                    None => return Err(VmError::Trap(Trap::StaleHandle)),
                };
                stack.push(Value::Int(len as i32));
            }
            Insn::Dup => {
                let v = stack[operands!(1)].clone();
                stack.push(v);
            }
            Insn::Pop => {
                pop!();
            }
            Insn::Swap => {
                let at = operands!(2);
                stack.swap(at, at + 1);
            }
            Insn::InstanceOf(c) => {
                let v = pop!();
                let b = match v {
                    Value::Ref(h) => {
                        let rt = self.class_of(h);
                        match rt {
                            Some(rt) => self.universe.is_subtype(rt, *c),
                            None => false, // arrays are not class instances
                        }
                    }
                    _ => false,
                };
                stack.push(Value::Bool(b));
            }
            Insn::CheckCast(c) => {
                match &stack[operands!(1)] {
                    Value::Null => {}
                    Value::Ref(h) => {
                        if let Some(rt) = self.class_of(*h) {
                            if !self.universe.is_subtype(rt, *c) {
                                return Err(VmError::Trap(Trap::ClassCast));
                            }
                        }
                        // Arrays pass unchecked (the model does not type
                        // array references at cast sites).
                    }
                    _ => return Err(VmError::Trap(Trap::ClassCast)),
                }
            }
        }
        Ok(Flow::Next)
    }

    fn array_get(&self, arr: Value, idx: Value) -> Result<Value, VmError> {
        let h = ref_handle(&arr)?;
        let i = idx
            .as_int()
            .ok_or_else(|| VmError::type_error("array index must be int"))?;
        match self.state.borrow().heap.get(h) {
            Some(HeapEntry::Array { data, .. }) => data
                .get(i as usize)
                .cloned()
                .filter(|_| i >= 0)
                .ok_or(VmError::Trap(Trap::IndexOutOfBounds {
                    index: i64::from(i),
                    len: data.len(),
                })),
            Some(_) => Err(VmError::type_error("indexing a non-array")),
            None => Err(VmError::Trap(Trap::StaleHandle)),
        }
    }

    fn array_set(&self, arr: Value, idx: Value, v: Value) -> Result<(), VmError> {
        let h = ref_handle(&arr)?;
        let i = idx
            .as_int()
            .ok_or_else(|| VmError::type_error("array index must be int"))?;
        match self.state.borrow_mut().heap.get_mut(h) {
            Some(HeapEntry::Array { data, .. }) => {
                let len = data.len();
                if i < 0 || i as usize >= len {
                    return Err(VmError::Trap(Trap::IndexOutOfBounds {
                        index: i64::from(i),
                        len,
                    }));
                }
                data[i as usize] = v;
                Ok(())
            }
            Some(_) => Err(VmError::type_error("indexing a non-array")),
            None => Err(VmError::Trap(Trap::StaleHandle)),
        }
    }
}

enum Flow {
    Next,
    Jump(u32),
    Return(Value),
}

fn ref_handle(v: &Value) -> Result<Handle, VmError> {
    match v {
        Value::Ref(h) => Ok(*h),
        Value::Null => Err(VmError::Trap(Trap::NullDeref)),
        other => Err(VmError::type_error(format!(
            "expected reference, got {}",
            other.kind()
        ))),
    }
}

fn bin_op(op: BinOp, a: Value, b: Value) -> Result<Value, VmError> {
    use BinOp::*;
    use Value::*;
    Ok(match (op, a, b) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(_), Int(0)) | (Rem, Int(_), Int(0)) => {
            return Err(VmError::Trap(Trap::DivByZero))
        }
        (Div, Int(x), Int(y)) => Int(x.wrapping_div(y)),
        (Rem, Int(x), Int(y)) => Int(x.wrapping_rem(y)),
        (And, Int(x), Int(y)) => Int(x & y),
        (Or, Int(x), Int(y)) => Int(x | y),
        (Xor, Int(x), Int(y)) => Int(x ^ y),
        (Shl, Int(x), Int(y)) => Int(x.wrapping_shl(y as u32)),
        (Shr, Int(x), Int(y)) => Int(x.wrapping_shr(y as u32)),

        (Add, Long(x), Long(y)) => Long(x.wrapping_add(y)),
        (Sub, Long(x), Long(y)) => Long(x.wrapping_sub(y)),
        (Mul, Long(x), Long(y)) => Long(x.wrapping_mul(y)),
        (Div, Long(_), Long(0)) | (Rem, Long(_), Long(0)) => {
            return Err(VmError::Trap(Trap::DivByZero))
        }
        (Div, Long(x), Long(y)) => Long(x.wrapping_div(y)),
        (Rem, Long(x), Long(y)) => Long(x.wrapping_rem(y)),
        (And, Long(x), Long(y)) => Long(x & y),
        (Or, Long(x), Long(y)) => Long(x | y),
        (Xor, Long(x), Long(y)) => Long(x ^ y),
        (Shl, Long(x), Long(y)) => Long(x.wrapping_shl(y as u32)),
        (Shr, Long(x), Long(y)) => Long(x.wrapping_shr(y as u32)),

        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Rem, Float(x), Float(y)) => Float(x % y),

        (Add, Double(x), Double(y)) => Double(x + y),
        (Sub, Double(x), Double(y)) => Double(x - y),
        (Mul, Double(x), Double(y)) => Double(x * y),
        (Div, Double(x), Double(y)) => Double(x / y),
        (Rem, Double(x), Double(y)) => Double(x % y),

        (Add, Str(x), Str(y)) => Value::str(format!("{x}{y}")),
        (And, Bool(x), Bool(y)) => Bool(x && y),
        (Or, Bool(x), Bool(y)) => Bool(x || y),
        (Xor, Bool(x), Bool(y)) => Bool(x ^ y),

        (op, a, b) => {
            return Err(VmError::type_error(format!(
                "binop {op:?} on {} and {}",
                a.kind(),
                b.kind()
            )))
        }
    })
}

fn un_op(op: UnOp, a: Value) -> Result<Value, VmError> {
    use Value::*;
    Ok(match (op, a) {
        (UnOp::Neg, Int(x)) => Int(x.wrapping_neg()),
        (UnOp::Neg, Long(x)) => Long(x.wrapping_neg()),
        (UnOp::Neg, Float(x)) => Float(-x),
        (UnOp::Neg, Double(x)) => Double(-x),
        (UnOp::Not, Bool(x)) => Bool(!x),
        (UnOp::Not, Int(x)) => Int(!x),
        (UnOp::Not, Long(x)) => Long(!x),
        (UnOp::Convert(target), v) => convert(target, v)?,
        (op, v) => return Err(VmError::type_error(format!("unop {op:?} on {}", v.kind()))),
    })
}

fn convert(target: &str, v: Value) -> Result<Value, VmError> {
    use Value::*;
    let as_f64 = |v: &Value| -> Option<f64> {
        match v {
            Int(x) => Some(f64::from(*x)),
            Long(x) => Some(*x as f64),
            Float(x) => Some(f64::from(*x)),
            Double(x) => Some(*x),
            _ => None,
        }
    };
    let as_i64 = |v: &Value| -> Option<i64> {
        match v {
            Int(x) => Some(i64::from(*x)),
            Long(x) => Some(*x),
            Float(x) => Some(*x as i64),
            Double(x) => Some(*x as i64),
            _ => None,
        }
    };
    let out = match target {
        "int" => as_i64(&v).map(|x| Int(x as i32)),
        "long" => as_i64(&v).map(Long),
        "float" => as_f64(&v).map(|x| Float(x as f32)),
        "double" => as_f64(&v).map(Double),
        "string" => Some(Value::str(v.to_string())),
        _ => None,
    };
    out.ok_or_else(|| VmError::type_error(format!("cannot convert {} to {target}", v.kind())))
}

fn cmp_op(op: CmpOp, a: Value, b: Value) -> Result<bool, VmError> {
    use Value::*;
    // Equality first: defined for all same-kind values and null/ref mixes.
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            let eq = match (&a, &b) {
                (Null, Null) => true,
                (Null, Ref(_)) | (Ref(_), Null) => false,
                (Null, Str(_)) | (Str(_), Null) => false,
                (Ref(x), Ref(y)) => x == y,
                (Bool(x), Bool(y)) => x == y,
                (Int(x), Int(y)) => x == y,
                (Long(x), Long(y)) => x == y,
                (Float(x), Float(y)) => x == y,
                (Double(x), Double(y)) => x == y,
                (Str(x), Str(y)) => x == y,
                _ => {
                    return Err(VmError::type_error(format!(
                        "eq on {} and {}",
                        a.kind(),
                        b.kind()
                    )))
                }
            };
            return Ok(if op == CmpOp::Eq { eq } else { !eq });
        }
        _ => {}
    }
    let ord = match (&a, &b) {
        (Int(x), Int(y)) => x.partial_cmp(y),
        (Long(x), Long(y)) => x.partial_cmp(y),
        (Float(x), Float(y)) => x.partial_cmp(y),
        (Double(x), Double(y)) => x.partial_cmp(y),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        _ => {
            return Err(VmError::type_error(format!(
                "ordering on {} and {}",
                a.kind(),
                b.kind()
            )))
        }
    };
    let Some(ord) = ord else {
        return Ok(false); // NaN comparisons are false, as in Java
    };
    Ok(match op {
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
        CmpOp::Eq | CmpOp::Ne => unreachable!(),
    })
}

#[cfg(test)]
mod tests;
