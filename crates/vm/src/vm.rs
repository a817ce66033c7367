//! The interpreter: one [`Vm`] per simulated address space.

use crate::error::{Trap, VmError};
use crate::heap::{Handle, Heap, HeapEntry, HeapStats};
use crate::native::{NativeFn, NativeRegistry};
use crate::trace::{Trace, TraceEvent};
use crate::value::Value;
use rafda_classmodel::{
    BinOp, ClassId, ClassKind, ClassUniverse, CmpOp, Const, FieldRef, Insn, SigId, Ty, UnOp,
};
use std::cell::{Cell, RefCell};
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
    /// Indexed by `ClassId`: a row for each class whose initialisation has
    /// started (JVM §5.5: an in-progress class already reads as initialised
    /// to its own thread).
    statics: Vec<Option<Vec<Value>>>,
    /// The stack a top-level call runs on, kept between calls.
    spare: Vec<Value>,
    trace: Trace,
}

/// The work counters and limits: cells, so that executing a step takes no
/// borrow.
#[derive(Debug)]
struct Meter {
    steps: Cell<u64>,
    calls: Cell<u64>,
    native_calls: Cell<u64>,
    /// The step budget; `u64::MAX` is unlimited.
    fuel_limit: Cell<u64>,
    max_depth: Cell<u32>,
    cur_depth: Cell<u32>,
}

/// Which resolution a call asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    Virtual,
    Static,
}

/// Slots in a VM's dispatch cache: a power of two, well above the number of
/// `(kind, class, sig)` keys a program's hot loop uses.
const DISPATCH_SLOTS: usize = 1024;

/// A dispatch-cache entry: `(class, sig) → (owner, idx)`, held in the half
/// of the cache for its kind of lookup, with what the target is to a
/// quickened call. 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    class: ClassId,
    sig: SigId,
    owner: ClassId,
    idx: u16,
    access: Access,
}

impl Slot {
    /// Matches no key: no universe has `u32::MAX` classes.
    const EMPTY: Slot = Slot {
        class: ClassId(u32::MAX),
        sig: SigId(0),
        owner: ClassId(0),
        idx: 0,
        access: Access::PLAIN,
    };

    /// The slot a key maps to: Fibonacci hashing of `(class, sig)` into one
    /// half of the cache per kind, so a static and a virtual method under
    /// one signature never evict each other — and an entry's half is its
    /// kind, so the guard compares class and signature only.
    fn of(kind: Dispatch, class: ClassId, sig: SigId) -> usize {
        let key = class.0 ^ sig.0.rotate_left(16);
        let hash = key.wrapping_mul(0x9E37_79B9) >> (33 - DISPATCH_SLOTS.trailing_zeros());
        kind as usize * (DISPATCH_SLOTS / 2) + hash as usize
    }
}

/// What a resolved target is to an `Invoke`: an ordinary method, or a
/// generated property accessor whose field slot a quickened call reads or
/// writes in place. Packed into 16 bits, the slot above a two-bit tag, so a
/// dispatch-cache entry stays 16 bytes; an accessor of a slot past
/// [`Access::MAX_SLOT`] is left plain and always takes a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access(u16);

impl Access {
    /// An ordinary method: the call takes a frame.
    const PLAIN: Access = Access(0);
    const GET: u16 = 1;
    const SET: u16 = 2;
    /// The largest field slot the mark can name.
    const MAX_SLOT: usize = (u16::MAX >> 2) as usize;

    fn new(tag: u16, slot: usize) -> Access {
        if slot > Access::MAX_SLOT {
            return Access::PLAIN;
        }
        Access((slot as u16) << 2 | tag)
    }

    fn tag(self) -> u16 {
        self.0 & 3
    }

    fn slot(self) -> usize {
        usize::from(self.0 >> 2)
    }
}

/// What a VM knows of its universe's classes, worked out once in
/// [`Vm::new`]: nothing changes a universe once a VM runs over it. The
/// dispatch cache is the one part that fills in as calls are made — a miss
/// asks the universe and keeps its answer, so method resolution keeps one
/// definition and the cache only remembers it.
struct Link {
    /// Per class: the slot of its first declared instance field.
    field_base: Vec<usize>,
    /// Per class: a fresh instance's fields at their zero values, root
    /// class first.
    template: Vec<Vec<Value>>,
    /// Direct-mapped, indexed by [`Slot::of`].
    dispatch: Box<[Cell<Slot>]>,
}

impl Link {
    fn new(universe: &ClassUniverse) -> Self {
        let template = universe
            .iter()
            .map(|(id, _)| {
                universe
                    .ancestry(id)
                    .iter()
                    .rev()
                    .flat_map(|&c| &universe.class(c).fields)
                    .map(|f| Value::default_for(&f.ty))
                    .collect()
            })
            .collect();
        Link {
            field_base: universe
                .iter()
                .map(|(id, _)| universe.field_base(id))
                .collect(),
            template,
            dispatch: vec![Cell::new(Slot::EMPTY); DISPATCH_SLOTS].into_boxed_slice(),
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
    link: Rc<Link>,
    meter: Rc<Meter>,
    state: Rc<RefCell<VmState>>,
    natives: Rc<RefCell<NativeRegistry>>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("classes", &self.universe.len())
            .field("steps", &self.meter.steps.get())
            .field("live_objects", &self.state.borrow().heap.live())
            .finish()
    }
}

impl Vm {
    /// Create a VM over a (typically already transformed) class universe,
    /// linking every class once.
    pub fn new(universe: Arc<ClassUniverse>) -> Self {
        Vm {
            link: Rc::new(Link::new(&universe)),
            meter: Rc::new(Meter {
                steps: Cell::new(0),
                calls: Cell::new(0),
                native_calls: Cell::new(0),
                fuel_limit: Cell::new(u64::MAX),
                max_depth: Cell::new(512),
                cur_depth: Cell::new(0),
            }),
            state: Rc::new(RefCell::new(VmState {
                heap: Heap::new(),
                statics: vec![None; universe.len()],
                spare: Vec::new(),
                trace: Trace::new(),
            })),
            natives: Rc::new(RefCell::new(NativeRegistry::default())),
            universe,
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
        self.natives
            .borrow_mut()
            .register(&self.universe, class, sig, Rc::new(hook));
    }

    /// Limit total interpreter steps (`None` = unlimited).
    pub fn set_fuel(&self, limit: Option<u64>) {
        self.meter.fuel_limit.set(limit.unwrap_or(u64::MAX));
    }

    /// Limit call depth (default 512).
    pub fn set_max_depth(&self, max_depth: u32) {
        self.meter.max_depth.set(max_depth);
    }

    /// Snapshot the work counters.
    pub fn stats(&self) -> VmStats {
        VmStats {
            steps: self.meter.steps.get(),
            calls: self.meter.calls.get(),
            native_calls: self.meter.native_calls.get(),
            heap: self.state.borrow().heap.stats(),
        }
    }

    /// Reset the work counters (not the heap).
    pub fn reset_stats(&self) {
        let m = &self.meter;
        for counter in [&m.steps, &m.calls, &m.native_calls] {
            counter.set(0);
        }
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
        let mk = |sig: SigId| Method {
            is_static: true,
            is_native: true,
            ..Method::declared(universe, sig, Ty::Void)
        };
        let methods = vec![mk(emit), mk(emit_str), mk(emit_double)];
        universe.define(
            class,
            Class {
                name: "Observer".into(),
                kind: ClassKind::Class,
                superclass: None,
                interfaces: vec![],
                fields: vec![],
                static_fields: vec![],
                methods,
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

    /// Allocate a `class` instance with every field at its zero value and
    /// run no constructor: what `new` does before `<init>`, and what a
    /// generated factory's `make()` hands out.
    pub fn alloc_default(&self, class: ClassId) -> Handle {
        let fields = self.link.template[class.0 as usize].clone();
        self.alloc_raw(class, fields)
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
            for values in s.statics.iter().flatten() {
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
        let (owner, idx) = self.resolve(class, sig, Dispatch::Static)?;
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
        let (owner, idx) = self.resolve(class, sig, Dispatch::Virtual)?;
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
    /// kind of lookup.
    fn resolve(
        &self,
        class: ClassId,
        sig: SigId,
        kind: Dispatch,
    ) -> Result<(ClassId, u16), VmError> {
        self.target(class, sig, kind).map(|t| (t.owner, t.idx))
    }

    /// The dispatch-cache entry for `sig` on `class`, by the given kind of
    /// lookup: the entry the slot holds, or on a miss the universe's answer,
    /// which then takes the slot.
    #[inline]
    fn target(&self, class: ClassId, sig: SigId, kind: Dispatch) -> Result<Slot, VmError> {
        let slot = &self.link.dispatch[Slot::of(kind, class, sig)];
        let held = slot.get();
        if held.class == class && held.sig == sig {
            return Ok(held);
        }
        self.resolve_miss(slot, class, sig, kind)
    }

    /// The field slot an instance of `class` answers `sig` from, if `sig`
    /// dispatches there to a property getter: the mark the dispatch cache
    /// holds for the target — a non-native body without handlers that is
    /// exactly `LoadLocal 0; GetField f; ReturnValue` — which is the slot
    /// the getter's `GetField f` reads, `field_base[f.owner] + f.index`.
    /// `None` for any other target (a setter, a native or abstract method,
    /// any other body), for a getter of a slot past what the mark can name,
    /// and for a signature that does not resolve. Runs no bytecode: reading
    /// that slot of a state vector is what calling the getter on an object
    /// holding it would return, and it is the slot a quickened `Invoke` of
    /// that getter reads.
    pub fn getter_slot(&self, class: ClassId, sig: SigId) -> Option<usize> {
        let access = self.target(class, sig, Dispatch::Virtual).ok()?.access;
        (access.tag() == Access::GET).then(|| access.slot())
    }

    #[cold]
    #[inline(never)]
    fn resolve_miss(
        &self,
        slot: &Cell<Slot>,
        class: ClassId,
        sig: SigId,
        kind: Dispatch,
    ) -> Result<Slot, VmError> {
        let found = match kind {
            Dispatch::Virtual => self.universe.resolve_virtual(class, sig),
            Dispatch::Static => self.universe.resolve_static(class, sig),
        };
        let (owner, idx) = found.ok_or_else(|| {
            VmError::Trap(Trap::UnresolvedMethod(format!(
                "{}::{}",
                self.universe.class(class).name,
                self.universe.sig_info(sig).name
            )))
        })?;
        let access = match kind {
            Dispatch::Virtual => self.access_of(owner, idx),
            Dispatch::Static => Access::PLAIN,
        };
        let entry = Slot {
            class,
            sig,
            owner,
            idx,
            access,
        };
        slot.set(entry);
        Ok(entry)
    }

    /// The one place a generated property accessor is recognised: what a
    /// virtual call that resolved to method `idx` of `owner` amounts to. A
    /// non-native body without handlers that is exactly the getter
    /// `LoadLocal 0; GetField f; ReturnValue`, or exactly the one-parameter
    /// setter `LoadLocal 0; LoadLocal 1; PutField f; Return`, is marked with
    /// the slot `field_base[f.owner] + f.index` its field instruction
    /// touches; anything else — an override with another body included —
    /// is plain. Worked out once per dispatch-cache fill.
    fn access_of(&self, owner: ClassId, idx: u16) -> Access {
        let method = self.universe.method(owner, idx);
        let body = method.body.as_ref();
        let Some(body) = body.filter(|b| !method.is_native && b.handlers.is_empty()) else {
            return Access::PLAIN;
        };
        let slot = |f: &FieldRef| self.link.field_base[f.owner.0 as usize] + f.index as usize;
        match body.code.as_slice() {
            [Insn::LoadLocal(0), Insn::GetField(f), Insn::ReturnValue] => {
                Access::new(Access::GET, slot(f))
            }
            [Insn::LoadLocal(0), Insn::LoadLocal(1), Insn::PutField(f), Insn::Return]
                if method.params.len() == 1 =>
            {
                Access::new(Access::SET, slot(f))
            }
            _ => Access::PLAIN,
        }
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
        let mut trace = self.take_trace();
        trace.finish(self, result);
        trace
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
        if self.state.borrow().statics[class.0 as usize].is_some() {
            return Ok(());
        }
        let cls = self.universe.class(class);
        let defaults: Vec<Value> = cls
            .static_fields
            .iter()
            .map(|f| Value::default_for(&f.ty))
            .collect();
        self.state.borrow_mut().statics[class.0 as usize] = Some(defaults);
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
        let s = self.state.borrow();
        let row = s.statics[class.0 as usize].as_ref().expect("initialised");
        Ok(row[index as usize].clone())
    }

    /// Write a static field (initialising the class if needed).
    ///
    /// # Errors
    /// Initialisation errors.
    pub fn set_static_field(&self, class: ClassId, index: u16, v: Value) -> Result<(), VmError> {
        self.ensure_initialized(class)?;
        let mut s = self.state.borrow_mut();
        s.statics[class.0 as usize].as_mut().expect("initialised")[index as usize] = v;
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
        let h = self.alloc_default(class);
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
    /// `cur_depth` lives in the VM's meter, so re-entrant executions through
    /// native hooks — e.g. a remote callback arriving mid-call — keep
    /// accumulating against the limit.
    fn invoke(
        &self,
        class: ClassId,
        method_idx: u16,
        stack: &mut Vec<Value>,
        base: usize,
    ) -> Result<Value, VmError> {
        let meter = &*self.meter;
        meter.calls.set(meter.calls.get() + 1);
        let depth = meter.cur_depth.get() + 1;
        meter.cur_depth.set(depth);
        let result = 'frame: {
            if depth > meter.max_depth.get() {
                break 'frame Err(VmError::Trap(Trap::StackOverflow));
            }
            let method = self.universe.method(class, method_idx);
            if method.is_native {
                break 'frame self.call_native(class, method_idx, &stack[base..]);
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
                let steps = meter.steps.get() + 1;
                meter.steps.set(steps);
                if steps > meter.fuel_limit.get() {
                    break 'frame Err(VmError::Trap(Trap::OutOfFuel));
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
        meter.cur_depth.set(depth - 1);
        result
    }

    /// Make a call to a marked accessor in place: the receiver `h` is
    /// `stack[at]` (a setter's value above it), and the call reads or writes
    /// the marked field slot and leaves the result where `invoke`'s would
    /// be. No frame is pushed, but the meter is charged exactly what the
    /// frame would have cost — one call, and 3 steps for a getter or 4 for a
    /// setter — and a setter writes through [`Heap::set_field`], so the
    /// write is logged as any `PutField`'s. A failed field access charges
    /// the steps up to the faulting instruction, as the frame would.
    ///
    /// `Ok(false)`, with nothing done, when the call must take its frame:
    /// when the accessor's steps would pass the fuel limit or its frame the
    /// depth limit, so `OutOfFuel` and `StackOverflow` trap at the step and
    /// depth they always did.
    #[inline]
    fn quickened(
        &self,
        access: Access,
        h: Handle,
        stack: &mut Vec<Value>,
        at: usize,
    ) -> Result<bool, VmError> {
        let meter = &*self.meter;
        let steps = meter.steps.get();
        let cost = if access.tag() == Access::GET { 3 } else { 4 };
        if steps + cost > meter.fuel_limit.get() || meter.cur_depth.get() >= meter.max_depth.get() {
            return Ok(false);
        }
        meter.calls.set(meter.calls.get() + 1);
        let result = if access.tag() == Access::GET {
            let read = self.state.borrow().heap.field(h, access.slot()).cloned();
            // A getter faults at its second step, the `GetField`.
            meter.steps.set(steps + if read.is_some() { 3 } else { 2 });
            read
        } else {
            let v = stack.pop().expect("verified setter argument");
            let written = self.state.borrow_mut().heap.set_field(h, access.slot(), v);
            // A setter faults at its third step, the `PutField`.
            meter.steps.set(steps + if written { 4 } else { 3 });
            written.then_some(Value::Null)
        };
        let v = result.ok_or(VmError::Trap(Trap::StaleHandle))?;
        stack.truncate(at);
        stack.push(v);
        Ok(true)
    }

    /// Run the hook registered for native method `method_idx` of `class` on
    /// its argument window. Out of line, so that `invoke`'s frame, which
    /// every bytecode call pays for, stays small.
    #[inline(never)]
    fn call_native(
        &self,
        class: ClassId,
        method_idx: u16,
        args: &[Value],
    ) -> Result<Value, VmError> {
        let hook: Option<NativeFn> = self.natives.borrow().get(class, method_idx);
        let Some(hook) = hook else {
            return Err(VmError::Trap(Trap::NoNativeHook(format!(
                "{}::{}",
                self.universe.class(class).name,
                self.universe.method(class, method_idx).name
            ))));
        };
        let native_calls = &self.meter.native_calls;
        native_calls.set(native_calls.get() + 1);
        hook(self, args)
    }

    /// Execute one instruction of the frame whose locals are
    /// `stack[base..floor]` and whose operands are `stack[floor..]`.
    /// Inlined into `invoke`'s loop, so the outcome of an ordinary
    /// instruction never goes through memory.
    #[inline(always)]
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
                let offset = self.link.field_base[fr.owner.0 as usize] + fr.index as usize;
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
                let offset = self.link.field_base[fr.owner.0 as usize] + fr.index as usize;
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
                let target = self.target(rt_class, *sig, Dispatch::Virtual)?;
                if target.access == Access::PLAIN || !self.quickened(target.access, h, stack, at)? {
                    let r = self.invoke(target.owner, target.idx, stack, at)?;
                    stack.push(r);
                }
            }
            Insn::InvokeStatic { class, sig, argc } => {
                self.ensure_initialized(*class)?;
                let at = operands!(*argc as usize);
                let (owner, idx) = self.resolve(*class, *sig, Dispatch::Static)?;
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
