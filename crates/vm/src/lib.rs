//! # rafda-vm
//!
//! An interpreter for the `rafda-classmodel` mini-bytecode — the JVM
//! stand-in of the RAFDA reproduction.
//!
//! One [`Vm`] instance models one *address space* (one node of the
//! distributed system). The distributed runtime (`rafda-runtime`) creates a
//! `Vm` per simulated node, all sharing the same (transformed)
//! [`ClassUniverse`](rafda_classmodel::ClassUniverse).
//!
//! Design notes:
//!
//! * A `Vm` is a cheap-to-clone handle over interior state, so **native
//!   hooks can re-enter the interpreter** — this is exactly what a RAFDA
//!   proxy method does: its `native` body marshals the call, performs the
//!   simulated RPC, and the receiving node's `Vm` executes the real method,
//!   possibly calling back.
//! * Execution is observable: the built-in `Observer` class records emitted
//!   values into a [`trace::Trace`], which the semantic-equivalence
//!   experiments (paper Section 1: "semantically equivalent applications")
//!   compare across original / transformed-local / distributed runs.
//! * All work is accounted (interpreter steps, allocations, calls), giving a
//!   machine-independent cost metric for the overhead experiments.
//!
//! ## Example
//!
//! ```
//! use rafda_classmodel::{ClassUniverse, sample};
//! use rafda_vm::{Value, Vm};
//!
//! let mut universe = ClassUniverse::new();
//! let ids = sample::build_figure2(&mut universe);
//! let vm = Vm::new(std::sync::Arc::new(universe));
//! // X.p(6) == new Z(Y.K).q(6) == 6 * 7
//! let r = vm.call_static_by_name("X", "p", vec![Value::Int(6)]).unwrap();
//! assert_eq!(r, Value::Int(42));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod heap;
pub mod native;
pub mod trace;
pub mod value;
#[allow(clippy::module_inception)]
pub mod vm;

pub use error::{NetFailure, NetFailureKind, RpcFault, Trap, VmError};
pub use heap::{Handle, Heap, HeapEntry};
pub use native::{NativeFn, NativeRegistry};
pub use trace::{Trace, TraceEvent};
pub use value::Value;
pub use vm::{ObserverIds, Vm, VmStats};
