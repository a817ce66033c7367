//! The single-address-space runtime.
//!
//! "This approach has been implemented allowing the creation of a local
//! version of the transformed application that executes within a single
//! address space — the first step in creating a fully distributed version"
//! (paper, Section 4). [`LocalRuntime`] is that local version: a one-node
//! [`Cluster`] under [`StaticPolicy::new`], so `make()` and `discover()`
//! never cross the (non-existent) network.

use crate::cluster::Cluster;
use rafda_classmodel::ClassUniverse;
use rafda_net::NodeId;
use rafda_policy::StaticPolicy;
use rafda_transform::TransformPlan;
use rafda_vm::{Trace, Value, Vm, VmError};

/// The transformed application running in one address space.
#[derive(Debug, Clone)]
pub struct LocalRuntime {
    cluster: Cluster,
}

impl LocalRuntime {
    /// Deploy a transformed universe locally.
    pub fn new(universe: ClassUniverse, plan: TransformPlan) -> Self {
        LocalRuntime {
            cluster: Cluster::new(universe, plan, 1, 0, Box::new(StaticPolicy::new())),
        }
    }

    /// The single node's VM.
    pub fn vm(&self) -> Vm {
        self.cluster.vm(NodeId(0))
    }

    /// The underlying one-node cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Call a static method of the original program (via `discover()` for
    /// substitutable classes).
    ///
    /// # Errors
    /// Any [`VmError`].
    pub fn call_static(
        &self,
        class: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.cluster.call_static(NodeId(0), class, method, args)
    }

    /// Create an instance via the generated factory.
    ///
    /// # Errors
    /// Any [`VmError`].
    pub fn new_instance(&self, class: &str, ctor: u16, args: Vec<Value>) -> Result<Value, VmError> {
        self.cluster.new_instance(NodeId(0), class, ctor, args)
    }

    /// Invoke a method on a receiver.
    ///
    /// # Errors
    /// Any [`VmError`].
    pub fn call_method(
        &self,
        recv: Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.cluster.call_method(NodeId(0), recv, method, args)
    }

    /// Bind the `Observer` built-in to this runtime's trace.
    pub fn bind_observer(&self, ids: &rafda_vm::vm::ObserverIds) {
        self.cluster.bind_observer(ids);
    }

    /// Run an entry point and return the observation trace.
    pub fn run_observed(&self, class: &str, method: &str, args: Vec<Value>) -> Trace {
        self.cluster.run_observed(NodeId(0), class, method, args)
    }

    /// Pin a host-held reference as a GC root.
    pub fn pin(&self, value: &Value) {
        self.cluster.pin(NodeId(0), value);
    }

    /// Remove a pin added by [`LocalRuntime::pin`].
    pub fn unpin(&self, value: &Value) {
        self.cluster.unpin(NodeId(0), value);
    }

    /// Garbage-collect the address space; returns entries freed.
    pub fn gc(&self) -> usize {
        self.cluster.gc()[0]
    }

    /// Snapshot the object graph reachable from `root` (see
    /// [`Cluster::snapshot`]).
    ///
    /// # Errors
    /// [`VmError::Native`] for stale handles.
    pub fn snapshot(&self, root: rafda_vm::Handle) -> Result<crate::Snapshot, VmError> {
        self.cluster.snapshot(NodeId(0), root)
    }

    /// Restore a snapshot, returning the new root.
    ///
    /// # Errors
    /// See [`Cluster::restore`].
    pub fn restore(&self, snapshot: &crate::Snapshot) -> Result<Value, VmError> {
        self.cluster.restore(NodeId(0), snapshot)
    }
}
