//! Orthogonal persistence over the transformed object model.
//!
//! The paper's conclusions position the transformation as a general
//! componentisation: "This transformed version can be extended while
//! retaining program semantics in order to provide requirements such as
//! distribution **or persistence**" (Section 4; the related-work section
//! compares against Orthogonally Persistent Java). This module implements
//! that second extension: a [`Snapshot`] captures the object graph
//! reachable from a root — including cycles and shared sub-objects — and
//! can be restored into any node's heap, preserving the graph's shape.
//!
//! Like OPJ, persistence piggybacks on the same property the distribution
//! runtime relies on: after transformation every object is a flat record of
//! interface-typed slots, so state capture needs no per-class code.
//!
//! Proxies are snapshotted *as boundary markers* ([`SnapSlot::Remote`]):
//! a persisted graph that referred to a remote object reconnects to the
//! same remote object on restore (if it still exists) — the persistence
//! analogue of RAFDA's remote references.

use crate::cluster::{gen_info, read_proxy_state, Shared};
use crate::Cluster;
use rafda_net::NodeId;
use rafda_telemetry::FastMap;
use rafda_vm::{Handle, HeapEntry, Value, Vm, VmError};
use std::fmt;

/// One field slot of a persisted object.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapSlot {
    /// The `null` reference.
    Null,
    /// A boolean, by value.
    Bool(bool),
    /// A 32-bit integer, by value.
    Int(i32),
    /// A 64-bit integer, by value.
    Long(i64),
    /// A 32-bit float as IEEE-754 bits (exact round trip).
    Float(u32),
    /// A 64-bit float as IEEE-754 bits (exact round trip).
    Double(u64),
    /// A string, by value.
    Str(String),
    /// Reference to another object *within* the snapshot (by index) —
    /// this is what makes cycles and sharing round-trip.
    Intern(usize),
    /// A distribution boundary: a reference to an object exported by
    /// another node, reconnected on restore.
    Remote {
        /// The owning node.
        node: u32,
        /// The export id there.
        oid: u64,
        /// The implementation class name (picks the proxy family).
        class: String,
    },
}

/// One persisted object: class name plus slots.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapObject {
    /// Class name (`"[]"` for arrays).
    pub class: String,
    /// Whether this entry is an array (slots are then elements).
    pub is_array: bool,
    /// Field slots or array elements.
    pub slots: Vec<SnapSlot>,
}

/// A persisted object graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    objects: Vec<SnapObject>,
    root: usize,
}

impl Snapshot {
    /// Number of objects captured.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the snapshot is empty (never true for a successful capture).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The captured objects (root first).
    pub fn objects(&self) -> &[SnapObject] {
        &self.objects
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "snapshot of {} objects (root #{}):",
            self.objects.len(),
            self.root
        )?;
        for (i, o) in self.objects.iter().enumerate() {
            writeln!(f, "  #{i}: {} ({} slots)", o.class, o.slots.len())?;
        }
        Ok(())
    }
}

impl Cluster {
    /// Capture the object graph reachable from `root` on `node`.
    ///
    /// Cycles and shared references are preserved exactly; proxies become
    /// [`SnapSlot::Remote`] boundary markers.
    ///
    /// # Errors
    /// [`VmError::Native`] for stale handles.
    pub fn snapshot(&self, node: NodeId, root: Handle) -> Result<Snapshot, VmError> {
        snapshot(self.shared(), node, root)
    }

    /// Restore a snapshot into `node`'s heap, returning the new root.
    ///
    /// # Errors
    /// [`VmError::Native`] for unknown classes or dangling remote
    /// references.
    pub fn restore(&self, node: NodeId, snapshot: &Snapshot) -> Result<Value, VmError> {
        restore(self.shared(), node, snapshot)
    }
}

pub(crate) fn snapshot(shared: &Shared, node: NodeId, root: Handle) -> Result<Snapshot, VmError> {
    let vm: &Vm = &shared.vms[node.0 as usize];
    let mut index: FastMap<Handle, usize> = FastMap::default();
    let mut objects: Vec<SnapObject> = Vec::new();
    let mut work: Vec<Handle> = vec![root];

    // First pass: discover all reachable local objects & reserve indices.
    while let Some(h) = work.pop() {
        if index.contains_key(&h) {
            continue;
        }
        let entry = vm
            .with_heap(|heap| heap.get(h).cloned())
            .ok_or_else(|| VmError::Native("stale handle in snapshot".into()))?;
        match &entry {
            HeapEntry::Object { class, fields } => {
                // Proxies are boundary markers, not captured objects —
                // unless they are the root, which we reject.
                if gen_info(shared, *class).is_some_and(|i| i.is_proxy) {
                    if h == root {
                        return Err(VmError::Native(
                            "cannot snapshot a proxy root; snapshot at its home node".into(),
                        ));
                    }
                    continue;
                }
                index.insert(h, objects.len());
                objects.push(SnapObject {
                    class: shared.universe.class(*class).name.clone(),
                    is_array: false,
                    slots: Vec::new(),
                });
                for f in fields {
                    if let Value::Ref(next) = f {
                        work.push(*next);
                    }
                }
            }
            HeapEntry::Array { data, .. } => {
                index.insert(h, objects.len());
                objects.push(SnapObject {
                    class: "[]".to_owned(),
                    is_array: true,
                    slots: Vec::new(),
                });
                for f in data {
                    if let Value::Ref(next) = f {
                        work.push(*next);
                    }
                }
            }
        }
    }

    // Second pass: fill slots now that every reachable object has an index.
    for (&h, &i) in &index {
        let entry = vm
            .with_heap(|heap| heap.get(h).cloned())
            .expect("still live");
        let fields = match entry {
            HeapEntry::Object { fields, .. } => fields,
            HeapEntry::Array { data, .. } => data,
        };
        let mut slots = Vec::with_capacity(fields.len());
        for f in &fields {
            slots.push(match f {
                Value::Null => SnapSlot::Null,
                Value::Bool(b) => SnapSlot::Bool(*b),
                Value::Int(v) => SnapSlot::Int(*v),
                Value::Long(v) => SnapSlot::Long(*v),
                Value::Float(x) => SnapSlot::Float(x.to_bits()),
                Value::Double(x) => SnapSlot::Double(x.to_bits()),
                Value::Str(s) => SnapSlot::Str(s.to_string()),
                Value::Ref(r) => {
                    if let Some(&j) = index.get(r) {
                        SnapSlot::Intern(j)
                    } else {
                        // Must be a proxy (skipped above): boundary marker.
                        let class = vm
                            .class_of(*r)
                            .ok_or_else(|| VmError::Native("stale ref in snapshot".into()))?;
                        let Some(info) = gen_info(shared, class).filter(|i| i.is_proxy) else {
                            let what = "unreachable non-proxy in snapshot";
                            return Err(VmError::Native(what.into()));
                        };
                        let (n, oid) = read_proxy_state(vm, *r)
                            .ok_or_else(|| VmError::Native("stale proxy in snapshot".into()))?;
                        SnapSlot::Remote {
                            node: n,
                            oid,
                            class: crate::marshal::logical_class_name(shared, info),
                        }
                    }
                }
            });
        }
        objects[i].slots = slots;
    }

    let root_index = index[&root];
    Ok(Snapshot {
        objects,
        root: root_index,
    })
}

pub(crate) fn restore(
    shared: &Shared,
    node: NodeId,
    snapshot: &Snapshot,
) -> Result<Value, VmError> {
    let vm: &Vm = &shared.vms[node.0 as usize];
    // Phase 1: allocate every object with null slots (arrays sized).
    let mut handles = Vec::with_capacity(snapshot.objects.len());
    for o in &snapshot.objects {
        let h = if o.is_array {
            vm.with_heap(|heap| {
                heap.alloc_array(rafda_classmodel::Ty::Int, vec![Value::Null; o.slots.len()])
            })
        } else {
            let class = shared
                .universe
                .by_name(&o.class)
                .ok_or_else(|| VmError::Native(format!("unknown class {}", o.class)))?;
            vm.alloc_raw(class, vec![Value::Null; o.slots.len()])
        };
        handles.push(h);
    }
    // Phase 2: patch slots (including cycles).
    for (i, o) in snapshot.objects.iter().enumerate() {
        for (k, slot) in o.slots.iter().enumerate() {
            let value = match slot {
                SnapSlot::Null => Value::Null,
                SnapSlot::Bool(b) => Value::Bool(*b),
                SnapSlot::Int(v) => Value::Int(*v),
                SnapSlot::Long(v) => Value::Long(*v),
                SnapSlot::Float(bits) => Value::Float(f32::from_bits(*bits)),
                SnapSlot::Double(bits) => Value::Double(f64::from_bits(*bits)),
                SnapSlot::Str(s) => Value::str(s),
                SnapSlot::Intern(j) => Value::Ref(handles[*j]),
                SnapSlot::Remote {
                    node: n,
                    oid,
                    class,
                } => crate::marshal::wire_to_value(
                    shared,
                    node,
                    &rafda_wire::WireValue::Remote {
                        node: *n,
                        object: *oid,
                        class: class.clone(),
                    },
                )
                .map_err(VmError::Native)?,
            };
            if o.is_array {
                vm.with_heap(|heap| {
                    if let Some(HeapEntry::Array { data, .. }) = heap.get_mut(handles[i]) {
                        data[k] = value;
                    }
                });
            } else {
                vm.with_heap(|heap| heap.set_field(handles[i], k, value));
            }
        }
    }
    Ok(Value::Ref(handles[snapshot.root]))
}
