//! Marshalling between VM values and wire values.
//!
//! The rules mirror Java RMI semantics as the paper assumes them:
//!
//! * primitives and strings travel **by value**;
//! * arrays travel **by value** (element-wise, recursively);
//! * instances of transformed classes (`*_Local`) travel **by reference**:
//!   the sender exports the object and ships a [`WireValue::Remote`]
//!   descriptor; the receiver materialises a proxy of the matching family —
//!   unless the descriptor points back at the receiver itself, in which
//!   case it unwraps to the local object (colocation short-circuit);
//! * proxies travel **by delegation**: a proxy argument ships the
//!   descriptor of its *target*, never a proxy-to-a-proxy;
//! * instances of untransformed (non-transformable) classes travel **by
//!   value** as [`WireValue::ObjectState`] — they have no proxy classes, so
//!   they cannot be remote (Section 2.4), exactly like non-`Remote`
//!   serialisable objects in RMI.

use crate::cluster::{
    cached_import, export, gen_info, lookup_export, new_proxy, read_proxy_state, GenInfo, Shared,
};
use rafda_classmodel::Ty;
use rafda_net::NodeId;
use rafda_vm::{HeapEntry, Value, Vm};
use rafda_wire::WireValue;

/// Maximum by-value object-graph depth (cycle guard).
const MAX_DEPTH: u32 = 32;

/// Convert a VM value on `node` into its wire form.
///
/// # Errors
/// A human-readable message on stale handles or over-deep by-value graphs.
pub(crate) fn value_to_wire(shared: &Shared, node: NodeId, v: &Value) -> Result<WireValue, String> {
    value_to_wire_rec(shared, node, v, 0)
}

fn value_to_wire_rec(
    shared: &Shared,
    node: NodeId,
    v: &Value,
    depth: u32,
) -> Result<WireValue, String> {
    if depth > MAX_DEPTH {
        return Err("by-value object graph too deep (cycle?)".to_owned());
    }
    let vm: &Vm = &shared.vms[node.0 as usize];
    Ok(match v {
        Value::Null => WireValue::Null,
        Value::Bool(b) => WireValue::Bool(*b),
        Value::Int(i) => WireValue::Int(*i),
        Value::Long(i) => WireValue::Long(*i),
        Value::Float(x) => WireValue::Float(*x),
        Value::Double(x) => WireValue::Double(*x),
        Value::Str(s) => WireValue::Str(s.to_string()),
        Value::Ref(h) => {
            // Array?
            let array_items: Option<Vec<Value>> = vm.with_heap(|heap| match heap.get(*h) {
                Some(HeapEntry::Array { data, .. }) => Some(data.clone()),
                _ => None,
            });
            if let Some(items) = array_items {
                let mut out = Vec::with_capacity(items.len());
                for item in &items {
                    out.push(value_to_wire_rec(shared, node, item, depth + 1)?);
                }
                return Ok(WireValue::Array(out));
            }
            let class = vm.class_of(*h).ok_or("stale handle in marshalling")?;
            match gen_info(shared, class) {
                Some(info) if info.is_proxy => {
                    // Proxy: ship its target descriptor (no proxy chains).
                    let (target, oid) =
                        read_proxy_state(vm, *h).ok_or("stale proxy in marshalling")?;
                    WireValue::Remote {
                        node: target,
                        object: oid,
                        class: logical_class_name(shared, info),
                    }
                }
                Some(info) => {
                    // Local implementation: export by reference.
                    let oid = export(shared, node, *h);
                    WireValue::Remote {
                        node: node.0,
                        object: oid,
                        class: logical_class_name(shared, info),
                    }
                }
                None => {
                    // Untransformed class: by value.
                    let (_, fields) = vm.read_object(*h).ok_or("stale handle")?;
                    let mut out = Vec::with_capacity(fields.len());
                    for f in &fields {
                        out.push(value_to_wire_rec(shared, node, f, depth + 1)?);
                    }
                    WireValue::ObjectState {
                        class: String::from(&*shared.universe.class(class).name),
                        fields: out,
                    }
                }
            }
        }
    })
}

/// [`value_to_wire`] over a slice, in order, stopping at the first error.
pub(crate) fn values_to_wire(
    shared: &Shared,
    node: NodeId,
    values: &[Value],
) -> Result<Vec<WireValue>, String> {
    // Sized up front: collecting through `Result` would grow by doubling,
    // and the result often becomes a long-lived object's field vector.
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        out.push(value_to_wire(shared, node, v)?);
    }
    Ok(out)
}

/// [`wire_to_value`] over a slice, in order, stopping at the first error.
pub(crate) fn wire_to_values(
    shared: &Shared,
    node: NodeId,
    wire: &[WireValue],
) -> Result<Vec<Value>, String> {
    let mut out = Vec::with_capacity(wire.len());
    for w in wire {
        out.push(wire_to_value(shared, node, w)?);
    }
    Ok(out)
}

/// The name of the `*_Local` class of `info`'s family and side — what a
/// remote reference names on the wire and in a snapshot, whichever proxy
/// class holds it.
pub(crate) fn logical_class_name(shared: &Shared, info: GenInfo) -> String {
    let family = &shared.plan.families[&shared.rows[info.row].base];
    let half = family.half(info.side);
    let half = half.expect("a generated class belongs to a half of its family");
    String::from(&*shared.universe.class(half.local).name)
}

/// Convert a wire value arriving at `node` into a VM value, materialising
/// proxies (or unwrapping self-references) as needed.
///
/// # Errors
/// A human-readable message for unknown classes, missing exports or
/// unavailable proxy protocols.
pub(crate) fn wire_to_value(
    shared: &Shared,
    node: NodeId,
    wv: &WireValue,
) -> Result<Value, String> {
    let vm: &Vm = &shared.vms[node.0 as usize];
    Ok(match wv {
        WireValue::Null => Value::Null,
        WireValue::Bool(b) => Value::Bool(*b),
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Long(i) => Value::Long(*i),
        WireValue::Float(x) => Value::Float(*x),
        WireValue::Double(x) => Value::Double(*x),
        WireValue::Str(s) => Value::str(s),
        WireValue::Remote {
            node: owner,
            object,
            class,
        } => {
            let (mut owner, mut object) = (*owner, *object);
            if owner == node.0 {
                // Colocation short-circuit: unwrap to the local object. A
                // location this node moved the object away from follows
                // the recorded moves to the live home, which may be local.
                (owner, object) = shared.directory.borrow().resolve((owner, object));
                if owner == node.0 {
                    let h = lookup_export(shared, node, object)
                        .ok_or_else(|| format!("no local export {object}"))?;
                    return Ok(Value::Ref(h));
                }
            }
            if let Some(h) = cached_import(shared, node, owner, object) {
                return Ok(Value::Ref(h));
            }
            // Materialise a proxy of the right family and protocol.
            let impl_class = shared
                .universe
                .by_name(class)
                .ok_or_else(|| format!("unknown remote class {class}"))?;
            let info = gen_info(shared, impl_class)
                .ok_or_else(|| format!("{class} is not a transformed implementation"))?;
            let proxy_class = shared.rows[info.row].proxy_class(info.side)?;
            Value::Ref(new_proxy(shared, node, proxy_class, (owner, object)))
        }
        WireValue::Array(items) => {
            let mut data = Vec::with_capacity(items.len());
            for item in items {
                data.push(wire_to_value(shared, node, item)?);
            }
            // The element type is only used for default values of
            // newly-allocated arrays, so a best-effort tag suffices.
            let elem = match items.first() {
                Some(WireValue::Int(_)) => Ty::Int,
                Some(WireValue::Long(_)) => Ty::Long,
                Some(WireValue::Bool(_)) => Ty::Bool,
                Some(WireValue::Float(_)) => Ty::Float,
                Some(WireValue::Double(_)) => Ty::Double,
                _ => Ty::Str,
            };
            let h = vm.with_heap(|heap| heap.alloc_array(elem, data));
            Value::Ref(h)
        }
        WireValue::ObjectState { class, fields } => {
            let class_id = shared
                .universe
                .by_name(class)
                .ok_or_else(|| format!("unknown class {class}"))?;
            let mut values = Vec::with_capacity(fields.len());
            for f in fields {
                values.push(wire_to_value(shared, node, f)?);
            }
            Value::Ref(vm.alloc_raw(class_id, values))
        }
    })
}
