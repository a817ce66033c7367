//! The reflective capstone of the observability plane: a synthetic
//! `rafda.Introspection` class whose getters serve the cluster's own
//! runtime state — node stats, policy tables, placement and failover-home
//! maps, the Prometheus export — over the **normal RMI path**.
//!
//! This is the paper's reflection argument turned on the runtime itself:
//! instead of a privileged out-of-band admin channel, telemetry is just
//! another application object. [`declare_introspection`] adds the class to
//! the universe *before* the transform, so it grows the full
//! `_O_Int`/`_O_Local`/`_O_Proxy` family, auto-generated per-field
//! accessors and a factory like any user class — which means telemetry
//! traffic itself exercises (and is counted by) the wire fast path,
//! property caching and batching machinery.
//!
//! The class carries placeholder bodies through the transform (a class
//! with `native` methods would be rejected as non-transformable, Section
//! 2.4); deployment then flips `refresh`/`node_stats` on the generated
//! `_O_Local` to native hooks that snapshot live cluster state.

use crate::cluster::Shared;
use crate::stats;
use rafda_classmodel::{ClassBuilder, ClassId, ClassKind, ClassUniverse, Field, MethodBuilder, Ty};
use rafda_net::NodeId;
use rafda_transform::TransformPlan;
use rafda_vm::{Value, VmError};

/// The synthetic class name registered in the class universe.
pub const INTROSPECTION_CLASS: &str = "rafda.Introspection";

/// The string-typed fields served through auto-generated accessors, in
/// declaration order. Each holds the snapshot taken by the last
/// `refresh()` call (empty until then).
pub(crate) const FIELDS: [&str; 5] = ["stats", "policy", "placement", "homes", "prometheus"];

/// Declare `rafda.Introspection` in a **pre-transform** universe.
/// Idempotent: returns the existing id when already declared.
///
/// The class has five `String` fields (`stats`, `policy`, `placement`,
/// `homes`, `prometheus`), a no-argument constructor, a `refresh()`
/// method that re-snapshots all five, and `node_stats(int)` returning one
/// node's counter breakdown. The transform turns the fields into remote
/// properties (`get_stats()` …) — cacheable and batchable under whatever
/// policy the deployment assigns to the class.
pub fn declare_introspection(u: &mut ClassUniverse) -> ClassId {
    if let Some(id) = u.by_name(INTROSPECTION_CLASS) {
        return id;
    }
    let id = u.declare(INTROSPECTION_CLASS, ClassKind::Class);
    let mut cb = ClassBuilder::new(u, id);
    for name in FIELDS {
        cb.field(Field::new(name, Ty::Str));
    }
    let mut body = MethodBuilder::new(1);
    body.ret();
    cb.ctor(u, vec![], Some(body.finish()));
    // Placeholder bodies: a native method here would make the class
    // non-transformable. Deployment swaps them for native hooks.
    let mut body = MethodBuilder::new(1);
    body.ret();
    cb.method(u, "refresh", vec![], Ty::Void, Some(body.finish()));
    let mut body = MethodBuilder::new(2);
    body.const_str("").ret_value();
    cb.method(u, "node_stats", vec![Ty::Int], Ty::Str, Some(body.finish()));
    cb.finish(u);
    id
}

/// Flip the transformed `_O_Local`'s `refresh`/`node_stats` methods to
/// `native` so execution reaches the hooks the cluster registers at
/// deployment. Must run on the universe **before** it is frozen behind an
/// `Arc`; a universe without the class (or a plan that never transformed
/// it) is left untouched.
pub(crate) fn prepare(u: &mut ClassUniverse, plan: &TransformPlan) {
    let Some(base) = u.by_name(INTROSPECTION_CLASS) else {
        return;
    };
    let Some(family) = plan.family(base) else {
        return;
    };
    let local = u.class_mut(family.obj.local);
    for m in &mut local.methods {
        if m.name == "refresh" || m.name == "node_stats" {
            m.is_native = true;
            m.body = None;
        }
    }
}

/// The native half of `refresh()`: re-snapshot all five string fields
/// from live cluster state. Runs on the node that owns the object (`node`
/// is the VM the hook was registered on), reached over the normal RMI
/// path when the caller holds a proxy — so the serve that carries it
/// bumps the object's property version and invalidates every cached
/// getter read, exactly like any other mutating call.
pub(crate) fn refresh_native(
    shared: &Shared,
    node: NodeId,
    args: &[Value],
) -> Result<Value, VmError> {
    let h = args
        .first()
        .and_then(Value::as_ref_handle)
        .ok_or_else(|| VmError::type_error("refresh needs a receiver"))?;
    let vm = &shared.vms[node.0 as usize];
    let class = vm
        .class_of(h)
        .ok_or_else(|| VmError::Native("stale introspection receiver".into()))?;
    let stats = stats::merged_stats(shared).to_string();
    let policy = stats::policy_table(shared);
    let placement = stats::placement_table(shared);
    let homes = stats::homes_table(shared);
    let prometheus = shared.obs.borrow().reg.prometheus_text();
    let values: Vec<Value> = shared
        .universe
        .field_layout(class)
        .iter()
        .map(|&(owner, idx)| {
            let field = &shared.universe.class(owner).fields[idx as usize];
            match field.name.as_str() {
                "stats" => Value::str(&stats),
                "policy" => Value::str(&policy),
                "placement" => Value::str(&placement),
                "homes" => Value::str(&homes),
                "prometheus" => Value::str(&prometheus),
                _ => Value::default_for(&field.ty),
            }
        })
        .collect();
    vm.replace_object(h, class, values);
    Ok(Value::Null)
}

/// The native half of `node_stats(int)`: one node's counter breakdown,
/// rendered with the [`RuntimeStats`](crate::RuntimeStats) display.
pub(crate) fn node_stats_native(shared: &Shared, args: &[Value]) -> Result<Value, VmError> {
    let n = args
        .get(1)
        .and_then(Value::as_int)
        .ok_or_else(|| VmError::type_error("node_stats needs an int node id"))?;
    if n < 0 || n as usize >= shared.vms.len() {
        return Err(VmError::Native(format!("no such node {n}")));
    }
    Ok(Value::str(
        shared.obs.borrow().snapshot(n as usize).to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_idempotent_and_transformable() {
        let mut u = ClassUniverse::new();
        let a = declare_introspection(&mut u);
        let b = declare_introspection(&mut u);
        assert_eq!(a, b);
        let class = u.class(a);
        assert_eq!(class.fields.len(), FIELDS.len());
        assert!(class.methods.iter().all(|m| !m.is_native));

        let mut u2 = u.clone();
        let plan = rafda_transform::Transformer::new()
            .protocols(&["RMI"])
            .run(&mut u2)
            .expect("introspection class must be transformable")
            .plan;
        let family = plan.family(a).expect("family generated");
        assert_eq!(family.obj.getters.len(), FIELDS.len());

        prepare(&mut u2, &plan);
        let local = u2.class(family.obj.local);
        let refresh = local.methods.iter().find(|m| m.name == "refresh").unwrap();
        assert!(refresh.is_native && refresh.body.is_none());
        // The auto-generated accessors keep their bodies.
        let getter = local
            .methods
            .iter()
            .find(|m| m.name == "get_stats")
            .unwrap();
        assert!(!getter.is_native && getter.body.is_some());
    }
}
