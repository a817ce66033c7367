//! Crash-stop failover: k-replicated exports survive the crash of their
//! owner with no lost state, clients re-home deterministically to the
//! lowest-numbered live replica, and unreplicated objects fail with a
//! *typed* error — never a hang, a panic or a silently wrong value.

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::vm::Handle;
use rafda::{
    Application, Cluster, NetError, NodeId, Placement, RuntimeStats, StaticPolicy, Ty, Value,
};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

/// A counter class `C { int v; C(int); int bump(int d) }` — `v` becomes a
/// `get_v`/`set_v` property pair under transformation.
fn counter_app() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();
    let c = u.declare("C", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, c);
    let v = cb.field(Field::new("v", Ty::Int));
    let mut mb = MethodBuilder::new(2);
    mb.load_this().load_local(1).put_field(c, v).ret();
    cb.ctor(u, vec![Ty::Int], Some(mb.finish()));
    // int bump(int d) { v = v + d; return v; }
    let mut mb = MethodBuilder::new(2);
    mb.load_this();
    mb.load_this().get_field(c, v);
    mb.load_local(1).add();
    mb.put_field(c, v);
    mb.load_this().get_field(c, v).ret_value();
    cb.method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    app
}

/// Deploy `C` on node 1 over `nodes` nodes with replication factor `k`,
/// and create one instance (initial value 5) from `client`.
fn deployed(nodes: u32, k: u32, client: NodeId, seed: u64) -> (Cluster, Value) {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .replicate("C", k);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(nodes, seed, Box::new(policy));
    let c = cluster
        .new_instance(client, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(client, &c);
    (cluster, c)
}

fn bump(cluster: &Cluster, node: NodeId, c: &Value, d: i32) -> Result<Value, rafda::VmError> {
    cluster.call_method(node, c.clone(), "bump", vec![Value::Int(d)])
}

/// The home (`C_O_Local`) handle of the single counter instance on `node`.
fn home_handle(cluster: &Cluster, node: NodeId) -> Handle {
    let mut found = None;
    cluster.vm(node).with_heap(|heap| {
        for h in heap.handles() {
            if let Some(class) = heap.class_of(h) {
                if &*cluster.universe().class(class).name == "C_O_Local" {
                    found = Some(h);
                }
            }
        }
    });
    found.expect("counter home")
}

#[test]
fn failover_to_replica_preserves_every_acknowledged_mutation() {
    let (cluster, c) = deployed(3, 1, N0, 11);
    assert_eq!(bump(&cluster, N0, &c, 2).unwrap(), Value::Int(7));
    assert_eq!(bump(&cluster, N0, &c, 3).unwrap(), Value::Int(10));
    let before = cluster.stats();
    assert!(before.replica_syncs > 0, "owner must ship state: {before}");
    // Shipping is not free: the same two calls cost an unreplicated
    // deployment strictly fewer wire messages.
    let (bare, b) = deployed(3, 0, N0, 11);
    bump(&bare, N0, &b, 2).unwrap();
    bump(&bare, N0, &b, 3).unwrap();
    assert!(cluster.network().stats().messages > bare.network().stats().messages);

    cluster.crash(N1);
    // The next call re-homes to the lowest-id live replica (node 0) and
    // sees every mutation the dead owner acknowledged.
    assert_eq!(bump(&cluster, N0, &c, 1).unwrap(), Value::Int(11));
    assert_eq!(
        cluster.location_of(N0, &c),
        Some(N0),
        "promotion must pick the lowest-numbered live replica"
    );
    // No double apply, no lost update — a zero-delta probe reads the same.
    assert_eq!(bump(&cluster, N0, &c, 0).unwrap(), Value::Int(11));

    let stats = cluster.stats();
    assert_eq!(stats.failovers, 1, "{stats}");
    assert_eq!(stats.promotions, 1, "{stats}");
    assert!(
        stats.net_failures >= 1,
        "the exchange against the dead owner is still a failure: {stats}"
    );
}

#[test]
fn failover_emits_a_span_chained_to_the_failed_exchange() {
    let (cluster, c) = deployed(3, 1, N0, 12);
    bump(&cluster, N0, &c, 1).unwrap();
    cluster.crash(N1);
    bump(&cluster, N0, &c, 1).unwrap();
    let log = cluster.span_log();
    let fo = log
        .spans()
        .find(|s| s.name == "rpc.failover")
        .expect("failover span");
    assert_eq!(log.attr_str(&fo, "class"), Some("C"));
    let prior = fo.retry_of().expect("chained to the failed exchange");
    let failed = log.by_id(prior).expect("the failed exchange span exists");
    assert_eq!(failed.name, "rpc.call");
    assert!(
        prior < fo.span_id,
        "a span chains to one recorded before it"
    );
    // `by_id` names slots: the "no span" id and ids past the end are absent.
    assert!(log.by_id(0).is_none());
    assert!(log.by_id(log.spans().len() as u64 + 1).is_none());
    // The promotion itself is served and visible.
    assert!(log.spans().any(|s| s.name == "serve.promote"));
    assert!(log.spans().any(|s| s.name == "serve.replica"));
}

#[test]
fn unreplicated_crash_surfaces_typed_unreachable_everywhere() {
    let (cluster, c) = deployed(3, 0, N0, 13);
    assert_eq!(bump(&cluster, N0, &c, 1).unwrap(), Value::Int(6));
    let owner_handle = home_handle(&cluster, N1);
    cluster.crash(N1);

    // call_method: typed, fails fast, no failover attempted.
    let err = bump(&cluster, N0, &c, 1).unwrap_err();
    let nf = err.net_failure().expect("typed network failure");
    assert_eq!(nf.kind, NetError::NodeCrashed(N1));
    assert_eq!(nf.attempts, 1, "crashes are not retried");

    // pull_local: a migration from the dead owner, typed too.
    let err = cluster
        .pull_local(N0, c.as_ref_handle().unwrap())
        .unwrap_err();
    assert_eq!(
        err.net_failure().map(|nf| nf.kind),
        Some(NetError::NodeCrashed(N1))
    );

    // migrate: the crashed node cannot ship its state anywhere.
    let err = cluster.migrate(N1, owner_handle, N2).unwrap_err();
    assert!(err.net_failure().is_some(), "{err}");

    let stats = cluster.stats();
    assert_eq!(stats.failovers, 0, "{stats}");
    assert_eq!(stats.promotions, 0, "{stats}");
}

#[test]
fn restart_does_not_resurrect_unreplicated_state() {
    let (cluster, c) = deployed(3, 0, N0, 14);
    assert_eq!(bump(&cluster, N0, &c, 5).unwrap(), Value::Int(10));
    cluster.crash(N1);
    cluster.restart(N1);
    // The restarted node lost its exports: the stale proxy gets a typed
    // fault — never the pre-crash value, never a fresh object.
    let err = bump(&cluster, N0, &c, 1).unwrap_err();
    assert!(err.to_string().contains("unknown object"), "{err}");
    // New instances work and start from their own constructor state; the
    // preserved export-id counter keeps old and new ids disjoint.
    let fresh = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(100)])
        .unwrap();
    assert_eq!(bump(&cluster, N0, &fresh, 1).unwrap(), Value::Int(101));
    let err = bump(&cluster, N0, &c, 1).unwrap_err();
    assert!(err.to_string().contains("unknown object"), "{err}");
}

/// A shipment that does not reach a live backup is not delivered: the
/// owner keeps the location owed, and the first sweep after the partition
/// heals ships it, so the backup promoted at the owner's crash holds the
/// last acknowledged write. Owner n1, backup n0, client n2.
#[test]
fn a_shipment_lost_to_a_partition_ships_again_after_the_heal() {
    let (cluster, c) = deployed(3, 1, N2, 24);
    assert_eq!(bump(&cluster, N2, &c, 2).unwrap(), Value::Int(7));
    cluster.network().fault_plan(|f| f.partition(N1, N0));
    assert_eq!(bump(&cluster, N2, &c, 3).unwrap(), Value::Int(10));
    // A quiescent check under the partition tries again and fails again:
    // an owed location is not drift nobody marked.
    assert_eq!(cluster.check_invariants(), vec![]);
    cluster.network().fault_plan(|f| f.heal_all());
    // One unrelated exchange: its sweep ships the owed state.
    cluster
        .new_instance(N2, "C", 0, vec![Value::Int(0)])
        .unwrap();
    cluster.crash(N1);
    assert_eq!(bump(&cluster, N2, &c, 0).unwrap(), Value::Int(10));
    assert_eq!(cluster.location_of(N2, &c), Some(N0));
}

/// Write 7, then write 10 while the owner is cut off from some of its
/// backups, heal, and crash the owner before any exchange re-ships the
/// owed state. No quiescent check runs between the heal and the crash:
/// its sweep would ship what is owed and hide the case.
fn acknowledged_then_crashed(
    nodes: u32,
    k: u32,
    client: NodeId,
    cut_off: NodeId,
) -> (Cluster, Value) {
    let (cluster, c) = deployed(nodes, k, client, 24);
    assert_eq!(bump(&cluster, client, &c, 2).unwrap(), Value::Int(7));
    cluster.network().fault_plan(|f| f.partition(N1, cut_off));
    assert_eq!(bump(&cluster, client, &c, 3).unwrap(), Value::Int(10));
    cluster.network().fault_plan(|f| f.heal_all());
    cluster.crash(N1);
    (cluster, c)
}

/// The only backup missed the acknowledged write, so it holds version 7
/// and refuses to promote it: the caller sees the owner's crash, never the
/// lost write. Owner n1, backup n0, client n2.
#[test]
fn a_backup_that_missed_an_acknowledged_write_is_not_promoted() {
    let (cluster, c) = acknowledged_then_crashed(3, 1, N2, N0);
    let err = bump(&cluster, N2, &c, 0).unwrap_err();
    assert_eq!(
        err.net_failure().map(|nf| nf.kind),
        Some(NetError::NodeCrashed(N1)),
        "{err}"
    );
    assert_eq!(cluster.stats().promotions, 0);
}

/// As above, but the owner restarted with amnesia: its `unknown object`
/// fault stands, since the backup still refuses the version it missed.
#[test]
fn a_restarted_owner_does_not_hand_over_to_a_backup_that_missed_a_write() {
    let (cluster, c) = acknowledged_then_crashed(3, 1, N2, N0);
    cluster.restart(N1);
    let err = bump(&cluster, N2, &c, 0).unwrap_err();
    assert!(
        matches!(&err, rafda::VmError::Native(m) if m.contains("unknown object 1 on node1")),
        "{err}"
    );
    assert_eq!(cluster.stats().promotions, 0);
}

/// With two backups, the lower-id one (n0) missed the write and refuses;
/// the next (n2) holds the recorded version and takes over. Client n3.
#[test]
fn promotion_skips_a_backup_that_missed_an_acknowledged_write() {
    let (cluster, c) = acknowledged_then_crashed(4, 2, N3, N0);
    assert_eq!(bump(&cluster, N3, &c, 0).unwrap(), Value::Int(10));
    assert_eq!(cluster.location_of(N3, &c), Some(N2));
    assert_eq!(cluster.stats().promotions, 1);
}

/// A shipment that misses a backup keeps its record, so a write the
/// runtime never served that lands afterwards still moves the version: a
/// read cached under the version the missed shipment carried stops
/// validating. Owner n1 with its backup n0 cut off, a caching client n2;
/// the writes are plain calls on n1's own object.
#[test]
fn a_write_after_a_missed_shipment_invalidates_cached_reads() {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .cache("C", true)
        .replicate("C", 1);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 25, Box::new(policy));
    let c = cluster
        .new_instance(N2, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(N2, &c);
    let home = Value::Ref(home_handle(&cluster, N1));
    let get = || cluster.call_method(N2, c.clone(), "get_v", vec![]).unwrap();
    cluster.network().fault_plan(|f| f.partition(N1, N0));
    assert_eq!(bump(&cluster, N1, &home, 1).unwrap(), Value::Int(6));
    // The read's exchange sweeps first: the shipment misses n0, and the
    // read is cached under the version that shipment carried.
    assert_eq!(get(), Value::Int(6));
    let hits = cluster.stats().cache_hits;
    assert_eq!(get(), Value::Int(6));
    assert_eq!(
        cluster.stats().cache_hits,
        hits + 1,
        "served from the cache"
    );
    assert_eq!(bump(&cluster, N1, &home, 2).unwrap(), Value::Int(8));
    cluster.network().fault_plan(|f| f.heal_all());
    // One unrelated exchange: its sweep ships the new state.
    cluster
        .new_instance(N2, "C", 0, vec![Value::Int(0)])
        .unwrap();
    assert_eq!(get(), Value::Int(8));
    assert_eq!(cluster.check_invariants(), vec![]);
}

#[test]
fn restarted_owner_with_amnesia_fails_over_to_its_replica() {
    let (cluster, c) = deployed(3, 1, N0, 15);
    assert_eq!(bump(&cluster, N0, &c, 2).unwrap(), Value::Int(7));
    cluster.crash(N1);
    cluster.restart(N1);
    // The owner is live again but lost the export; the replica still holds
    // the acknowledged state and takes over.
    assert_eq!(bump(&cluster, N0, &c, 1).unwrap(), Value::Int(8));
    let stats = cluster.stats();
    assert_eq!(stats.failovers, 1, "{stats}");
    assert_eq!(stats.promotions, 1, "{stats}");
    assert_eq!(
        stats.net_failures, 0,
        "amnesia is a fault reply, not a network failure: {stats}"
    );
}

#[test]
fn two_sequential_crashes_survive_with_replication_factor_two() {
    // Owner on node 1, k = 2 → backups on nodes 0 and 2, client on node 3.
    let (cluster, c) = deployed(4, 2, N3, 16);
    assert_eq!(bump(&cluster, N3, &c, 2).unwrap(), Value::Int(7));

    cluster.crash(N1);
    assert_eq!(bump(&cluster, N3, &c, 3).unwrap(), Value::Int(10));
    assert_eq!(cluster.location_of(N3, &c), Some(N0));

    // The promoted home re-established the replication factor, so a second
    // crash — with node 1 still down — loses nothing either.
    cluster.crash(N0);
    assert_eq!(bump(&cluster, N3, &c, 4).unwrap(), Value::Int(14));
    assert_eq!(cluster.location_of(N3, &c), Some(N2));

    let stats = cluster.stats();
    assert_eq!(stats.failovers, 2, "{stats}");
    assert_eq!(stats.promotions, 2, "{stats}");
}

#[test]
fn second_caller_rehomes_through_the_recorded_promotion() {
    // A replicated static singleton used from two client nodes: after the
    // crash, the first caller promotes; the second must follow the recorded
    // promotion instead of promoting a stale backup copy twice.
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, s);
    let v = cb.static_field(Field::new("v", Ty::Int));
    // static int bump(int d) { v = v + d; return v; }
    let mut mb = MethodBuilder::new(1);
    mb.get_static(s, v);
    mb.load_local(0);
    mb.add();
    mb.put_static(s, v);
    mb.get_static(s, v);
    mb.ret_value();
    cb.static_method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new().default_statics(N1).replicate("S", 1);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 17, Box::new(policy));

    let call = |from: NodeId, d: i32| cluster.call_static(from, "S", "bump", vec![Value::Int(d)]);
    assert_eq!(call(N0, 2).unwrap(), Value::Int(2));
    assert_eq!(call(N2, 3).unwrap(), Value::Int(5));

    cluster.crash(N1);
    // First caller's failover promotes the backup (node 0)…
    assert_eq!(call(N0, 1).unwrap(), Value::Int(6));
    // …the second caller re-homes to the already-promoted copy: the total
    // keeps accumulating in ONE place, and no second promotion happens.
    assert_eq!(call(N2, 4).unwrap(), Value::Int(10));
    assert_eq!(call(N0, 0).unwrap(), Value::Int(10));

    let stats = cluster.stats();
    assert_eq!(stats.promotions, 1, "exactly one promotion: {stats}");
    assert_eq!(stats.failovers, 2, "both callers re-homed: {stats}");
}

#[test]
fn failover_invalidates_cached_property_reads() {
    // Property caching (PR 3) composed with failover: a getter value cached
    // against the dead owner's location must never be served once the
    // object re-homed — promotion tombstones the old location.
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .cache("C", true)
        .replicate("C", 1);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 18, Box::new(policy));
    let c = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(N0, &c);
    let get = || cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap();
    assert_eq!(get(), Value::Int(5));
    assert_eq!(get(), Value::Int(5));
    assert!(cluster.stats().cache_hits >= 1);

    cluster.crash(N1);
    // A mutating call fails over; the promoted copy then serves bump(3).
    assert_eq!(bump(&cluster, N0, &c, 3).unwrap(), Value::Int(8));
    // The read must see 8 — the cached 5 is tagged with the tombstoned old
    // location and can never surface again.
    assert_eq!(get(), Value::Int(8));
    assert_eq!(get(), Value::Int(8));
}

#[test]
fn unchanged_state_is_not_reshipped_to_replicas() {
    // Read-heavy workload on a replicated static singleton: every client's
    // first static call serves a `Discover` on the owner, and the owner
    // used to re-ship the (unchanged) singleton state to every backup on
    // each of those serves. The version never moved, so the shipments were
    // pure waste; now they are skipped.
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, s);
    let v = cb.static_field(Field::new("v", Ty::Int));
    // static int bump(int d) { v = v + d; return v; }
    let mut mb = MethodBuilder::new(1);
    mb.get_static(s, v);
    mb.load_local(0);
    mb.add();
    mb.put_static(s, v);
    mb.get_static(s, v);
    mb.ret_value();
    cb.static_method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new().default_statics(N1).replicate("S", 2);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(5, 21, Box::new(policy));

    // Four clients, five reads each, through the generated static getter.
    let read = |from: NodeId| cluster.call_static(from, "S", "get_v", vec![]).unwrap();
    for &n in &[N0, N2, N3, NodeId(4)] {
        for _ in 0..5 {
            assert_eq!(read(n), Value::Int(0));
        }
    }
    let read_only = cluster.stats().replica_syncs;
    assert_eq!(
        read_only,
        2,
        "an unmutated singleton ships once per backup, not once per \
         discover: {}",
        cluster.stats()
    );

    // A mutation moves the version, so the next sync ships again.
    let bump = |from: NodeId, d: i32| {
        cluster
            .call_static(from, "S", "bump", vec![Value::Int(d)])
            .unwrap()
    };
    assert_eq!(bump(N0, 7), Value::Int(7));
    let after_write = cluster.stats().replica_syncs;
    assert!(
        after_write > read_only,
        "a served mutation must still re-ship: {}",
        cluster.stats()
    );

    // And the crash/promote battery is intact: the backup that was seeded
    // exactly once (plus the post-write sync) holds every acknowledged
    // mutation.
    cluster.crash(N1);
    assert_eq!(bump(N2, 1), Value::Int(8));
    assert_eq!(read(N0), Value::Int(8));
    let stats = cluster.stats();
    assert_eq!(stats.promotions, 1, "{stats}");
}

#[test]
fn same_seed_failover_runs_are_identical() {
    let run = || -> (Vec<Value>, RuntimeStats, u64) {
        let (cluster, c) = deployed(3, 1, N0, 19);
        let mut out = Vec::new();
        out.push(bump(&cluster, N0, &c, 2).unwrap());
        out.push(bump(&cluster, N0, &c, 3).unwrap());
        cluster.crash(N1);
        out.push(bump(&cluster, N0, &c, 1).unwrap());
        cluster.restart(N1);
        out.push(bump(&cluster, N0, &c, 4).unwrap());
        (out, cluster.stats(), cluster.network().now().as_ns())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "values");
    assert_eq!(a.1, b.1, "stats (incl. failover counters)");
    assert_eq!(a.2, b.2, "simulated clock");
}

#[test]
fn restarted_statics_owner_follows_the_promotion_not_its_amnesia() {
    // The stale-promotion bug: `shared.homes` records a promotion when a
    // backup takes over, but nothing reconciled that record when the
    // pre-crash owner restarted. A fresh caller (or the restarted owner
    // itself) resolving the singleton through placement policy would reach
    // the amnesiac node, which minted a brand-new default-state singleton —
    // silently forking the object. The promoted copy is authoritative:
    // every resolution path must follow the promotion chain to it.
    let mut app = Application::new();
    let u = app.universe_mut();
    let s = u.declare("S", ClassKind::Class);
    let mut cb = ClassBuilder::new(u, s);
    let v = cb.static_field(Field::new("v", Ty::Int));
    // static int bump(int d) { v = v + d; return v; }
    let mut mb = MethodBuilder::new(1);
    mb.get_static(s, v);
    mb.load_local(0);
    mb.add();
    mb.put_static(s, v);
    mb.get_static(s, v);
    mb.ret_value();
    cb.static_method(u, "bump", vec![Ty::Int], Ty::Int, Some(mb.finish()));
    cb.finish(u);
    let policy = StaticPolicy::new().default_statics(N1).replicate("S", 1);
    let cluster = app
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 23, Box::new(policy));

    let call = |from: NodeId, d: i32| cluster.call_static(from, "S", "bump", vec![Value::Int(d)]);
    // Establish the singleton on its policy home and ship a backup.
    assert_eq!(call(N0, 2).unwrap(), Value::Int(2));

    // Crash → the next call promotes the backup (node 0 holds the state).
    cluster.crash(N1);
    assert_eq!(call(N0, 3).unwrap(), Value::Int(5));

    // The pre-crash owner comes back with a wiped registry.
    cluster.restart(N1);

    // A caller that never touched S resolves through the promotion record,
    // not through the restarted policy owner's empty registry.
    assert_eq!(
        call(N2, 4).unwrap(),
        Value::Int(9),
        "a fresh caller must see the promoted total, not a fork at 4"
    );
    // The restarted owner itself must follow its own promoted-away copy.
    assert_eq!(
        call(N1, 1).unwrap(),
        Value::Int(10),
        "the amnesiac owner must not resurrect a default singleton"
    );
    // One object, one total, everywhere.
    assert_eq!(call(N0, 0).unwrap(), Value::Int(10));

    let stats = cluster.stats();
    assert_eq!(stats.promotions, 1, "exactly one promotion: {stats}");
}
