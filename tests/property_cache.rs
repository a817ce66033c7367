//! Coherent proxy-side property caching: repeated remote `get_f` reads are
//! served locally while the owner's property version is unchanged, every
//! write or migration invalidates, and stale reads are impossible — plus
//! the cluster-wide affinity-count purge on migration (the counts describe
//! calls an object received at a home it no longer has).

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::vm::Handle;
use rafda::{Application, Cluster, NodeId, Placement, StaticPolicy, Ty, Value};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

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

/// Deploy `C` remote to the driver (home on node 1), with property caching
/// for `C` switched per the flag, and create one instance.
fn deployed(cache: bool) -> (Cluster, Value) {
    let policy = StaticPolicy::new()
        .place("C", Placement::Node(N1))
        .default_statics(N0)
        .cache("C", cache);
    let cluster = counter_app()
        .transform(&["RMI"])
        .unwrap()
        .deploy(3, 42, Box::new(policy));
    let c = cluster
        .new_instance(N0, "C", 0, vec![Value::Int(5)])
        .unwrap();
    cluster.pin(N0, &c);
    (cluster, c)
}

fn get_v(cluster: &Cluster, c: &Value) -> Value {
    cluster.call_method(N0, c.clone(), "get_v", vec![]).unwrap()
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
fn repeated_getter_reads_hit_the_cache_and_writes_invalidate() {
    let (cluster, c) = deployed(true);

    // First read goes over the wire and fills the cache.
    let before = cluster.network().stats().messages;
    assert_eq!(get_v(&cluster, &c), Value::Int(5));
    let after_first = cluster.network().stats().messages;
    assert!(after_first > before, "first read is remote");

    // Subsequent reads are served locally: no messages, no clock advance.
    let t = cluster.network().now();
    for _ in 0..5 {
        assert_eq!(get_v(&cluster, &c), Value::Int(5));
    }
    assert_eq!(
        cluster.network().stats().messages,
        after_first,
        "cached reads must not touch the wire"
    );
    assert_eq!(cluster.network().now(), t, "cached reads are free");
    let stats = cluster.stats();
    assert_eq!(stats.cache_hits, 5);
    assert_eq!(stats.cache_misses, 1);

    // Cache hits stay visible in traces, tagged as cached.
    let log = cluster.span_log();
    let hit = log
        .spans()
        .iter()
        .find(|s| s.name == "rpc.call" && log.attr(s, "cached").is_some())
        .expect("cached read span");
    assert_eq!(log.attr_str(hit, "class"), Some("C"));
    assert_eq!(hit.start_ns, hit.end_ns, "a hit spends no simulated time");

    // A remote property write bumps the version: the next read may not
    // serve the stale 5.
    cluster
        .call_method(N0, c.clone(), "set_v", vec![Value::Int(9)])
        .unwrap();
    assert_eq!(get_v(&cluster, &c), Value::Int(9));
    assert!(cluster.stats().cache_invalidations >= 1);

    // An arbitrary mutating method invalidates too.
    assert_eq!(
        cluster
            .call_method(N0, c.clone(), "bump", vec![Value::Int(1)])
            .unwrap(),
        Value::Int(10)
    );
    assert_eq!(get_v(&cluster, &c), Value::Int(10));

    // And the refreshed value is cached again.
    let msgs = cluster.network().stats().messages;
    assert_eq!(get_v(&cluster, &c), Value::Int(10));
    assert_eq!(cluster.network().stats().messages, msgs);
}

#[test]
fn caching_is_off_unless_the_policy_opts_the_class_in() {
    let (cluster, c) = deployed(false);
    let before = cluster.network().stats().messages;
    for _ in 0..3 {
        assert_eq!(get_v(&cluster, &c), Value::Int(5));
    }
    let per_read = (cluster.network().stats().messages - before) / 3;
    assert!(per_read >= 2, "every read is a full remote exchange");
    let stats = cluster.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.cache_invalidations, 0);
}

/// The **E10** acceptance bar: on a read-heavy workload (32 rounds of one
/// write and eight reads) the cache removes at least half of the remote
/// exchanges, and every read still returns the value the write left.
#[test]
fn caching_at_least_halves_remote_exchanges_on_a_read_heavy_workload() {
    let remote_calls = |cache: bool| -> u64 {
        let (cluster, c) = deployed(cache);
        let before = cluster.stats().rpc_calls;
        for round in 1..=32 {
            let bumped = cluster
                .call_method(N0, c.clone(), "bump", vec![Value::Int(1)])
                .unwrap();
            assert_eq!(bumped, Value::Int(5 + round));
            for _ in 0..8 {
                assert_eq!(get_v(&cluster, &c), bumped);
            }
        }
        cluster.stats().rpc_calls - before
    };
    let (off, on) = (remote_calls(false), remote_calls(true));
    assert!(
        2 * on <= off,
        "caching must at least halve remote exchanges ({on} vs {off})"
    );
}

#[test]
fn migration_tombstones_the_old_location_so_reads_are_never_stale() {
    let (cluster, c) = deployed(true);

    // Fill the cache through the (node1, oid) location.
    assert_eq!(get_v(&cluster, &c), Value::Int(5));
    assert_eq!(get_v(&cluster, &c), Value::Int(5));
    assert!(cluster.stats().cache_hits >= 1);

    // Move the object: node 1's location is tombstoned and vacated.
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();

    // Mutate at the new home without going through node 0's proxy, which
    // still addresses node 1.
    let moved = Value::Ref(home_handle(&cluster, N2));
    cluster
        .call_method(N2, moved, "set_v", vec![Value::Int(42)])
        .unwrap();

    // A read addressed at the tombstoned location never hits: the cached 5
    // must not surface. It goes remote, is answered `unknown object`, and
    // is redirected once to the live home.
    let hits = cluster.stats().cache_hits;
    let msgs = cluster.network().stats().messages;
    assert_eq!(get_v(&cluster, &c), Value::Int(42));
    assert_eq!(cluster.stats().cache_hits, hits);
    assert!(cluster.network().stats().messages > msgs);
    assert_eq!(cluster.location_of(N0, &c), Some(N2), "re-pointed");

    // Through the re-pointed proxy, writes invalidate as at any home.
    cluster
        .call_method(N0, c.clone(), "set_v", vec![Value::Int(43)])
        .unwrap();
    assert_eq!(get_v(&cluster, &c), Value::Int(43));
    assert_eq!(get_v(&cluster, &c), Value::Int(43));
}

/// A move vacates the old location, so an object that migrates away and
/// back is a fresh export at its old node, cacheable again — not a
/// revived location still tombstoned, whose reads would go remote forever.
#[test]
fn an_object_that_migrates_away_and_back_is_cacheable_again() {
    let (cluster, c) = deployed(true);
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();
    cluster.migrate(N2, home_handle(&cluster, N2), N1).unwrap();
    assert_eq!(get_v(&cluster, &c), Value::Int(5));
    let hits = cluster.stats().cache_hits;
    assert_eq!(get_v(&cluster, &c), Value::Int(5));
    assert_eq!(
        cluster.stats().cache_hits,
        hits + 1,
        "the read after the round trip is served from the cache"
    );
}

#[test]
fn migrate_and_pull_purge_affinity_counts_cluster_wide() {
    // Phase 1: calls accrue affinity at the home; a direct migrate()
    // (not via adapt) must still drop them everywhere.
    let (cluster, c) = deployed(false);
    for _ in 0..5 {
        cluster
            .call_method(N0, c.clone(), "bump", vec![Value::Int(1)])
            .unwrap();
    }
    let counts = cluster.affinity_snapshot(N1);
    assert!(!counts.is_empty(), "calls recorded at the home");
    cluster.migrate(N1, home_handle(&cluster, N1), N2).unwrap();
    assert_eq!(
        cluster.affinity_snapshot(N1),
        vec![],
        "stale counts for the migrated object survived"
    );

    // Phase 2: same for pull_local from the caller's side.
    let (cluster, c) = deployed(false);
    for _ in 0..5 {
        cluster
            .call_method(N0, c.clone(), "bump", vec![Value::Int(1)])
            .unwrap();
    }
    assert!(!cluster.affinity_snapshot(N1).is_empty());
    cluster.pull_local(N0, c.as_ref_handle().unwrap()).unwrap();
    assert_eq!(
        cluster.affinity_snapshot(N1),
        vec![],
        "stale counts survived the pull"
    );
}
