//! The production-day soak gate (experiment **E16**).
//!
//! One seeded churn schedule drives every distribution feature at once —
//! sharding with replica reads, property caching, invocation batching,
//! k = 2 replication with crash-stop failover, migrations, adaptation and
//! rebalance ticks, all under a 5 % message-drop rate — checked op-by-op
//! against the exact single-address-space oracle with every invariant
//! monitor armed.
//!
//! Knobs (see `ci.sh`):
//!
//! * `SOAK_OPS=<n>` — exact op count (default: the 10⁴-op smoke depth);
//! * `SOAK_SEEDS=1,2,3` — run the gate once per seed (default `42`).
//!
//! Plain `cargo test` runs at the smoke depth so the debug tier stays
//! fast; the full production day is `SOAK_OPS=100000 cargo test --release
//! -p rafda --test soak -- --nocapture`, which also prints each seed's
//! wall seconds and ops/s (the 10⁴ / 10⁵ / 10⁶ tier measurement) after
//! its report.
//!
//! On failure the gate does not just panic: it hands the flattened op
//! list to the delta-debugging shrinker (`proptest::shrink`) and prints a
//! minimal failing trace together with the seed and an exact replay
//! command line.

use proptest::shrink::minimise;
use rafda::corpus::ops::{generate_churn, ChurnConfig, Oracle, SoakOp};
use rafda::soak::{run_flat, run_schedule, SoakHarness};
use rafda::NodeId;

/// Gate depth: `SOAK_OPS` if set, otherwise the 10⁴ smoke depth.
fn depth() -> usize {
    if let Ok(v) = std::env::var("SOAK_OPS") {
        return v.parse().expect("SOAK_OPS must be an op count");
    }
    10_000
}

/// Seeds to sweep: `SOAK_SEEDS` as a comma list, default `42`.
fn seeds() -> Vec<u64> {
    match std::env::var("SOAK_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("SOAK_SEEDS must be seeds"))
            .collect(),
        Err(_) => vec![42],
    }
}

/// Render a shrunk trace, one op per line.
fn render_trace(ops: &[SoakOp]) -> String {
    ops.iter()
        .enumerate()
        .map(|(i, op)| format!("  {i:>3}: {op}\n"))
        .collect()
}

/// The gate: the full churn schedule must match the oracle op-for-op and
/// leave every monitor silent. On divergence, shrink and report.
#[test]
fn production_day_soak_matches_the_oracle() {
    for seed in seeds() {
        let cfg = ChurnConfig::production_day(seed, depth());
        let schedule = generate_churn(&cfg);
        let wall = std::time::Instant::now();
        let outcome = run_schedule(&cfg, &schedule);
        let secs = wall.elapsed().as_secs_f64();
        match outcome {
            Ok(report) => {
                println!("{report}");
                // Host time is printed next to the report, never inside it.
                let ops_per_s = schedule.total_ops() as f64 / secs;
                println!(
                    "  wall: {secs:.2} s ({ops_per_s:.0} ops/s); {} sweep probes, {} dirty marks\n",
                    report.stats.replica_sweep_probes, report.stats.dirty_marks
                );
                assert_eq!(report.total_ops() as usize, schedule.total_ops());
                assert!(report.clean(), "{report}");
                // The sweep's bookkeeping is O(written), not O(exports): a
                // mark per logged write or version bump, a probe per mark
                // that survives to a sweep — about one and 0.4 per op here,
                // where marking whole nodes costs 13.8 and 7.4.
                let ops = report.total_ops();
                assert!(report.stats.dirty_marks <= 2 * ops, "{report}");
                assert!(report.stats.replica_sweep_probes <= ops, "{report}");
            }
            Err(msg) => {
                let ops = schedule.flatten();
                let min = minimise(&ops, 600, |sub| run_flat(&cfg, sub, false).is_err());
                panic!(
                    "soak seed {seed} diverged: {msg}\n\
                     minimal failing trace ({} of {} ops, {} probe runs):\n{}\
                     replay: SOAK_SEEDS={seed} SOAK_OPS={} cargo test --test soak",
                    min.ops.len(),
                    ops.len(),
                    min.runs,
                    render_trace(&min.ops),
                    depth(),
                );
            }
        }
    }
}

/// Same seed, same schedule, byte-identical report — the soak's whole
/// account of the run (op counts, message totals, simulated time, monitor
/// verdicts) is deterministic.
#[test]
fn the_soak_report_is_deterministic() {
    let render = || {
        let cfg = ChurnConfig::production_day(7, 1_500);
        let schedule = generate_churn(&cfg);
        run_schedule(&cfg, &schedule)
            .expect("the small soak is clean")
            .to_string()
    };
    let a = render();
    assert_eq!(a, render(), "same seed must render an identical report");
    assert!(a.contains("seed 7"), "{a}");
}

/// The seed-42 smoke-depth report is pinned to
/// `tests/golden/soak_seed42_smoke.txt`: every change that promises
/// "byte-identical per seed" is held to it here instead of by a hand diff.
/// If a deliberate change moves a message count or a clock reading,
/// regenerate the file by copying the `actual` dump this assertion prints.
#[test]
fn the_seed_42_smoke_report_matches_its_golden_file() {
    let cfg = ChurnConfig::production_day(42, 10_000);
    let schedule = generate_churn(&cfg);
    let actual = run_schedule(&cfg, &schedule)
        .expect("the seed-42 smoke soak is clean")
        .to_string();
    let golden = include_str!("golden/soak_seed42_smoke.txt");
    assert_eq!(
        actual.trim(),
        golden.trim(),
        "soak report drifted from the golden file;\nactual:\n{actual}"
    );
}

/// The seed-42 smoke day, applied op by op and finished.
fn smoke_day() -> (ChurnConfig, SoakHarness) {
    let cfg = ChurnConfig::production_day(42, 10_000);
    let mut harness = SoakHarness::deploy(&cfg);
    let mut oracle = Oracle::new(cfg.pool());
    for op in generate_churn(&cfg).flatten() {
        harness
            .apply(&op, &mut oracle)
            .expect("the smoke day is clean");
    }
    harness.finale(&oracle).expect("the smoke day is clean");
    (cfg, harness)
}

/// A node holds at most one handle per object, so no node's imports
/// outgrow the pool, however many times its objects move. Imports are
/// keyed by object identity: a landing finds the proxy its destination
/// already holds whichever location the proxy names, and rewrites it.
#[test]
fn no_node_imports_more_handles_than_the_pool_has_objects() {
    let (cfg, harness) = smoke_day();
    for node in harness.cluster().describe() {
        assert!(node.imports <= cfg.pool(), "{node}");
    }
}

/// A server keeps, per caller, the replies that caller may still
/// retransmit: at most one per level of its RPC stack. So after the smoke
/// day no node holds more than nodes × the runtime's nesting limit
/// (`MAX_RPC_DEPTH`, 64) replies, however many exchanges it served.
#[test]
fn reply_windows_hold_at_most_the_rpc_depth_per_caller() {
    let (_, harness) = smoke_day();
    let nodes = harness.cluster().describe();
    for node in &nodes {
        assert!(node.cached_replies <= nodes.len() * 64, "{node}");
    }
    assert!(nodes.iter().any(|node| node.cached_replies > 0));
}

/// The span log stores each distinct attribute list once: the smoke day's
/// spans read back about 170,000 attributes, but their class, method and
/// protocol rows repeat, so the arena holds a few thousand.
#[test]
fn the_span_arena_holds_each_attribute_list_once() {
    let (_, harness) = smoke_day();
    let log = harness.cluster().span_log();
    let read_back: usize = log.spans().map(|s| log.attrs(&s).len()).sum();
    let stored = log.arena_len();
    assert!(
        20 * stored < read_back,
        "the arena holds {stored} of the {read_back} attributes its spans read"
    );
}

/// The O(dirty) regression gate: a read-only steady phase must perform
/// **zero** sweep probes. Getters never bump versions and never write a
/// heap entry, so pure read traffic leaves the dirty set empty and the
/// sweep at each exchange probes nothing — the property that makes the
/// sweep cost proportional to activity, not deployment size.
#[test]
fn a_read_only_steady_phase_performs_zero_sweep_probes() {
    let cfg = ChurnConfig::production_day(21, 0);
    let mut harness = SoakHarness::deploy(&cfg);
    let mut oracle = Oracle::new(cfg.pool());
    // Mutate every pool object once so real replicated state exists —
    // zero probes must mean "nothing was dirty", not "nothing was there".
    for idx in 0..cfg.pool() {
        harness
            .apply(&SoakOp::Call { idx, delta: 1 }, &mut oracle)
            .expect("warmup mutation");
    }
    // Quiescent settle: ship every backup and drain the dirty set.
    assert_eq!(harness.cluster().check_invariants(), vec![]);
    let before = harness.cluster().stats();
    for _ in 0..5 {
        for idx in 0..cfg.pool() {
            harness
                .apply(&SoakOp::Read { idx }, &mut oracle)
                .expect("read-only phase");
        }
    }
    let after = harness.cluster().stats();
    assert_eq!(
        after.replica_sweep_probes, before.replica_sweep_probes,
        "read-only traffic must not probe a single replica"
    );
    assert_eq!(
        after.dirty_marks, before.dirty_marks,
        "getters must never mark a location dirty"
    );
}

/// Dirty-marking completeness for the subtlest path: a pulled object's
/// later mutations are plain VM calls on the coordinator — no serve, no
/// exchange, no version bump at a server — exactly the shape of the PR 7
/// lost-update bug. The coordinator's heap logs the write, and the next
/// remote exchange's sweep must drain the log into a dirty mark, probe the
/// location and re-ship the drifted state.
#[test]
fn a_local_call_after_pull_marks_dirty_and_reships() {
    let cfg = ChurnConfig::production_day(29, 0);
    let mut harness = SoakHarness::deploy(&cfg);
    let mut oracle = Oracle::new(cfg.pool());
    let acct = ChurnConfig::ITEMS; // first Acct: cached, k = 2, home node 1
    harness
        .apply(
            &SoakOp::Call {
                idx: acct,
                delta: 5,
            },
            &mut oracle,
        )
        .expect("warm the value");
    harness
        .apply(&SoakOp::Pull { idx: acct }, &mut oracle)
        .expect("pull the acct local to the coordinator");
    assert_eq!(harness.cluster().check_invariants(), vec![]);
    let before = harness.cluster().stats();
    harness
        .apply(
            &SoakOp::Call {
                idx: acct,
                delta: 3,
            },
            &mut oracle,
        )
        .expect("local mutation on the pulled object");
    // A cold read of a *different* acct is guaranteed to go remote, and
    // that exchange's sweep must mark the written location, probe it and
    // ship it. (Marks are charged when the log is drained, not at the call.)
    harness
        .apply(&SoakOp::Read { idx: acct + 1 }, &mut oracle)
        .expect("unrelated remote traffic");
    let swept = harness.cluster().stats();
    assert!(
        swept.dirty_marks > before.dirty_marks,
        "the bare local mutation must mark its location dirty"
    );
    assert!(
        swept.replica_sweep_probes > before.replica_sweep_probes,
        "the next exchange must probe the marked location"
    );
    assert!(
        swept.replica_syncs > before.replica_syncs,
        "the drifted state must re-ship to the backups"
    );
    harness.finale(&oracle).expect("oracle-exact finale");
}

/// Replay of the PR 7 self-promotion scenario at soak level: crash the
/// `Acct` home so the next call failover-promotes a backup, keep mutating
/// the promoted copy, then crash the *new* home. If post-promotion
/// mutations ever stopped reaching the backups, the second failover would
/// resurrect stale state and the oracle check would catch it. (The exact
/// in-VM self-promotion replay lives in the runtime's
/// `local_mutations_after_self_promotion_reach_the_backups` regression
/// test; this trace drives the same hazard through the public soak path.)
#[test]
fn pr7_trace_promoted_state_survives_a_second_crash() {
    let cfg = ChurnConfig::production_day(27, 0);
    let acct = ChurnConfig::ITEMS;
    let ops = vec![
        SoakOp::Call {
            idx: acct,
            delta: -4,
        },
        SoakOp::Crash { node: 1 }, // the Acct home dies
        SoakOp::Call {
            idx: acct,
            delta: -9,
        }, // failover-promote, then mutate
        SoakOp::Call {
            idx: acct,
            delta: -3,
        },
        SoakOp::Crash { node: 0 }, // heal node 1, then kill the promoted home
        SoakOp::Read { idx: acct },
    ];
    run_flat(&cfg, &ops, false).expect("post-promotion mutations must reach the backups");
}

/// Replay of the PR 9 two-op shrunk trace: a void `inc` on a batched
/// `Tally` is deferred while its destination is already crashed; the
/// flush (at the heal's restart synchronization point) must re-home the
/// deferred op through the recorded home instead of silently dropping it.
#[test]
fn pr9_trace_deferred_call_to_crashed_destination_is_not_lost() {
    let cfg = ChurnConfig::production_day(23, 0);
    let tally = ChurnConfig::ITEMS + ChurnConfig::ACCTS; // first Tally: batched, home node 2
    let ops = vec![
        SoakOp::Crash { node: 2 },
        SoakOp::Inc {
            idx: tally,
            delta: 7,
        },
    ];
    run_flat(&cfg, &ops, false).expect("the deferred op must be re-homed, not lost");
}

/// Replay of the PR 9 five-op shrunk trace: mutate, migrate, mutate at
/// the new home, crash the new home, read. Without a cluster-level home
/// record for migrations, failover resurrected the stale pre-migration
/// backup; the recorded home must route the promotion to current state.
#[test]
fn pr9_trace_migration_records_a_home_so_crash_cycling_stays_exact() {
    let cfg = ChurnConfig::production_day(25, 0);
    let acct = ChurnConfig::ITEMS;
    let ops = vec![
        SoakOp::Call {
            idx: acct,
            delta: 5,
        },
        SoakOp::Migrate { idx: acct, node: 0 },
        SoakOp::Call {
            idx: acct,
            delta: 3,
        },
        SoakOp::Crash { node: 0 },
        SoakOp::Read { idx: acct },
    ];
    run_flat(&cfg, &ops, false).expect("failover must follow the recorded home");
}

/// The satellite export-purge bugfix: a migrated-away entry leaves the
/// source node's live `exports` table (the sweep stops re-probing it
/// forever), a read through the old location is redirected to the live
/// home, and pulling the object back home through the handle the move
/// left there exports it again under a fresh id — the table returns to its
/// original size.
#[test]
fn a_migrated_export_leaves_the_source_table_and_returns_on_round_trip() {
    let cfg = ChurnConfig::production_day(31, 0);
    let mut harness = SoakHarness::deploy(&cfg);
    let mut oracle = Oracle::new(cfg.pool());
    let acct = ChurnConfig::ITEMS;
    harness
        .apply(
            &SoakOp::Call {
                idx: acct,
                delta: 2,
            },
            &mut oracle,
        )
        .expect("warm the value");
    let coord = NodeId(u32::from(ChurnConfig::NODES) - 1);
    let home = NodeId(1);
    let before = harness.cluster().export_count(home);
    let (owner, handle) = harness
        .cluster()
        .home_of(coord, harness.obj(acct))
        .expect("the acct starts at its placed home");
    assert_eq!(owner, home);
    harness
        .cluster()
        .migrate(owner, handle, NodeId(3))
        .expect("migrate away");
    assert_eq!(
        harness.cluster().export_count(home),
        before - 1,
        "the moved-away entry must leave the live export table"
    );
    // A read through the old location is redirected to the live home.
    harness
        .apply(&SoakOp::Read { idx: acct }, &mut oracle)
        .expect("read through the old location");
    // `migrate` rewrote the source object in place, so `handle` is now a
    // proxy on node 1; pulling through it brings the object home, where it
    // is exported again under a fresh id.
    harness
        .cluster()
        .pull_local(home, handle)
        .expect("pull the object back home");
    assert_eq!(
        harness.cluster().export_count(home),
        before,
        "the round-tripped object is one live entry again"
    );
    harness
        .apply(
            &SoakOp::Call {
                idx: acct,
                delta: 1,
            },
            &mut oracle,
        )
        .expect("mutate after the round trip");
    harness.finale(&oracle).expect("oracle-exact finale");
}

/// Failure-path drill: plant the E10 cache-coherence canary (the next
/// migration "forgets" its tombstone) under a realistic op prefix, then
/// shrink. The minimal trace must be tiny (≤ 10 ops) and still fail.
#[test]
fn a_planted_fault_shrinks_to_a_minimal_trace() {
    let cfg = ChurnConfig::production_day(99, 120);
    let schedule = generate_churn(&cfg);
    // Keep only call/read/inc churn so the planted migration's tombstone
    // is the single one the canary can skip, then append the trigger:
    // warm the cache, migrate, read through the moved-away location.
    let mut ops: Vec<SoakOp> = schedule
        .flatten()
        .into_iter()
        .filter(|op| {
            matches!(
                op,
                SoakOp::Call { .. } | SoakOp::Read { .. } | SoakOp::Inc { .. }
            )
        })
        .collect();
    let acct = ChurnConfig::ITEMS; // first Acct index
    ops.push(SoakOp::Call {
        idx: acct,
        delta: 3,
    });
    ops.push(SoakOp::Read { idx: acct });
    ops.push(SoakOp::Migrate { idx: acct, node: 3 });
    ops.push(SoakOp::Read { idx: acct });

    assert!(
        run_flat(&cfg, &ops, true).is_err(),
        "the planted fault must fail at full length"
    );
    let min = minimise(&ops, 300, |sub| run_flat(&cfg, sub, true).is_err());
    println!(
        "canary shrank {} ops to {} in {} probe runs (seed {}):\n{}",
        ops.len(),
        min.ops.len(),
        min.runs,
        cfg.seed,
        render_trace(&min.ops),
    );
    assert!(min.improved, "shrinking must make progress");
    assert!(
        min.ops.len() <= 10,
        "minimal trace should be tiny, got {} ops:\n{}",
        min.ops.len(),
        render_trace(&min.ops),
    );
    assert!(
        run_flat(&cfg, &min.ops, true).is_err(),
        "the minimal trace must still fail"
    );
}
