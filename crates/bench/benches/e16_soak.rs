//! **E16 — the production-day soak**: every distribution feature at once,
//! checked op-by-op against the exact single-address-space oracle.
//!
//! One seeded churn schedule (warmup → steady → churn → quiesce, Zipf-
//! popular auction items) drives a 6-node cluster through sharding with
//! replica reads, property caching, invocation batching, k = 2 crash-stop
//! replication, migrations, adaptation and rebalance ticks — under a 5%
//! message-drop rate, with crashes and restarts interleaved throughout.
//! Every value-returning op is compared to the oracle the moment it
//! returns, and every E14 invariant monitor stays armed for the whole run.
//!
//! Reported per seed: the phased [`SoakReport`] (op counts, messages,
//! simulated time, monitor verdicts) plus wall-clock throughput. A second
//! section re-runs a smaller schedule twice and asserts the rendered
//! report is byte-identical — the soak's whole account of the run is
//! deterministic.
//!
//! Knobs (shared with `tests/soak.rs`): `SOAK_OPS=<n>` for an exact op
//! count — `SOAK_OPS=1000000` is the mega tier the incremental
//! dirty-replica sweep makes affordable (~10 s single-core) —
//! `SOAK_SMOKE=1` for the quick CI pass (10⁴ ops),
//! `SOAK_SEEDS=a,b` to sweep seeds. Default: 10⁵ ops, seed 42.
//!
//! Every run appends its wall-clock throughput to
//! `target/BENCH_e16_soak.json` (one JSON object per line: tier, depth,
//! seed, wall seconds, ops/s, messages, sweep probes), so the perf
//! trajectory across the 10⁴/10⁵/10⁶ tiers lands in a machine-readable
//! artifact next to the human report.
//!
//! [`SoakReport`]: rafda::runtime::SoakReport

use rafda::corpus::ops::generate_churn;
use rafda::corpus::ops::ChurnConfig;
use rafda::soak::run_schedule;
use std::io::Write as _;

/// Op-count knob, shared with the soak gate: `SOAK_OPS` wins, then
/// `SOAK_SMOKE`, then the full 10⁵ default.
fn depth() -> usize {
    if let Ok(v) = std::env::var("SOAK_OPS") {
        return v.parse().expect("SOAK_OPS must be an op count");
    }
    if std::env::var_os("SOAK_SMOKE").is_some() {
        return 10_000;
    }
    100_000
}

/// Tier label for the JSON artifact, by depth.
fn tier(depth: usize) -> &'static str {
    match depth {
        d if d <= 10_000 => "smoke",
        d if d <= 100_000 => "full",
        _ => "mega",
    }
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

fn main() {
    let depth = depth();
    println!("\n=== E16: production-day soak ({depth} ops per seed, drop 5%, k = 2) ===");
    let mut bench_lines = Vec::new();
    for seed in seeds() {
        let cfg = ChurnConfig::production_day(seed, depth);
        let schedule = generate_churn(&cfg);
        let wall = std::time::Instant::now();
        let report = run_schedule(&cfg, &schedule)
            .unwrap_or_else(|msg| panic!("soak seed {seed} diverged from the oracle: {msg}"));
        let secs = wall.elapsed().as_secs_f64();
        println!("{report}");
        assert!(report.clean(), "a monitor fired:\n{report}");
        assert_eq!(report.total_ops() as usize, schedule.total_ops());
        let ops_per_s = schedule.total_ops() as f64 / secs;
        println!("  wall: {secs:.2} s ({ops_per_s:.0} ops/s)\n");
        // Per-phase sweep accounting, printed *outside* the report text
        // (the report itself must stay byte-identical across the sweep
        // rewrite): probes per phase show the O(dirty) behavior — heavy
        // in churn, near-zero in the read-dominated quiesce tail.
        let probe_summary: Vec<String> = report
            .phases
            .iter()
            .map(|p| format!("{}={}", p.name, p.stats.replica_sweep_probes))
            .collect();
        println!(
            "  sweep probes: {} total ({}), {} dirty marks",
            report.stats.replica_sweep_probes,
            probe_summary.join(" "),
            report.stats.dirty_marks,
        );
        bench_lines.push(format!(
            "{{\"bench\":\"e16_soak\",\"tier\":\"{}\",\"ops\":{},\"seed\":{},\"wall_s\":{:.3},\
             \"ops_per_s\":{:.0},\"messages\":{},\"sweep_probes\":{},\"dirty_marks\":{}}}",
            tier(depth),
            depth,
            seed,
            secs,
            ops_per_s,
            report.messages,
            report.stats.replica_sweep_probes,
            report.stats.dirty_marks,
        ));
    }
    // The machine-readable perf trajectory: append-per-run so a
    // 10⁴/10⁵/10⁶ tier sweep accumulates into one artifact. The bench
    // binary's cwd is the package dir, so resolve the workspace target/
    // from the manifest path.
    let artifact = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_e16_soak.json"
    );
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(artifact)
    {
        for line in &bench_lines {
            let _ = writeln!(f, "{line}");
        }
        println!("bench artifact: {artifact}");
    }

    // Determinism drill at a fixed small depth (independent of the knobs,
    // so the check costs the same in smoke and full runs): same seed, same
    // schedule, byte-identical report.
    let render = || {
        let cfg = ChurnConfig::production_day(7, 1_500);
        let schedule = generate_churn(&cfg);
        run_schedule(&cfg, &schedule)
            .expect("the small soak is clean")
            .to_string()
    };
    let a = render();
    assert_eq!(a, render(), "same seed must render an identical report");
    println!("determinism: seed-7 report byte-identical across two runs");
}
