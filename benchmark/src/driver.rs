//! The run loop: set-up, warm-up, timed rounds, estimates.
//!
//! **Run shape.** A run sets the workload up [`SETUPS`] times (input
//! generation, reference computation, build + transform + deploy +
//! populate, and one full-size untimed warm-up round — at least a second
//! of real work each) and reports the median as `setup_s`. It then keeps
//! making fresh deployments and replaying the *same* seeded op sequence
//! until `--seconds` of replay time have been measured (at least
//! [`MIN_ROUNDS`] rounds). Round *size* is a fixed op count; only the
//! *number* of rounds follows the clock.
//!
//! **Reference-speed time.** Every host-time figure is reported in time on
//! the reference-speed host: each replay is cut into segments of a few
//! milliseconds with a burst of the [`calibrate`](crate::calibrate) kernel
//! between them, and each segment's wall — and every op timed inside it —
//! is scaled by the host speed its bracketing bursts saw. On the hosts this
//! runs on, speed flips by a third within tens of milliseconds and the mix
//! drifts over minutes, so no order statistic over the rounds of one run
//! removes it. Raw figures ride along (`driver.raw_ops_per_s`,
//! `driver.host_speed`, `driver.round_spread`), so a noisy host is visible
//! rather than silent.
//!
//! **Estimates.** `ops_per_s` is ops ÷ the median reference-speed round
//! wall. `driver.raw_ops_per_s` is ops ÷ the lower-quartile *raw* round
//! wall (third fastest of nine): without correction interference only adds
//! time, so the fast side is the stable side and one lucky round cannot
//! set the figure. Percentiles are taken per round (nearest rank) and the
//! median over rounds is reported, which keeps the driver's own memory
//! independent of how many rounds fit in the budget — pooling every sample
//! would make `peak_rss_mb` grow with the round count.
//!
//! **Tracing.** End-to-end metrics always come from untraced rounds. A
//! `--trace 1` run alternates untraced and traced rounds (per-op spans on),
//! runs the layer probes, writes the span files and reports the per-layer
//! metrics, including the traced ÷ untraced cost ratio.

use crate::calibrate::ReplayWall;
use crate::json::{write_num, write_str};
use crate::metrics::{pipeline_end_to_end, pipeline_per_layer, to_reference, unit_of};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::{Layer, Tracer};
use crate::workloads::{self, Counters, KindGroup, Recorder, Workload};
use crate::{host, probes};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Replay seconds one run measures unless `--seconds` says otherwise; the
/// same figure as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;
/// Full set-ups per untraced run (`setup_s` is their median).
pub const SETUPS: usize = 3;
/// Timed rounds a run measures at the very least.
pub const MIN_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// The only workload input.
    pub seed: u64,
    /// Replay seconds to measure.
    pub seconds: f64,
    /// Multiplier on every round size (1.0 = the calibrated sizes; smaller
    /// values are for smoke runs and self-tests, never for reported numbers).
    pub scale: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Where a traced run writes `trace_*.json` and `layers_*.json`.
    pub trace_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the metric tables.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric whose unit the tables know.
    fn tabled(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit: unit_of(name),
            value,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted in timed rounds.
    pub attempted: u64,
    /// Ops (or round-level checks) that failed in timed rounds.
    pub failed: u64,
    /// The first failure, for the operator.
    pub first_failure: Option<String>,
    /// End-to-end metrics (`trace: false`) or per-layer metrics
    /// (`trace: true`), in table order.
    pub metrics: Vec<Metric>,
    /// Figures for the parent commands that are not pipeline metrics of
    /// this run: the exact metrics, `fail_share`, the raw-time figures, the
    /// attribution of a traced run.
    pub detail: Vec<Metric>,
    /// Raw wall (milliseconds) and host speed of every untraced timed
    /// round, in run order — printed for the operator.
    pub round_walls_ms: Vec<(f64, f64)>,
}

impl Outcome {
    /// Whether every checked value agreed with its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Process exit code: non-zero as soon as one op failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// Value of a reported metric or detail figure.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.correct(),
            self.attempted,
            self.failed
        );
        write_metrics(&mut out, &self.metrics);
        out.push('}');
        out
    }

    /// The line printed before the result line for `run`/`agree` to read.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("detail ");
        write_metrics(&mut out, &self.detail);
        out
    }
}

fn write_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, m.name);
        out.push_str(":{\"value\":");
        write_num(out, m.value);
        out.push_str(",\"unit\":");
        write_str(out, m.unit);
        out.push('}');
    }
    out.push('}');
}

/// What one round measured. Host times are reference-speed nanoseconds.
#[derive(Debug, Clone)]
struct Round {
    wall: ReplayWall,
    p50_ns: u32,
    p99_ns: u32,
    failed: u64,
    first_failure: Option<String>,
    counters: Counters,
    /// p50 of each of the workload's kind groups, `None` when the round
    /// had no op of that group.
    group_p50_ns: Vec<Option<u32>>,
    metrics: Vec<(&'static str, f64)>,
}

/// Fresh deployment, replay, verification. The round wall is the replay.
/// `groups` are the op-kind groups whose p50 the caller will report (an
/// end-to-end run reports none and skips the sorting).
fn round(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    number: u16,
    trace_ops: bool,
    groups: &[KindGroup],
) -> Round {
    rec.tracer.set_round(number);
    let round_span = rec.tracer.enter(Layer::Driver, "driver.round");
    w.deploy(&mut rec.tracer);
    rec.tracer.ops = trace_ops;
    let replay_span = rec.tracer.enter(Layer::Driver, "driver.replay");
    rec.begin_replay();
    w.replay(rec);
    let wall = rec.end_replay();
    rec.tracer.exit(replay_span);
    rec.tracer.ops = false;
    w.verify(rec);
    rec.tracer.exit(round_span);

    let sorted_ns = |kinds: Option<&[u8]>| {
        let mut ns: Vec<u32> = rec
            .samples
            .iter()
            .filter(|s| kinds.is_none_or(|k| k.contains(&s.kind)))
            .map(|s| s.ns)
            .collect();
        ns.sort_unstable();
        ns
    };
    let all = sorted_ns(None);
    Round {
        wall,
        p50_ns: percentile(&all, 50),
        p99_ns: percentile(&all, 99),
        failed: rec.failed,
        first_failure: rec.first_failure.clone(),
        counters: w.counters(),
        group_p50_ns: groups
            .iter()
            .map(|g| {
                let ns = sorted_ns(Some(&g.kinds));
                (!ns.is_empty()).then(|| percentile(&ns, 50))
            })
            .collect(),
        metrics: w.round_metrics(),
    }
}

/// Timed rounds until `seconds` of replay have been measured (at least
/// [`MIN_ROUNDS`]). With `traced_too`, every other round runs with per-op
/// spans on and lands in the second set: the traced run alternates so both
/// kinds see the same host.
fn timed_rounds(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    traced_too: bool,
    groups: &[KindGroup],
) -> [Vec<Round>; 2] {
    let mut sets = [Vec::new(), Vec::new()];
    let kinds = if traced_too { 2 } else { 1 };
    let (mut measured_ns, mut number) = (0.0, 0u16);
    while sets[kinds - 1].len() < MIN_ROUNDS || measured_ns < seconds * 1e9 {
        for (i, rounds) in sets.iter_mut().take(kinds).enumerate() {
            number += 1;
            let r = round(w, rec, number, i == 1, groups);
            measured_ns += r.wall.raw_ns;
            rounds.push(r);
        }
    }
    sets
}

/// Totals over the timed rounds, plus the determinism check: the same
/// sequence on a fresh deployment must move every counter identically.
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn of<'a>(
        rounds: impl Iterator<Item = &'a Round>,
        ops_per_round: usize,
        reference: &Counters,
    ) -> Tally {
        let mut t = Tally {
            attempted: 0,
            failed: 0,
            first_failure: None,
        };
        for (i, r) in rounds.enumerate() {
            t.attempted += ops_per_round as u64;
            t.failed += r.failed;
            if t.first_failure.is_none() {
                t.first_failure.clone_from(&r.first_failure);
            }
            if r.counters != *reference {
                t.failed += 1;
                t.first_failure.get_or_insert_with(|| {
                    format!(
                        "timed round {} moved the deterministic counters differently from the \
                         warm-up round: {:?} vs {:?}",
                        i + 1,
                        r.counters,
                        reference
                    )
                });
            }
        }
        t
    }
}

fn round_walls(rounds: &[Round]) -> Vec<(f64, f64)> {
    rounds
        .iter()
        .map(|r| (r.wall.raw_ns / 1e6, r.wall.host_speed()))
        .collect()
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Median reference-speed round wall, ns.
fn reference_wall_ns(rounds: &[Round]) -> f64 {
    median_of(rounds, |r| r.wall.reference_ns)
}

/// The run-shape and raw-time figures every run reports beside its
/// metrics, from a set of untraced rounds.
fn shape(rounds: &[Round], ops: f64) -> Vec<Metric> {
    let raw: Vec<f64> = rounds.iter().map(|r| r.wall.raw_ns).collect();
    let reference: Vec<f64> = rounds.iter().map(|r| r.wall.reference_ns).collect();
    let mut sorted = raw.clone();
    sorted.sort_by(f64::total_cmp);
    let raw_wall_ns = percentile(&sorted, 25);
    vec![
        Metric::tabled("driver.raw_ops_per_s", ops / (raw_wall_ns / 1e9)),
        Metric::tabled(
            "driver.host_speed",
            median_of(rounds, |r| r.wall.host_speed()),
        ),
        Metric::tabled("driver.round_spread", iqr_share(&raw)),
        Metric::tabled("driver.reference_round_spread", iqr_share(&reference)),
        Metric::tabled("driver.timed_rounds", rounds.len() as f64),
        Metric::tabled("driver.round_wall_ms", raw_wall_ns / 1e6),
        Metric::tabled("driver.ops_per_round", ops),
    ]
}

/// The three exact end-to-end metrics, from one replay's counters.
fn exact_metrics(c: &Counters, ops: f64) -> [(&'static str, f64); 3] {
    [
        ("sim_us_per_op", c.sim_ns as f64 / 1e3 / ops),
        ("wire_msgs_per_op", c.messages as f64 / ops),
        ("wire_bytes_per_op", c.bytes as f64 / ops),
    ]
}

/// How a run gets its workload: called once per set-up.
pub(crate) type Build<'a> = &'a mut dyn FnMut(&mut Tracer) -> Box<dyn Workload>;

/// Run one workload as `cfg` says. `process_start` is when the process
/// began, so the first set-up includes everything before `main` got here.
///
/// # Errors
/// An unknown workload name, or a trace file that could not be written.
pub fn run(cfg: &RunConfig, process_start: Instant) -> Result<Outcome, String> {
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            cfg.workload,
            workloads::NAMES.join(", ")
        ));
    }
    run_built(cfg, process_start, &mut |tracer| {
        workloads::build(&cfg.workload, cfg.seed, cfg.scale, tracer)
            .expect("the name was checked above")
    })
}

/// [`run`] with the workload supplied by the caller (the self-tests
/// falsify a reference answer on the way).
pub(crate) fn run_built(
    cfg: &RunConfig,
    process_start: Instant,
    build: Build<'_>,
) -> Result<Outcome, String> {
    if cfg.trace {
        run_traced(cfg, process_start, build)
    } else {
        Ok(run_end_to_end(cfg, process_start, build))
    }
}

/// One set-up: build the workload (inputs, reference answers) and run a
/// full-size untimed warm-up round on a first deployment.
fn set_up(rec: &mut Recorder, build: Build<'_>) -> (Box<dyn Workload>, Round) {
    let span = rec.tracer.enter(Layer::Driver, "driver.setup");
    let mut w = build(&mut rec.tracer);
    rec.bind(w.as_ref());
    let warmup = round(w.as_mut(), rec, 0, false, &[]);
    rec.tracer.exit(span);
    (w, warmup)
}

fn run_end_to_end(cfg: &RunConfig, process_start: Instant, build: Build<'_>) -> Outcome {
    let mut rec = Recorder::new(Tracer::new(&cfg.workload, process_start));
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut current: Option<(Box<dyn Workload>, Round)> = None;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let bursts_before = rec.burst_total_ns();
        // Return the previous set-up's memory before building the next.
        drop(current.take());
        let (w, warmup) = set_up(&mut rec, build);
        let own_ns = start.elapsed().as_nanos() as u64 - (rec.burst_total_ns() - bursts_before);
        // The warm-up replay is most of a set-up and the only part with
        // bursts inside it: its host speed stands for the whole set-up.
        setup_s.push(own_ns as f64 / 1e9 * warmup.wall.host_speed());
        current = Some((w, warmup));
    }
    let (mut w, warmup) = current.expect("SETUPS is at least one");

    let [rounds, _] = timed_rounds(w.as_mut(), &mut rec, cfg.seconds, false, &[]);
    let ops = w.ops_per_round();
    let tally = Tally::of(rounds.iter(), ops, &warmup.counters);
    let values: BTreeMap<&str, f64> = [
        ("ops_per_s", ops as f64 / (reference_wall_ns(&rounds) / 1e9)),
        (
            "op_p50_us",
            median_of(&rounds, |r| f64::from(r.p50_ns)) / 1e3,
        ),
        ("peak_rss_mb", host::peak_rss_bytes() as f64 / 1e6),
        ("setup_s", median(&setup_s)),
    ]
    .into();
    let metrics = pipeline_end_to_end()
        .map(|m| Metric::tabled(m.spec.name, values[m.spec.name]))
        .collect();

    let mut detail = Vec::new();
    if warmup.counters.cluster {
        detail
            .extend(exact_metrics(&warmup.counters, ops as f64).map(|(n, v)| Metric::tabled(n, v)));
    }
    detail.push(Metric {
        name: "fail_share",
        unit: "ratio",
        value: tally.failed as f64 / tally.attempted as f64,
    });
    detail.extend(shape(&rounds, ops as f64));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
        detail,
        round_walls_ms: round_walls(&rounds),
    }
}

fn run_traced(
    cfg: &RunConfig,
    process_start: Instant,
    build: Build<'_>,
) -> Result<Outcome, String> {
    let mut rec = Recorder::new(Tracer::new(&cfg.workload, process_start));
    let span = rec.tracer.enter(Layer::Driver, "driver.setup");
    let mut w = build(&mut rec.tracer);
    rec.bind(w.as_ref());
    let ops = w.ops_per_round();

    // Warm-up round by hand: the system's own span count and the resident
    // set are read on either side of the replay.
    rec.tracer.set_round(0);
    w.deploy(&mut rec.tracer);
    let spans_before = w.system_spans();
    let rss_before = host::rss_bytes();
    let replay_span = rec.tracer.enter(Layer::Driver, "driver.replay");
    rec.begin_replay();
    w.replay(&mut rec);
    let warmup_wall = rec.end_replay();
    rec.tracer.exit(replay_span);
    let rss_growth = host::rss_bytes().saturating_sub(rss_before);
    let system_spans = w.system_spans() - spans_before;
    w.verify(&mut rec);
    let reference = w.counters();
    rec.tracer.exit(span);

    let groups = w.kind_groups();
    let [plain, spanned] = timed_rounds(w.as_mut(), &mut rec, cfg.seconds, true, &groups);
    let build_metrics = w.build_metrics();
    let protocol_mix = w.protocol_mix();
    drop(w);

    let mut tracer = rec.tracer;
    tracer.set_round((plain.len() + spanned.len()) as u16 + 1);
    let probe_metrics = probes::run_all(cfg.seed, cfg.scale, &mut tracer);

    let tally = Tally::of(plain.iter().chain(&spanned), ops, &reference);
    let opsf = ops as f64;

    // Every host-time figure below is in reference-speed time: the probes
    // and the op timings already are, the rest is converted with the host
    // speed of the replay it was measured beside.
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.extend(probe_metrics);
    v.extend(
        build_metrics
            .into_iter()
            .map(|(name, value)| (name, to_reference(name, value, warmup_wall.host_speed()))),
    );
    // Workload-specific round metrics: median over every round that has it.
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in plain.iter().chain(&spanned) {
        for (name, value) in &r.metrics {
            by_name
                .entry(name)
                .or_default()
                .push(to_reference(name, *value, r.wall.host_speed()));
        }
    }
    v.extend(by_name.iter().map(|(name, values)| (*name, median(values))));
    for (i, g) in groups.iter().enumerate() {
        let p50s: Vec<f64> = plain
            .iter()
            .filter_map(|r| r.group_p50_ns[i].map(f64::from))
            .collect();
        if !p50s.is_empty() {
            v.insert(g.metric, median(&p50s) / g.ns_per_unit);
        }
    }

    let c = &reference;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    if c.cluster {
        v.extend(exact_metrics(c, opsf));
        let s = &c.stats;
        v.extend([
            (
                "wire.sig_ref_ratio",
                ratio(s.sig_refs, s.sig_refs + s.sig_defs),
            ),
            ("net.drops_per_op", c.drops as f64 / opsf),
            (
                "net.buf_reuse_ratio",
                ratio(s.wire_buf_reuses, c.messages + c.drops),
            ),
            ("telemetry.spans_per_op", system_spans as f64 / opsf),
            ("runtime.exchanges_per_op", s.exchanges() as f64 / opsf),
            (
                "runtime.replica_syncs_per_op",
                s.replica_syncs as f64 / opsf,
            ),
            ("runtime.dirty_marks_per_op", s.dirty_marks as f64 / opsf),
            (
                "runtime.sweep_probes_per_op",
                s.replica_sweep_probes as f64 / opsf,
            ),
            ("runtime.retries_per_op", s.retries as f64 / opsf),
            ("runtime.dedup_hits_per_op", s.dedup_hits as f64 / opsf),
            (
                "runtime.cache_hit_ratio",
                ratio(s.cache_hits, s.cache_hits + s.cache_misses),
            ),
            ("runtime.replica_read_ratio", s.replica_reads as f64 / opsf),
            (
                "runtime.batched_ops_per_flush",
                ratio(s.batched_ops, s.flushes),
            ),
        ]);
    }
    v.insert("telemetry.rss_bytes_per_op", rss_growth as f64 / opsf);
    v.insert("vm.steps_per_op", c.vm_steps as f64 / opsf);

    // Attribution: probe unit cost × per-op count, per layer; the rest of
    // the measured µs/op is the runtime's (and the driver's) own.
    let get = |v: &BTreeMap<&'static str, f64>, name: &str| v.get(name).copied().unwrap_or(0.0);
    let wall_ns = reference_wall_ns(&plain);
    let measured_us = wall_ns / 1e3 / opsf;
    let exchange_codec_ns = protocol_mix[0] * get(&v, "wire.rmi.roundtrip_ns")
        + protocol_mix[1] * get(&v, "wire.corba.roundtrip_ns")
        + protocol_mix[2] * get(&v, "wire.soap.roundtrip_ns");
    let wire_us = get(&v, "runtime.exchanges_per_op") * exchange_codec_ns / 1e3;
    let net_us = (get(&v, "wire_msgs_per_op") + get(&v, "net.drops_per_op"))
        * get(&v, "net.transmit_ns")
        / 1e3;
    let telemetry_us = get(&v, "telemetry.spans_per_op") * get(&v, "telemetry.span_ns") / 1e3;
    let vm_us = get(&v, "vm.steps_per_op") / get(&v, "vm.steps_per_s") * 1e6;
    let residual_us = measured_us - wire_us - net_us - telemetry_us - vm_us;
    v.extend([
        ("wire.attributed_us_per_op", wire_us),
        ("net.attributed_us_per_op", net_us),
        ("telemetry.attributed_us_per_op", telemetry_us),
        ("vm.attributed_us_per_op", vm_us),
        ("runtime.residual_us_per_op", residual_us),
        (
            "driver.op_p99_us",
            median_of(&plain, |r| f64::from(r.p99_ns)) / 1e3,
        ),
        (
            "driver.trace_overhead_x",
            reference_wall_ns(&spanned) / wall_ns,
        ),
    ]);
    v.extend(shape(&plain, opsf).into_iter().map(|m| (m.name, m.value)));

    let attribution = [
        ("measured_us_per_op", measured_us),
        ("wire_us_per_op", wire_us),
        ("net_us_per_op", net_us),
        ("telemetry_us_per_op", telemetry_us),
        ("vm_us_per_op", vm_us),
        ("runtime_residual_us_per_op", residual_us),
        ("runtime_residual_share", residual_us / measured_us),
    ];
    tracer
        .write_files(&cfg.trace_dir, &attribution)
        .map_err(|e| format!("writing trace files to {}: {e}", cfg.trace_dir.display()))?;

    let metrics = pipeline_per_layer()
        .map(|spec| Metric::tabled(spec.name, get(&v, spec.name)))
        .collect();
    let detail = attribution
        .iter()
        .map(|(name, value)| Metric {
            name,
            unit: if name.ends_with("share") {
                "ratio"
            } else {
                "us"
            },
            value: *value,
        })
        .collect();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
        detail,
        round_walls_ms: round_walls(&plain),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use std::path::Path;

    /// 1/50 scale, the minimum number of rounds.
    fn config(workload: &str, seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_owned(),
            seed,
            seconds: 0.0,
            scale: 0.02,
            trace,
            trace_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../target/benchmark/selftest")
                .join(format!("{workload}-{seed}")),
        }
    }

    /// Figures that depend on the op stream and on nothing else.
    const DETERMINISTIC: [&str; 5] = [
        "sim_us_per_op",
        "wire_msgs_per_op",
        "wire_bytes_per_op",
        "vm.steps_per_op",
        "telemetry.spans_per_op",
    ];

    fn deterministic(outcome: &Outcome) -> Vec<u64> {
        DETERMINISTIC
            .iter()
            .map(|name| {
                outcome
                    .value(name)
                    .expect("a traced run reports it")
                    .to_bits()
            })
            .collect()
    }

    #[test]
    fn one_seed_gives_one_op_stream_and_another_seed_another() {
        for workload in NAMES {
            let inputs = |seed| {
                let mut tracer = Tracer::new(workload, Instant::now());
                workloads::build(workload, seed, 0.02, &mut tracer)
                    .unwrap()
                    .inputs()
            };
            assert_eq!(inputs(7), inputs(7), "{workload}");
            assert_ne!(inputs(7), inputs(8), "{workload}");

            let traced = |seed| {
                let outcome = run(&config(workload, seed, true), Instant::now()).unwrap();
                assert!(
                    outcome.correct(),
                    "{workload} seed {seed}: {:?}",
                    outcome.first_failure
                );
                assert_eq!(outcome.exit_code(), 0);
                outcome
            };
            let (a, again, _other_seed_checks_clean) = (traced(7), traced(7), traced(8));
            assert_eq!(deterministic(&a), deterministic(&again), "{workload}");
            assert_eq!(a.attempted, again.attempted);
            let reported: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
            let tabled: Vec<&str> = pipeline_per_layer().map(|s| s.name).collect();
            assert_eq!(reported, tabled, "{workload}");
            assert!(config(workload, 7, true)
                .trace_dir
                .join(format!("layers_{workload}.json"))
                .exists());
        }
    }

    #[test]
    fn an_end_to_end_run_reports_the_pipeline_metrics_and_they_are_not_zero() {
        for workload in NAMES {
            let outcome = run(&config(workload, 3, false), Instant::now()).unwrap();
            assert!(outcome.correct(), "{workload}: {:?}", outcome.first_failure);
            let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let tabled: Vec<&str> = pipeline_end_to_end().map(|m| m.spec.name).collect();
            assert_eq!(reported, tabled, "{workload}");
            for m in &outcome.metrics {
                assert!(m.value > 0.0 && m.value.is_finite(), "{workload} {m:?}");
            }
            assert_eq!(outcome.value("fail_share"), Some(0.0));
            let rounds = outcome.value("driver.timed_rounds").unwrap();
            let ops = outcome.value("driver.ops_per_round").unwrap();
            assert_eq!(rounds, MIN_ROUNDS as f64);
            assert_eq!(outcome.attempted as f64, rounds * ops);
            // The exact metrics exist exactly where there is a cluster.
            let cluster_free = ["local_chain", "transform_corpus"].contains(&workload);
            assert_eq!(outcome.value("wire_msgs_per_op").is_none(), cluster_free);
        }
    }

    #[test]
    fn a_falsified_reference_fails_the_run() {
        for workload in NAMES {
            let cfg = config(workload, 7, false);
            let outcome = run_built(&cfg, Instant::now(), &mut |tracer| {
                let mut w = workloads::build(&cfg.workload, cfg.seed, cfg.scale, tracer).unwrap();
                w.corrupt_reference();
                w
            })
            .unwrap();
            assert!(!outcome.correct(), "{workload}");
            assert!(outcome.failed > 0 && outcome.first_failure.is_some());
            assert!(outcome.value("fail_share").unwrap() > 0.0);
            assert_eq!(outcome.exit_code(), 1);
            assert!(outcome.result_line().starts_with("{\"correct\":false,"));
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        assert!(run(&config("nope", 1, false), Instant::now()).is_err());
    }
}
