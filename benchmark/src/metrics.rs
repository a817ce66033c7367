//! The metric tables: every name the benchmark reports, with its unit and
//! the direction in which it is better. `BENCHMARK.json` at the repo root
//! repeats the pipeline's view of these tables; a self-test keeps the two
//! in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The metric's name (the contract).
    pub name: &'static str,
    /// Unit, spelled with the characters `BENCHMARK.json` allows.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, unit, direction.
    pub spec: Spec,
    /// Share of the reference value by which the metric may get worse
    /// before `agree` (and the pipeline) calls it a regression.
    pub bound: f64,
    /// Deterministic per seed: two runs of one commit agree to the last
    /// digit. Defined only on workloads that have a cluster, which is why
    /// the pipeline — whose end-to-end metrics must exist and be non-zero
    /// on every workload — receives these three in the per-layer set.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        spec: Spec { name, unit, better },
        bound,
        exact,
    }
}

/// The end-to-end metrics `run` and `agree` report, in print order.
/// `fail_share` is reported beside them; its bound is absolute zero.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("op_p50_us", "us", Better::Lower, 0.25, false),
    e2e("sim_us_per_op", "us", Better::Lower, 0.01, true),
    e2e("wire_msgs_per_op", "count", Better::Lower, 0.01, true),
    e2e("wire_bytes_per_op", "B", Better::Lower, 0.01, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15, false),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by layer (crate name). Every traced run
/// reports every one; a metric whose layer is not on the workload's path
/// reads 0.
pub const PER_LAYER: [Spec; 85] = [
    // wire
    layer("wire.rmi.roundtrip_ns", "ns", Lower),
    layer("wire.corba.roundtrip_ns", "ns", Lower),
    layer("wire.soap.roundtrip_ns", "ns", Lower),
    layer("wire.rmi.header_decode_ns", "ns", Lower),
    layer("wire.rmi.request_bytes", "B", Lower),
    layer("wire.corba.request_bytes", "B", Lower),
    layer("wire.soap.request_bytes", "B", Lower),
    layer("wire.sig_ref_ratio", "ratio", Higher),
    layer("wire.attributed_us_per_op", "us", Lower),
    // net
    layer("net.transmit_ns", "ns", Lower),
    layer("net.transmit_drop5_ns", "ns", Lower),
    layer("net.bufpool_cycle_ns", "ns", Lower),
    layer("net.drops_per_op", "count", Lower),
    layer("net.buf_reuse_ratio", "ratio", Higher),
    layer("net.attributed_us_per_op", "us", Lower),
    // telemetry
    layer("telemetry.span_ns", "ns", Lower),
    layer("telemetry.spans_per_op", "count", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.histogram_observe_ns", "ns", Lower),
    layer("telemetry.check_invariants_ms", "ms", Lower),
    layer("telemetry.rss_bytes_per_op", "B", Lower),
    layer("telemetry.attributed_us_per_op", "us", Lower),
    // vm
    layer("vm.steps_per_s", "1/s", Higher),
    layer("vm.steps_per_op", "count", Lower),
    layer("vm.steps_per_op_original", "count", Lower),
    layer("vm.local_overhead_x", "x", Lower),
    layer("vm.attributed_us_per_op", "us", Lower),
    // transform
    layer("transform.analyze_ms", "ms", Lower),
    layer("transform.run_ms", "ms", Lower),
    layer("transform.classes_per_s", "1/s", Higher),
    layer("transform.generated_classes", "count", Lower),
    layer("transform.generated_methods", "count", Lower),
    // classmodel
    layer("classmodel.verify_ms", "ms", Lower),
    layer("classmodel.universe_clone_ms", "ms", Lower),
    // policy
    layer("policy.decision_ns", "ns", Lower),
    // runtime
    layer("runtime.rpc.rmi_p50_ns", "ns", Lower),
    layer("runtime.rpc.corba_p50_ns", "ns", Lower),
    layer("runtime.rpc.soap_p50_ns", "ns", Lower),
    layer("runtime.rpc.read_p50_ns", "ns", Lower),
    layer("runtime.rpc.write_p50_ns", "ns", Lower),
    layer("runtime.local_call_ns", "ns", Lower),
    layer("runtime.replica_read_p50_ns", "ns", Lower),
    layer("runtime.store_write_p50_ns", "ns", Lower),
    layer("runtime.deploy_ms", "ms", Lower),
    layer("runtime.new_instance_us", "us", Lower),
    layer("runtime.exchanges_per_op", "count", Lower),
    layer("runtime.replica_syncs_per_op", "count", Lower),
    layer("runtime.dirty_marks_per_op", "count", Lower),
    layer("runtime.sweep_probes_per_op", "count", Lower),
    layer("runtime.retries_per_op", "count", Lower),
    layer("runtime.dedup_hits_per_op", "count", Lower),
    layer("runtime.cache_hit_ratio", "ratio", Higher),
    layer("runtime.replica_read_ratio", "ratio", Higher),
    layer("runtime.batched_ops_per_flush", "count", Higher),
    layer("runtime.residual_us_per_op", "us", Lower),
    // core
    layer("core.soak.apply_share", "ratio", Lower),
    layer("core.soak.invariants_share", "ratio", Lower),
    layer("core.soak.finale_share", "ratio", Lower),
    layer("core.soak.finish_share", "ratio", Lower),
    layer("core.soak.call_p50_us", "us", Lower),
    layer("core.soak.read_p50_us", "us", Lower),
    layer("core.soak.inc_p50_us", "us", Lower),
    layer("core.soak.migrate_p50_us", "us", Lower),
    layer("core.soak.pull_p50_us", "us", Lower),
    layer("core.soak.adapt_p50_us", "us", Lower),
    layer("core.soak.rebalance_p50_us", "us", Lower),
    layer("core.soak.crash_p50_us", "us", Lower),
    layer("core.soak.heal_p50_us", "us", Lower),
    layer("core.soak.warmup_ops_per_s", "1/s", Higher),
    layer("core.soak.steady_ops_per_s", "1/s", Higher),
    layer("core.soak.churn_ops_per_s", "1/s", Higher),
    layer("core.soak.quiesce_ops_per_s", "1/s", Higher),
    // corpus
    layer("corpus.generate_churn_ms", "ms", Lower),
    layer("corpus.generate_jdk_ms", "ms", Lower),
    layer("corpus.generate_app_ms", "ms", Lower),
    // driver (the benchmark itself)
    layer("driver.op_p99_us", "us", Lower),
    layer("driver.timer_overhead_ns", "ns", Lower),
    layer("driver.round_spread", "ratio", Lower),
    layer("driver.reference_round_spread", "ratio", Lower),
    layer("driver.trace_overhead_x", "x", Lower),
    layer("driver.raw_ops_per_s", "1/s", Higher),
    layer("driver.host_speed", "x", Higher),
    // `baseline` (the paper's §3 comparator) sits on no served path: listed
    // in the README, left unmeasured.
    //
    // Run shape, so a reader of a result line can tell how much was measured.
    layer("driver.timed_rounds", "count", Higher),
    layer("driver.round_wall_ms", "ms", Lower),
    layer("driver.ops_per_round", "count", Higher),
];

/// Unit of a tabled metric.
///
/// # Panics
/// If `name` is in neither table (a typo in the driver, not an input).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| &m.spec)
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .unit
}

/// Convert a host-time figure measured while the host ran at `host_speed`
/// into reference-speed time: durations scale with the speed, rates against
/// it, everything else (counts, ratios, bytes) is left alone. The unit in
/// the tables decides.
pub fn to_reference(name: &str, value: f64, host_speed: f64) -> f64 {
    match unit_of(name) {
        "ns" | "us" | "ms" | "s" => value * host_speed,
        "1/s" => value / host_speed,
        _ => value,
    }
}

/// The end-to-end metrics of a `--trace 0` pipeline run: those defined and
/// non-zero on every workload.
pub fn pipeline_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| !m.exact)
}

/// The metrics of a `--trace 1` pipeline run: the three exact end-to-end
/// metrics (0 on the two workloads without a cluster), then every per-layer
/// metric.
pub fn pipeline_per_layer() -> impl Iterator<Item = &'static Spec> {
    END_TO_END
        .iter()
        .filter(|m| m.exact)
        .map(|m| &m.spec)
        .chain(PER_LAYER.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for spec in END_TO_END.iter().map(|m| &m.spec).chain(PER_LAYER.iter()) {
            assert!(valid_name(spec.name), "bad name {:?}", spec.name);
            assert!(valid_unit(spec.unit), "bad unit {:?}", spec.unit);
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
        }
        assert!(pipeline_per_layer().count() <= 128);
        for m in pipeline_end_to_end() {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.spec.name);
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END
            .iter()
            .find(|m| m.spec.name == "setup_s")
            .unwrap();
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` is what the pipeline reads; these tables are what
    /// the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: expected an array, found {other:?}"),
            }
        };
        let field = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} missing in {item:?}"))
                .to_owned()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, NAMES);
        for w in list("workloads") {
            let why = field(&w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }

        let e2e = list("end_to_end");
        let expected: Vec<&EndToEnd> = pipeline_end_to_end().collect();
        assert_eq!(e2e.len(), expected.len());
        for (item, m) in e2e.iter().zip(expected) {
            assert_eq!(field(item, "name"), m.spec.name);
            assert_eq!(field(item, "unit"), m.spec.unit);
            assert_eq!(field(item, "better"), m.spec.better.label());
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let per_layer = list("per_layer");
        let expected: Vec<&Spec> = pipeline_per_layer().collect();
        assert_eq!(per_layer.len(), expected.len());
        for (item, spec) in per_layer.iter().zip(expected) {
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "unit"), spec.unit);
            assert_eq!(field(item, "better"), spec.better.label());
        }

        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, crate::driver::DEFAULT_SECONDS);
        assert_eq!(list("paths"), vec![Json::Str("benchmark".into())]);
    }
}
