//! Soak-run accounting: per-phase op counts, metric deltas and monitor
//! verdicts, rendered as one deterministic text report.
//!
//! The production-day soak gate (see `tests/soak.rs` and the benchmark's
//! `soak_day` workload) drives a cluster through a phased churn schedule;
//! this module is the bookkeeping around that drive. A [`SoakRecorder`]
//! snapshots the cluster's counters at every phase boundary, counts the ops
//! applied per kind, and [`SoakRecorder::finish`] runs the quiescent-point
//! invariant sweep ([`Cluster::check_invariants`]) to fold the monitor
//! verdicts into a [`SoakReport`].
//!
//! Everything in the report derives from the simulated clock and the
//! deterministic counters, so equal seeds render byte-identical reports —
//! `ci.sh` diffs the text across two runs, exactly as it does for the
//! experiment report and the metric exports.

use crate::cluster::{Cluster, RuntimeStats};
use crate::watchdog::CHECKS;
use rafda_telemetry::Violation;
use std::collections::BTreeMap;
use std::fmt;

/// Counter snapshot at a phase boundary.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    stats: RuntimeStats,
    messages: u64,
    clock_ns: u64,
}

impl Snapshot {
    fn take(cluster: &Cluster) -> Self {
        Snapshot {
            stats: cluster.stats(),
            messages: cluster.network().stats().messages,
            clock_ns: cluster.network().now().as_ns(),
        }
    }
}

/// One completed soak phase: what was applied and what it cost.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label (from the churn schedule).
    pub name: String,
    /// Ops applied, counted per kind label (`rafda_corpus::ops::SoakOp::kind`).
    pub ops: BTreeMap<&'static str, u64>,
    /// Wire messages this phase added.
    pub messages: u64,
    /// Simulated nanoseconds this phase consumed.
    pub clock_ns: u64,
    /// Runtime counter deltas over the phase.
    pub stats: RuntimeStats,
}

impl PhaseStats {
    /// Total ops applied in this phase.
    pub fn total_ops(&self) -> u64 {
        self.ops.values().sum()
    }
}

/// Records a soak run phase by phase; [`SoakRecorder::finish`] turns it
/// into a [`SoakReport`].
#[derive(Debug)]
pub struct SoakRecorder {
    seed: u64,
    origin: Snapshot,
    mark: Snapshot,
    open: Option<(String, BTreeMap<&'static str, u64>)>,
    phases: Vec<PhaseStats>,
}

impl SoakRecorder {
    /// Start recording against a freshly deployed cluster. `seed` is the
    /// schedule seed, echoed in the report so any run is reproducible
    /// from its rendered text alone.
    pub fn begin(cluster: &Cluster, seed: u64) -> Self {
        let origin = Snapshot::take(cluster);
        SoakRecorder {
            seed,
            origin,
            mark: origin,
            open: None,
            phases: Vec::new(),
        }
    }

    /// Open the named phase, closing the currently open one (its counter
    /// deltas are computed at this boundary).
    pub fn phase(&mut self, cluster: &Cluster, name: &str) {
        self.close(cluster);
        self.open = Some((name.to_string(), BTreeMap::new()));
    }

    /// Count one applied op under its kind label. Must be inside a phase.
    pub fn record(&mut self, kind: &'static str) {
        let (_, ops) = self
            .open
            .as_mut()
            .expect("SoakRecorder::record outside a phase");
        *ops.entry(kind).or_insert(0) += 1;
    }

    fn close(&mut self, cluster: &Cluster) {
        if let Some((name, ops)) = self.open.take() {
            let now = Snapshot::take(cluster);
            self.phases.push(PhaseStats {
                name,
                ops,
                messages: now.messages - self.mark.messages,
                clock_ns: now.clock_ns - self.mark.clock_ns,
                stats: now.stats.delta_from(&self.mark.stats),
            });
            self.mark = now;
        }
    }

    /// Close the last phase, run the quiescent-point invariant sweep and
    /// assemble the report.
    pub fn finish(mut self, cluster: &Cluster) -> SoakReport {
        self.close(cluster);
        let violations = cluster.check_invariants();
        let end = Snapshot::take(cluster);
        let monitors = CHECKS
            .iter()
            .map(|&check| {
                let fired = violations.iter().filter(|v| v.monitor == check).count();
                (check, fired as u64)
            })
            .collect();
        SoakReport {
            seed: self.seed,
            phases: self.phases,
            monitors,
            violations,
            stats: end.stats.delta_from(&self.origin.stats),
            messages: end.messages - self.origin.messages,
            clock_ns: end.clock_ns - self.origin.clock_ns,
        }
    }
}

/// The outcome of one soak run: per-phase op counts and cost, whole-run
/// metric deltas, and the verdict of every invariant monitor. Rendered
/// deterministically by its [`Display`](fmt::Display) impl.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The schedule seed the run replayed.
    pub seed: u64,
    /// Completed phases in execution order.
    pub phases: Vec<PhaseStats>,
    /// `(check name, violation count)` for each of the five invariant
    /// checks, in a fixed order.
    pub monitors: Vec<(&'static str, u64)>,
    /// Every violation the quiescent-point sweep returned.
    pub violations: Vec<Violation>,
    /// Whole-run runtime counter deltas.
    pub stats: RuntimeStats,
    /// Whole-run wire messages.
    pub messages: u64,
    /// Whole-run simulated nanoseconds.
    pub clock_ns: u64,
}

impl SoakReport {
    /// Total ops across all phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(PhaseStats::total_ops).sum()
    }

    /// `true` when every monitor stayed silent.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soak report: seed {} | {} ops in {} phases | {} messages | {:.3} sim ms",
            self.seed,
            self.total_ops(),
            self.phases.len(),
            self.messages,
            self.clock_ns as f64 / 1e6,
        )?;
        for p in &self.phases {
            let ops: Vec<String> = p.ops.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                f,
                "  {:<8} {:>7} ops | {:>8} msgs | {:>9.3} sim ms | {}",
                p.name,
                p.total_ops(),
                p.messages,
                p.clock_ns as f64 / 1e6,
                ops.join(" "),
            )?;
        }
        writeln!(f, "  totals: {}", self.stats)?;
        let verdicts: Vec<String> = self
            .monitors
            .iter()
            .map(|(name, count)| {
                if *count == 0 {
                    format!("{name}=silent")
                } else {
                    format!("{name}={count}")
                }
            })
            .collect();
        writeln!(f, "  monitors: {}", verdicts.join(" "))?;
        for v in &self.violations {
            writeln!(f, "    violation: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
    use rafda_classmodel::{ClassKind, ClassUniverse, Field, Ty};
    use rafda_net::NodeId;
    use rafda_policy::StaticPolicy;
    use rafda_transform::Transformer;
    use rafda_vm::{Value, Vm};

    fn counter_cluster() -> Cluster {
        let mut universe = ClassUniverse::new();
        Vm::install_observer(&mut universe);
        let c = universe.declare("C", ClassKind::Class);
        let mut cb = ClassBuilder::new(&universe, c);
        let v = cb.field(Field::new("v", Ty::Int));
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(&mut universe, vec![], Some(mb.finish()));
        let mut mb = MethodBuilder::new(2);
        mb.load_this();
        mb.load_this().get_field(c, v);
        mb.load_local(1).add();
        mb.put_field(c, v);
        mb.load_this().get_field(c, v).ret_value();
        cb.method(
            &mut universe,
            "add",
            vec![Ty::Int],
            Ty::Int,
            Some(mb.finish()),
        );
        cb.finish(&mut universe);
        let outcome = Transformer::new()
            .protocols(&["RMI"])
            .run(&mut universe)
            .unwrap();
        let policy = StaticPolicy::new().place("C", rafda_policy::Placement::Node(NodeId(1)));
        Cluster::new(universe, outcome.plan, 2, 7, Box::new(policy))
    }

    #[test]
    fn recorder_attributes_ops_and_costs_to_phases() {
        let cluster = counter_cluster();
        cluster.enable_monitors();
        let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
        let mut rec = SoakRecorder::begin(&cluster, 99);
        rec.phase(&cluster, "warm");
        for _ in 0..3 {
            cluster
                .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
                .unwrap();
            rec.record("call");
        }
        rec.phase(&cluster, "main");
        cluster
            .call_method(NodeId(0), obj.clone(), "add", vec![Value::Int(1)])
            .unwrap();
        rec.record("call");
        let report = rec.finish(&cluster);

        assert_eq!(report.total_ops(), 4);
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].ops.get("call"), Some(&3));
        assert_eq!(report.phases[1].ops.get("call"), Some(&1));
        assert!(report.phases[0].messages > 0, "remote calls cross the wire");
        assert_eq!(report.stats.rpc_calls, 4);
        assert!(report.clean(), "{report}");
        // Every standing verdict is present and silent.
        let names: Vec<&str> = report.monitors.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "stale-read",
                "at-most-once",
                "span-tree",
                "replica-divergence",
                "stale-affinity"
            ]
        );
        assert!(report.monitors.iter().all(|(_, c)| *c == 0));
    }

    #[test]
    fn report_text_is_deterministic_and_self_identifying() {
        let render = || {
            let cluster = counter_cluster();
            cluster.enable_monitors();
            let obj = cluster.new_instance(NodeId(0), "C", 0, vec![]).unwrap();
            let mut rec = SoakRecorder::begin(&cluster, 1234);
            rec.phase(&cluster, "only");
            cluster
                .call_method(NodeId(0), obj, "add", vec![Value::Int(2)])
                .unwrap();
            rec.record("call");
            rec.finish(&cluster).to_string()
        };
        let a = render();
        assert_eq!(a, render(), "same seed must render identical text");
        assert!(a.contains("seed 1234"), "{a}");
        assert!(a.contains("monitors:"), "{a}");
    }
}
