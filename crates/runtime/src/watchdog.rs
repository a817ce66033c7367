//! The runtime's live invariant checks: one [`Watchdog`] that owns all
//! five, and the quiescent-point check that runs them.
//!
//! The oracle suites (`chaos_soak`, `equivalence_prop`) compare *end
//! states*, so a safety violation mid-run — a stale cached read, a replayed
//! execution — only surfaces later as an opaque value mismatch. The
//! watchdog watches the run as it happens. Two checks are fed at the
//! decision point, by the code that just decided:
//!
//! * **stale-read** — `record_local_read` reports a proxy cache hit
//!   whose authoritative object has moved (a recorded move re-homed it): a
//!   read the owner would no longer serve;
//! * **at-most-once** — the callee half reports every frame it executes; the
//!   same message id executing twice means the dedup cache missed a replay.
//!
//! Three are re-derived at every quiescent point ([`Cluster::check_invariants`])
//! and describe the run as it is *now*:
//!
//! * **span-tree** — the span log's structural health, checked incrementally
//!   by the log's own [`SpanTreeMonitor`];
//! * **replica-divergence** — a backup claiming the same version as its
//!   primary but holding different state, or a version *ahead* of the
//!   primary, which sync can never legitimately produce;
//! * **stale-affinity** — an affinity counter on a live node naming no
//!   live object there: its export moved away or vanished.
//!
//! The watchdog is a pure consumer: it never touches the cluster, and
//! feeding it does not perturb the simulated clock, so enabling it cannot
//! change a run's observable behaviour.

use crate::batch::flush_outqueues;
use crate::cluster::{is_local_impl, version_of, Cluster, Shared};
use crate::profile::Section;
use crate::replicate::{mark_node_dirty, sync_dirty_replicas};
use rafda_net::NodeId;
use rafda_telemetry::{FastMap, SpanTreeMonitor, TraceContext, Violation};
use rafda_vm::Value;
use rafda_wire::WireValue;

/// The five checks, in the order [`Cluster::check_invariants`] lists their
/// verdicts. The soak report prints one count per name, in this order.
pub(crate) const CHECKS: [&str; 5] = [
    "stale-read",
    "at-most-once",
    "span-tree",
    "replica-divergence",
    "stale-affinity",
];

/// A check's slot in [`CHECKS`].
const STALE_READ: usize = 0;
const AT_MOST_ONCE: usize = 1;
const REPLICA_DIVERGENCE: usize = 3;
const STALE_AFFINITY: usize = 4;

/// A verdict of check `CHECKS[check]`, tied to the span `ctx` names (none
/// for [`TraceContext::NONE`]).
fn verdict(check: usize, message: String, ctx: TraceContext) -> Violation {
    Violation {
        monitor: CHECKS[check],
        message,
        span_id: ctx.span_id,
        trace_id: ctx.trace_id,
    }
}

/// The invariant checks' state. `None` in
/// [`Obs`](crate::obs::Obs) until [`Cluster::enable_monitors`].
#[derive(Debug, Default)]
pub(crate) struct Watchdog {
    /// `stale-read` verdicts, one per stale cache hit.
    stale_reads: Vec<Violation>,
    /// One bit per message id executed so far, in 64-bit words keyed by
    /// `id / 64`. Ids come from one cluster-wide counter, so an id names
    /// one `(caller, server)` exchange: keying by id alone is exact for the
    /// frames the runtime sends, and stricter for hand-built ones. Sparse,
    /// because a hostile frame may carry any id; nothing reads it in
    /// iteration order, so the hasher's per-process seed reaches no output.
    executed: FastMap<u64, u64>,
    /// `at-most-once` verdicts, one per re-execution.
    re_executions: Vec<Violation>,
    /// `span-tree`: the log's own incremental check.
    span_tree: SpanTreeMonitor,
    /// `replica-divergence` verdicts of the latest quiescent probe walk.
    divergences: Vec<Violation>,
}

impl Watchdog {
    /// `node` served a read of the object at `loc` from its cache, in the
    /// zero-duration span `ctx` names; `stale` when the authoritative
    /// object has moved since.
    pub(crate) fn cache_hit(&mut self, node: u32, loc: (u32, u64), stale: bool, ctx: TraceContext) {
        if stale {
            let (owner, oid) = loc;
            self.stale_reads.push(verdict(
                STALE_READ,
                format!(
                    "node {node} served a cached read of {owner}#{oid}, but the \
                     object has moved away from node {owner} (missing tombstone)"
                ),
                ctx,
            ));
        }
    }

    /// `node` executed the frame `msg_id` from `caller` — ran it, not
    /// replayed it from the reply cache — in the serve span `ctx` names.
    pub(crate) fn execution(&mut self, node: u32, caller: u32, msg_id: u64, ctx: TraceContext) {
        let word = self.executed.entry(msg_id / 64).or_default();
        let bit = 1 << (msg_id % 64);
        if *word & bit == 0 {
            *word |= bit;
        } else {
            self.re_executions.push(verdict(
                AT_MOST_ONCE,
                format!(
                    "node {node} executed msg {msg_id} from caller \
                     {caller} twice (dedup cache missed a replay)"
                ),
                ctx,
            ));
        }
    }

    /// One backup compared against its primary during a probe walk.
    /// `state_matches` is only meaningful at equal versions.
    fn replica_probe(
        &mut self,
        (owner, oid): (u32, u64),
        backup: u32,
        owner_version: u64,
        backup_version: u64,
        state_matches: bool,
    ) {
        let message = if backup_version == owner_version && !state_matches {
            format!(
                "backup {backup} of {owner}#{oid} diverges from the \
                 primary at version {owner_version}"
            )
        } else if backup_version > owner_version {
            format!(
                "backup {backup} of {owner}#{oid} is at version \
                 {backup_version}, ahead of the primary's {owner_version}"
            )
        } else {
            return;
        };
        let found = verdict(REPLICA_DIVERGENCE, message, TraceContext::NONE);
        self.divergences.push(found);
    }

    /// Every verdict known, grouped by check in [`CHECKS`] order
    /// (stale-affinity aside: it is swept by [`Cluster::check_invariants`]).
    fn violations(&self) -> Vec<Violation> {
        [
            &self.stale_reads[..],
            &self.re_executions,
            self.span_tree.violations(),
            &self.divergences,
        ]
        .concat()
    }

    /// Frames executed, counting each re-execution again.
    #[cfg(test)]
    pub(crate) fn executions(&self) -> usize {
        let ran: u32 = self.executed.values().map(|word| word.count_ones()).sum();
        ran as usize + self.re_executions.len()
    }

    /// 64-bit words the at-most-once bitmap holds.
    #[cfg(test)]
    pub(crate) fn bitmap_words(&self) -> usize {
        self.executed.len()
    }
}

impl Cluster {
    /// Switch on the five invariant checks (stale-read, at-most-once,
    /// span-tree, replica-divergence, stale-affinity). They are pure
    /// consumers: enabling them never perturbs the simulated clock or any
    /// observable behaviour.
    pub fn enable_monitors(&self) {
        self.shared.obs.borrow_mut().watchdog = Some(Watchdog::default());
    }

    /// Violations known so far (empty when the checks are off): what the
    /// decision points reported, plus the quiescent verdicts of the last
    /// [`Cluster::check_invariants`].
    pub fn monitor_violations(&self) -> Vec<Violation> {
        let obs = self.shared.obs.borrow();
        obs.watchdog
            .as_ref()
            .map_or_else(Vec::new, Watchdog::violations)
    }

    /// Run the quiescent-point checks and return every violation known.
    ///
    /// Flushes pending batches and re-ships drifted replicas first (a
    /// quiescent point must not have deferred operations or unshipped
    /// replicated state in flight), then hands the span log to the
    /// span-tree check, probes every replica against its primary, and
    /// sweeps the affinity counters for entries referencing a moved or dead
    /// location (`stale-affinity`). The structural check visits only the
    /// spans recorded since the previous call (every span is closed at a
    /// quiescent point, so the verdicts on them are final), which keeps a
    /// check's cost independent of how long the run has been going. The
    /// probe walk and the sweep re-derive their verdicts each time: a
    /// divergence that persists is reported once, not once per check. A
    /// clean run returns an empty vector; tests assert exactly that, and on
    /// failure each [`Violation`] identifies the offending span and exchange.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let _s = shared.prof.section(Section::QuiescentCheck);
        let _ = flush_outqueues(shared);
        // The marks' own sweep first, so that whatever state the full sweep
        // below still finds moved is a hole in the marking. A location a
        // failed send left owed ships again there, and is not counted.
        sync_dirty_replicas(shared);
        // A quiescent check probes *every* replicated export, not just
        // recently-marked ones — mark everything, then let the sweep's
        // no-op settling clear the set again. This is the full-table
        // behavior the incremental sweep otherwise avoids, and it is what
        // keeps the invariant check independent of marking completeness.
        for n in 0..shared.vms.len() as u32 {
            mark_node_dirty(shared, n);
        }
        let unmarked = sync_dirty_replicas(shared);
        debug_assert_eq!(unmarked, 0, "drifted replicated state nobody marked");
        let mut violations = {
            let mut obs = shared.obs.borrow_mut();
            let Some(dog) = obs.watchdog.as_mut() else {
                return Vec::new();
            };
            // Borrow, don't clone: the log holds the whole run's spans and
            // the check reads only its tail, so a copy would be the one
            // O(run) step left in a quiescent check.
            dog.span_tree.check_span_log(&shared.spans.borrow());
            dog.divergences.clear();
            probe_replicas(shared, dog);
            dog.violations()
        };
        violations.extend(self.stale_affinity_violations());
        violations
    }

    /// Structural quiescent-point sweep over the affinity counters: every
    /// counter on a live node must reference a live export that is locally
    /// implemented there. A counter for a location the object moved away
    /// from or a wiped registry (the node died) would feed the adaptation
    /// loops locations they must never act on — [`Directory::relocate`]
    /// maintains this invariant and the soak gate checks it at every phase
    /// boundary.
    pub(crate) fn stale_affinity_violations(&self) -> Vec<Violation> {
        let shared = &self.shared;
        let mut out = Vec::new();
        let dir = shared.directory.borrow();
        for n in 0..shared.vms.len() as u32 {
            if shared.net.fault_plan(|f| f.is_crashed(NodeId(n))) {
                continue;
            }
            for oid in dir.affinity(n).into_iter().map(|a| a.oid) {
                if dir
                    .live_export((n, oid))
                    .is_some_and(|h| is_local_impl(shared, n, h))
                {
                    continue;
                }
                let message = format!("node {n}: affinity counter for vanished export {oid}");
                out.push(verdict(STALE_AFFINITY, message, TraceContext::NONE));
            }
        }
        out
    }
}

/// Compare every backup's stored replica against its primary's live state
/// at a quiescent point, one [`Watchdog::replica_probe`] per comparable
/// pair. Read-only: the probe never marshals (marshalling a reference would
/// create exports) — reference-typed fields are skipped and only primitive
/// state is deep-compared.
fn probe_replicas(shared: &Shared, dog: &mut Watchdog) {
    let nodes = shared.nodes.borrow();
    for (backup, state) in nodes.iter().enumerate() {
        let mut keys: Vec<(u32, u64)> = state.replica_store.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (backup_version, backup_class, fields) = &state.replica_store[&key];
            let (owner, oid) = key;
            let Some(h) = shared.directory.borrow().live_export((owner, oid)) else {
                // The object moved away (the replica describes a vacated
                // location, superseded by the new home's syncs) or the owner
                // restarted with amnesia: nothing to compare until the next
                // sync re-seeds the backup.
                continue;
            };
            let owner_version =
                version_of(shared, owner, oid).expect("a live export has a version");
            let vm = &shared.vms[owner as usize];
            let Some((class, values)) = vm.read_object(h) else {
                continue;
            };
            // Different versions are never comparable — the version
            // relation itself is judged by the probe.
            let state_matches = *backup_version != owner_version
                || (*backup_class == class && wire_state_matches(&values, fields));
            dog.replica_probe(
                key,
                backup as u32,
                owner_version,
                *backup_version,
                state_matches,
            );
        }
    }
}

/// Field-wise comparison of live values against marshalled replica state.
/// Primitives compare exactly (floats bit-wise); reference-typed fields
/// are not comparable without marshalling side effects and pass.
fn wire_state_matches(values: &[Value], wire: &[WireValue]) -> bool {
    values.len() == wire.len()
        && values.iter().zip(wire).all(|(v, w)| match (v, w) {
            (Value::Bool(a), WireValue::Bool(b)) => a == b,
            (Value::Int(a), WireValue::Int(b)) => a == b,
            (Value::Long(a), WireValue::Long(b)) => a == b,
            (Value::Float(a), WireValue::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Double(a), WireValue::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), WireValue::Str(b)) => a.as_ref() == b.as_str(),
            (Value::Null, WireValue::Null) => true,
            _ => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_telemetry::{SpanLog, SpanOutcome};

    const CTX: TraceContext = TraceContext {
        trace_id: 9,
        span_id: 42,
        parent_span_id: 0,
    };

    #[test]
    fn stale_read_fires_only_on_stale_location() {
        let mut dog = Watchdog::default();
        dog.cache_hit(0, (1, 7), false, CTX);
        assert!(dog.violations().is_empty());
        dog.cache_hit(0, (1, 7), true, CTX);
        let v = dog.violations();
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].monitor, v[0].span_id), (CHECKS[STALE_READ], 42));
        assert!(v[0].message.contains("1#7"));
    }

    #[test]
    fn at_most_once_tolerates_replays_but_not_re_execution() {
        let mut dog = Watchdog::default();
        // A dedup replay never reaches the watchdog; a second run does.
        dog.execution(1, 0, 5, CTX);
        dog.execution(1, 0, 6, CTX);
        assert!(dog.violations().is_empty());
        dog.execution(1, 0, 5, CTX);
        let v = dog.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].monitor, CHECKS[AT_MOST_ONCE]);
        assert!(v[0].message.contains("msg 5"));
        assert_eq!(dog.executions(), 3);
    }

    #[test]
    fn replica_divergence_flags_equal_version_mismatch_and_ahead_backups() {
        let mut dog = Watchdog::default();
        let mut probe = |owner_version, backup_version, state_matches| {
            dog.replica_probe((1, 4), 2, owner_version, backup_version, state_matches);
        };
        probe(3, 2, true); // lagging backup: fine (best-effort sync)
        probe(3, 3, true); // in sync: fine
        probe(3, 2, false); // lagging, so the states are not comparable
        assert!(dog.violations().is_empty());
        dog.replica_probe((1, 4), 2, 3, 3, false); // same version, different state
        dog.replica_probe((1, 4), 2, 3, 4, true); // backup ahead of primary
        let v = dog.violations();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.monitor == CHECKS[REPLICA_DIVERGENCE]));
        assert!(v[0].message.contains("diverges"), "{}", v[0]);
        assert!(v[1].message.contains("ahead"), "{}", v[1]);
    }

    #[test]
    fn verdicts_are_grouped_in_check_order() {
        let mut dog = Watchdog::default();
        let mut log = SpanLog::new();
        let open = log.start_span("rpc.call", 0, 0);
        dog.replica_probe((1, 4), 2, 3, 4, true);
        dog.span_tree.check_span_log(&log);
        dog.execution(1, 0, 5, CTX);
        dog.execution(1, 0, 5, CTX);
        dog.cache_hit(0, (1, 7), true, CTX);
        let names: Vec<&str> = dog.violations().iter().map(|v| v.monitor).collect();
        assert_eq!(names, CHECKS[..4]);
        log.end_span(open, 1, SpanOutcome::Ok);
        dog.span_tree.check_span_log(&log);
        assert_eq!(
            dog.violations().len(),
            3,
            "the span-tree verdict is re-derived"
        );
    }
}
