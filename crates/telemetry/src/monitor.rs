//! Live invariant monitors fed by runtime events.
//!
//! The oracle suites (`chaos_soak`, `equivalence_prop`) compare *end
//! states*, so a safety violation mid-run — a stale cached read, a
//! replayed execution — only surfaces later as an opaque value mismatch.
//! Monitors watch the run as it happens: the runtime emits a
//! [`MonitorEvent`] at each decision point (cache hit, frame execution,
//! replica probe) and each [`Monitor`] accumulates [`Violation`]s that
//! identify the offending span and exchange, so a broken invariant fails
//! fast with context instead of as a downstream diff.
//!
//! The four standing watchdogs ([`standard_monitors`]):
//!
//! * [`StaleReadMonitor`] — a proxy cache hit whose authoritative object
//!   has moved (the export now forwards, or a promotion re-homed it) is a
//!   read the owner would no longer serve;
//! * [`AtMostOnceMonitor`] — the same `(server, caller, msg id)` frame
//!   executing twice without the dedup cache marking the second a replay;
//! * [`SpanTreeMonitor`] — structural health of the span log (parents
//!   exist in the same trace, children start no earlier than parents,
//!   retry chains resolve, nothing left open at a quiescent point),
//!   checked incrementally: a quiescent check visits only the spans
//!   recorded since the previous one;
//! * [`ReplicaDivergenceMonitor`] — a backup claiming the same version as
//!   the primary but holding different state (or a version *ahead* of the
//!   primary, which sync can never legitimately produce).
//!
//! Monitors are deliberately pure consumers: they never touch the cluster
//! and emitting events does not perturb the simulated clock, so enabling
//! them cannot change a run's observable behaviour.

use crate::span::{Span, SpanLog, SpanOutcome};
use std::collections::BTreeSet;

/// One observation point in the runtime, handed to every enabled monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// A proxy served a property read from its cache (no exchange).
    CacheHit {
        /// Node whose proxy cache hit.
        node: u32,
        /// Owner node the cached value was originally fetched from.
        owner: u32,
        /// Export id of the object on the owner.
        oid: u64,
        /// Whether the authoritative location has moved since the value
        /// was cached (export forwards, or a promotion re-homed it).
        stale_location: bool,
        /// The zero-duration `rpc.call` span recorded for the hit.
        span_id: u64,
        /// Trace the hit belongs to.
        trace_id: u64,
    },
    /// A server executed (or replayed) a request frame.
    Execution {
        /// Serving node.
        node: u32,
        /// Calling node (as claimed by the frame).
        caller: u32,
        /// The frame's at-most-once message id.
        msg_id: u64,
        /// True when the dedup cache replayed a stored reply instead of
        /// re-executing.
        replay: bool,
        /// The `serve.*` span for this frame.
        span_id: u64,
        /// Trace the serve belongs to.
        trace_id: u64,
    },
    /// A quiescent-point comparison of one backup against its primary.
    ReplicaProbe {
        /// Primary (owner) node.
        owner: u32,
        /// Export id on the primary.
        oid: u64,
        /// Backup node holding the replica.
        backup: u32,
        /// The primary's current version of the object.
        owner_version: u64,
        /// The version the backup's replica claims.
        backup_version: u64,
        /// Whether the replica's state matches the primary's at equal
        /// versions (true whenever versions differ — only the
        /// same-version case is comparable).
        state_matches: bool,
    },
}

/// A broken invariant, with enough context to find the offending
/// span/exchange in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the monitor that fired.
    pub monitor: &'static str,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The offending span (0 when the violation is not tied to one span).
    pub span_id: u64,
    /// The trace the offending span belongs to (0 when not tied to one).
    pub trace_id: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} (trace {:x}, span {:x})",
            self.monitor, self.message, self.trace_id, self.span_id
        )
    }
}

/// A pluggable invariant watchdog.
///
/// Implementations receive every [`MonitorEvent`] the runtime emits and
/// may additionally inspect the whole [`SpanLog`] at quiescent points.
/// They accumulate violations; they must not panic — failing fast is the
/// *caller's* policy decision (tests assert the list is empty).
pub trait Monitor {
    /// Stable monitor name (used in [`Violation::monitor`]).
    fn name(&self) -> &'static str;
    /// Observe one runtime event.
    fn on_event(&mut self, event: &MonitorEvent);
    /// Inspect the span log at a quiescent point. Called repeatedly with
    /// the same, growing log, and [`Monitor::violations`] afterwards
    /// describes the log as it is *now*: a verdict on the prefix of spans
    /// that are all closed is final (closed spans never change) and may be
    /// kept; verdicts on anything from the first still-open span onward
    /// must be re-derived, not accumulated. A log shorter than what was
    /// already checked is a different log — start over.
    fn check_span_log(&mut self, _log: &SpanLog) {}
    /// Violations recorded so far.
    fn violations(&self) -> &[Violation];
}

/// The four standing watchdogs, in a fixed deterministic order.
pub fn standard_monitors() -> Vec<Box<dyn Monitor>> {
    vec![
        Box::new(StaleReadMonitor::default()),
        Box::new(AtMostOnceMonitor::default()),
        Box::new(SpanTreeMonitor::default()),
        Box::new(ReplicaDivergenceMonitor::default()),
    ]
}

/// Flags proxy cache hits whose authoritative object has moved.
#[derive(Debug, Default)]
pub struct StaleReadMonitor {
    violations: Vec<Violation>,
}

impl Monitor for StaleReadMonitor {
    fn name(&self) -> &'static str {
        "stale-read"
    }
    fn on_event(&mut self, event: &MonitorEvent) {
        if let MonitorEvent::CacheHit {
            node,
            owner,
            oid,
            stale_location: true,
            span_id,
            trace_id,
        } = event
        {
            self.violations.push(Violation {
                monitor: self.name(),
                message: format!(
                    "node {node} served a cached read of {owner}#{oid}, but the \
                     object has moved away from node {owner} (missing tombstone)"
                ),
                span_id: *span_id,
                trace_id: *trace_id,
            });
        }
    }
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Flags a `(server, caller, msg id)` frame executing more than once.
#[derive(Debug, Default)]
pub struct AtMostOnceMonitor {
    executed: BTreeSet<(u32, u32, u64)>,
    violations: Vec<Violation>,
}

impl Monitor for AtMostOnceMonitor {
    fn name(&self) -> &'static str {
        "at-most-once"
    }
    fn on_event(&mut self, event: &MonitorEvent) {
        if let MonitorEvent::Execution {
            node,
            caller,
            msg_id,
            replay: false,
            span_id,
            trace_id,
        } = event
        {
            if !self.executed.insert((*node, *caller, *msg_id)) {
                self.violations.push(Violation {
                    monitor: self.name(),
                    message: format!(
                        "node {node} executed msg {msg_id} from caller \
                         {caller} twice (dedup cache missed a replay)"
                    ),
                    span_id: *span_id,
                    trace_id: *trace_id,
                });
            }
        }
    }
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Structural well-formedness of the span log at a quiescent point.
///
/// The log's prefix up to the first still-open span is *settled*: every
/// span in it is closed, hence immutable, and a parent or retry target is
/// only ever resolved among *smaller* ids — spans that existed, with their
/// final trace, name and start, before the referring span did. Nothing
/// recorded later can change a settled verdict, so a check re-derives only
/// the spans from the watermark on: O(spans since the last check) when the
/// log is quiescent, with no index built.
#[derive(Debug, Default)]
pub struct SpanTreeMonitor {
    /// Verdicts in log order: the settled prefix's, then the rest's as of
    /// the last check.
    violations: Vec<Violation>,
    /// Number of leading spans that are settled.
    watermark: usize,
    /// Number of leading `violations` that belong to settled spans.
    settled_violations: usize,
}

impl SpanTreeMonitor {
    fn check_span(log: &SpanLog, span: &Span, out: &mut Vec<Violation>) {
        let mut fail = |message: String| {
            out.push(Violation {
                monitor: "span-tree",
                message,
                span_id: span.span_id,
                trace_id: span.trace_id,
            });
        };
        // A span can only descend from, or retry, one recorded before it.
        let earlier = |id: u64| log.by_id(id).filter(|s| s.span_id < span.span_id);
        if !log
            .by_id(span.span_id)
            .is_some_and(|slot| std::ptr::eq(slot, span))
        {
            fail(format!(
                "span {} is not in the slot its id names",
                span.name
            ));
        }
        if span.outcome == SpanOutcome::Open {
            fail(format!("span {} left open at quiescent point", span.name));
        }
        if span.end_ns < span.start_ns {
            fail(format!("span {} ends before it starts", span.name));
        }
        if span.parent_span_id != 0 {
            match earlier(span.parent_span_id).filter(|p| p.trace_id == span.trace_id) {
                None => fail(format!(
                    "span {} has parent {:x} missing from its trace",
                    span.name, span.parent_span_id
                )),
                Some(parent) => {
                    if span.start_ns < parent.start_ns {
                        fail(format!(
                            "span {} starts before its parent {}",
                            span.name, parent.name
                        ));
                    }
                }
            }
        }
        if let Some(prior) = span.retry_of() {
            // Resolved log-wide, not per trace: a failover span chains to
            // the failed exchange, which legitimately lives in the trace
            // that died with the crashed owner.
            if earlier(prior).is_none() {
                fail(format!(
                    "span {} retries {:x}, which is missing from the log",
                    span.name, prior
                ));
            }
        }
    }
}

impl Monitor for SpanTreeMonitor {
    fn name(&self) -> &'static str {
        "span-tree"
    }
    fn on_event(&mut self, _event: &MonitorEvent) {}
    fn check_span_log(&mut self, log: &SpanLog) {
        let spans = log.spans();
        if spans.len() < self.watermark {
            // Not the log the watermark was taken on.
            self.watermark = 0;
            self.settled_violations = 0;
        }
        self.violations.truncate(self.settled_violations);
        let mut settling = true;
        for span in &spans[self.watermark..] {
            Self::check_span(log, span, &mut self.violations);
            settling &= span.outcome != SpanOutcome::Open;
            if settling {
                self.watermark += 1;
                self.settled_violations = self.violations.len();
            }
        }
    }
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Flags backups that disagree with their primary at equal versions, or
/// run ahead of it.
#[derive(Debug, Default)]
pub struct ReplicaDivergenceMonitor {
    violations: Vec<Violation>,
}

impl Monitor for ReplicaDivergenceMonitor {
    fn name(&self) -> &'static str {
        "replica-divergence"
    }
    fn on_event(&mut self, event: &MonitorEvent) {
        if let MonitorEvent::ReplicaProbe {
            owner,
            oid,
            backup,
            owner_version,
            backup_version,
            state_matches,
        } = event
        {
            if backup_version == owner_version && !state_matches {
                self.violations.push(Violation {
                    monitor: self.name(),
                    message: format!(
                        "backup {backup} of {owner}#{oid} diverges from the \
                         primary at version {owner_version}"
                    ),
                    span_id: 0,
                    trace_id: 0,
                });
            } else if backup_version > owner_version {
                self.violations.push(Violation {
                    monitor: self.name(),
                    message: format!(
                        "backup {backup} of {owner}#{oid} is at version \
                         {backup_version}, ahead of the primary's {owner_version}"
                    ),
                    span_id: 0,
                    trace_id: 0,
                });
            }
        }
    }
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanHandle;
    use crate::TraceContext;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The span-tree check as it was before the watermark: one pass over the
    /// whole log building a `(trace, span) → index` map and a span-id set,
    /// one pass resolving every span against them. Kept as the oracle the
    /// incremental monitor is compared to. The two differ by design on one
    /// input no runtime produces — a parent or retry target recorded *after*
    /// the span that names it resolves here once it exists, and never for
    /// the monitor (`forward_references_never_resolve`).
    fn full_scan_violations(log: &SpanLog) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut ids: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut span_ids: BTreeSet<u64> = BTreeSet::new();
        for (idx, span) in log.spans().iter().enumerate() {
            span_ids.insert(span.span_id);
            if let std::collections::btree_map::Entry::Vacant(e) =
                ids.entry((span.trace_id, span.span_id))
            {
                e.insert(idx);
            } else {
                violations.push(Violation {
                    monitor: "span-tree",
                    message: "duplicate span id within trace".to_string(),
                    span_id: span.span_id,
                    trace_id: span.trace_id,
                });
            }
        }
        for span in log.spans() {
            let mut fail = |message: String| {
                violations.push(Violation {
                    monitor: "span-tree",
                    message,
                    span_id: span.span_id,
                    trace_id: span.trace_id,
                });
            };
            if span.outcome == SpanOutcome::Open {
                fail(format!("span {} left open at quiescent point", span.name));
            }
            if span.end_ns < span.start_ns {
                fail(format!("span {} ends before it starts", span.name));
            }
            if span.parent_span_id != 0 {
                match ids
                    .get(&(span.trace_id, span.parent_span_id))
                    .map(|&i| &log.spans()[i])
                {
                    None => fail(format!(
                        "span {} has parent {:x} missing from its trace",
                        span.name, span.parent_span_id
                    )),
                    Some(parent) => {
                        if span.start_ns < parent.start_ns {
                            fail(format!(
                                "span {} starts before its parent {}",
                                span.name, parent.name
                            ));
                        }
                    }
                }
            }
            if let Some(prior) = span.retry_of() {
                if !span_ids.contains(&prior) {
                    fail(format!(
                        "span {} retries {:x}, which is missing from the log",
                        span.name, prior
                    ));
                }
            }
        }
        violations
    }

    #[test]
    fn stale_read_fires_only_on_stale_location() {
        let mut m = StaleReadMonitor::default();
        let mut hit = MonitorEvent::CacheHit {
            node: 0,
            owner: 1,
            oid: 7,
            stale_location: false,
            span_id: 42,
            trace_id: 9,
        };
        m.on_event(&hit);
        assert!(m.violations().is_empty());
        if let MonitorEvent::CacheHit { stale_location, .. } = &mut hit {
            *stale_location = true;
        }
        m.on_event(&hit);
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].span_id, 42);
        assert!(m.violations()[0].message.contains("1#7"));
    }

    #[test]
    fn at_most_once_tolerates_replays_but_not_re_execution() {
        let mut m = AtMostOnceMonitor::default();
        let exec = |replay| MonitorEvent::Execution {
            node: 1,
            caller: 0,
            msg_id: 5,
            replay,
            span_id: 3,
            trace_id: 2,
        };
        m.on_event(&exec(false));
        m.on_event(&exec(true)); // dedup replay: fine
        assert!(m.violations().is_empty());
        m.on_event(&exec(false)); // second real execution: violation
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].message.contains("msg 5"));
    }

    #[test]
    fn replica_divergence_flags_equal_version_mismatch_and_ahead_backups() {
        let mut m = ReplicaDivergenceMonitor::default();
        let probe = |owner_version, backup_version, state_matches| MonitorEvent::ReplicaProbe {
            owner: 1,
            oid: 4,
            backup: 2,
            owner_version,
            backup_version,
            state_matches,
        };
        m.on_event(&probe(3, 2, true)); // lagging backup: fine (best-effort sync)
        m.on_event(&probe(3, 3, true)); // in sync: fine
        assert!(m.violations().is_empty());
        m.on_event(&probe(3, 3, false)); // same version, different state
        m.on_event(&probe(3, 4, true)); // backup ahead of primary
        assert_eq!(m.violations().len(), 2);
    }

    #[test]
    fn span_tree_rechecks_from_scratch() {
        let mut log = SpanLog::new();
        let h = log.start_span("rpc.call", 0, 10);
        let mut m = SpanTreeMonitor::default();
        m.check_span_log(&log);
        assert_eq!(m.violations().len(), 1, "open span is flagged");
        log.end_span(h, 20, SpanOutcome::Ok);
        m.check_span_log(&log);
        assert!(m.violations().is_empty(), "re-check must not accumulate");
    }

    #[test]
    fn span_tree_flags_missing_parent_and_missing_retry_target() {
        let mut log = SpanLog::new();
        let h = log.start_span("rpc.attempt", 0, 5);
        log.set_retry_of(h, 0xdead);
        log.end_span(h, 6, SpanOutcome::Ok);
        let mut m = SpanTreeMonitor::default();
        m.check_span_log(&log);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].message.contains("retries"));
    }

    #[test]
    fn span_tree_settles_the_closed_prefix_and_revisits_the_rest() {
        let mut log = SpanLog::new();
        let mut m = SpanTreeMonitor::default();
        let bad = log.start_span("rpc.attempt", 0, 5);
        log.set_retry_of(bad, 0xdead);
        log.end_span(bad, 6, SpanOutcome::Ok);
        let open = log.start_span("rpc.call", 0, 10);
        let child = log.start_span("rpc.attempt", 0, 11);
        log.end_span(child, 12, SpanOutcome::Ok);
        m.check_span_log(&log);
        assert_eq!(m.watermark, 1, "settled up to the first open span");
        assert_eq!(m.violations().len(), 2, "dangling retry + open span");

        log.end_span(open, 20, SpanOutcome::Ok);
        m.check_span_log(&log);
        assert_eq!(m.watermark, 3);
        assert_eq!(m.violations(), full_scan_violations(&log));
        assert_eq!(m.violations().len(), 1, "the settled verdict is kept once");

        // Nothing new: a repeated check has nothing to visit or to add.
        m.check_span_log(&log);
        assert_eq!((m.watermark, m.violations().len()), (3, 1));
    }

    #[test]
    fn span_tree_starts_over_on_a_shorter_log() {
        let mut first = SpanLog::new();
        for t in 0..3 {
            let h = first.start_span("rpc.call", 0, t);
            first.set_retry_of(h, 0xdead);
            first.end_span(h, t, SpanOutcome::Ok);
        }
        let mut m = SpanTreeMonitor::default();
        m.check_span_log(&first);
        assert_eq!((m.watermark, m.violations().len()), (3, 3));

        let mut second = SpanLog::new();
        let h = second.start_span("rpc.call", 0, 0);
        second.end_span(h, 1, SpanOutcome::Ok);
        m.check_span_log(&second);
        assert_eq!(m.watermark, 1, "re-derived from the new log's first span");
        assert!(m.violations().is_empty(), "the old log's verdicts are gone");
    }

    #[test]
    fn forward_references_never_resolve() {
        let mut log = SpanLog::new();
        let root = log.start_span("rpc.call", 0, 0);
        // A forged context naming span 3 of this trace, which does not exist
        // yet; the server span itself gets id 2.
        let forged = TraceContext {
            trace_id: log.context_of(root).trace_id,
            span_id: 3,
            parent_span_id: 0,
        };
        let serve = log.start_server_span("serve.call", 1, 1, forged);
        log.end_span(serve, 2, SpanOutcome::Ok);
        log.end_span(root, 3, SpanOutcome::Ok);
        let mut m = SpanTreeMonitor::default();
        m.check_span_log(&log);
        let settled = m.violations().to_vec();
        assert_eq!(settled.len(), 1);
        assert!(settled[0].message.contains("parent 3 missing"));

        // Span 3 now joins the same trace, retrying span 4 before it exists.
        let again = log.start_span("rpc.call", 0, 4);
        assert_eq!(log.span_id_of(again), 3);
        log.set_retry_of(again, 4);
        log.end_span(again, 5, SpanOutcome::Ok);
        let late = log.start_span("rpc.call", 0, 6);
        log.end_span(late, 7, SpanOutcome::Ok);
        let mut fresh = SpanTreeMonitor::default();
        for m in [&mut m, &mut fresh] {
            m.check_span_log(&log);
            assert_eq!(m.violations().len(), 2);
            assert_eq!(m.violations()[0], settled[0], "a settled verdict is final");
            assert!(m.violations()[1].message.contains("retries 4"));
        }
    }

    /// One step of a random log history, in terms of the public `SpanLog`
    /// API. `pick`s index the spans recorded so far (or the open handles),
    /// modulo their number.
    #[derive(Debug, Clone)]
    enum Step {
        /// `start_span`: a child of the innermost open span, or a new root.
        Start { retry: Option<Target> },
        /// `start_server_span`, `skew` ns before the clock.
        Serve { ctx: Ctx, skew: u64 },
        /// `end_span` on any open handle, `early` ns before the clock.
        End { pick: usize, early: u64 },
        /// Hand the log to the incremental monitor.
        Check,
    }

    #[derive(Debug, Clone)]
    enum Target {
        Recorded(usize),
        Dangling(u64),
    }

    #[derive(Debug, Clone)]
    enum Ctx {
        None,
        Of(usize),
        CrossTrace(usize),
        MissingParent(usize),
    }

    /// An id no generated log reaches.
    const NEVER_ISSUED: u64 = 1 << 40;

    fn arb_step() -> BoxedStrategy<Step> {
        let pick = || 0..64usize;
        let target = prop_oneof![
            3 => pick().prop_map(Target::Recorded),
            1 => (0..8u64).prop_map(|x| Target::Dangling(NEVER_ISSUED + x)),
        ];
        let ctx = prop_oneof![
            1 => Just(Ctx::None),
            5 => pick().prop_map(Ctx::Of),
            1 => pick().prop_map(Ctx::CrossTrace),
            1 => pick().prop_map(Ctx::MissingParent),
        ];
        prop_oneof![
            5 => prop::option::of(target).prop_map(|retry| Step::Start { retry }),
            3 => (ctx, prop_oneof![4 => Just(0u64), 1 => 1..20u64])
                .prop_map(|(ctx, skew)| Step::Serve { ctx, skew }),
            7 => (pick(), prop_oneof![6 => Just(0u64), 1 => 1..20u64])
                .prop_map(|(pick, early)| Step::End { pick, early }),
            2 => Just(Step::Check),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the history and wherever the checks fall, the monitor
        /// reports what a from-scratch scan of the log reports, and once
        /// every span is closed the whole log is settled.
        #[test]
        fn incremental_checks_agree_with_a_full_scan(
            steps in prop::collection::vec(arb_step(), 1..160),
        ) {
            let mut log = SpanLog::new();
            let mut m = SpanTreeMonitor::default();
            let mut open: Vec<SpanHandle> = Vec::new();
            let mut now = 100u64;
            for step in steps {
                now += 3;
                let recorded = log.spans().len();
                match step {
                    Step::Start { retry } => {
                        let h = log.start_span("rpc.call", 0, now);
                        match retry {
                            // Strictly earlier spans only: see `full_scan_violations`.
                            Some(Target::Recorded(pick)) if recorded > 0 => {
                                log.set_retry_of(h, log.spans()[pick % recorded].span_id);
                            }
                            Some(Target::Dangling(id)) => log.set_retry_of(h, id),
                            _ => {}
                        }
                        open.push(h);
                    }
                    Step::Serve { ctx, skew } => {
                        let of = |pick: usize| log.spans()[pick % recorded].context();
                        let ctx = match ctx {
                            Ctx::Of(pick) if recorded > 0 => of(pick),
                            Ctx::CrossTrace(pick) if recorded > 0 => TraceContext {
                                trace_id: of(pick).trace_id + NEVER_ISSUED,
                                ..of(pick)
                            },
                            Ctx::MissingParent(pick) if recorded > 0 => TraceContext {
                                span_id: NEVER_ISSUED + pick as u64,
                                ..of(pick)
                            },
                            _ => TraceContext::NONE,
                        };
                        open.push(log.start_server_span("serve.call", 1, now - skew, ctx));
                    }
                    Step::End { pick, early } => {
                        if !open.is_empty() {
                            let h = open.remove(pick % open.len());
                            log.end_span(h, now - early, SpanOutcome::Ok);
                        }
                    }
                    Step::Check => {
                        m.check_span_log(&log);
                        prop_assert_eq!(m.violations(), full_scan_violations(&log));
                    }
                }
            }
            m.check_span_log(&log);
            prop_assert_eq!(m.violations(), full_scan_violations(&log));
            for h in open {
                log.end_span(h, now, SpanOutcome::Ok);
            }
            m.check_span_log(&log);
            prop_assert_eq!(m.violations(), full_scan_violations(&log));
            prop_assert_eq!(m.watermark, log.spans().len());
        }
    }
}
