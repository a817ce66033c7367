//! The span log's own invariant check, and the [`Violation`] every
//! invariant check reports.
//!
//! [`SpanTreeMonitor`] checks the structural health of a [`SpanLog`] at a
//! quiescent point: parents exist in the same trace, children start no
//! earlier than parents, retry chains resolve, nothing is left open. It is
//! a property of the log, so it lives next to it; the runtime's other
//! checks (stale reads, at-most-once, replica divergence, stale affinity)
//! need the cluster's tables and live in the runtime's watchdog, which
//! holds one of these and hands it the log at every quiescent check.

use crate::span::{Span, SpanLog, SpanOutcome};

/// A broken invariant, with enough context to find the offending
/// span/exchange in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the check that fired.
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
        // A span can only descend from, or retry, one recorded before it —
        // and every id below its own is one.
        let earlier = |id: u64| (1..span.span_id).contains(&id);
        if span.outcome == SpanOutcome::Open {
            fail(format!("span {} left open at quiescent point", span.name));
        }
        if span.end_ns < span.start_ns {
            fail(format!("span {} ends before it starts", span.name));
        }
        if span.parent_span_id != 0 {
            let parent = log
                .trace_and_start(span.parent_span_id)
                .filter(|&(trace_id, _)| earlier(span.parent_span_id) && trace_id == span.trace_id);
            match parent {
                None => fail(format!(
                    "span {} has parent {:x} missing from its trace",
                    span.name, span.parent_span_id
                )),
                Some((_, start_ns)) if span.start_ns < start_ns => {
                    let parent = log.by_id(span.parent_span_id).expect("checked above");
                    fail(format!(
                        "span {} starts before its parent {}",
                        span.name, parent.name
                    ));
                }
                Some(_) => {}
            }
        }
        if let Some(prior) = span.retry_of() {
            // Resolved log-wide, not per trace: a failover span chains to
            // the failed exchange, which legitimately lives in the trace
            // that died with the crashed owner.
            if !earlier(prior) {
                fail(format!(
                    "span {} retries {:x}, which is missing from the log",
                    span.name, prior
                ));
            }
        }
    }

    /// Check the log at a quiescent point. Called repeatedly with the same,
    /// growing log, after which [`SpanTreeMonitor::violations`] describes
    /// the log as it is *now*: verdicts on the settled prefix are kept,
    /// everything from the watermark on is re-derived. A log shorter than
    /// what was already checked is a different log — start over.
    pub fn check_span_log(&mut self, log: &SpanLog) {
        let spans = log.spans();
        if spans.len() < self.watermark {
            // Not the log the watermark was taken on.
            self.watermark = 0;
            self.settled_violations = 0;
        }
        self.violations.truncate(self.settled_violations);
        let mut settling = true;
        // `skip` jumps straight to the watermark's slot.
        for span in spans.skip(self.watermark) {
            Self::check_span(log, &span, &mut self.violations);
            settling &= span.outcome != SpanOutcome::Open;
            if settling {
                self.watermark += 1;
                self.settled_violations = self.violations.len();
            }
        }
    }

    /// The verdicts as of the last check, in log order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanHandle;
    use crate::TraceContext;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
        for (idx, span) in log.spans().enumerate() {
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
                    .and_then(|&i| log.spans().nth(i))
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
                                let target = log.spans().nth(pick % recorded).unwrap();
                                log.set_retry_of(h, target.span_id);
                            }
                            Some(Target::Dangling(id)) => log.set_retry_of(h, id),
                            _ => {}
                        }
                        open.push(h);
                    }
                    Step::Serve { ctx, skew } => {
                        let of = |pick: usize| log.spans().nth(pick % recorded).unwrap().context();
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
