//! Spans charged to the simulated clock, collected in a [`SpanLog`].
//!
//! The log is an append-only vector plus a stack of currently-open spans.
//! Span ids are handed out 1, 2, 3, … in push order, so the vector is its
//! own id index ([`SpanLog::by_id`]); a closed span never changes again.
//! The cluster is single-threaded and RPCs are synchronous and re-entrant,
//! so the stack *is* the causal chain: a span started while another is open
//! becomes its child. Server-side dispatch spans instead take their parent
//! from the wire ([`SpanLog::start_server_span`]), which is what links the
//! hops of a multi-node chain into one trace.
//!
//! All ids are allocated from per-log counters (never from wall-clock or
//! randomness), so with the same seed the log is byte-identical across runs.

use crate::TraceContext;
use std::collections::BTreeMap;
use std::fmt;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// A string attribute (method signature, protocol name, ...).
    Str(String),
    /// An unsigned numeric attribute (bytes, attempt number, ...).
    U64(u64),
    /// A signed numeric attribute.
    I64(i64),
    /// A boolean attribute (e.g. `cached` for dedup hits).
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Still open (only seen if the log is inspected mid-operation).
    Open,
    /// Completed normally.
    Ok,
    /// Completed with an application-level fault/exception.
    Fault,
    /// Aborted by a network failure (after retries were exhausted).
    NetFailure,
}

impl SpanOutcome {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Open => "open",
            SpanOutcome::Ok => "ok",
            SpanOutcome::Fault => "fault",
            SpanOutcome::NetFailure => "net_failure",
        }
    }
}

/// One recorded operation: an interval on the simulated clock plus its
/// position in the causal tree and its typed attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the log).
    pub span_id: u64,
    /// Parent span id (0 for a trace root).
    pub parent_span_id: u64,
    /// Span kind, e.g. `rpc.call`, `rpc.attempt`, `serve.call`, `migrate`.
    pub name: &'static str,
    /// Node the span was recorded on.
    pub node: u32,
    /// Start, simulated nanoseconds.
    pub start_ns: u64,
    /// End, simulated nanoseconds (`== start_ns` while open).
    pub end_ns: u64,
    /// For retransmission attempts: the span id of the attempt this one
    /// retries.
    pub retry_of: Option<u64>,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Span duration in simulated nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Look up a string attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The context a frame sent *from inside this span* carries.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
        }
    }
}

/// Opaque handle to an open span (an index into the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(pub(crate) usize);

/// Per-link latency summary (nearest-rank percentiles over simulated ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSummary {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Number of successful round-trips sampled.
    pub count: u64,
    /// Median latency, ns.
    pub p50: u64,
    /// 95th percentile latency, ns.
    pub p95: u64,
    /// 99th percentile latency, ns.
    pub p99: u64,
}

/// The per-cluster collection of spans and link samples.
///
/// Deterministic by construction: ids come from counters, timestamps from
/// the simulated clock, and link samples live in a `BTreeMap`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace_id: u64,
    next_span_id: u64,
    link_samples: BTreeMap<(u32, u32), Vec<u64>>,
}

impl SpanLog {
    /// New, empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    fn fresh_span_id(&mut self) -> u64 {
        self.next_span_id += 1;
        self.next_span_id
    }

    fn fresh_trace_id(&mut self) -> u64 {
        self.next_trace_id += 1;
        self.next_trace_id
    }

    fn push(&mut self, span: Span) -> SpanHandle {
        let idx = self.spans.len();
        // `by_id` reads slot `id - first id`: each id follows its predecessor.
        debug_assert!(
            self.spans
                .last()
                .is_none_or(|prev| prev.span_id + 1 == span.span_id),
            "span ids are consecutive in push order"
        );
        self.spans.push(span);
        self.open.push(idx);
        SpanHandle(idx)
    }

    /// Open a span as a child of the innermost open span (or as the root of
    /// a fresh trace if none is open).
    pub fn start_span(&mut self, name: &'static str, node: u32, now_ns: u64) -> SpanHandle {
        let (trace_id, parent_span_id) = match self.open.last() {
            Some(&idx) => (self.spans[idx].trace_id, self.spans[idx].span_id),
            None => (self.fresh_trace_id(), 0),
        };
        let span_id = self.fresh_span_id();
        self.push(Span {
            trace_id,
            span_id,
            parent_span_id,
            name,
            node,
            start_ns: now_ns,
            end_ns: now_ns,
            retry_of: None,
            outcome: SpanOutcome::Open,
            attrs: Vec::new(),
        })
    }

    /// Open a server-side dispatch span whose parent is the *remote* span
    /// named by the wire context (rather than the local stack). A
    /// [`TraceContext::NONE`] context (frame from an uninstrumented peer)
    /// starts a fresh trace.
    pub fn start_server_span(
        &mut self,
        name: &'static str,
        node: u32,
        now_ns: u64,
        ctx: TraceContext,
    ) -> SpanHandle {
        let (trace_id, parent_span_id) = if ctx.is_none() {
            (self.fresh_trace_id(), 0)
        } else {
            (ctx.trace_id, ctx.span_id)
        };
        let span_id = self.fresh_span_id();
        self.push(Span {
            trace_id,
            span_id,
            parent_span_id,
            name,
            node,
            start_ns: now_ns,
            end_ns: now_ns,
            retry_of: None,
            outcome: SpanOutcome::Open,
            attrs: Vec::new(),
        })
    }

    /// Attach (or append) a typed attribute to an open span.
    pub fn set_attr(&mut self, h: SpanHandle, key: &'static str, value: impl Into<AttrValue>) {
        self.spans[h.0].attrs.push((key, value.into()));
    }

    /// Flag a retransmission attempt with the span id it retries.
    pub fn set_retry_of(&mut self, h: SpanHandle, prior_attempt: u64) {
        self.spans[h.0].retry_of = Some(prior_attempt);
    }

    /// Close a span, stamping the end time and outcome. A closed span is
    /// immutable (the span-tree monitor keeps its verdict on it), so closing
    /// a handle a second time is a caller bug and changes nothing.
    pub fn end_span(&mut self, h: SpanHandle, now_ns: u64, outcome: SpanOutcome) {
        // Remove by position (not just the top) so a missed close of a
        // nested span cannot poison the whole stack.
        let pos = self.open.iter().rposition(|&i| i == h.0);
        debug_assert!(pos.is_some(), "span handle {} closed twice", h.0);
        let Some(pos) = pos else { return };
        self.open.remove(pos);
        let span = &mut self.spans[h.0];
        span.end_ns = now_ns;
        span.outcome = outcome;
    }

    /// The wire context of span `h` (what a frame sent from inside it
    /// carries).
    pub fn context_of(&self, h: SpanHandle) -> TraceContext {
        self.spans[h.0].context()
    }

    /// The span id behind a handle.
    pub fn span_id_of(&self, h: SpanHandle) -> u64 {
        self.spans[h.0].span_id
    }

    /// The context of the innermost open span, or [`TraceContext::NONE`].
    pub fn current_context(&self) -> TraceContext {
        match self.open.last() {
            Some(&idx) => self.spans[idx].context(),
            None => TraceContext::NONE,
        }
    }

    /// Record one successful round-trip latency sample for a link.
    pub fn record_link(&mut self, from: u32, to: u32, ns: u64) {
        self.link_samples.entry((from, to)).or_default().push(ns);
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with this id, in O(1): ids are consecutive in push order, so
    /// the id names the slot. `None` for 0 (the "no parent" id), for an id
    /// the log never handed out, and for a slot holding a different id.
    pub fn by_id(&self, span_id: u64) -> Option<&Span> {
        let offset = span_id.checked_sub(self.spans.first()?.span_id)?;
        self.spans
            .get(usize::try_from(offset).ok()?)
            .filter(|s| s.span_id == span_id)
    }

    /// Per-link p50/p95/p99 over the recorded samples (exact nearest-rank),
    /// ordered by `(from, to)`.
    pub fn link_percentiles(&self) -> Vec<LinkSummary> {
        self.link_samples
            .iter()
            .map(|(&(from, to), samples)| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                LinkSummary {
                    from,
                    to,
                    count: sorted.len() as u64,
                    p50: nearest_rank(&sorted, 50),
                    p95: nearest_rank(&sorted, 95),
                    p99: nearest_rank(&sorted, 99),
                }
            })
            .collect()
    }

    /// The critical path of a trace: from the root span, repeatedly descend
    /// into the child that *started* last. In a synchronous runtime children
    /// execute serially, so the last-started child is the one that gated the
    /// parent's completion — and, unlike last-finished, the descent follows
    /// the serve chain across nodes rather than dead-ending in a client-side
    /// attempt span (which always outlives the serve it wraps, since it also
    /// covers the reply transmit). Returns the spans root-first, or empty if
    /// the trace id is unknown.
    pub fn critical_path(&self, trace_id: u64) -> Vec<&Span> {
        let root = self
            .spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.parent_span_id == 0);
        let mut path = Vec::new();
        let mut cur = match root {
            Some(s) => s,
            None => return path,
        };
        loop {
            path.push(cur);
            let next = self
                .spans
                .iter()
                .filter(|s| s.trace_id == trace_id && s.parent_span_id == cur.span_id)
                .max_by_key(|s| (s.start_ns, s.span_id));
            match next {
                Some(s) => cur = s,
                None => return path,
            }
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_parenting_builds_a_tree() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.call", 0, 100);
        let b = log.start_span("rpc.attempt", 0, 110);
        log.end_span(b, 150, SpanOutcome::Ok);
        log.end_span(a, 160, SpanOutcome::Ok);
        let c = log.start_span("rpc.call", 0, 200);
        log.end_span(c, 210, SpanOutcome::Fault);

        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].trace_id, 1);
        assert_eq!(spans[0].parent_span_id, 0);
        assert_eq!(spans[1].trace_id, 1);
        assert_eq!(spans[1].parent_span_id, spans[0].span_id);
        // A root opened after the first trace closed starts a new trace.
        assert_eq!(spans[2].trace_id, 2);
        assert_eq!(spans[2].outcome, SpanOutcome::Fault);
        assert_eq!(spans[1].duration_ns(), 40);
    }

    #[test]
    fn server_span_adopts_wire_context() {
        let mut log = SpanLog::new();
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 42,
            parent_span_id: 3,
        };
        let s = log.start_server_span("serve.call", 1, 500, ctx);
        log.end_span(s, 600, SpanOutcome::Ok);
        let span = &log.spans()[0];
        assert_eq!(span.trace_id, 7);
        assert_eq!(span.parent_span_id, 42);
        // A NONE context starts a fresh local trace instead.
        let s2 = log.start_server_span("serve.call", 1, 700, TraceContext::NONE);
        log.end_span(s2, 800, SpanOutcome::Ok);
        assert_eq!(log.spans()[1].trace_id, 1);
        assert_eq!(log.spans()[1].parent_span_id, 0);
    }

    #[test]
    fn current_context_tracks_the_open_stack() {
        let mut log = SpanLog::new();
        assert!(log.current_context().is_none());
        let a = log.start_span("rpc.call", 0, 0);
        let actx = log.current_context();
        assert_eq!(actx, log.context_of(a));
        let b = log.start_span("serve.call", 1, 10);
        assert_eq!(log.current_context().span_id, log.span_id_of(b));
        log.end_span(b, 20, SpanOutcome::Ok);
        assert_eq!(log.current_context(), actx);
        log.end_span(a, 30, SpanOutcome::Ok);
        assert!(log.current_context().is_none());
    }

    #[test]
    fn end_span_removes_by_position() {
        let mut log = SpanLog::new();
        let a = log.start_span("outer", 0, 0);
        let b = log.start_span("inner", 0, 1);
        // Close out of order: outer first.
        log.end_span(a, 10, SpanOutcome::Ok);
        log.end_span(b, 11, SpanOutcome::Ok);
        assert!(log.current_context().is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "closed twice"))]
    fn end_span_twice_keeps_the_first_close() {
        let mut log = SpanLog::new();
        let a = log.start_span("outer", 0, 0);
        let b = log.start_span("inner", 0, 1);
        log.end_span(b, 5, SpanOutcome::Ok);
        // Debug builds stop here; release builds must ignore the call.
        log.end_span(b, 99, SpanOutcome::Fault);
        assert_eq!(log.spans()[1].end_ns, 5);
        assert_eq!(log.spans()[1].outcome, SpanOutcome::Ok);
        assert_eq!(log.current_context(), log.context_of(a), "outer still open");
    }

    #[test]
    fn by_id_is_the_slot_lookup() {
        let mut log = SpanLog::new();
        assert!(log.by_id(1).is_none(), "empty log");
        let a = log.start_span("rpc.call", 0, 0);
        let b = log.start_server_span("serve.call", 1, 1, log.context_of(a));
        for h in [a, b] {
            let id = log.span_id_of(h);
            assert!(std::ptr::eq(log.by_id(id).unwrap(), &log.spans()[h.0]));
        }
        assert!(log.by_id(0).is_none(), "0 means no span");
        assert!(log.by_id(3).is_none(), "one past the end");
        assert!(log.by_id(u64::MAX).is_none());
    }

    #[test]
    fn attrs_and_retry_links() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.attempt", 0, 0);
        log.set_attr(a, "attempt", 2u64);
        log.set_attr(a, "method", "n(J)J");
        log.set_attr(a, "cached", true);
        log.set_retry_of(a, 17);
        log.end_span(a, 5, SpanOutcome::NetFailure);
        let span = &log.spans()[0];
        assert_eq!(span.attr("attempt"), Some(&AttrValue::U64(2)));
        assert_eq!(span.attr_str("method"), Some("n(J)J"));
        assert_eq!(span.attr("cached"), Some(&AttrValue::Bool(true)));
        assert_eq!(span.retry_of, Some(17));
        assert_eq!(span.outcome.label(), "net_failure");
    }

    #[test]
    fn link_percentiles_nearest_rank() {
        let mut log = SpanLog::new();
        for ns in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            log.record_link(0, 1, ns);
        }
        log.record_link(2, 0, 7);
        let links = log.link_percentiles();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].from, 0);
        assert_eq!(links[0].to, 1);
        assert_eq!(links[0].count, 10);
        assert_eq!(links[0].p50, 50);
        assert_eq!(links[0].p95, 100);
        assert_eq!(links[0].p99, 100);
        assert_eq!(
            links[1],
            LinkSummary {
                from: 2,
                to: 0,
                count: 1,
                p50: 7,
                p95: 7,
                p99: 7
            }
        );
    }

    #[test]
    fn critical_path_follows_last_started_child() {
        let mut log = SpanLog::new();
        let root = log.start_span("rpc.call", 0, 0);
        let fast = log.start_span("rpc.attempt", 0, 1);
        log.end_span(fast, 5, SpanOutcome::NetFailure);
        let slow = log.start_span("rpc.attempt", 0, 6);
        let serve = log.start_server_span("serve.call", 1, 8, log.context_of(slow));
        log.end_span(serve, 20, SpanOutcome::Ok);
        log.end_span(slow, 25, SpanOutcome::Ok);
        log.end_span(root, 30, SpanOutcome::Ok);

        let path: Vec<&'static str> = log.critical_path(1).iter().map(|s| s.name).collect();
        assert_eq!(path, vec!["rpc.call", "rpc.attempt", "serve.call"]);
        assert!(log.critical_path(99).is_empty());
    }
}
