//! # rafda-telemetry
//!
//! Causal distributed tracing for the RAFDA cluster.
//!
//! The paper's point is that distribution boundaries are re-drawn at
//! runtime; the follow-up RAFDA work makes placement a *policy* decision
//! driven by observed behaviour. Flat counters (`NetStats`,
//! `RuntimeStats`) say *how much* traffic crossed a boundary but not *who
//! called whom through which proxy* or *where the time went*. This crate
//! supplies that missing causal signal:
//!
//! * [`TraceContext`] — a `{trace_id, span_id, parent_span_id}` triple
//!   carried in every wire frame header (all three protocol families), so
//!   the serving node's work is causally linked to the calling node's span,
//!   through arbitrarily nested proxy→proxy chains;
//! * [`SpanLog`] — spans charged to the **simulated** clock. Every RPC
//!   exchange, transmission attempt, server dispatch, migration and
//!   boundary pull opens a span with typed attributes (method signature,
//!   protocol, bytes, attempt number, outcome). With the same seed the log
//!   is byte-identical across runs;
//! * derived views — per-`(class, method, protocol)` latency histograms
//!   with [fixed bucket boundaries](BUCKET_BOUNDS_NS), per-link p50/p95/p99
//!   summaries, and a critical-path extractor for any trace;
//! * exporters — Chrome trace-event JSON (loadable in `chrome://tracing` or
//!   Perfetto) and a deterministic text report of the slowest spans and
//!   hottest methods.
//!
//! The crate is a leaf: it depends on nothing, takes timestamps as raw
//! nanoseconds and nodes as raw `u32` ids, and both the network and wire
//! crates can sit on top of it.

#![warn(missing_docs)]

pub mod chrome;
pub mod hash;
pub mod histogram;
pub mod metrics;
pub mod monitor;
pub mod report;
pub mod span;
pub mod timeseries;

pub use hash::{FastMap, FastSet};
pub use histogram::{LatencyHistogram, MethodKey, BUCKET_BOUNDS_NS};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use monitor::{SpanTreeMonitor, Violation};
pub use span::{
    AttrKey, AttrValue, LinkSummary, ResolvedAttr, Span, SpanHandle, SpanLog, SpanOutcome, Spans,
    Symbol,
};
pub use timeseries::{SeriesId, TimeSeriesRecorder};

use std::fmt;

/// The causal context carried in every wire frame header (the simulation's
/// analogue of a W3C `traceparent`).
///
/// A remote call made while span `S` of trace `T` is open travels with
/// `{trace_id: T, span_id: S, parent_span_id: parent(S)}`; the serving node
/// opens its dispatch span as a child of `S` under the same trace, which is
/// what stitches a multi-hop proxy chain (client → A → B → C) into one
/// causal tree.
///
/// Id `0` is reserved: [`TraceContext::NONE`] marks a frame from an
/// uninstrumented peer and starts a fresh trace at the receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace every span of one causal chain shares. Retransmissions
    /// reuse it.
    pub trace_id: u64,
    /// The sending span (the receiver's parent).
    pub span_id: u64,
    /// The sending span's own parent (0 for a root span).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The absent context (pre-tracing peers decode as this).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
    };

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.span_id == 0
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}:{:08x}<{:08x}",
            self.trace_id, self.span_id, self.parent_span_id
        )
    }
}
