//! Chrome trace-event JSON export (loadable in `chrome://tracing` or
//! Perfetto).
//!
//! Hand-rolled writer — the workspace is offline and dependency-free, and
//! the subset of JSON needed here (objects, strings, fractional-µs
//! numbers) is small. Spans become `"ph":"X"` complete events; each node
//! becomes a process (`pid`) named via a `process_name` metadata event,
//! and each trace becomes a thread (`tid`) so chains nest visually.

use crate::span::{Span, SpanLog};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal (quotes are
/// the caller's job). Shared with the metrics/time-series exporters.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Simulated ns rendered as fractional microseconds (the trace-event time
/// unit), with no float rounding: `12345` ns → `12.345`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn span_event(out: &mut String, log: &SpanLog, span: &Span) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{",
        escape_json(span.name),
        span.node,
        span.trace_id,
        us(span.start_ns),
        us(span.duration_ns()),
    );
    let _ = write!(
        out,
        "\"trace\":\"{:x}\",\"span\":\"{:x}\",\"parent\":\"{:x}\",\"outcome\":\"{}\"",
        span.trace_id,
        span.span_id,
        span.parent_span_id,
        span.outcome.label(),
    );
    if let Some(prior) = span.retry_of() {
        let _ = write!(out, ",\"retry_of\":\"{prior:x}\"");
    }
    for (key, value) in log.attrs(span) {
        let _ = write!(
            out,
            ",\"{}\":\"{}\"",
            escape_json(key),
            escape_json(&value.to_string())
        );
    }
    out.push_str("}}");
}

impl SpanLog {
    /// Render the whole log as a Chrome trace-event JSON document. The
    /// output is a pure function of the log: same seed, same bytes.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let nodes: BTreeSet<u32> = self.spans().map(|s| s.node).collect();
        for node in nodes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"args\":{{\"name\":\"node{node}\"}}}}",
            );
        }
        for span in self.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            span_event(&mut out, self, &span);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;

    #[test]
    fn escapes_and_formats() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(us(12_345), "12.345");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(2_000_000), "2000.000");
    }

    #[test]
    fn golden_export_small_log() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.call", 0, 1_000);
        log.set_attr(a, "method", "n(J)J");
        let b = log.start_span("rpc.attempt", 0, 1_500);
        log.set_retry_of(b, 99);
        log.end_span(b, 2_000, SpanOutcome::NetFailure);
        log.end_span(a, 3_250, SpanOutcome::Ok);

        let json = log.chrome_trace_json();
        assert_eq!(
            json,
            concat!(
                "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"node0\"}},",
                "{\"name\":\"rpc.call\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"dur\":2.250,",
                "\"args\":{\"trace\":\"1\",\"span\":\"1\",\"parent\":\"0\",\"outcome\":\"ok\",",
                "\"method\":\"n(J)J\"}},",
                "{\"name\":\"rpc.attempt\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.500,\"dur\":0.500,",
                "\"args\":{\"trace\":\"1\",\"span\":\"2\",\"parent\":\"1\",\"outcome\":\"net_failure\",",
                "\"retry_of\":\"63\"}}",
                "]}\n",
            )
        );
    }

    #[test]
    fn golden_escaping_of_control_chars_and_non_bmp() {
        // Control chars below 0x20 escape to \u00xx; DEL and non-BMP
        // scalars (surrogate-pair territory in UTF-16 JSON readers) pass
        // through as raw UTF-8, which JSON permits.
        assert_eq!(escape_json("\u{0}\u{1f}\u{7f}"), "\\u0000\\u001f\u{7f}");
        assert_eq!(escape_json("crab \u{1F980}!"), "crab \u{1F980}!");

        let mut log = SpanLog::new();
        let a = log.start_span("rpc.call", 0, 1_000);
        log.set_attr(a, "method", "m\u{1F980}\t\u{2}(V)V");
        log.end_span(a, 1_000, SpanOutcome::Ok);
        let json = log.chrome_trace_json();
        assert_eq!(
            json,
            concat!(
                "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"node0\"}},",
                "{\"name\":\"rpc.call\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"dur\":0.000,",
                "\"args\":{\"trace\":\"1\",\"span\":\"1\",\"parent\":\"0\",\"outcome\":\"ok\",",
                "\"method\":\"m\u{1F980}\\t\\u0002(V)V\"}}",
                "]}\n",
            )
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut log = SpanLog::new();
            for node in [2u32, 0, 1] {
                let s = log.start_span("serve.call", node, 10);
                log.end_span(s, 20, SpanOutcome::Ok);
            }
            log.chrome_trace_json()
        };
        assert_eq!(build(), build());
    }
}
