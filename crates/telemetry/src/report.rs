//! Deterministic text report: top slowest spans, hottest methods, per-link
//! percentiles.
//!
//! Ordering rules are total and explicit (duration, then start time, then
//! span id; total time, then key), so the table is byte-identical across
//! runs with the same seed — it is safe to snapshot in golden tests.

use crate::span::SpanLog;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

impl SpanLog {
    /// Render the "top slowest spans / hottest methods / link latency"
    /// table, limiting the span and method sections to `top` rows each.
    pub fn report(&self, top: usize) -> String {
        let mut out = String::new();

        let _ = writeln!(out, "top {top} slowest spans (simulated ns):");
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>5}  {:<8} detail",
            "name", "dur", "node", "trace"
        );
        // The `top` smallest keys in one pass, kept in a max-heap whose root
        // is the first to give way: the log is neither copied nor sorted.
        let mut slowest = BinaryHeap::new();
        for span in self.spans() {
            let key = (Reverse(span.duration_ns()), span.start_ns, span.span_id);
            if slowest.len() < top {
                slowest.push(key);
            } else if let Some(mut last) = slowest.peek_mut() {
                if key < *last {
                    *last = key;
                }
            }
        }
        for (_, _, span_id) in slowest.into_sorted_vec() {
            let span = self.by_id(span_id).expect("a ranked span is in the log");
            let mut detail = String::new();
            for key in ["class", "method", "protocol", "outcome"] {
                let text = match key {
                    "outcome" => Some(span.outcome.label().to_string()),
                    _ => self.attr_str(&span, key).map(str::to_string),
                };
                if let Some(text) = text {
                    if !detail.is_empty() {
                        detail.push(' ');
                    }
                    let _ = write!(detail, "{text}");
                }
            }
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>5}  {:<8x} {}",
                span.name,
                span.duration_ns(),
                span.node,
                span.trace_id,
                detail
            );
        }

        let _ = writeln!(out, "hottest methods (by total simulated ns):");
        let _ = writeln!(
            out,
            "  {:<24} {:>6} {:>12} {:>10} {:>10} {:>10}",
            "class.method [proto]", "calls", "total", "mean", "p95", "max"
        );
        let hists = self.method_histograms();
        let mut hottest: Vec<_> = hists.iter().collect();
        hottest.sort_by(|(ka, a), (kb, b)| b.sum.cmp(&a.sum).then_with(|| ka.cmp(kb)));
        for (key, hist) in hottest.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} {:>12} {:>10} {:>10} {:>10}",
                format!("{}.{} [{}]", key.class, key.method, key.protocol),
                hist.count,
                hist.sum,
                hist.mean(),
                hist.percentile(95),
                hist.max
            );
        }

        let links = self.link_percentiles();
        if !links.is_empty() {
            let _ = writeln!(out, "per-link round-trip latency (simulated ns):");
            let _ = writeln!(
                out,
                "  {:<7} {:>6} {:>10} {:>10} {:>10}",
                "link", "count", "p50", "p95", "p99"
            );
            for link in links {
                let _ = writeln!(
                    out,
                    "  {:<7} {:>6} {:>10} {:>10} {:>10}",
                    format!("{}->{}", link.from, link.to),
                    link.count,
                    link.p50,
                    link.p95,
                    link.p99
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;

    /// Two exchanges `0 → 1`, each with one round trip inside it.
    fn sample_log() -> SpanLog {
        let mut log = SpanLog::new();
        for (method, dur, trip) in [("n(J)J", 40_000_u64, 8_000), ("p(I)I", 9_000, 6_000)] {
            let s = log.start_span("rpc.call", 0, 100);
            log.set_attr(s, "class", "Y");
            log.set_attr(s, "method", method);
            log.set_attr(s, "protocol", "RMI");
            log.set_attr(s, "to", 1u32);
            let att = log.start_span("rpc.attempt", 0, 100);
            log.end_span(att, 100 + trip, SpanOutcome::Ok);
            log.end_span(s, 100 + dur, SpanOutcome::Ok);
        }
        log
    }

    #[test]
    fn report_is_deterministic_and_ranked() {
        let a = sample_log().report(5);
        let b = sample_log().report(5);
        assert_eq!(a, b);
        // Slowest span first, hottest method first.
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("top 5 slowest spans"));
        assert!(lines[1].contains("name"));
        assert!(lines[2].contains("40000"), "slowest first: {a}");
        assert!(lines[2].contains("n(J)J"));
        assert!(lines[3].contains("9000"));
        let hot = a
            .lines()
            .position(|l| l.starts_with("hottest methods"))
            .unwrap();
        assert!(a.lines().nth(hot + 2).unwrap().contains("Y.n(J)J [RMI]"));
        let link = a.lines().find(|l| l.starts_with("  0->1")).unwrap();
        let cols: Vec<&str> = link.split_whitespace().collect();
        assert_eq!(cols, ["0->1", "2", "6000", "8000", "8000"]);
    }

    #[test]
    fn slowest_rows_are_the_head_of_a_full_sort() {
        // Durations and starts tie often, so the order comes down to the id.
        let mut log = SpanLog::new();
        for i in 0..60u64 {
            let s = log.start_span("rpc.call", (i % 3) as u32, i % 4);
            log.end_span(s, i % 4 + (i % 5) * 10, SpanOutcome::Ok);
        }
        let mut sorted: Vec<crate::Span> = log.spans().collect();
        sorted.sort_by_key(|s| (Reverse(s.duration_ns()), s.start_ns, s.span_id));
        for top in [0, 1, 7, 59, 60, 100] {
            let report = log.report(top);
            let rows: Vec<&str> = report
                .lines()
                .skip(2)
                .take_while(|l| !l.starts_with("hottest"))
                .collect();
            let expected: Vec<String> = sorted
                .iter()
                .take(top)
                .map(|s| {
                    let (name, dur, node, trace) = (s.name, s.duration_ns(), s.node, s.trace_id);
                    format!("  {name:<12} {dur:>10} {node:>5}  {trace:<8x} ok")
                })
                .collect();
            assert_eq!(rows, expected, "top {top}");
        }
    }

    #[test]
    fn top_limits_rows() {
        let report = sample_log().report(1);
        assert_eq!(report.lines().filter(|l| l.contains("rpc.call")).count(), 1);
    }
}
