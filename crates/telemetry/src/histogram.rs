//! Fixed-bucket latency histograms keyed by `(class, method, protocol)`.
//!
//! Bucket boundaries are compile-time constants ([`BUCKET_BOUNDS_NS`]) so
//! two runs — or two nodes — always bin identically; there is no HDR-style
//! auto-ranging that could make output depend on the data seen first.

use crate::span::SpanLog;
use std::collections::BTreeMap;

/// Upper bounds (inclusive, simulated ns) of the histogram buckets; a final
/// overflow bucket catches everything larger. A 1–2–5 ladder from 1 µs to
/// 10 ms, matching the simulator's per-hop latencies (tens of µs) with
/// headroom for retry storms.
pub const BUCKET_BOUNDS_NS: [u64; 13] = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000, 2_000_000,
    5_000_000, 10_000_000,
];

/// A latency histogram with the fixed [`BUCKET_BOUNDS_NS`] buckets plus
/// exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts; `counts[BUCKET_BOUNDS_NS.len()]` is the overflow
    /// bucket.
    pub counts: [u64; BUCKET_BOUNDS_NS.len() + 1],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum: u64,
    /// Smallest sample, ns (0 when empty).
    pub min: u64,
    /// Largest sample, ns (0 when empty).
    pub max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKET_BOUNDS_NS.len() + 1],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = ns;
            self.max = ns;
        } else {
            self.min = self.min.min(ns);
            self.max = self.max.max(ns);
        }
        self.count += 1;
        self.sum += ns;
    }

    /// Mean latency, ns (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate percentile: the upper bound of the bucket holding the
    /// nearest-rank sample (clamped to the observed max; `min`/`max` are
    /// exact). Returns 0 when empty.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (pct * self.count).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// Histogram key: which method, on which class, over which protocol.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MethodKey {
    /// Base class name (e.g. `Y`).
    pub class: String,
    /// Method signature (e.g. `n(J)J`) or `<create>/k` for remote creation.
    pub method: String,
    /// Protocol family that carried the call (`RMI`/`SOAP`/`CORBA`).
    pub protocol: String,
}

impl SpanLog {
    /// Aggregate per-`(class, method, protocol)` histograms over all closed
    /// RPC exchange spans carrying the three attributes. Ordered by key, so
    /// iteration is deterministic.
    pub fn method_histograms(&self) -> BTreeMap<MethodKey, LatencyHistogram> {
        let mut out: BTreeMap<MethodKey, LatencyHistogram> = BTreeMap::new();
        for span in self.spans() {
            if !span.name.starts_with("rpc.") {
                continue;
            }
            let (class, method, protocol) = match (
                self.attr_str(&span, "class"),
                self.attr_str(&span, "method"),
                self.attr_str(&span, "protocol"),
            ) {
                (Some(c), Some(m), Some(p)) => (c, m, p),
                _ => continue,
            };
            let key = MethodKey {
                class: class.to_string(),
                method: method.to_string(),
                protocol: protocol.to_string(),
            };
            out.entry(key).or_default().record(span.duration_ns());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;

    #[test]
    fn buckets_and_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(500); // bucket 0 (<= 1_000)
        h.record(1_000); // bucket 0 (inclusive bound)
        h.record(1_001); // bucket 1
        h.record(99_000_000); // overflow
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[BUCKET_BOUNDS_NS.len()], 1);
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 500);
        assert_eq!(h.max, 99_000_000);
        assert_eq!(h.mean(), (500 + 1_000 + 1_001 + 99_000_000) / 4);
    }

    #[test]
    fn golden_bucket_edges_and_zero_duration_samples() {
        // Every exact bucket boundary lands in its own bucket (bounds are
        // inclusive), and boundary+1 spills into the next.
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            let mut h = LatencyHistogram::new();
            h.record(bound);
            assert_eq!(h.counts[i], 1, "bound {bound} must fill bucket {i}");
            h.record(bound + 1);
            let next = (i + 1).min(BUCKET_BOUNDS_NS.len());
            assert_eq!(h.counts[next], 1, "bound {bound}+1 must spill to {next}");
        }
        // A zero-duration sample — what a cached rpc.call span produces —
        // lands in the first bucket and pins min to 0.
        let mut z = LatencyHistogram::new();
        z.record(0);
        assert_eq!((z.counts[0], z.count, z.sum, z.min, z.max), (1, 1, 0, 0, 0));
        assert_eq!(
            z.percentile(50),
            0,
            "p50 of all-zero samples clamps to max 0"
        );

        // End-to-end: a cached span in a log is a 0 ns sample in the
        // method histogram, not an omitted one.
        let mut log = SpanLog::new();
        let s = log.start_span("rpc.call", 0, 5_000);
        log.set_attr(s, "class", "Y");
        log.set_attr(s, "method", "get_v()I");
        log.set_attr(s, "protocol", "RMI");
        log.set_attr(s, "cached", true);
        log.end_span(s, 5_000, SpanOutcome::Ok);
        let hists = log.method_histograms();
        let key = MethodKey {
            class: "Y".into(),
            method: "get_v()I".into(),
            protocol: "RMI".into(),
        };
        assert_eq!((hists[&key].count, hists[&key].max), (1, 0));
    }

    #[test]
    fn percentiles_use_bucket_bounds_clamped_to_max() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(15_000); // bucket with bound 20_000
        }
        h.record(900_000); // bucket with bound 1_000_000
        assert_eq!(h.percentile(50), 20_000);
        // The p100 sample sits in the 1 ms bucket but the observed max is
        // 900 µs — clamp to it.
        assert_eq!(h.percentile(100), 900_000);
        assert_eq!(LatencyHistogram::new().percentile(50), 0);
    }

    #[test]
    fn method_histograms_group_by_key() {
        let mut log = SpanLog::new();
        for (method, dur) in [("n(J)J", 10_u64), ("n(J)J", 30), ("p(I)I", 40)] {
            let s = log.start_span("rpc.call", 0, 0);
            log.set_attr(s, "class", "Y");
            log.set_attr(s, "method", method);
            log.set_attr(s, "protocol", "RMI");
            log.end_span(s, dur, SpanOutcome::Ok);
        }
        // Attempt spans without class/method attrs are ignored.
        let a = log.start_span("rpc.attempt", 0, 0);
        log.end_span(a, 99, SpanOutcome::Ok);
        // Non-rpc spans are ignored even with the attrs.
        let m = log.start_span("migrate", 0, 0);
        log.set_attr(m, "class", "Y");
        log.set_attr(m, "method", "x");
        log.set_attr(m, "protocol", "RMI");
        log.end_span(m, 99, SpanOutcome::Ok);

        let hists = log.method_histograms();
        assert_eq!(hists.len(), 2);
        let keys: Vec<&str> = hists.keys().map(|k| k.method.as_str()).collect();
        assert_eq!(keys, vec!["n(J)J", "p(I)I"]);
        let n = &hists[&MethodKey {
            class: "Y".into(),
            method: "n(J)J".into(),
            protocol: "RMI".into(),
        }];
        assert_eq!(n.count, 2);
        assert_eq!(n.sum, 40);
    }
}
