//! Labeled metrics registry: the single write path for runtime counters.
//!
//! Subsystems register *handles* once — a metric name plus a label set
//! such as `node="2"` — and bump them through the handle on the hot path
//! (an index into a flat vector; no hashing, no string work). Merged views
//! like `RuntimeStats` are *reads* of the registry, not storage of their
//! own, and the exporters render exactly what is registered.
//!
//! Determinism: handles are allocated in registration order, iteration is
//! registration order within a metric name and first-registration order
//! across names, and both exporters ([`MetricsRegistry::prometheus_text`]
//! and [`MetricsRegistry::json_lines`]) are pure functions of the stored
//! values — same seed, byte-identical output. `ci.sh` diffs both exports
//! across two runs as a determinism gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Handle to a registered counter (monotone `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

/// Handle to a registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(usize);

#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Histogram {
        /// Inclusive upper bounds, strictly increasing. An implicit
        /// overflow bucket (`+Inf`) follows the last bound.
        bounds: Vec<u64>,
        /// Per-bucket observation counts, `bounds.len() + 1` long.
        counts: Vec<u64>,
        sum: u64,
    },
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    /// Sorted by label key at registration; rendered in that order.
    labels: Vec<(String, String)>,
    value: MetricValue,
}

/// A registry of labeled counters and histograms.
///
/// Registration is idempotent: registering the same `(name, labels)` pair
/// again returns the existing handle (and panics if the metric kind
/// differs — that is a programming error, not a runtime condition).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<Entry>,
    index: BTreeMap<(String, Vec<(String, String)>), usize>,
    /// Metric names in first-registration order (export grouping order).
    name_order: Vec<String>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metric series (one per `(name, labels)` pair).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no series.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn register(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) -> usize {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let key = (name.to_string(), labels.clone());
        if let Some(&i) = self.index.get(&key) {
            assert_eq!(
                self.entries[i].value.kind(),
                value.kind(),
                "metric {name} re-registered with a different kind"
            );
            return i;
        }
        if !self.name_order.iter().any(|n| n == name) {
            self.name_order.push(name.to_string());
        }
        let i = self.entries.len();
        self.entries.push(Entry {
            name: name.to_string(),
            labels,
            value,
        });
        self.index.insert(key, i);
        i
    }

    /// Register (or look up) a counter series.
    pub fn register_counter(&mut self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.register(name, labels, MetricValue::Counter(0)))
    }

    /// Register (or look up) a histogram series with the given inclusive
    /// upper bounds (strictly increasing; an overflow bucket is implicit).
    pub fn register_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Vec<u64>,
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram(self.register(
            name,
            labels,
            MetricValue::Histogram {
                bounds,
                counts,
                sum: 0,
            },
        ))
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `v`.
    pub fn add(&mut self, c: Counter, v: u64) {
        match &mut self.entries[c.0].value {
            MetricValue::Counter(cur) => *cur += v,
            _ => unreachable!("handle kind is checked at registration"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, c: Counter) -> u64 {
        match &self.entries[c.0].value {
            MetricValue::Counter(cur) => *cur,
            _ => unreachable!("handle kind is checked at registration"),
        }
    }

    /// Record one observation of `v` in a histogram.
    pub fn observe(&mut self, h: Histogram, v: u64) {
        match &mut self.entries[h.0].value {
            MetricValue::Histogram {
                bounds,
                counts,
                sum,
            } => {
                let i = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
                counts[i] += 1;
                *sum += v;
            }
            _ => unreachable!("handle kind is checked at registration"),
        }
    }

    /// Per-bucket observation counts of a histogram (`bounds + 1` long;
    /// the last slot is the overflow bucket).
    pub fn histogram_counts(&self, h: Histogram) -> &[u64] {
        match &self.entries[h.0].value {
            MetricValue::Histogram { counts, .. } => counts,
            _ => unreachable!("handle kind is checked at registration"),
        }
    }

    fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
        let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Render every series in Prometheus text-exposition format.
    ///
    /// Metric names appear in first-registration order, each prefixed by
    /// one `# TYPE` line; series within a name appear in registration
    /// order. Histograms render cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`. The output is deterministic.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for name in &self.name_order {
            let entries: Vec<&Entry> = self.entries.iter().filter(|e| &e.name == name).collect();
            let kind = entries[0].value.kind();
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for e in entries {
                match &e.value {
                    MetricValue::Counter(v) => {
                        let labels = Self::render_labels(&e.labels, None);
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        sum,
                    } => {
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = match bounds.get(i) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            let labels = Self::render_labels(&e.labels, Some(("le", &le)));
                            let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                        }
                        let labels = Self::render_labels(&e.labels, None);
                        let _ = writeln!(out, "{name}_sum{labels} {sum}");
                        let _ = writeln!(out, "{name}_count{labels} {cum}");
                    }
                }
            }
        }
        out
    }

    /// Render every series as JSON lines (one object per line), in the
    /// same deterministic order as [`MetricsRegistry::prometheus_text`].
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for name in &self.name_order {
            for e in self.entries.iter().filter(|e| &e.name == name) {
                let labels = e
                    .labels
                    .iter()
                    .map(|(k, v)| {
                        format!(
                            "\"{}\":\"{}\"",
                            crate::chrome::escape_json(k),
                            crate::chrome::escape_json(v)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                let head = format!(
                    "{{\"name\":\"{}\",\"type\":\"{}\",\"labels\":{{{labels}}}",
                    crate::chrome::escape_json(name),
                    e.value.kind()
                );
                match &e.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{head},\"value\":{v}}}");
                    }
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        sum,
                    } => {
                        let b = bounds
                            .iter()
                            .map(u64::to_string)
                            .collect::<Vec<_>>()
                            .join(",");
                        let c = counts
                            .iter()
                            .map(u64::to_string)
                            .collect::<Vec<_>>()
                            .join(",");
                        let count: u64 = counts.iter().sum();
                        let _ = writeln!(
                            out,
                            "{head},\"bounds\":[{b}],\"counts\":[{c}],\
                             \"sum\":{sum},\"count\":{count}}}"
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_order_stable() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register_counter("calls", &[("node", "0")]);
        let b = reg.register_counter("calls", &[("node", "1")]);
        let a2 = reg.register_counter("calls", &[("node", "0")]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        reg.inc(a);
        reg.add(b, 4);
        assert_eq!(reg.counter_value(a), 1);
        assert_eq!(reg.counter_value(b), 4);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn label_order_is_normalised() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register_counter("x", &[("b", "2"), ("a", "1")]);
        let b = reg.register_counter("x", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b, "label order must not create distinct series");
        assert!(reg.prometheus_text().contains("x{a=\"1\",b=\"2\"} 0"));
    }

    #[test]
    fn histogram_buckets_are_inclusive_and_cumulative() {
        let mut reg = MetricsRegistry::new();
        let h = reg.register_histogram("lat", &[], vec![1, 2, 4]);
        for v in [0, 1, 2, 3, 4, 5, 100] {
            reg.observe(h, v);
        }
        // le=1 gets {0,1}, le=2 gets {2}, le=4 gets {3,4}, +Inf gets {5,100}.
        assert_eq!(reg.histogram_counts(h), &[2, 1, 2, 2]);
        let text = reg.prometheus_text();
        assert!(text.contains("lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{le=\"2\"} 3"));
        assert!(text.contains("lat_bucket{le=\"4\"} 5"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("lat_sum 115"));
        assert!(text.contains("lat_count 7"));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let c = reg.register_counter("calls", &[("node", "0")]);
            let h = reg.register_histogram("lat", &[("node", "0")], vec![1, 8]);
            reg.inc(c);
            reg.observe(h, 3);
            (reg.prometheus_text(), reg.json_lines())
        };
        assert_eq!(build(), build());
        let (prom, json) = build();
        assert!(prom.contains("# TYPE calls counter"));
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(json.contains("\"type\":\"histogram\""));
    }
}
