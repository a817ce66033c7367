//! Deterministic fixed-interval time-series on the simulated clock.
//!
//! Counters say what happened over a whole run; the recorder says *when*.
//! It holds named ring-buffer series sampled at a fixed simulated-time
//! interval — the runtime asks [`TimeSeriesRecorder::due`] whenever it is
//! about to do work, and if a sample boundary has passed it records one
//! point per series stamped *at the boundary* (not at "now"), so the
//! timestamps are a pure function of the interval and the traffic, never
//! of how often the runtime happened to check.
//!
//! Because the clock is simulated and sampling is driven from
//! deterministic call sites, the whole series — timestamps and values —
//! is byte-identical across same-seed runs, which is what lets `ci.sh`
//! diff the JSON export as a determinism gate.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Handle to a registered series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// Named ring-buffer series sampled on a fixed simulated-time grid.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    interval_ns: u64,
    cap: usize,
    next_due_ns: u64,
    names: Vec<String>,
    points: Vec<VecDeque<(u64, f64)>>,
    /// Points evicted from each series' ring, parallel to `points`.
    dropped: Vec<u64>,
}

impl TimeSeriesRecorder {
    /// A recorder sampling every `interval_ns` simulated nanoseconds,
    /// keeping at most `cap` points per series (older points are evicted,
    /// counted in [`TimeSeriesRecorder::dropped_points`]).
    pub fn new(interval_ns: u64, cap: usize) -> Self {
        assert!(interval_ns > 0, "sampling interval must be positive");
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            interval_ns,
            cap,
            next_due_ns: 0,
            names: Vec::new(),
            points: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// The sampling interval in simulated nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Register a named series (idempotent by name).
    pub fn register(&mut self, name: &str) -> SeriesId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SeriesId(i);
        }
        self.names.push(name.to_string());
        self.points.push(VecDeque::new());
        self.dropped.push(0);
        SeriesId(self.names.len() - 1)
    }

    /// If a sample boundary at or before `now_ns` is pending, the
    /// timestamp to stamp the sample with: the *latest* due grid point
    /// `<= now_ns`. Returns `None` when no sample is due.
    pub fn due(&self, now_ns: u64) -> Option<u64> {
        if now_ns < self.next_due_ns {
            return None;
        }
        let missed = (now_ns - self.next_due_ns) / self.interval_ns;
        Some(self.next_due_ns + missed * self.interval_ns)
    }

    /// Advance the grid past a sample stamped `stamp_ns` (as returned by
    /// [`TimeSeriesRecorder::due`]).
    pub fn advance(&mut self, stamp_ns: u64) {
        self.next_due_ns = stamp_ns + self.interval_ns;
    }

    /// Append a point to a series (evicting the oldest beyond capacity).
    pub fn record(&mut self, id: SeriesId, stamp_ns: u64, value: f64) {
        let ring = &mut self.points[id.0];
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped[id.0] += 1;
        }
        ring.push_back((stamp_ns, value));
    }

    /// Points evicted from full rings over the recorder's lifetime, all
    /// series together. Non-zero means the JSON export is a *suffix* of
    /// the run, not the whole run; each exported line carries its own
    /// series' share.
    pub fn dropped_points(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Recorded points of a series, oldest first.
    pub fn points(&self, id: SeriesId) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points[id.0].iter().copied()
    }

    /// Iterate `(name, points)` in registration order.
    pub fn series(&self) -> impl Iterator<Item = (&str, &VecDeque<(u64, f64)>)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.points.iter())
    }

    /// Render every series as JSON lines, one object per series, in
    /// registration order: `{"series":NAME,"interval_ns":N,"dropped":D,`
    /// `"points":[[t,v],...]}`, `D` being the points evicted from *that*
    /// series' ring. Deterministic.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for ((name, ring), dropped) in self.series().zip(&self.dropped) {
            let pts = ring
                .iter()
                .map(|(t, v)| format!("[{t},{}]", fmt_f64(*v)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                out,
                "{{\"series\":\"{}\",\"interval_ns\":{},\"dropped\":{},\"points\":[{pts}]}}",
                crate::chrome::escape_json(name),
                self.interval_ns,
                dropped,
            );
        }
        out
    }
}

/// Deterministic `f64` rendering for the export: finite values use Rust's
/// shortest-roundtrip `Display`; non-finite values clamp to 0 so the output
/// stays valid JSON.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stamp_on_the_grid_not_at_now() {
        let mut rec = TimeSeriesRecorder::new(100, 8);
        let s = rec.register("depth");
        assert_eq!(rec.due(0), Some(0), "first sample is due immediately");
        rec.record(s, 0, 1.0);
        rec.advance(0);
        assert_eq!(rec.due(99), None);
        // The runtime next checks at t=347: two boundaries (100, 200, 300)
        // have passed; the sample is stamped at the latest one.
        assert_eq!(rec.due(347), Some(300));
        rec.record(s, 300, 2.0);
        rec.advance(300);
        assert_eq!(rec.due(399), None);
        assert_eq!(rec.due(400), Some(400));
        let pts: Vec<_> = rec.points(s).collect();
        assert_eq!(pts, vec![(0, 1.0), (300, 2.0)]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = TimeSeriesRecorder::new(10, 3);
        let s = rec.register("x");
        let quiet = rec.register("y");
        for i in 0..5u64 {
            rec.record(s, i * 10, i as f64);
        }
        rec.record(quiet, 0, 9.0);
        assert_eq!(rec.dropped_points(), 2);
        let pts: Vec<_> = rec.points(s).collect();
        assert_eq!(pts, vec![(20, 2.0), (30, 3.0), (40, 4.0)]);
        // Each exported line reports its own ring's evictions, not the
        // recorder-wide total.
        let out = rec.json_lines();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("{\"series\":\"x\",\"interval_ns\":10,\"dropped\":2,"));
        assert!(lines[1].starts_with("{\"series\":\"y\",\"interval_ns\":10,\"dropped\":0,"));
        for _ in 0..3 {
            rec.record(quiet, 10, 9.0);
        }
        assert_eq!(rec.dropped_points(), 3, "the total spans both rings");
        assert!(rec
            .json_lines()
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"dropped\":1,"));
    }

    #[test]
    fn json_export_is_deterministic_and_one_line_per_series() {
        let build = || {
            let mut rec = TimeSeriesRecorder::new(50, 4);
            let a = rec.register("queue_depth");
            let b = rec.register("hit_rate");
            rec.record(a, 0, 3.0);
            rec.record(a, 50, 1.0);
            rec.record(b, 0, 0.5);
            rec.json_lines()
        };
        assert_eq!(build(), build());
        let out = build();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"series\":\"queue_depth\""));
        assert!(out.contains("[[0,3],[50,1]]"));
    }

    #[test]
    fn register_is_idempotent() {
        let mut rec = TimeSeriesRecorder::new(1, 1);
        assert_eq!(rec.register("a"), rec.register("a"));
    }
}
