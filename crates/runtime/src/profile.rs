//! The host-time profile: where the wall clock goes, section by section.
//!
//! The simulated clock says what an exchange costs the *modelled* system;
//! this says what it costs the host running the model. A [`Section`] is a
//! fixed named step of the runtime (an encode, a transmit, a sweep probe,
//! …), opened with an RAII guard. Sections charge **self** time: opening a
//! nested section pauses its parent, so the table sums to the time spent
//! inside any section, each nanosecond counted once. A driver opens
//! [`Section::Other`] around each op it applies; what no named section
//! claims inside it is the op's unattributed remainder.
//!
//! The profiler is off unless [`Cluster::enable_host_profile`] switches it
//! on, and then a guard costs one `Cell<bool>` test. Host time is read
//! only through [`Cluster::host_profile`]: it never enters a span, a
//! counter, a report or any other deterministic artefact.

use crate::cluster::Cluster;
use std::cell::Cell;
use std::time::Instant;

/// A profiled step of the runtime (or of a driver applying ops to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The root a driver opens around one op: its self time is what no
    /// named section claimed.
    Other,
    /// Caller half: the proxy's own decisions (property cache, replica
    /// read, deferral, failover loop) around the exchange.
    Proxy,
    /// Caller half: arguments to wire values and the reply back.
    Marshal,
    /// Caller half: the exchange's own bookkeeping (depth, message id,
    /// retry loop) outside its named steps.
    Exchange,
    /// Caller half: buffer checkout and request encode.
    RequestEncode,
    /// Caller half: `Network::transmit`, both directions, and the codec's
    /// simulated overhead.
    Transmit,
    /// Caller half: reply decode against the link's table.
    ReplyDecode,
    /// Caller half: buffer return, attempt accounting and span close.
    SpanTail,
    /// Callee half: what `serve::deliver` does outside its named steps.
    Serve,
    /// Callee half: header decode and the reply-cache (dedup) lookup and
    /// insert.
    HeaderDedup,
    /// Callee half: the owned request built from the borrowed header.
    Materialise,
    /// Callee half: the request run against the node's VM and directory.
    Dispatch,
    /// Callee half: reply encode into the link's pooled buffer.
    ReplyEncode,
    /// Replica sweep: draining the heaps' write logs into dirty marks.
    SweepDrain,
    /// Replica sweep: the settled test, and a deep record's state read and
    /// comparison.
    SweepProbe,
    /// Replica sweep: building and shipping the state to the backups.
    SweepShip,
    /// Draining the batched outcall queues.
    BatchFlush,
    /// Opening, annotating and closing spans.
    SpanRecord,
    /// Registry writes: counters and the attempts histogram.
    MetricWrite,
    /// The watchdog's decision-point checks (cache hit, execution).
    WatchdogCall,
    /// The time-series sample at the head of an exchange.
    Sample,
    /// The self time of the placement and fault ops: `migrate`,
    /// `pull_local`, `adapt`, `rebalance_shards`, `crash` and `restart`.
    Placement,
    /// `Cluster::check_invariants`.
    QuiescentCheck,
    /// Soak harness: stepping the single-address-space oracle.
    OracleStep,
    /// Soak harness: the delta-0 mutation of every pool object after a
    /// restart.
    TouchAll,
    /// A generated factory's `make()` hook: the placement decision and the
    /// fresh instance (or the create exchange).
    FactoryMake,
    /// A generated factory's `discover()` hook: the class singleton,
    /// resolved or made.
    FactoryDiscover,
    /// A generated factory's `init$k` body, the original constructor's
    /// logic. It is bytecode the runtime does not call, so only code that
    /// hooks it (the `host_profile` example) opens this section.
    FactoryInit,
    /// The `Observer` hooks' trace sink.
    ObserverEmit,
}

impl Section {
    /// Every section, in table order.
    pub const ALL: [Section; 29] = [
        Section::Other,
        Section::Proxy,
        Section::Marshal,
        Section::Exchange,
        Section::RequestEncode,
        Section::Transmit,
        Section::ReplyDecode,
        Section::SpanTail,
        Section::Serve,
        Section::HeaderDedup,
        Section::Materialise,
        Section::Dispatch,
        Section::ReplyEncode,
        Section::SweepDrain,
        Section::SweepProbe,
        Section::SweepShip,
        Section::BatchFlush,
        Section::SpanRecord,
        Section::MetricWrite,
        Section::WatchdogCall,
        Section::Sample,
        Section::Placement,
        Section::QuiescentCheck,
        Section::OracleStep,
        Section::TouchAll,
        Section::FactoryMake,
        Section::FactoryDiscover,
        Section::FactoryInit,
        Section::ObserverEmit,
    ];

    /// A stable dotted name (`rpc.transmit`, `serve.dispatch`, …).
    pub fn label(self) -> &'static str {
        match self {
            Section::Other => "other",
            Section::Proxy => "rpc.proxy",
            Section::Marshal => "rpc.marshal",
            Section::Exchange => "rpc.exchange",
            Section::RequestEncode => "rpc.request_encode",
            Section::Transmit => "rpc.transmit",
            Section::ReplyDecode => "rpc.reply_decode",
            Section::SpanTail => "rpc.span_tail",
            Section::Serve => "serve.frame",
            Section::HeaderDedup => "serve.header_dedup",
            Section::Materialise => "serve.materialise",
            Section::Dispatch => "serve.dispatch",
            Section::ReplyEncode => "serve.reply_encode",
            Section::SweepDrain => "replicate.drain",
            Section::SweepProbe => "replicate.probe",
            Section::SweepShip => "replicate.ship",
            Section::BatchFlush => "batch.flush",
            Section::SpanRecord => "telemetry.span_record",
            Section::MetricWrite => "telemetry.metric_write",
            Section::WatchdogCall => "watchdog.call",
            Section::Sample => "telemetry.sample",
            Section::Placement => "cluster.placement",
            Section::QuiescentCheck => "watchdog.quiescent_check",
            Section::OracleStep => "soak.oracle_step",
            Section::TouchAll => "soak.touch_all",
            Section::FactoryMake => "factory.make",
            Section::FactoryDiscover => "factory.discover",
            Section::FactoryInit => "factory.init",
            Section::ObserverEmit => "observer.emit",
        }
    }
}

const SECTIONS: usize = Section::ALL.len();

/// [`OPEN`] while no section is open.
const NONE_OPEN: u8 = u8::MAX;

thread_local! {
    /// The section this thread's profiler has open, as `Section as u8`, or
    /// [`NONE_OPEN`]: a mirror a counting global allocator can read without
    /// reaching the profiler. Written only on a transition, so a profiler
    /// that is off never touches it.
    static OPEN: Cell<u8> = const { Cell::new(NONE_OPEN) };
}

impl Section {
    /// The section a profiler on this thread has open right now — what a
    /// counting global allocator charges an allocation to. `None` outside
    /// every section, and always while no profile is on. Allocates nothing.
    pub fn open() -> Option<Section> {
        let open = OPEN.try_with(Cell::get).unwrap_or(NONE_OPEN);
        Section::ALL.get(usize::from(open)).copied()
    }
}

/// One section's row of the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Row {
    /// Times the section was entered.
    count: u64,
    /// Self time, host nanoseconds.
    ns: u64,
}

/// A snapshot of the profile: per section, how often it was entered and the
/// host nanoseconds it spent in itself (nested sections excluded). Each
/// entry reads the clock twice, so a section entered often, or one whose
/// children are, carries that much of the profiler's own cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostProfile {
    table: [Row; SECTIONS],
}

impl HostProfile {
    /// Times `section` was entered.
    pub fn count(&self, section: Section) -> u64 {
        self.table[section as usize].count
    }

    /// Self time of `section`, in host nanoseconds.
    pub fn ns(&self, section: Section) -> u64 {
        self.table[section as usize].ns
    }

    /// Self time summed over every section: the host time spent inside
    /// any section.
    pub fn total_ns(&self) -> u64 {
        self.table.iter().map(|row| row.ns).sum()
    }
}

/// The profiler state hanging off [`Shared`](crate::cluster::Shared).
pub(crate) struct Profiler {
    on: Cell<bool>,
    /// The innermost open section, charged until the next transition.
    open: Cell<Option<Section>>,
    /// When the current charge started.
    mark: Cell<Instant>,
    table: [Cell<Row>; SECTIONS],
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler {
            on: Cell::new(false),
            open: Cell::new(None),
            mark: Cell::new(Instant::now()),
            table: std::array::from_fn(|_| Cell::default()),
        }
    }

    /// Open `section` until the guard drops. One `Cell<bool>` test when
    /// the profiler is off.
    #[inline]
    pub(crate) fn section(&self, section: Section) -> SectionGuard<'_> {
        if !self.on.get() {
            return SectionGuard { open: None };
        }
        SectionGuard {
            open: Some((self, self.enter(section))),
        }
    }

    /// Make `section` the open one and count the entry; returns the section
    /// it paused. Out of line, like [`Profiler::switch`], so that a guard
    /// inlines as its one test: measured, that keeps the off profiler's
    /// cost to what no guards at all would leave.
    #[cold]
    #[inline(never)]
    fn enter(&self, section: Section) -> Option<Section> {
        let parent = self.switch(Some(section));
        self.update(section, |row| row.count += 1);
        parent
    }

    /// Charge the time since the last transition to the open section and
    /// make `to` the open one; returns the section it replaced.
    #[cold]
    #[inline(never)]
    fn switch(&self, to: Option<Section>) -> Option<Section> {
        let now = Instant::now();
        if let Some(open) = self.open.get() {
            let spent = now.duration_since(self.mark.get()).as_nanos() as u64;
            self.update(open, |row| row.ns += spent);
        }
        self.mark.set(now);
        OPEN.with(|open| open.set(to.map_or(NONE_OPEN, |s| s as u8)));
        self.open.replace(to)
    }

    fn update(&self, section: Section, change: impl FnOnce(&mut Row)) {
        let cell = &self.table[section as usize];
        let mut row = cell.get();
        change(&mut row);
        cell.set(row);
    }

    fn enable(&self) {
        for row in &self.table {
            row.set(Row::default());
        }
        self.open.set(None);
        OPEN.with(|open| open.set(NONE_OPEN));
        self.on.set(true);
    }

    fn snapshot(&self) -> HostProfile {
        HostProfile {
            table: std::array::from_fn(|i| self.table[i].get()),
        }
    }
}

/// An open [`Section`]; dropping it hands the clock back to the section
/// it paused.
#[must_use = "a section is charged until its guard drops"]
pub struct SectionGuard<'a> {
    open: Option<(&'a Profiler, Option<Section>)>,
}

impl Drop for SectionGuard<'_> {
    fn drop(&mut self) {
        if let Some((profiler, parent)) = self.open {
            profiler.switch(parent);
        }
    }
}

impl Cluster {
    /// Switch the host-time profile on, from a zeroed table. Like
    /// [`Cluster::enable_monitors`], it changes nothing the simulation can
    /// observe: the profile is read only through [`Cluster::host_profile`].
    pub fn enable_host_profile(&self) {
        self.shared.prof.enable();
    }

    /// The host-time profile so far (all zeros while it is off).
    pub fn host_profile(&self) -> HostProfile {
        self.shared.prof.snapshot()
    }

    /// Open `section` on this cluster's profiler until the guard drops —
    /// how a driver outside the runtime charges its own steps (the root
    /// [`Section::Other`] per op, the soak harness's oracle). Costs one
    /// `Cell<bool>` test while the profile is off.
    pub fn profile_section(&self, section: Section) -> SectionGuard<'_> {
        self.shared.prof.section(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn an_off_profiler_records_nothing() {
        let p = Profiler::new();
        {
            let _s = p.section(Section::Dispatch);
            spin(50);
        }
        assert_eq!(p.snapshot().total_ns(), 0);
        assert_eq!(p.snapshot().count(Section::Dispatch), 0);
    }

    #[test]
    fn a_nested_section_pauses_its_parent() {
        let p = Profiler::new();
        p.enable();
        {
            let _outer = p.section(Section::Other);
            spin(200);
            {
                let _inner = p.section(Section::Transmit);
                spin(10_000);
            }
            spin(200);
        }
        spin(50_000); // no section open: charged to nobody
        let snap = p.snapshot();
        assert_eq!(snap.count(Section::Other), 1);
        assert_eq!(snap.count(Section::Transmit), 1);
        // The parent's self time excludes the child's 10 ms.
        assert!(snap.ns(Section::Transmit) >= 10_000_000);
        assert!(snap.ns(Section::Other) >= 400_000);
        assert!(snap.ns(Section::Other) < snap.ns(Section::Transmit));
        assert_eq!(
            snap.total_ns(),
            snap.ns(Section::Other) + snap.ns(Section::Transmit)
        );
        assert!(snap.total_ns() < 50_000_000, "the idle 50 ms leaked in");
    }

    #[test]
    fn re_entering_a_section_counts_each_entry_once() {
        let p = Profiler::new();
        p.enable();
        {
            let _a = p.section(Section::Dispatch);
            let _b = p.section(Section::Dispatch);
        }
        assert_eq!(p.snapshot().count(Section::Dispatch), 2);
        p.enable();
        assert_eq!(p.snapshot(), Profiler::new().snapshot(), "enable zeroes");
    }

    #[test]
    fn the_open_section_is_mirrored_for_the_allocator() {
        let p = Profiler::new();
        {
            let _off = p.section(Section::Dispatch);
            assert_eq!(Section::open(), None, "an off profiler writes nothing");
        }
        p.enable();
        {
            let _outer = p.section(Section::Other);
            {
                let _inner = p.section(Section::Transmit);
                assert_eq!(Section::open(), Some(Section::Transmit));
            }
            assert_eq!(Section::open(), Some(Section::Other));
        }
        assert_eq!(Section::open(), None);
    }

    #[test]
    fn labels_are_unique_and_in_table_order() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, s) in Section::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
            assert!(seen.insert(s.label()), "duplicate label {}", s.label());
        }
    }
}
