//! Observable execution traces.
//!
//! The paper's correctness criterion is that the transformed application is
//! *semantically equivalent* to the original, "modulo network failure"
//! (Sections 1 and 4). We make that checkable: programs report observable
//! behaviour through the built-in `Observer` class (installed by
//! [`Vm::install_observer`](crate::Vm::install_observer)), and two runs are
//! equivalent iff their traces are equal.
//!
//! Trace events record only *location-independent* data (numbers, strings) —
//! never heap handles — so the traces of a single-address-space run and a
//! distributed run are directly comparable.

use crate::{Value, Vm, VmError};
use std::fmt;

/// One observable event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// `Observer.emit(long)`.
    Emit(i64),
    /// `Observer.emit_str(String)`.
    EmitStr(String),
    /// `Observer.emit_double(double)` (bit-exact comparison).
    EmitDouble(u64),
    /// An uncaught in-model exception terminated the run; records the
    /// exception's class name.
    UncaughtException(String),
    /// A network failure surfaced during the run (allowed to differ from the
    /// original program — the "modulo network failure" clause).
    NetworkFailure(String),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Emit(v) => write!(f, "emit {v}"),
            TraceEvent::EmitStr(s) => write!(f, "emit \"{s}\""),
            TraceEvent::EmitDouble(b) => write!(f, "emit 0x{b:016x}"),
            TraceEvent::UncaughtException(c) => write!(f, "uncaught {c}"),
            TraceEvent::NetworkFailure(m) => write!(f, "network failure: {m}"),
        }
    }
}

/// An ordered list of observable events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clear all events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Close the trace of a run that returned `result` on `vm`. An error
    /// becomes the run's terminal event: an uncaught exception's class
    /// name, a [`TraceEvent::NetworkFailure`] carrying the error's text, or
    /// any other error as `<error: …>`. Every run's ending is classified
    /// here; `vm` is where the exception object lives.
    pub fn finish(&mut self, vm: &Vm, result: Result<Value, VmError>) {
        let ending = match result {
            Ok(_) => return,
            Err(VmError::Exception(h)) => {
                TraceEvent::UncaughtException(vm.class_of(h).map_or_else(
                    || "<stale>".to_owned(),
                    |c| String::from(&*vm.universe().class(c).name),
                ))
            }
            Err(e) if e.is_network() => TraceEvent::NetworkFailure(e.to_string()),
            Err(other) => TraceEvent::EmitStr(format!("<error: {other}>")),
        };
        self.events.push(ending);
    }

    /// Equivalence *modulo network failure*: traces must agree on the prefix
    /// before the first [`TraceEvent::NetworkFailure`] in either trace; a
    /// trace that fails by network error is allowed to be a prefix of a
    /// longer successful one.
    pub fn equivalent_modulo_network(&self, other: &Trace) -> bool {
        let cut = |t: &Trace| {
            t.events
                .iter()
                .position(|e| matches!(e, TraceEvent::NetworkFailure(_)))
                .unwrap_or(t.events.len())
        };
        let a_cut = cut(self);
        let b_cut = cut(other);
        let n = a_cut.min(b_cut);
        if self.events[..n] != other.events[..n] {
            return false;
        }
        // The longer prefix is only acceptable if the shorter one stopped
        // because of a network failure.
        if a_cut != b_cut {
            let shorter_failed = if a_cut < b_cut {
                a_cut < self.events.len()
            } else {
                b_cut < other.events.len()
            };
            return shorter_failed;
        }
        true
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(events: &[TraceEvent]) -> Trace {
        events.iter().cloned().collect()
    }

    #[test]
    fn equal_traces_are_equivalent() {
        let a = t(&[TraceEvent::Emit(1), TraceEvent::EmitStr("x".into())]);
        let b = a.clone();
        assert!(a.equivalent_modulo_network(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn different_values_are_not_equivalent() {
        let a = t(&[TraceEvent::Emit(1)]);
        let b = t(&[TraceEvent::Emit(2)]);
        assert!(!a.equivalent_modulo_network(&b));
    }

    #[test]
    fn network_failure_allows_prefix() {
        let ok = t(&[
            TraceEvent::Emit(1),
            TraceEvent::Emit(2),
            TraceEvent::Emit(3),
        ]);
        let failed = t(&[
            TraceEvent::Emit(1),
            TraceEvent::NetworkFailure("partition".into()),
        ]);
        assert!(ok.equivalent_modulo_network(&failed));
        assert!(failed.equivalent_modulo_network(&ok));
    }

    #[test]
    fn diverging_prefix_before_failure_is_rejected() {
        let ok = t(&[TraceEvent::Emit(1), TraceEvent::Emit(2)]);
        let failed = t(&[
            TraceEvent::Emit(9),
            TraceEvent::NetworkFailure("partition".into()),
        ]);
        assert!(!ok.equivalent_modulo_network(&failed));
    }

    #[test]
    fn truncation_without_failure_is_rejected() {
        let a = t(&[TraceEvent::Emit(1), TraceEvent::Emit(2)]);
        let b = t(&[TraceEvent::Emit(1)]);
        assert!(!a.equivalent_modulo_network(&b));
        assert!(!b.equivalent_modulo_network(&a));
    }

    #[test]
    fn uncaught_exception_is_observable() {
        let a = t(&[
            TraceEvent::Emit(1),
            TraceEvent::UncaughtException("AppError".into()),
        ]);
        let b = t(&[TraceEvent::Emit(1)]);
        assert!(!a.equivalent_modulo_network(&b));
    }

    #[test]
    fn display_golden_for_every_variant() {
        // Golden strings: equivalence failures and logs print these, so the
        // exact rendering is a stable contract.
        assert_eq!(TraceEvent::Emit(-42).to_string(), "emit -42");
        assert_eq!(
            TraceEvent::EmitStr("a \"b\"".into()).to_string(),
            "emit \"a \"b\"\""
        );
        assert_eq!(
            TraceEvent::EmitDouble(std::f64::consts::PI.to_bits()).to_string(),
            "emit 0x400921fb54442d18"
        );
        assert_eq!(
            TraceEvent::EmitDouble(0).to_string(),
            "emit 0x0000000000000000"
        );
        assert_eq!(
            TraceEvent::UncaughtException("DivideByZero".into()).to_string(),
            "uncaught DivideByZero"
        );
        assert_eq!(
            TraceEvent::NetworkFailure("timeout after 3 attempts".into()).to_string(),
            "network failure: timeout after 3 attempts"
        );
    }

    #[test]
    fn trace_display_is_one_event_per_line() {
        let tr = t(&[TraceEvent::Emit(7), TraceEvent::EmitStr("hi".into())]);
        assert_eq!(tr.to_string(), "emit 7\nemit \"hi\"\n");
    }
}
