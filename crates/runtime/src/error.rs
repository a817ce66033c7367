//! Runtime errors.

use rafda_vm::{NetFailure, VmError};
use std::fmt;

/// Why a runtime operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The interpreter raised an error (including in-model exceptions).
    Vm(VmError),
    /// A remote operation failed at the network level after exhausting the
    /// configured retries. Carries the structured failure so callers can
    /// distinguish a lost message from a severed link from a dead node.
    Unreachable(NetFailure),
    /// Marshalling failed.
    Marshal(String),
    /// A malformed or unsatisfiable request (unknown class, missing export,
    /// protocol without a generated proxy family, …).
    Bad(String),
}

impl RuntimeError {
    /// Whether the failure is attributable to the network (the "modulo
    /// network failure" clause of the paper).
    pub fn is_network(&self) -> bool {
        match self {
            RuntimeError::Unreachable(_) => true,
            RuntimeError::Vm(e) => e.is_network(),
            _ => false,
        }
    }

    /// The structured network failure, if this is one.
    pub fn net_failure(&self) -> Option<&NetFailure> {
        match self {
            RuntimeError::Unreachable(nf) => Some(nf),
            RuntimeError::Vm(e) => e.net_failure(),
            _ => None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Vm(e) => write!(f, "{e}"),
            RuntimeError::Unreachable(nf) => write!(f, "{nf}"),
            RuntimeError::Marshal(m) => write!(f, "marshal error: {m}"),
            RuntimeError::Bad(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<VmError> for RuntimeError {
    fn from(e: VmError) -> Self {
        match e {
            VmError::Unreachable(nf) => RuntimeError::Unreachable(nf),
            other => RuntimeError::Vm(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafda_vm::NetFailureKind;

    #[test]
    fn network_classification() {
        let nf = NetFailure::new(NetFailureKind::Partitioned { from: 0, to: 1 }, 2);
        assert!(RuntimeError::Unreachable(nf).is_network());
        assert!(RuntimeError::Vm(VmError::Native("network: drop".into())).is_network());
        let hop = |m: &str| RuntimeError::Vm(VmError::Native(m.into()));
        assert!(!hop("unknown class network.Router").is_network());
        assert!(hop("native error: network: node2 crashed").is_network());
        assert!(!RuntimeError::Bad("nope".into()).is_network());
        assert!(!RuntimeError::Marshal("depth".into()).is_network());
    }

    #[test]
    fn from_vm_error_extracts_the_discriminant() {
        let nf = NetFailure::new(NetFailureKind::Dropped, 6);
        let e = RuntimeError::from(VmError::Unreachable(nf));
        assert_eq!(e, RuntimeError::Unreachable(nf));
        assert_eq!(e.net_failure().map(|n| n.attempts), Some(6));
        // Non-network VM errors stay wrapped.
        let e = RuntimeError::from(VmError::Native("marshal".into()));
        assert!(matches!(e, RuntimeError::Vm(_)));
    }

    #[test]
    fn display_passthrough() {
        let nf = NetFailure::new(NetFailureKind::NodeCrashed(1), 1);
        let e = RuntimeError::Unreachable(nf);
        assert!(e.to_string().contains("network"));
        assert!(e.to_string().contains("crashed"));
    }
}
