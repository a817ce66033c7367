//! Interpreter errors: in-model exceptions, traps and resource limits.

use crate::heap::Handle;
use std::fmt;

/// A trap: a condition the verified program can still hit at runtime.
/// Traps are not catchable by in-model handlers (unlike [`VmError::Exception`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Dereference of `null` (field access, call, array op).
    NullDeref,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
        /// The array's length.
        len: usize,
    },
    /// Negative array length.
    NegativeArrayLen,
    /// `CheckCast` failure.
    ClassCast,
    /// Operand of the wrong kind for the instruction.
    TypeError(String),
    /// Virtual dispatch found no method (e.g. abstract without override).
    UnresolvedMethod(String),
    /// A `native` method had no registered hook.
    NoNativeHook(String),
    /// Call depth exceeded the configured maximum.
    StackOverflow,
    /// The step budget was exhausted.
    OutOfFuel,
    /// A stale or freed heap handle was used.
    StaleHandle,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::NullDeref => write!(f, "null dereference"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Trap::NegativeArrayLen => write!(f, "negative array length"),
            Trap::ClassCast => write!(f, "class cast failure"),
            Trap::TypeError(m) => write!(f, "type error: {m}"),
            Trap::UnresolvedMethod(m) => write!(f, "unresolved method: {m}"),
            Trap::NoNativeHook(m) => write!(f, "no native hook registered for {m}"),
            Trap::StackOverflow => write!(f, "call depth limit exceeded"),
            Trap::OutOfFuel => write!(f, "interpreter fuel exhausted"),
            Trap::StaleHandle => write!(f, "stale heap handle"),
        }
    }
}

/// The typed cause of a network-level failure.
///
/// Mirrors `rafda_net::NetError` without a crate dependency — the VM stays
/// network-agnostic, but proxy hooks need a structured way to surface
/// transport faults so retry logic and tests can tell a lost message from a
/// severed link from a dead node without parsing strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFailureKind {
    /// The message was dropped in transit.
    Dropped,
    /// The two nodes are in different partitions.
    Partitioned {
        /// Transmitting node id.
        from: u32,
        /// Unreachable destination node id.
        to: u32,
    },
    /// An endpoint node has crashed.
    NodeCrashed(u32),
    /// Unknown node id.
    NoSuchNode(u32),
}

impl NetFailureKind {
    /// Whether retransmitting the same message could plausibly succeed.
    /// Drops are transient; partitions, crashes and bad addresses are not
    /// (they persist until an operator-level event heals them).
    pub fn is_transient(&self) -> bool {
        matches!(self, NetFailureKind::Dropped)
    }
}

impl fmt::Display for NetFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFailureKind::Dropped => write!(f, "network: message dropped"),
            NetFailureKind::Partitioned { from, to } => {
                write!(f, "network: partition between node{from} and node{to}")
            }
            NetFailureKind::NodeCrashed(n) => write!(f, "network: node{n} crashed"),
            NetFailureKind::NoSuchNode(n) => write!(f, "network: no such node node{n}"),
        }
    }
}

/// A network-level failure that exhausted the caller's fault tolerance:
/// what went wrong and how many transmission attempts were made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFailure {
    /// The final failure observed.
    pub kind: NetFailureKind,
    /// Total attempts made before giving up (≥ 1).
    pub attempts: u32,
}

impl NetFailure {
    /// A failure observed on the given attempt count.
    pub fn new(kind: NetFailureKind, attempts: u32) -> Self {
        NetFailure { kind, attempts }
    }
}

impl fmt::Display for NetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attempts > 1 {
            write!(f, "{} (after {} attempts)", self.kind, self.attempts)
        } else {
            write!(f, "{}", self.kind)
        }
    }
}

/// Why a remote call failed before a single message left the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcFault {
    /// The deployment has no codec for the named protocol.
    NoCodec(String),
    /// Nested exchanges reached the runtime's depth limit.
    DepthLimit,
    /// The codec could not encode the request; carries its reason.
    Encode(String),
}

impl fmt::Display for RpcFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcFault::NoCodec(proto) => write!(f, "no codec for protocol {proto}"),
            RpcFault::DepthLimit => {
                write!(
                    f,
                    "rpc depth limit exceeded (unbounded distributed recursion?)"
                )
            }
            RpcFault::Encode(why) => write!(f, "request encode failed: {why}"),
        }
    }
}

/// Any reason execution did not produce a value.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// An in-model exception object was thrown and not caught (catchable by
    /// `TryHandler`s during unwinding).
    Exception(Handle),
    /// An uncatchable trap.
    Trap(Trap),
    /// Failure reported by a native hook (anything without a dedicated
    /// variant, e.g. a marshalling fault).
    Native(String),
    /// A remote operation failed at the network level after exhausting the
    /// configured retries — the paper's "modulo network failure" surfaced
    /// with its discriminant intact.
    Unreachable(NetFailure),
    /// A remote operation could not be started at all.
    Rpc(RpcFault),
}

impl VmError {
    /// Shorthand for a [`Trap::TypeError`].
    pub fn type_error(msg: impl Into<String>) -> Self {
        VmError::Trap(Trap::TypeError(msg.into()))
    }

    /// Whether this error is a network failure surfaced by a proxy hook.
    ///
    /// `Native` strings are still inspected because a network failure that
    /// crosses a remote hop comes back as a fault message (the serving node
    /// could not complete a nested remote call): the [`NetFailureKind`]
    /// text, which starts `network: `, behind one `native error: ` per
    /// further hop. Anything else — a fault that merely names a class in a
    /// `network` package — is not a network failure.
    pub fn is_network(&self) -> bool {
        match self {
            VmError::Unreachable(_) => true,
            VmError::Native(m) => m
                .trim_start_matches("native error: ")
                .starts_with("network: "),
            _ => false,
        }
    }

    /// The structured network failure, if this is one.
    pub fn net_failure(&self) -> Option<&NetFailure> {
        match self {
            VmError::Unreachable(nf) => Some(nf),
            _ => None,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Exception(h) => write!(f, "uncaught exception @{h}"),
            VmError::Trap(t) => write!(f, "trap: {t}"),
            VmError::Native(m) => write!(f, "native error: {m}"),
            VmError::Unreachable(nf) => write!(f, "{nf}"),
            // Same text as the `Native` strings these faults used to be: a
            // fault that crosses a hop travels as its message.
            VmError::Rpc(fault) => write!(f, "native error: {fault}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            VmError::Trap(Trap::DivByZero).to_string(),
            "trap: division by zero"
        );
        assert!(VmError::type_error("int vs long")
            .to_string()
            .contains("int vs long"));
        let t = Trap::IndexOutOfBounds { index: 5, len: 3 };
        assert!(t.to_string().contains("5"));
        assert!(t.to_string().contains("3"));
    }

    #[test]
    fn network_detection() {
        assert!(VmError::Native("network: partition".into()).is_network());
        assert!(!VmError::Native("marshal failure".into()).is_network());
        assert!(!VmError::Native("unknown class network.Router".into()).is_network());
        assert!(VmError::Native("native error: network: node2 crashed".into()).is_network());
        assert!(
            VmError::Native("native error: native error: network: message dropped".into())
                .is_network()
        );
        assert!(!VmError::Native("native error: unknown class network.Router".into()).is_network());
        assert!(!VmError::Trap(Trap::NullDeref).is_network());
        assert!(VmError::Unreachable(NetFailure::new(NetFailureKind::Dropped, 3)).is_network());
    }

    #[test]
    fn net_failure_display_keeps_legacy_substrings() {
        // Trace comparisons and older tests match on these fragments.
        let dropped = NetFailure::new(NetFailureKind::Dropped, 1);
        assert_eq!(dropped.to_string(), "network: message dropped");
        let crashed = NetFailure::new(NetFailureKind::NodeCrashed(2), 1);
        assert!(crashed.to_string().contains("crashed"));
        assert!(crashed.to_string().contains("network:"));
        let parted = NetFailure::new(NetFailureKind::Partitioned { from: 0, to: 1 }, 4);
        assert!(parted
            .to_string()
            .contains("partition between node0 and node1"));
        assert!(parted.to_string().contains("after 4 attempts"));
    }

    #[test]
    fn transient_kinds() {
        assert!(NetFailureKind::Dropped.is_transient());
        assert!(!NetFailureKind::Partitioned { from: 0, to: 1 }.is_transient());
        assert!(!NetFailureKind::NodeCrashed(1).is_transient());
        assert!(!NetFailureKind::NoSuchNode(9).is_transient());
    }
}
