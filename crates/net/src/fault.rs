//! Failure injection: drops, partitions, crashes.
//!
//! Changing an application to span address spaces "may introduce network
//! failure problems … it is impossible to guarantee full preservation of the
//! original application semantics" (paper, Section 4). The fault plan is how
//! the test suite introduces exactly those problems, deterministically.

use crate::NodeId;
use std::collections::HashSet;

/// The current set of injected faults. Mutated through
/// [`Network::fault_plan`](crate::Network::fault_plan).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any given message is dropped.
    pub drop_probability: f64,
    partitioned: HashSet<(NodeId, NodeId)>,
    crashed: HashSet<NodeId>,
    drop_seq: HashSet<u64>,
}

impl FaultPlan {
    /// Schedule the transmission with sequence number `seq` to be dropped.
    ///
    /// Sequence numbers index non-local transmission attempts, starting at
    /// zero ([`Network::transmit_seq`](crate::Network::transmit_seq) reads
    /// the next one to be assigned). Unlike `drop_probability` this is an
    /// exact, deterministic schedule — tests use it to kill a specific leg
    /// of a specific RPC, e.g. the reply of a mutating call, to exercise
    /// at-most-once retransmission.
    pub fn drop_message(&mut self, seq: u64) {
        self.drop_seq.insert(seq);
    }

    /// Whether the transmission with this sequence number is scheduled to
    /// be dropped.
    pub fn is_drop_scheduled(&self, seq: u64) -> bool {
        self.drop_seq.contains(&seq)
    }

    /// Sever the (bidirectional) link between `a` and `b`.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.insert(key(a, b));
    }

    /// Restore the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.remove(&key(a, b));
    }

    /// Restore all links.
    pub fn heal_all(&mut self) {
        self.partitioned.clear();
    }

    /// Whether `a` and `b` cannot communicate.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&key(a, b))
    }

    /// Crash a node: all messages to or from it fail.
    pub fn crash(&mut self, n: NodeId) {
        self.crashed.insert(n);
    }

    /// Recover a crashed node.
    pub fn recover(&mut self, n: NodeId) {
        self.crashed.remove(&n);
    }

    /// Whether the node is crashed.
    pub fn is_crashed(&self, n: NodeId) -> bool {
        self.crashed.contains(&n)
    }
}

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_symmetric() {
        let mut f = FaultPlan::default();
        f.partition(NodeId(2), NodeId(1));
        assert!(f.is_partitioned(NodeId(1), NodeId(2)));
        assert!(f.is_partitioned(NodeId(2), NodeId(1)));
        f.heal(NodeId(1), NodeId(2));
        assert!(!f.is_partitioned(NodeId(2), NodeId(1)));
    }

    #[test]
    fn heal_all_clears_everything() {
        let mut f = FaultPlan::default();
        f.partition(NodeId(0), NodeId(1));
        f.partition(NodeId(1), NodeId(2));
        f.heal_all();
        assert!(!f.is_partitioned(NodeId(0), NodeId(1)));
        assert!(!f.is_partitioned(NodeId(1), NodeId(2)));
    }

    #[test]
    fn scheduled_drops_are_exact() {
        let mut f = FaultPlan::default();
        f.drop_message(3);
        f.drop_message(7);
        assert!(f.is_drop_scheduled(3));
        assert!(f.is_drop_scheduled(7));
        assert!(!f.is_drop_scheduled(4));
    }

    #[test]
    fn crash_and_recover() {
        let mut f = FaultPlan::default();
        f.crash(NodeId(3));
        assert!(f.is_crashed(NodeId(3)));
        f.recover(NodeId(3));
        assert!(!f.is_crashed(NodeId(3)));
    }
}
