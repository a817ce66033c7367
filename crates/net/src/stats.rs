//! Aggregate traffic statistics: what crossed the network and what failed
//! to.

use crate::NetError;

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered (all links).
    pub messages: u64,
    /// Bytes delivered (all links).
    pub bytes: u64,
    /// Failed transmissions (drops + partitions + crashes).
    pub failures: u64,
    /// Messages lost to drop injection.
    pub drops: u64,
    /// Transmissions refused because the pair was partitioned.
    pub partition_failures: u64,
    /// Transmissions refused because an endpoint was crashed.
    pub crash_failures: u64,
    /// Simulated time charged to failed transmissions (detection cost).
    pub failed_time_ns: u64,
}

impl NetStats {
    /// Record a successful delivery of `bytes`.
    pub(crate) fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Record a failed transmission and the time spent detecting it.
    pub(crate) fn record_failure(&mut self, err: &NetError, cost_ns: u64) {
        self.failures += 1;
        self.failed_time_ns += cost_ns;
        match err {
            NetError::Dropped => self.drops += 1,
            NetError::Partitioned { .. } => self.partition_failures += 1,
            NetError::NodeCrashed(_) => self.crash_failures += 1,
            NetError::NoSuchNode(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_the_totals() {
        let mut s = NetStats::default();
        s.record(100);
        s.record(50);
        s.record(25);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 175);
        s.record_failure(&NetError::Dropped, 30);
        assert_eq!((s.messages, s.failures, s.drops), (3, 1, 1));
        assert_eq!(s.failed_time_ns, 30);
    }
}
