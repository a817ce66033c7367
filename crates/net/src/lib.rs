//! # rafda-net
//!
//! A deterministic, in-process simulated network: the LAN substrate of the
//! RAFDA reproduction.
//!
//! The paper's runtime distributes a transformed application over a local
//! area network of JVMs and observes that semantics are preserved "modulo
//! network failure" (Section 4). This crate models that substrate:
//!
//! * a set of nodes (address spaces) joined by links with configurable
//!   latency, bandwidth and jitter (defaults calibrated to a 2003-era
//!   switched 100 Mbit/s LAN),
//! * a simulated clock ([`SimTime`]) charged for every transmission, giving
//!   reproducible latency numbers for the protocol experiments (E5),
//! * deterministic failure injection — message drops, link partitions and
//!   node crashes — driving the "modulo network failure" equivalence
//!   experiments (E7),
//! * aggregate traffic statistics ([`NetStats`]: messages, bytes and
//!   failures by kind). The adaptive distribution loop (E6,
//!   `Cluster::adapt`) does not read them: it decides from the runtime
//!   `Directory`'s per-object affinity counters.
//!
//! The transport is synchronous: the distributed runtime performs re-entrant
//! RPCs (caller's interpreter frame suspended on the Rust stack while the
//! callee node executes), so the network only needs to account cost and
//! inject faults, not buffer messages.

#![warn(missing_docs)]

pub mod bufpool;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use bufpool::BufPool;
pub use fault::FaultPlan;
pub use stats::NetStats;
pub use time::SimTime;

use rng::SplitMix64;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Identifier of a node (one simulated address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Why a transmission failed. The runtime hands it up the stack as is: a
/// remote operation that gives up carries it in `rafda_vm::NetFailure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// Source and destination are in different partitions.
    Partitioned {
        /// Transmitting node.
        from: NodeId,
        /// Unreachable destination.
        to: NodeId,
    },
    /// The destination (or source) node has crashed.
    NodeCrashed(NodeId),
    /// The message was dropped (per-link loss probability).
    Dropped,
    /// Unknown node id.
    NoSuchNode(NodeId),
}

impl NetError {
    /// Whether retransmitting the same message could plausibly succeed.
    /// Drops are transient; partitions, crashes and bad addresses are not
    /// (they persist until an operator-level event heals them).
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Dropped)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Partitioned { from, to } => {
                write!(f, "network: partition between {from} and {to}")
            }
            NetError::NodeCrashed(n) => write!(f, "network: {n} crashed"),
            NetError::Dropped => write!(f, "network: message dropped"),
            NetError::NoSuchNode(n) => write!(f, "network: no such node {n}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Latency/bandwidth parameters of a link (one direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed one-way latency in nanoseconds.
    pub base_latency_ns: u64,
    /// Serialisation cost per kilobyte in nanoseconds (inverse bandwidth).
    pub per_kb_ns: u64,
    /// Maximum uniform jitter added per message, in nanoseconds.
    pub jitter_ns: u64,
}

impl LinkSpec {
    /// A 2003-era switched 100 Mbit/s LAN: ~150 µs one-way latency,
    /// ~80 µs/KB serialisation, 20 µs jitter.
    pub fn lan() -> Self {
        LinkSpec {
            base_latency_ns: 150_000,
            per_kb_ns: 80_000,
            jitter_ns: 20_000,
        }
    }

    /// A wide-area link: 20 ms one-way latency, ~1 ms/KB, 2 ms jitter.
    pub fn wan() -> Self {
        LinkSpec {
            base_latency_ns: 20_000_000,
            per_kb_ns: 1_000_000,
            jitter_ns: 2_000_000,
        }
    }

    /// Cost of transmitting `bytes` (excluding jitter).
    pub fn cost_ns(&self, bytes: usize) -> u64 {
        self.base_latency_ns + (bytes as u64 * self.per_kb_ns) / 1024
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

#[derive(Debug)]
struct NetState {
    nodes: u32,
    default_link: LinkSpec,
    overrides: HashMap<(NodeId, NodeId), LinkSpec>,
    clock_ns: u64,
    fault: FaultPlan,
    rng: SplitMix64,
    stats: NetStats,
    /// Sequence number of the next non-local transmission attempt.
    seq: u64,
}

impl NetState {
    /// Charge the clock for detecting a failed transmission and record it.
    /// Failure detection is not free: a sender discovers a lost message by
    /// timeout and a severed link by an error path, both of which take
    /// (simulated) time — otherwise retry loops would be free and timing
    /// under faults meaningless. The charge is the link cost the message
    /// would have paid: a sender waits roughly one delivery time before
    /// concluding loss.
    fn charge_failure(&mut self, err: &NetError, spec: LinkSpec, bytes: usize) {
        let cost = spec.cost_ns(bytes);
        self.clock_ns += cost;
        self.stats.record_failure(err, cost);
    }
}

/// The simulated network. Cheap to clone (shared interior state).
///
/// # Example
///
/// ```
/// use rafda_net::{Network, NodeId};
///
/// let net = Network::new(3, 42);
/// let t0 = net.now();
/// net.transmit(NodeId(0), NodeId(1), 256).unwrap();
/// assert!(net.now() > t0);
/// ```
#[derive(Clone)]
pub struct Network {
    state: Rc<RefCell<NetState>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Network")
            .field("nodes", &s.nodes)
            .field("clock", &SimTime::from_ns(s.clock_ns))
            .finish()
    }
}

impl Network {
    /// Create a network of `nodes` fully connected by default LAN links,
    /// with a deterministic `seed` for jitter and drop decisions.
    pub fn new(nodes: u32, seed: u64) -> Self {
        Network {
            state: Rc::new(RefCell::new(NetState {
                nodes,
                default_link: LinkSpec::lan(),
                overrides: HashMap::new(),
                clock_ns: 0,
                fault: FaultPlan::default(),
                rng: SplitMix64::new(seed),
                stats: NetStats::default(),
                seq: 0,
            })),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.state.borrow().nodes
    }

    /// All node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.node_count()).map(NodeId).collect()
    }

    /// Replace the default link spec.
    pub fn set_default_link(&self, spec: LinkSpec) {
        self.state.borrow_mut().default_link = spec;
    }

    /// Override the link spec for the directed pair `(from, to)`.
    pub fn set_link(&self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.state.borrow_mut().overrides.insert((from, to), spec);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.state.borrow().clock_ns)
    }

    /// Advance the simulated clock by `ns` (e.g. to charge compute time).
    pub fn advance(&self, ns: u64) {
        self.state.borrow_mut().clock_ns += ns;
    }

    /// Mutate the fault plan.
    pub fn fault_plan<R>(&self, f: impl FnOnce(&mut FaultPlan) -> R) -> R {
        f(&mut self.state.borrow_mut().fault)
    }

    /// Sequence number the next non-local transmission attempt will get.
    /// Together with [`FaultPlan::drop_message`] this lets tests target an
    /// exact future message (e.g. "the reply of the next RPC").
    pub fn transmit_seq(&self) -> u64 {
        self.state.borrow().seq
    }

    /// Transmit `bytes` from `from` to `to`, charging the simulated clock
    /// and recording the traffic in [`NetStats`].
    ///
    /// Local delivery (`from == to`) is free and always succeeds.
    ///
    /// Failed transmissions also cost simulated time (the link cost the
    /// message would have paid) — a retry loop over a lossy link is
    /// therefore never free.
    ///
    /// # Errors
    /// [`NetError`] when either node is unknown or crashed, the pair is
    /// partitioned, or the message is dropped by loss injection (random or
    /// scheduled via [`FaultPlan::drop_message`]).
    pub fn transmit(&self, from: NodeId, to: NodeId, bytes: usize) -> Result<SimTime, NetError> {
        let mut s = self.state.borrow_mut();
        for n in [from, to] {
            if n.0 >= s.nodes {
                return Err(NetError::NoSuchNode(n));
            }
        }
        if from == to {
            return Ok(SimTime::from_ns(s.clock_ns));
        }
        let seq = s.seq;
        s.seq += 1;
        let spec = s
            .overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(s.default_link);
        for n in [from, to] {
            if s.fault.is_crashed(n) {
                let err = NetError::NodeCrashed(n);
                s.charge_failure(&err, spec, bytes);
                return Err(err);
            }
        }
        if s.fault.is_partitioned(from, to) {
            let err = NetError::Partitioned { from, to };
            s.charge_failure(&err, spec, bytes);
            return Err(err);
        }
        let scheduled = s.fault.is_drop_scheduled(seq);
        let rolled = s.fault.drop_probability > 0.0 && {
            let roll = s.rng.next_f64();
            roll < s.fault.drop_probability
        };
        if scheduled || rolled {
            s.charge_failure(&NetError::Dropped, spec, bytes);
            return Err(NetError::Dropped);
        }
        let jitter = if spec.jitter_ns > 0 {
            s.rng.next_below(spec.jitter_ns)
        } else {
            0
        };
        let cost = spec.cost_ns(bytes) + jitter;
        s.clock_ns += cost;
        s.stats.record(bytes);
        Ok(SimTime::from_ns(s.clock_ns))
    }

    /// Snapshot the traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.state.borrow().stats.clone()
    }

    /// Reset traffic statistics (not the clock).
    pub fn reset_stats(&self) {
        self.state.borrow_mut().stats = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_charges_clock_and_records_stats() {
        let net = Network::new(2, 7);
        net.set_default_link(LinkSpec {
            base_latency_ns: 1000,
            per_kb_ns: 1024,
            jitter_ns: 0,
        });
        let t = net.transmit(NodeId(0), NodeId(1), 2048).unwrap();
        assert_eq!(t.as_ns(), 1000 + 2048);
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 2048);
    }

    #[test]
    fn local_delivery_is_free() {
        let net = Network::new(2, 7);
        net.transmit(NodeId(1), NodeId(1), 1_000_000).unwrap();
        assert_eq!(net.now().as_ns(), 0);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn unknown_node_rejected() {
        let net = Network::new(2, 7);
        assert_eq!(
            net.transmit(NodeId(0), NodeId(5), 10),
            Err(NetError::NoSuchNode(NodeId(5)))
        );
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let net = Network::new(3, 7);
        net.fault_plan(|f| f.partition(NodeId(0), NodeId(1)));
        assert!(matches!(
            net.transmit(NodeId(0), NodeId(1), 10),
            Err(NetError::Partitioned { .. })
        ));
        assert!(matches!(
            net.transmit(NodeId(1), NodeId(0), 10),
            Err(NetError::Partitioned { .. })
        ));
        // Unrelated pair unaffected.
        assert!(net.transmit(NodeId(0), NodeId(2), 10).is_ok());
        net.fault_plan(|f| f.heal(NodeId(0), NodeId(1)));
        assert!(net.transmit(NodeId(0), NodeId(1), 10).is_ok());
    }

    #[test]
    fn crashed_node_unreachable_until_recovered() {
        let net = Network::new(2, 7);
        net.fault_plan(|f| f.crash(NodeId(1)));
        assert_eq!(
            net.transmit(NodeId(0), NodeId(1), 10),
            Err(NetError::NodeCrashed(NodeId(1)))
        );
        net.fault_plan(|f| f.recover(NodeId(1)));
        assert!(net.transmit(NodeId(0), NodeId(1), 10).is_ok());
    }

    #[test]
    fn drops_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let net = Network::new(2, seed);
            net.fault_plan(|f| f.drop_probability = 0.5);
            (0..32)
                .map(|_| net.transmit(NodeId(0), NodeId(1), 8).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2)); // overwhelmingly likely
        let oks = run(1).iter().filter(|b| **b).count();
        assert!(oks > 4 && oks < 28, "drop rate wildly off: {oks}/32");
    }

    #[test]
    fn failed_transmissions_charge_detection_time() {
        let net = Network::new(2, 7);
        net.set_default_link(LinkSpec {
            base_latency_ns: 1000,
            per_kb_ns: 1024,
            jitter_ns: 0,
        });
        net.fault_plan(|f| f.drop_probability = 1.0);
        assert_eq!(
            net.transmit(NodeId(0), NodeId(1), 2048),
            Err(NetError::Dropped)
        );
        // Detection charge = would-be link cost of the message.
        assert_eq!(net.now().as_ns(), 1000 + 2048);
        let stats = net.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.failed_time_ns, 1000 + 2048);
        assert_eq!(stats.messages, 0, "failed message not delivered");

        // A severed link is detected at the same price.
        net.fault_plan(|f| f.partition(NodeId(0), NodeId(1)));
        let t0 = net.now().as_ns();
        assert!(net.transmit(NodeId(0), NodeId(1), 1024).is_err());
        assert_eq!(net.now().as_ns(), t0 + 1000 + 1024);
        assert_eq!(net.stats().partition_failures, 1);
    }

    #[test]
    fn transient_kinds() {
        assert!(NetError::Dropped.is_transient());
        let (a, b) = (NodeId(0), NodeId(1));
        assert!(!NetError::Partitioned { from: a, to: b }.is_transient());
        assert!(!NetError::NodeCrashed(b).is_transient());
        assert!(!NetError::NoSuchNode(NodeId(9)).is_transient());
    }

    #[test]
    fn failure_kinds_counted_distinctly() {
        let net = Network::new(3, 7);
        net.fault_plan(|f| f.crash(NodeId(2)));
        let _ = net.transmit(NodeId(0), NodeId(2), 8);
        net.fault_plan(|f| {
            f.recover(NodeId(2));
            f.partition(NodeId(0), NodeId(1));
        });
        let _ = net.transmit(NodeId(0), NodeId(1), 8);
        net.fault_plan(|f| {
            f.heal_all();
            f.drop_probability = 1.0;
        });
        let _ = net.transmit(NodeId(0), NodeId(1), 8);
        let stats = net.stats();
        assert_eq!(stats.crash_failures, 1);
        assert_eq!(stats.partition_failures, 1);
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.failures, 3);
    }

    #[test]
    fn scheduled_drop_kills_exactly_the_chosen_message() {
        let net = Network::new(2, 7);
        assert_eq!(net.transmit_seq(), 0);
        net.transmit(NodeId(0), NodeId(1), 8).unwrap();
        let target = net.transmit_seq();
        net.fault_plan(|f| f.drop_message(target));
        assert_eq!(
            net.transmit(NodeId(0), NodeId(1), 8),
            Err(NetError::Dropped)
        );
        // Next attempt has a new sequence number and goes through.
        assert!(net.transmit(NodeId(0), NodeId(1), 8).is_ok());
        assert_eq!(net.transmit_seq(), 3);
        // Local delivery does not consume sequence numbers.
        net.transmit(NodeId(1), NodeId(1), 8).unwrap();
        assert_eq!(net.transmit_seq(), 3);
    }

    #[test]
    fn per_link_override_applies_one_direction() {
        let net = Network::new(2, 7);
        net.set_default_link(LinkSpec {
            base_latency_ns: 10,
            per_kb_ns: 0,
            jitter_ns: 0,
        });
        net.set_link(
            NodeId(0),
            NodeId(1),
            LinkSpec {
                base_latency_ns: 1_000_000,
                per_kb_ns: 0,
                jitter_ns: 0,
            },
        );
        net.transmit(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(net.now().as_ns(), 1_000_000);
        net.transmit(NodeId(1), NodeId(0), 1).unwrap();
        assert_eq!(net.now().as_ns(), 1_000_010);
    }

    #[test]
    fn link_presets_are_ordered_by_cost() {
        let payload = 1024;
        let lan = LinkSpec::lan().cost_ns(payload);
        let wan = LinkSpec::wan().cost_ns(payload);
        assert!(lan < wan, "{lan} {wan}");
        // Cost is monotone in message size.
        let spec = LinkSpec::lan();
        assert!(spec.cost_ns(10) < spec.cost_ns(10_000));
        assert_eq!(
            spec.cost_ns(0),
            spec.base_latency_ns,
            "empty message pays only base latency"
        );
    }

    #[test]
    fn lan_rtt_is_sub_millisecond() {
        let net = Network::new(2, 7);
        net.transmit(NodeId(0), NodeId(1), 128).unwrap();
        net.transmit(NodeId(1), NodeId(0), 128).unwrap();
        let rtt = net.now();
        assert!(rtt.as_ns() > 200_000, "{rtt}");
        assert!(rtt.as_ns() < 1_000_000, "{rtt}");
    }
}
