//! The cluster's observability plane: one labeled metrics registry as the
//! single write path for every runtime counter, a deterministic
//! time-series recorder sampled on the **simulated** clock, and the
//! optional invariant watchdog.
//!
//! [`RuntimeStats`] is not a bag of counters that the runtime mutates
//! directly — it is a *view* assembled from this registry
//! ([`Obs::snapshot`] per node,
//! [`Cluster::stats`](crate::Cluster::stats) as the documented merge).
//! Every increment goes through a typed [`Counter`]/[`Histogram`] handle
//! labeled with the node it is charged to, which is what makes the
//! per-node breakdown, the Prometheus/JSON exporters and the
//! `rafda.Introspection` getters all read the same numbers.

use crate::watchdog::Watchdog;
use rafda_telemetry::{Counter, Histogram, MetricsRegistry, SeriesId, TimeSeriesRecorder};

/// How often the time-series recorder samples, in simulated ns. One
/// sample per 100 µs keeps a multi-millisecond chaos run under the ring
/// cap while still resolving individual retry storms (per-hop latencies
/// are tens of µs).
pub(crate) const SAMPLE_INTERVAL_NS: u64 = 100_000;

/// Ring capacity per series; older points are dropped (and counted) so a
/// long soak cannot grow memory without bound.
pub(crate) const SERIES_CAP: usize = 4096;

/// Upper bounds of the exchange-attempts histogram: attempts 1..=7 get a
/// bucket each, the registry's overflow bucket catches 8-or-more —
/// mirroring the 8-slot `RuntimeStats::attempts` array it reconstructs.
const ATTEMPT_BOUNDS: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];

/// The one list of runtime counters. Each entry is `Variant => field,
/// "prometheus_name"` under the field's public documentation, and
/// generates: the [`Met`] variant that indexes the per-node handle table,
/// the [`RuntimeStats`] field of the same name, its lines in
/// [`RuntimeStats::merge`] and [`RuntimeStats::delta_from`], and the
/// registry → stats copy in [`Obs::snapshot`]. Adding a counter is one
/// entry here (plus wherever it should be printed).
macro_rules! runtime_metrics {
    ($($(#[$doc:meta])* $variant:ident => $field:ident, $pname:literal;)*) => {
        /// A runtime event counter, one variant per [`RuntimeStats`]
        /// counter field. The variant's discriminant indexes the per-node
        /// handle table in [`Obs`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Met {
            $(
                #[doc = concat!("`", $pname, "`")]
                $variant,
            )*
        }

        impl Met {
            /// Every counter, in declaration (and registration) order.
            pub(crate) const ALL: &'static [Met] = &[$(Met::$variant),*];

            /// The Prometheus metric name.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Met::$variant => $pname,)*
                }
            }
        }

        /// Aggregate runtime statistics.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct RuntimeStats {
            $(
                $(#[$doc])*
                pub $field: u64,
            )*
            /// Histogram of attempts used per finished exchange: bucket `i`
            /// counts exchanges that took `i + 1` attempts (the last bucket
            /// saturates).
            pub attempts: [u64; 8],
        }

        impl RuntimeStats {
            /// Add every counter of `other` into `self` — the merge
            /// [`Cluster::stats`](crate::Cluster::stats) folds per-node
            /// breakdowns with.
            pub fn merge(&mut self, other: &RuntimeStats) {
                $(self.$field += other.$field;)*
                for (slot, c) in self.attempts.iter_mut().zip(other.attempts) {
                    *slot += c;
                }
            }

            /// Counter-wise difference `self − earlier` (saturating), for
            /// reporting what a bounded run added on top of its setup — the
            /// soak report's per-phase metric deltas are computed with this.
            pub fn delta_from(&self, earlier: &RuntimeStats) -> RuntimeStats {
                let mut d = *self;
                $(d.$field = d.$field.saturating_sub(earlier.$field);)*
                for (slot, c) in d.attempts.iter_mut().zip(earlier.attempts) {
                    *slot = slot.saturating_sub(c);
                }
                d
            }
        }

        fn fill_stats(stats: &mut RuntimeStats, met: Met, value: u64) {
            match met {
                $(Met::$variant => stats.$field = value,)*
            }
        }
    };
}

runtime_metrics! {
    /// Remote method invocations served.
    RpcCalls => rpc_calls, "rafda_rpc_calls_total";
    /// Remote creations served.
    RpcCreates => rpc_creates, "rafda_rpc_creates_total";
    /// Remote singleton discoveries served.
    RpcDiscovers => rpc_discovers, "rafda_rpc_discovers_total";
    /// State installs served (migrations and pulls).
    RpcInstalls => rpc_installs, "rafda_rpc_installs_total";
    /// Objects migrated (including adaptation).
    Migrations => migrations, "rafda_migrations_total";
    /// Objects pulled local.
    Pulls => pulls, "rafda_pulls_total";
    /// Requests answered with a fault (server-side errors; network-level
    /// failures are counted separately in [`RuntimeStats::net_failures`]).
    Faults => faults, "rafda_faults_total";
    /// Client-side retry rounds: transmission attempts beyond each
    /// exchange's first.
    Retries => retries, "rafda_retries_total";
    /// Retransmitted requests that reached the server (a retry whose
    /// request transmission succeeded).
    Retransmits => retransmits, "rafda_retransmits_total";
    /// Retransmissions answered from the reply cache instead of re-running
    /// the method (the at-most-once guarantee doing its job).
    DedupHits => dedup_hits, "rafda_dedup_hits_total";
    /// Exchanges that exhausted the retry budget or hit a non-transient
    /// network failure. Distinct from `faults`: the server never answered.
    NetFailures => net_failures, "rafda_net_failures_total";
    /// Property (`get_f`) reads answered from the proxy-side cache —
    /// no network exchange happened at all.
    CacheHits => cache_hits, "rafda_cache_hits_total";
    /// Cacheable property reads that had to go remote (no entry, or a
    /// stale entry that was refreshed by the exchange).
    CacheMisses => cache_misses, "rafda_cache_misses_total";
    /// Cached property entries found stale — the owner's version moved
    /// past the tag — and dropped before going remote.
    CacheInvalidations => cache_invalidations, "rafda_cache_invalidations_total";
    /// Replica state syncs served: one per backup shipped after a served
    /// mutation (or export) of a replicated object.
    ReplicaSyncs => replica_syncs, "rafda_replica_syncs_total";
    /// Replica promotions served: a backup materialised its stored state
    /// and became the new owner after the primary crashed.
    Promotions => promotions, "rafda_promotions_total";
    /// Client-side failovers: calls re-homed from a crashed owner to a
    /// (promoted) replica and retried successfully.
    Failovers => failovers, "rafda_failovers_total";
    /// Operations deferred onto a per-`(caller, owner)` outcall queue
    /// instead of being sent as their own exchange (void calls on batched
    /// classes, plus replica shipments of batched classes).
    BatchedOps => batched_ops, "rafda_batched_ops_total";
    /// Outcall queues drained: each flush ships one queue as a single
    /// [`Request::Batch`](rafda_wire::Request::Batch) exchange at a
    /// synchronization point.
    Flushes => flushes, "rafda_flushes_total";
    /// Sharded instances placed onto their shard's node after construction
    /// (a `shard by` policy rule routing a fresh object).
    ShardPlacements => shard_placements, "rafda_shard_placements_total";
    /// Whole shards moved between nodes by the rebalance tick reacting to
    /// hot-key skew in the observed call counts.
    ShardRebalances => shard_rebalances, "rafda_shard_rebalances_total";
    /// Getter calls served from a same-version local replica copy instead
    /// of an owner exchange (a `reads from replicas` policy rule).
    ReplicaReads => replica_reads, "rafda_replica_reads_total";
    /// Dirty-set entries the replica sweep offered to `sync_replicas` —
    /// each one a state comparison against the last shipment, charged to
    /// the owner. The sweep's cost measure: O(dirty) per synchronization
    /// point, not O(exports).
    ReplicaSweepProbes => replica_sweep_probes, "rafda_replica_sweep_probes_total";
    /// `(node, oid)` dirty-set insertions recorded (version bumps, served
    /// mutations, fresh replicated exports, and conservative node-level
    /// marks while application code runs locally). Marks bound probes:
    /// every probe was a mark first.
    DirtyMarks => dirty_marks, "rafda_dirty_marks_total";
    /// Signature-position strings sent as an interned reference instead of
    /// inline text, charged to the sender by the encode that sent them.
    SigRefs => sig_refs, "rafda_sig_refs_total";
    /// Signature-position strings defined (sent inline and interned) — each
    /// one a table entry later frames on the link reference.
    SigDefs => sig_defs, "rafda_sig_defs_total";
    /// Frame encodes served by a pooled buffer instead of a fresh
    /// allocation, charged to the sender at checkout.
    WireBufReuses => wire_buf_reuses, "rafda_wire_buf_reuses_total";
}

/// The observability state hanging off [`Shared`](crate::cluster::Shared):
/// registry + handles, recorder + series ids, and (when enabled) the
/// watchdog.
pub(crate) struct Obs {
    /// The single write path for all runtime counters.
    pub(crate) reg: MetricsRegistry,
    /// `counters[node][met as usize]` — handle for counter `met` on `node`.
    counters: Vec<Vec<Counter>>,
    /// Per-node exchange-attempts histogram handle.
    attempts: Vec<Histogram>,
    /// Fixed-interval ring buffers sampled on the simulated clock.
    pub(crate) recorder: TimeSeriesRecorder,
    /// Series: number of non-empty outcall queues.
    pub(crate) ts_queue_depth: SeriesId,
    /// Series: total deferred operations across all outcall queues.
    pub(crate) ts_inflight_ops: SeriesId,
    /// Series: cumulative property-cache hit rate, `hits / (hits+misses)`.
    pub(crate) ts_cache_hit_rate: SeriesId,
    /// Series: replicated exports whose backups lag the owner's version.
    pub(crate) ts_replica_lag: SeriesId,
    /// Series: shard balance, `max / mean` instances per node over the
    /// shard map (1.0 = perfectly even, grows with skew; 0 when unsharded).
    pub(crate) ts_shard_balance: SeriesId,
    /// Series: entries in the cluster-wide dirty-replica set — locations
    /// the next sweep will probe. Stays near zero on healthy steady-state
    /// traffic; a sustained climb means marks outpace shipments.
    pub(crate) ts_dirty_set_depth: SeriesId,
    /// The invariant checks; `None` until
    /// [`Cluster::enable_monitors`](crate::Cluster::enable_monitors).
    pub(crate) watchdog: Option<Watchdog>,
}

impl Obs {
    /// Register every counter and histogram for `nodes` nodes, in a fixed
    /// order so exports are byte-identical across same-seed runs.
    pub(crate) fn new(nodes: u32) -> Obs {
        let mut reg = MetricsRegistry::new();
        let mut counters = Vec::with_capacity(nodes as usize);
        let mut attempts = Vec::with_capacity(nodes as usize);
        for n in 0..nodes {
            let node = n.to_string();
            let labels = [("node", node.as_str())];
            counters.push(
                Met::ALL
                    .iter()
                    .map(|m| reg.register_counter(m.name(), &labels))
                    .collect(),
            );
            attempts.push(reg.register_histogram(
                "rafda_exchange_attempts",
                &labels,
                ATTEMPT_BOUNDS.to_vec(),
            ));
        }
        let mut recorder = TimeSeriesRecorder::new(SAMPLE_INTERVAL_NS, SERIES_CAP);
        let ts_queue_depth = recorder.register("outqueue_depth");
        let ts_inflight_ops = recorder.register("inflight_batch_ops");
        let ts_cache_hit_rate = recorder.register("cache_hit_rate");
        let ts_replica_lag = recorder.register("replica_lag");
        let ts_shard_balance = recorder.register("shard_balance");
        let ts_dirty_set_depth = recorder.register("dirty_set_depth");
        Obs {
            reg,
            counters,
            attempts,
            recorder,
            ts_queue_depth,
            ts_inflight_ops,
            ts_cache_hit_rate,
            ts_replica_lag,
            ts_shard_balance,
            ts_dirty_set_depth,
            watchdog: None,
        }
    }

    /// Bump counter `met`, charged to `node`.
    pub(crate) fn inc(&mut self, node: u32, met: Met) {
        self.add(node, met, 1);
    }

    /// Add `v` to counter `met`, charged to `node`.
    pub(crate) fn add(&mut self, node: u32, met: Met, v: u64) {
        self.reg.add(self.counters[node as usize][met as usize], v);
    }

    /// Record a finished exchange that took `n` transmission attempts,
    /// charged to the calling `node`. Values past 7 land in the overflow
    /// bucket, exactly like the saturating last slot of
    /// [`RuntimeStats::attempts`].
    pub(crate) fn record_attempts(&mut self, node: u32, n: u32) {
        self.reg.observe(self.attempts[node as usize], n as u64);
    }

    /// Sum of counter `met` across all nodes.
    pub(crate) fn sum(&self, met: Met) -> u64 {
        self.counters
            .iter()
            .map(|c| self.reg.counter_value(c[met as usize]))
            .sum()
    }

    /// Rebuild the [`RuntimeStats`] view for one node from the registry.
    pub(crate) fn snapshot(&self, node: usize) -> RuntimeStats {
        let mut stats = RuntimeStats::default();
        for &met in Met::ALL {
            let value = self.reg.counter_value(self.counters[node][met as usize]);
            fill_stats(&mut stats, met, value);
        }
        let counts = self.reg.histogram_counts(self.attempts[node]);
        for (slot, &c) in stats.attempts.iter_mut().zip(counts) {
            *slot = c;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_counter() {
        let mut obs = Obs::new(2);
        for (i, &met) in Met::ALL.iter().enumerate() {
            for _ in 0..=i {
                obs.inc(1, met);
            }
        }
        obs.record_attempts(1, 1);
        obs.record_attempts(1, 3);
        obs.record_attempts(1, 99); // overflow slot, like the saturating array
        let s1 = obs.snapshot(1);
        assert_eq!(s1.rpc_calls, 1);
        assert_eq!(s1.wire_buf_reuses, Met::ALL.len() as u64);
        assert_eq!(s1.attempts, [1, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(obs.snapshot(0), RuntimeStats::default());
        assert_eq!(obs.sum(Met::RpcCalls), 1);
    }

    #[test]
    fn registration_order_is_node_major() {
        // The prometheus export groups by first-registration name order;
        // node-major registration keeps that order independent of traffic.
        let obs = Obs::new(2);
        let text = obs.reg.prometheus_text();
        let first = text.lines().next().unwrap();
        assert_eq!(first, "# TYPE rafda_rpc_calls_total counter");
        assert!(text.contains("rafda_rpc_calls_total{node=\"0\"} 0"));
        assert!(text.contains("rafda_rpc_calls_total{node=\"1\"} 0"));
        assert!(text.contains("# TYPE rafda_exchange_attempts histogram"));
    }
}
