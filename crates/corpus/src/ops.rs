//! Shared chaos/soak operation vocabulary: one op enum, one op generator,
//! one oracle-step function.
//!
//! Every chaos suite in the repo drives a deployed cluster with the same
//! small set of moves — counter calls, boundary migrations, adaptation
//! ticks, crash/restart cycles — and checks the observable values against
//! an exact single-address-space oracle. Before this module each suite
//! carried its own private `Op` enum and its own oracle fold; they are
//! unified here so the production-day soak (E16), the per-feature chaos
//! proptests and any future suite generate from, and step, the *same*
//! vocabulary.
//!
//! One private generator, `draw`, turns a seeded stream into ops for both
//! kinds of schedule:
//!
//! * [`OpMix::sample`] — a weighted mix with uniform index choice, for the
//!   per-feature chaos proptests, which take the seed as an input;
//! * [`generate_churn`] — a seeded, phased production-day schedule with
//!   Zipf-distributed object popularity, for the E16 soak gate. It is a
//!   pure function of [`ChurnConfig`]; equal configs give byte-identical
//!   schedules forever.

use crate::rng::Rng;
use crate::workload::ZipfWorkload;
use std::fmt;
use std::ops::Range;

/// One step of a chaos/soak schedule against a pool of counter-shaped
/// objects (`0..pool` indices) on a simulated cluster (`0..nodes` ids).
///
/// Not every suite uses every variant: an [`OpMix`] with a zero weight
/// never generates that variant, and drivers may treat unused variants as
/// unreachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoakOp {
    /// Value-returning read-modify-write: `v += delta`, returns the new
    /// value — a synchronization point under batching.
    Call {
        /// Pool index of the target object.
        idx: usize,
        /// Increment applied to the counter.
        delta: i8,
    },
    /// Fire-and-forget increment (`void`): deferrable under `batch on`,
    /// observable only through a later [`SoakOp::Call`] or
    /// [`SoakOp::Read`].
    Inc {
        /// Pool index of the target object.
        idx: usize,
        /// Increment applied to the counter.
        delta: i8,
    },
    /// Property read returning the current value — served from a cache or
    /// a replica when policy allows, and never allowed to be stale.
    Read {
        /// Pool index of the target object.
        idx: usize,
    },
    /// Move the object to `node` if it currently sits at its home, else
    /// pull it home first (the boundary-flexing move of the paper).
    Migrate {
        /// Pool index of the target object.
        idx: usize,
        /// Destination node id.
        node: u8,
    },
    /// Pull the object back to its home node.
    Pull {
        /// Pool index of the target object.
        idx: usize,
    },
    /// Run an affinity adaptation pass.
    Adapt,
    /// Run a shard rebalancing tick.
    Rebalance,
    /// Crash `node` (restarting whichever node is currently down first, so
    /// at most one node is ever down).
    Crash {
        /// Node id to crash.
        node: u8,
    },
    /// Restart the currently-down node, if any.
    Heal,
}

impl SoakOp {
    /// Short stable label for per-kind op accounting (soak reports).
    pub fn kind(&self) -> &'static str {
        match self {
            SoakOp::Call { .. } => "call",
            SoakOp::Inc { .. } => "inc",
            SoakOp::Read { .. } => "read",
            SoakOp::Migrate { .. } => "migrate",
            SoakOp::Pull { .. } => "pull",
            SoakOp::Adapt => "adapt",
            SoakOp::Rebalance => "rebalance",
            SoakOp::Crash { .. } => "crash",
            SoakOp::Heal => "heal",
        }
    }
}

impl fmt::Display for SoakOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakOp::Call { idx, delta } => write!(f, "call #{idx} {delta:+}"),
            SoakOp::Inc { idx, delta } => write!(f, "inc #{idx} {delta:+}"),
            SoakOp::Read { idx } => write!(f, "read #{idx}"),
            SoakOp::Migrate { idx, node } => write!(f, "migrate #{idx} -> n{node}"),
            SoakOp::Pull { idx } => write!(f, "pull #{idx}"),
            SoakOp::Adapt => write!(f, "adapt"),
            SoakOp::Rebalance => write!(f, "rebalance"),
            SoakOp::Crash { node } => write!(f, "crash n{node}"),
            SoakOp::Heal => write!(f, "heal"),
        }
    }
}

/// Weighted mix of [`SoakOp`] variants over a pool/cluster shape. A zero
/// weight disables the variant entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Number of objects in the pool (`idx` domain).
    pub pool: usize,
    /// Number of nodes (`Migrate` destination domain).
    pub nodes: u8,
    /// Nodes `0..crash_nodes` are eligible to crash.
    pub crash_nodes: u8,
    /// Weight of [`SoakOp::Call`].
    pub call: u32,
    /// Weight of [`SoakOp::Inc`].
    pub inc: u32,
    /// Weight of [`SoakOp::Read`].
    pub read: u32,
    /// Weight of [`SoakOp::Migrate`].
    pub migrate: u32,
    /// Weight of [`SoakOp::Pull`].
    pub pull: u32,
    /// Weight of [`SoakOp::Adapt`].
    pub adapt: u32,
    /// Weight of [`SoakOp::Rebalance`].
    pub rebalance: u32,
    /// Weight of [`SoakOp::Crash`].
    pub crash: u32,
    /// Weight of [`SoakOp::Heal`].
    pub heal: u32,
}

impl OpMix {
    /// All weights zero — a base to build custom mixes from.
    pub fn none(pool: usize, nodes: u8) -> Self {
        OpMix {
            pool,
            nodes,
            ..OpMix::default()
        }
    }

    /// The boundary-chaos mix (calls, migrations, pulls, adaptation) used
    /// by the E9 interchangeability soak: 6/2/2/1.
    pub fn boundary(pool: usize, nodes: u8) -> Self {
        OpMix {
            call: 6,
            migrate: 2,
            pull: 2,
            adapt: 1,
            ..OpMix::none(pool, nodes)
        }
    }

    /// The batched-boundary mix (E12 safety): deferred void increments
    /// alongside synchronizing adds and moves, 5/4/2/1/1.
    pub fn batched(pool: usize, nodes: u8) -> Self {
        OpMix {
            inc: 5,
            call: 4,
            migrate: 2,
            pull: 1,
            adapt: 1,
            ..OpMix::none(pool, nodes)
        }
    }

    /// The crash-stop mix (E11 failover): calls against replicated
    /// counters with a random crash/restart schedule, 6/2/1.
    pub fn crash_stop(pool: usize, crash_nodes: u8) -> Self {
        OpMix {
            call: 6,
            crash: 2,
            heal: 1,
            crash_nodes,
            ..OpMix::none(pool, crash_nodes)
        }
    }

    /// The adaptation-chaos mix (E15 affinity hygiene): calls, rebalance
    /// ticks, adaptation passes and crash/restart cycles, 6/2/1/2/1.
    pub fn adaptation(pool: usize, nodes: u8, crash_nodes: u8) -> Self {
        OpMix {
            call: 6,
            rebalance: 2,
            adapt: 1,
            crash: 2,
            heal: 1,
            crash_nodes,
            ..OpMix::none(pool, nodes)
        }
    }

    /// Sum of all weights.
    fn total(&self) -> u32 {
        self.call
            + self.inc
            + self.read
            + self.migrate
            + self.pull
            + self.adapt
            + self.rebalance
            + self.crash
            + self.heal
    }

    /// `len` ops drawn from this mix by a stream seeded with `seed`:
    /// weighted variant choice, uniform index, node and delta choice.
    /// Variants with zero weight are never drawn.
    ///
    /// # Panics
    /// If every weight is zero, or `crash > 0` with `crash_nodes == 0`.
    pub fn sample(&self, seed: u64, len: usize) -> Vec<SoakOp> {
        assert!(self.total() > 0, "an OpMix needs at least one weight");
        assert!(
            self.crash == 0 || self.crash_nodes > 0,
            "crash weight needs crash_nodes > 0"
        );
        let mut rng = Rng::new(seed);
        let mut targets = Targets {
            hot: None,
            incs: 0..self.pool,
            moves: 0..self.pool,
        };
        (0..len)
            .map(|_| draw(self, &mut targets, &mut rng))
            .collect()
    }
}

/// The exact single-address-space oracle: one `i32` counter per pool
/// index, stepped in program order. Distribution must never change what
/// it predicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle {
    values: Vec<i32>,
}

impl Oracle {
    /// All-zero counters over a pool.
    pub fn new(pool: usize) -> Self {
        Oracle {
            values: vec![0; pool],
        }
    }

    /// Step one op. Returns the value the distributed run must observe
    /// for this op (`Call` returns the post-increment value, `Read` the
    /// current value) or `None` for ops with no observable return (void
    /// increments, boundary moves, faults).
    pub fn step(&mut self, op: &SoakOp) -> Option<i32> {
        match *op {
            SoakOp::Call { idx, delta } => {
                self.values[idx] += i32::from(delta);
                Some(self.values[idx])
            }
            SoakOp::Inc { idx, delta } => {
                self.values[idx] += i32::from(delta);
                None
            }
            SoakOp::Read { idx } => Some(self.values[idx]),
            _ => None,
        }
    }

    /// Current counter values.
    pub fn values(&self) -> &[i32] {
        &self.values
    }
}

/// Which soak class a pool index belongs to (see [`ChurnConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolClass {
    /// Sharded + replicated + replica-read auction item (hot).
    Item,
    /// Cached + replicated account — the target of boundary moves.
    Acct,
    /// Batched + replicated tally — the target of void increments.
    Tally,
}

/// A production-day churn schedule: its seed and op count. Everything else
/// about the day is a constant of the type. A pure value — equal configs
/// generate byte-identical schedules.
///
/// The pool is laid out `[items][accts][tallys]` in index order, so the
/// hottest Zipf ranks land on the auction items; the churn generator draws
/// `Inc` targets from the tally range and `Migrate`/`Pull` targets from
/// the acct range, matching the policies the soak driver assigns per
/// class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Master seed for the schedule.
    pub seed: u64,
    /// Total ops across all phases.
    pub ops: usize,
}

impl ChurnConfig {
    /// Cluster size; the driver treats node `NODES - 1` as the
    /// never-crashed coordinator.
    pub const NODES: u8 = 6;
    /// Nodes `0..CRASH_NODES` are eligible to crash; the coordinator is not.
    pub const CRASH_NODES: u8 = 3;
    /// Sharded auction items (pool indices `0..ITEMS`).
    pub const ITEMS: usize = 16;
    /// Cached accounts (pool indices `ITEMS..ITEMS + ACCTS`).
    pub const ACCTS: usize = 6;
    /// Batched tallies (the remaining pool indices).
    pub const TALLYS: usize = 6;
    /// Zipf exponent of object popularity: web-like skew.
    pub const EXPONENT: f64 = 1.1;

    /// The production day: 6 nodes (coordinator = node 5), crashes over
    /// nodes 0–2, 16 hot items + 6 accounts + 6 tallies, web-like skew. Op
    /// count is the caller's depth knob.
    pub fn production_day(seed: u64, ops: usize) -> Self {
        ChurnConfig { seed, ops }
    }

    /// Total pool size.
    pub fn pool(&self) -> usize {
        Self::ITEMS + Self::ACCTS + Self::TALLYS
    }

    /// Class of a pool index.
    ///
    /// # Panics
    /// If `idx` is out of the pool.
    pub fn class_of(&self, idx: usize) -> PoolClass {
        assert!(idx < self.pool(), "pool index {idx} out of range");
        if idx < Self::ITEMS {
            PoolClass::Item
        } else if idx < Self::ITEMS + Self::ACCTS {
            PoolClass::Acct
        } else {
            PoolClass::Tally
        }
    }

    /// The four phases of the day, in order: name, op count (5 % / 35 % /
    /// 45 % / the rest of the budget) and mix.
    fn phases(&self) -> [(&'static str, usize, OpMix); 4] {
        let day = OpMix::none(self.pool(), Self::NODES);
        let warm_n = self.ops * 5 / 100;
        let steady_n = self.ops * 35 / 100;
        let churn_n = self.ops * 45 / 100;
        let quiesce_n = self.ops - warm_n - steady_n - churn_n;
        let warm = OpMix {
            call: 4,
            read: 6,
            ..day
        };
        let steady = OpMix {
            call: 25,
            read: 45,
            inc: 10,
            migrate: 4,
            pull: 2,
            adapt: 1,
            ..day
        };
        let churn = OpMix {
            call: 22,
            read: 38,
            inc: 10,
            migrate: 5,
            pull: 3,
            adapt: 2,
            rebalance: 2,
            crash: 1,
            heal: 1,
            crash_nodes: Self::CRASH_NODES,
            ..day
        };
        let quiesce = OpMix {
            call: 2,
            read: 8,
            heal: 1,
            ..day
        };
        [
            ("warmup", warm_n, warm),
            ("steady", steady_n, steady),
            ("churn", churn_n, churn),
            ("quiesce", quiesce_n, quiesce),
        ]
    }
}

/// One phase of a churn schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPhase {
    /// Phase label (stable, used in soak reports).
    pub name: &'static str,
    /// The ops of this phase, in order.
    pub ops: Vec<SoakOp>,
}

/// A full production-day schedule: warmup → steady → churn → quiesce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// The phases, in execution order.
    pub phases: Vec<ChurnPhase>,
}

impl ChurnSchedule {
    /// Total op count across phases.
    pub fn total_ops(&self) -> usize {
        self.phases.iter().map(|p| p.ops.len()).sum()
    }

    /// All ops concatenated in execution order — the flat sequence the
    /// shrinker minimises.
    pub fn flatten(&self) -> Vec<SoakOp> {
        self.phases.iter().flat_map(|p| p.ops.clone()).collect()
    }
}

/// Generate the phased production-day schedule for `cfg`.
///
/// Four phases split the op budget 5% / 35% / 45% / 15%:
///
/// 1. **warmup** — reads and calls only, populating caches and replicas;
/// 2. **steady** — the full dataflow mix (calls, reads, deferred
///    increments, boundary moves, adaptation) with no faults;
/// 3. **churn** — everything at once: the steady mix plus rebalance
///    ticks, crashes and restarts;
/// 4. **quiesce** — heals and reads, draining the system to a quiet
///    state for the convergence checks.
///
/// Object popularity is Zipf([`ChurnConfig::EXPONENT`]) over the whole
/// pool for calls and reads; increments target the tally range and moves
/// the acct range uniformly (see [`ChurnConfig`]).
///
/// # Panics
/// If the op budget is zero.
pub fn generate_churn(cfg: &ChurnConfig) -> ChurnSchedule {
    assert!(cfg.ops > 0, "churn needs a positive op budget");
    let mut rng = Rng::new(cfg.seed ^ 0x50AC_50AC_50AC_50AC);
    let mut zipf = ZipfWorkload::new(cfg.seed.wrapping_add(1), cfg.pool(), ChurnConfig::EXPONENT);
    let accts = ChurnConfig::ITEMS..ChurnConfig::ITEMS + ChurnConfig::ACCTS;
    let mut targets = Targets {
        hot: Some(&mut zipf),
        incs: accts.end..cfg.pool(),
        moves: accts,
    };
    let phases = cfg
        .phases()
        .into_iter()
        .map(|(name, n, mix)| ChurnPhase {
            name,
            ops: (0..n).map(|_| draw(&mix, &mut targets, &mut rng)).collect(),
        })
        .collect();
    ChurnSchedule { phases }
}

/// Where `draw` takes an op's pool index from.
struct Targets<'z> {
    /// `Call` and `Read` targets: a Zipf stream over the pool, or uniform
    /// over the mix's whole pool.
    hot: Option<&'z mut ZipfWorkload>,
    /// `Inc` targets, drawn uniformly.
    incs: Range<usize>,
    /// `Migrate` and `Pull` targets, drawn uniformly.
    moves: Range<usize>,
}

/// Draw one op from a weighted mix: the variant by weight, then its fields
/// in declaration order, pool indices from `targets`. This is the only
/// place random numbers become a [`SoakOp`].
fn draw(mix: &OpMix, targets: &mut Targets<'_>, rng: &mut Rng) -> SoakOp {
    let mut t = rng.below(mix.total() as usize) as u32;
    let mut hit = |w: u32| {
        if t < w {
            true
        } else {
            t -= w;
            false
        }
    };
    let mut hot = |rng: &mut Rng| match targets.hot.as_deref_mut() {
        Some(zipf) => zipf.next_key(),
        None => rng.below(mix.pool),
    };
    let uniform = |range: &Range<usize>, rng: &mut Rng| range.start + rng.below(range.len());
    let delta = |rng: &mut Rng| rng.range(0, 19) as i8 - 10;
    if hit(mix.call) {
        SoakOp::Call {
            idx: hot(rng),
            delta: delta(rng),
        }
    } else if hit(mix.inc) {
        SoakOp::Inc {
            idx: uniform(&targets.incs, rng),
            delta: delta(rng),
        }
    } else if hit(mix.read) {
        SoakOp::Read { idx: hot(rng) }
    } else if hit(mix.migrate) {
        SoakOp::Migrate {
            idx: uniform(&targets.moves, rng),
            node: rng.below(mix.nodes as usize) as u8,
        }
    } else if hit(mix.pull) {
        SoakOp::Pull {
            idx: uniform(&targets.moves, rng),
        }
    } else if hit(mix.adapt) {
        SoakOp::Adapt
    } else if hit(mix.rebalance) {
        SoakOp::Rebalance
    } else if hit(mix.crash) {
        SoakOp::Crash {
            node: rng.below(mix.crash_nodes as usize) as u8,
        }
    } else {
        SoakOp::Heal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig::production_day(42, 2000)
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let a = generate_churn(&cfg());
        let b = generate_churn(&cfg());
        assert_eq!(a, b);
        let c = generate_churn(&ChurnConfig { seed: 43, ..cfg() });
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn churn_fills_the_exact_op_budget_in_four_phases() {
        let s = generate_churn(&cfg());
        assert_eq!(s.total_ops(), 2000);
        let names: Vec<&str> = s.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["warmup", "steady", "churn", "quiesce"]);
        assert_eq!(s.flatten().len(), 2000);
    }

    #[test]
    fn churn_respects_per_class_and_per_phase_domains() {
        let c = cfg();
        let s = generate_churn(&c);
        for (pi, phase) in s.phases.iter().enumerate() {
            for op in &phase.ops {
                match *op {
                    SoakOp::Call { idx, .. } | SoakOp::Read { idx } => {
                        assert!(idx < c.pool());
                    }
                    SoakOp::Inc { idx, .. } => {
                        assert_eq!(c.class_of(idx), PoolClass::Tally, "{op}");
                    }
                    SoakOp::Migrate { idx, node } => {
                        assert_eq!(c.class_of(idx), PoolClass::Acct, "{op}");
                        assert!(node < ChurnConfig::NODES);
                    }
                    SoakOp::Pull { idx } => {
                        assert_eq!(c.class_of(idx), PoolClass::Acct, "{op}");
                    }
                    SoakOp::Crash { node } => {
                        assert!(node < ChurnConfig::CRASH_NODES);
                        assert_eq!(phase.name, "churn", "crashes only in churn");
                    }
                    SoakOp::Adapt | SoakOp::Rebalance | SoakOp::Heal => {}
                }
            }
            // Warmup and quiesce are fault- and move-free.
            if pi == 0 || pi == 3 {
                assert!(phase.ops.iter().all(|o| !matches!(
                    o,
                    SoakOp::Crash { .. } | SoakOp::Migrate { .. } | SoakOp::Pull { .. }
                )));
            }
        }
    }

    #[test]
    fn zipf_popularity_concentrates_on_the_hot_items() {
        let c = cfg();
        let s = generate_churn(&c);
        let mut hits = vec![0u64; c.pool()];
        for op in s.flatten() {
            if let SoakOp::Call { idx, .. } | SoakOp::Read { idx } = op {
                hits[idx] += 1;
            }
        }
        let hottest = hits[..ChurnConfig::ITEMS].iter().sum::<u64>();
        let rest = hits[ChurnConfig::ITEMS..].iter().sum::<u64>();
        assert!(
            hottest > rest * 2,
            "items must dominate the call/read stream: {hits:?}"
        );
    }

    #[test]
    fn oracle_steps_in_program_order() {
        let mut o = Oracle::new(3);
        assert_eq!(o.step(&SoakOp::Call { idx: 0, delta: 5 }), Some(5));
        assert_eq!(o.step(&SoakOp::Inc { idx: 0, delta: -2 }), None);
        assert_eq!(o.step(&SoakOp::Read { idx: 0 }), Some(3));
        assert_eq!(o.step(&SoakOp::Migrate { idx: 0, node: 1 }), None);
        assert_eq!(o.step(&SoakOp::Crash { node: 0 }), None);
        assert_eq!(o.step(&SoakOp::Call { idx: 2, delta: 1 }), Some(1));
        assert_eq!(o.values(), &[3, 0, 1]);
    }

    #[test]
    fn class_layout_partitions_the_pool() {
        let c = cfg();
        assert_eq!(c.pool(), 28);
        assert_eq!(c.class_of(0), PoolClass::Item);
        assert_eq!(c.class_of(15), PoolClass::Item);
        assert_eq!(c.class_of(16), PoolClass::Acct);
        assert_eq!(c.class_of(21), PoolClass::Acct);
        assert_eq!(c.class_of(22), PoolClass::Tally);
        assert_eq!(c.class_of(27), PoolClass::Tally);
    }

    /// Whether `op` is one `mix` may draw: a weighted variant, with its
    /// index, node and delta inside the mix's domains.
    fn within(mix: &OpMix, op: &SoakOp) -> bool {
        let (weight, idx, node, delta) = match *op {
            SoakOp::Call { idx, delta } => (mix.call, Some(idx), None, delta),
            SoakOp::Inc { idx, delta } => (mix.inc, Some(idx), None, delta),
            SoakOp::Read { idx } => (mix.read, Some(idx), None, 0),
            SoakOp::Migrate { idx, node } => (mix.migrate, Some(idx), Some((node, mix.nodes)), 0),
            SoakOp::Pull { idx } => (mix.pull, Some(idx), None, 0),
            SoakOp::Adapt => (mix.adapt, None, None, 0),
            SoakOp::Rebalance => (mix.rebalance, None, None, 0),
            SoakOp::Crash { node } => (mix.crash, None, Some((node, mix.crash_nodes)), 0),
            SoakOp::Heal => (mix.heal, None, None, 0),
        };
        weight > 0
            && idx.is_none_or(|idx| idx < mix.pool)
            && node.is_none_or(|(node, nodes)| node < nodes)
            && (-10..10).contains(&delta)
    }

    /// `sample` draws only what a mix allows, draws every variant it
    /// weights, and is a function of its seed: for the per-feature mixes
    /// the chaos suites use and for each phase of the production day.
    #[test]
    fn sample_respects_every_mix_domain() {
        let refused = std::panic::catch_unwind(|| OpMix::none(4, 3).sample(1, 1));
        assert!(refused.is_err(), "a mix with no weight draws nothing");
        let day = cfg().phases().map(|(_, _, mix)| mix);
        let per_feature = [
            OpMix::boundary(4, 3),
            OpMix::batched(4, 3),
            OpMix::crash_stop(6, 3),
            OpMix::adaptation(5, 4, 3),
        ];
        for mix in per_feature.iter().chain(&day) {
            let ops = mix.sample(7, 2000);
            assert_eq!(ops, mix.sample(7, 2000), "{mix:?}");
            assert_ne!(ops, mix.sample(8, 2000), "{mix:?}");
            for op in &ops {
                assert!(within(mix, op), "{mix:?} drew {op}");
            }
            let kinds: std::collections::BTreeSet<&str> = ops.iter().map(SoakOp::kind).collect();
            let weighted = [
                ("call", mix.call),
                ("inc", mix.inc),
                ("read", mix.read),
                ("migrate", mix.migrate),
                ("pull", mix.pull),
                ("adapt", mix.adapt),
                ("rebalance", mix.rebalance),
                ("crash", mix.crash),
                ("heal", mix.heal),
            ];
            for (kind, weight) in weighted {
                assert_eq!(kinds.contains(kind), weight > 0, "{mix:?}: {kind}");
            }
        }
    }

    #[test]
    fn strategy_respects_the_mix_domains() {
        let mix = OpMix::adaptation(5, 4, 3);
        for seed in 0..64 {
            for op in mix.sample(seed, 1 + seed as usize % 40) {
                match op {
                    SoakOp::Call { idx, .. } => assert!(idx < 5),
                    SoakOp::Crash { node } => assert!(node < 3),
                    SoakOp::Adapt | SoakOp::Rebalance | SoakOp::Heal => {}
                    other => panic!("mix must not generate {other}"),
                }
            }
        }
    }

    #[test]
    fn boundary_mix_never_generates_faults() {
        let mix = OpMix::boundary(4, 3);
        for seed in 0..64 {
            for op in mix.sample(seed, 1 + seed as usize % 40) {
                assert!(
                    matches!(
                        op,
                        SoakOp::Call { .. }
                            | SoakOp::Migrate { .. }
                            | SoakOp::Pull { .. }
                            | SoakOp::Adapt
                    ),
                    "boundary mix generated {op}"
                );
            }
        }
    }

    /// The production-day schedules are held still: an FNV-1a hash over
    /// every op's `Display` line of the 10⁵-op day, for four seeds. A
    /// change to how `generate_churn` consumes its streams moves them.
    #[test]
    fn production_day_schedules_are_pinned() {
        let fingerprint = |seed| {
            let schedule = generate_churn(&ChurnConfig::production_day(seed, 100_000));
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for op in schedule.flatten() {
                for b in format!("{op}\n").bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            h
        };
        let pinned: [(u64, u64); 4] = [
            (42, 0x66ca_7340_42e5_e3df),
            (1, 0x05d8_16e9_9b24_35cf),
            (2, 0x0c1e_ef3d_7e7b_9cd6),
            (3, 0x0849_0115_8445_d36d),
        ];
        for (seed, expected) in pinned {
            assert_eq!(fingerprint(seed), expected, "seed {seed}");
        }
    }
}
