//! The location directory: the one answer to "where does this object live
//! now, and at what version".
//!
//! Every table that records a location — the per-node export registries
//! and their forwarding stubs, property versions (with tombstones), the
//! recorded-homes chain, canonical singleton exports, the shard map, the
//! last-shipped replica records, the dirty-replica set and the affinity
//! counters — lives behind this one type, and changes only through the
//! transitions below ([`Directory::export`], [`Directory::relocate`],
//! [`Directory::bump`], [`Directory::shipped`] / [`Directory::settled`],
//! [`Directory::mark_written`] / [`Directory::mark_node`] /
//! [`Directory::take_dirty`],
//! [`Directory::restart`], [`Directory::record_call`],
//! [`Directory::canonical_static`] and the shard-map operations), each of
//! which leaves every view consistent. Reads are questions that return
//! plain data, never a handle on a table. The two questions every
//! time-series sample asks — [`Directory::replica_lag`] and
//! [`Directory::shard_balance`] — read gauges the transitions keep exact,
//! so a sample costs the same however many locations there are.
//!
//! No method calls back into the runtime: whatever must be looked up in a
//! VM heap or the policy is passed in as plain data or a pure closure. The
//! runtime holds the directory in one `RefCell` and borrows it for exactly
//! one method call at a time, so a borrow can never span a nested exchange.

use rafda_vm::Handle;
use rafda_wire::WireValue;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A location: `(node, export id on that node)`.
pub(crate) type Loc = (u32, u64);

/// A shard of a `shard by` class: `(class row id, shard index)`. Rows are
/// sorted by class name, so key order is `(class name, shard)` order.
pub(crate) type ShardKey = (usize, u32);

/// Version tag marking a location as permanently uncacheable: the object
/// moved away and the export (if the node still has one) only forwards.
/// Reads through a forwarding chain must always go remote, otherwise a
/// reader that never exchanges with the new owner could keep serving the
/// pre-move value.
pub(crate) const VERSION_TOMBSTONE: u64 = u64::MAX;

/// How an export's live state relates to what its backups last received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drift {
    /// Same version, same state: the backups are current.
    Settled,
    /// The state moved under an unchanged version — a mutation the runtime
    /// never served. The version must be bumped before shipping.
    State,
    /// Never shipped, or the version moved since the last shipment.
    Version,
}

/// Incoming-call affinity of one export: the calls served for it at its
/// current home, and the caller that dominates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Affinity {
    pub oid: u64,
    /// Calls from all callers.
    pub total: u64,
    /// The caller with the most calls; ties go to the highest node id.
    pub top_caller: u32,
    pub top_count: u64,
}

/// One node's share of the directory. Everything here is volatile: a
/// restart wipes it, except the id counter.
#[derive(Debug, Default)]
struct NodeDir {
    /// Live exports: objects this node answers for.
    exports: HashMap<u64, Handle>,
    /// Reverse map over `exports` *and* `forwards`, so re-exporting a
    /// handle (the object migrating back home) reuses its original id.
    export_ids: HashMap<Handle, u64>,
    /// Forwarding stubs left behind by a move: the id still resolves (to
    /// the in-place-rewritten proxy) so transparent forwarding keeps
    /// working, but sweeps, affinity and summaries see only live exports.
    forwards: HashMap<u64, Handle>,
    /// Live exports that are locally implemented instances of a replicated
    /// class — the only locations a dirty mark can make shippable.
    replicated: BTreeSet<u64>,
    /// Exports whose last shipment was *not* flat: the state held a
    /// `Remote`, `Array` or `ObjectState`, so the marshalled form reaches
    /// into other heap slots and a write anywhere on the node may move it.
    /// A flat record — by-value scalars and strings only — is a function of
    /// the export's own slot, and marshalling it has no side effect (no
    /// referent is exported, hence none re-marked dirty).
    deep: BTreeSet<u64>,
    /// Last id handed out. Survives restarts, so a stale proxy addressing
    /// a pre-crash export gets a typed fault, not a different object.
    next_oid: u64,
    /// What each export last shipped to its backups. Cleared cluster-wide
    /// on every restart so a rejoining backup is re-seeded at the owner's
    /// next sync.
    synced_versions: HashMap<u64, Shipment>,
    /// Per-export incoming call counts by caller node.
    call_counts: HashMap<u64, HashMap<u32, u64>>,
}

/// One export's last shipment to its backups.
#[derive(Debug)]
struct Shipment {
    version: u64,
    state: Vec<WireValue>,
}

/// All location state of one cluster. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    nodes: Vec<NodeDir>,
    /// Authoritative property versions. Absent means 0 (never mutated
    /// through the runtime since export); [`VERSION_TOMBSTONE`] marks a
    /// location the object moved away from. Outlives restarts.
    versions: HashMap<Loc, u64>,
    /// Where the live copy of a moved object went: old location → next
    /// location. Acyclic by construction (see [`Directory::relocate`]).
    /// Outlives restarts — a forwarding proxy alone would be lost when its
    /// node restarts.
    homes: HashMap<Loc, Loc>,
    /// Per class row: the location its statics singleton was first
    /// exported under; resolution follows `homes` from here.
    static_by_row: Vec<Option<Loc>>,
    /// Shard → owning node. `BTreeMap`: iteration order feeds decisions.
    owner_by_shard: BTreeMap<ShardKey, u32>,
    /// Shard → member instances at their last known locations.
    members_by_shard: BTreeMap<ShardKey, Vec<Loc>>,
    /// Locations whose state may have moved past their last shipment.
    /// Always a subset of the nodes' `replicated` sets; a `BTreeSet` so
    /// the sweep drains it in `(node, oid)` order.
    dirty: BTreeSet<Loc>,
    /// Gauge behind [`Directory::replica_lag`]: shipped locations whose
    /// current version is [`behind`] their shipment record's. Kept exact by
    /// the transitions that can flip the predicate for one location —
    /// [`Directory::bump`], [`Directory::relocate`], [`Directory::shipped`]
    /// — and zeroed by [`Directory::restart`], which voids every record.
    lagging: u64,
    /// Gauge behind [`Directory::shard_balance`]: recorded shard members
    /// per node, kept exact by the three shard-member transitions.
    members_per_node: Vec<u64>,
    /// Test-only injected fault: the next relocation "forgets" its
    /// tombstone — the bug the stale-read monitor exists to catch.
    skip_next_tombstone: bool,
}

impl Directory {
    pub(crate) fn new(nodes: u32, rows: usize) -> Directory {
        Directory {
            nodes: (0..nodes).map(|_| NodeDir::default()).collect(),
            static_by_row: vec![None; rows],
            members_per_node: vec![0; nodes as usize],
            ..Directory::default()
        }
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    /// Export `h` on `node` and return its id: the id it already has (a
    /// forwarding stub is promoted back to a live export — the object came
    /// home), or a fresh one. `replicated` says whether `h` is *now* a
    /// locally implemented instance of a replicated class; it is
    /// re-evaluated on every call because installs and promotions rewrite
    /// exported proxies into local objects under an unchanged id. A
    /// replicated export is marked dirty: its state is owed to the backups.
    pub(crate) fn export(&mut self, node: u32, h: Handle, replicated: bool) -> u64 {
        let st = &mut self.nodes[node as usize];
        let oid = match st.export_ids.get(&h) {
            Some(&oid) => {
                if let Some(h) = st.forwards.remove(&oid) {
                    st.exports.insert(oid, h);
                }
                oid
            }
            None => {
                st.next_oid += 1;
                st.exports.insert(st.next_oid, h);
                st.export_ids.insert(h, st.next_oid);
                st.next_oid
            }
        };
        if replicated {
            st.replicated.insert(oid);
            self.dirty.insert((node, oid));
        } else if st.replicated.remove(&oid) {
            self.dirty.remove(&(node, oid));
        }
        oid
    }

    /// The object at `old` now lives at `new`. In order: tombstone `old`'s
    /// version (no read through it may be cached again); if the mover
    /// rewrote the object at `old` into a proxy — a migration did (a pull is
    /// one), a promotion leaves a dead owner's object alone — demote its
    /// export to a forwarding stub (which also ends its replication
    /// duties); record `old → new` and drop any outgoing edge of `new`,
    /// which keeps every chain acyclic and ending at a live home; and purge
    /// the affinity counters of both locations, plus any counter of an
    /// exported proxy that `points_at` either — the counts describe calls
    /// received at a home the object no longer has.
    ///
    /// `points_at(node, handle)` answers, from the node's heap, which
    /// location an exported proxy addresses (`None` for anything else).
    pub(crate) fn relocate(
        &mut self,
        old: Loc,
        new: Loc,
        points_at: impl Fn(u32, Handle) -> Option<Loc>,
    ) {
        if !std::mem::take(&mut self.skip_next_tombstone) {
            let before = self.versions.insert(old, VERSION_TOMBSTONE).unwrap_or(0);
            // A tombstoned location never lags, whatever it last shipped.
            let lagged = self.shipped_version(old).is_some_and(|s| behind(before, s));
            self.lagging -= u64::from(lagged);
        }
        let st = &mut self.nodes[old.0 as usize];
        let rewritten = st.exports.get(&old.1).copied();
        if let Some(h) = rewritten.filter(|&h| points_at(old.0, h).is_some()) {
            st.exports.remove(&old.1);
            st.forwards.insert(old.1, h);
            st.replicated.remove(&old.1);
            self.dirty.remove(&old);
        }
        self.homes.insert(old, new);
        self.homes.remove(&new);
        for (n, st) in self.nodes.iter_mut().enumerate() {
            let n = n as u32;
            let exports = &st.exports;
            st.call_counts.retain(|&oid, _| {
                if (n, oid) == old || (n, oid) == new {
                    return false;
                }
                let target = exports.get(&oid).and_then(|&h| points_at(n, h));
                target != Some(old) && target != Some(new)
            });
        }
    }

    /// Record a (possible) mutation at `loc`: cached reads tagged with an
    /// older version become stale, and the backups are behind until the
    /// next sweep. Tombstoned locations stay tombstoned. Returns whether
    /// the location was marked dirty.
    #[must_use]
    pub(crate) fn bump(&mut self, loc: Loc) -> bool {
        let v = self.versions.entry(loc).or_insert(0);
        let before = *v;
        if before != VERSION_TOMBSTONE {
            *v = before.saturating_add(1).min(VERSION_TOMBSTONE - 1);
        }
        let after = *v;
        if let Some(shipped) = self.shipped_version(loc) {
            let (was, is) = (behind(before, shipped), behind(after, shipped));
            self.lagging = self.lagging - u64::from(was) + u64::from(is);
        }
        // Only a live replicated export can ship at all.
        let shippable = self.nodes[loc.0 as usize].replicated.contains(&loc.1);
        if shippable {
            self.dirty.insert(loc);
        }
        shippable
    }

    /// `node`'s heap handed out entries mutably since its log was last
    /// drained, and `written` are the handles it logged: mark what those
    /// writes may have moved — of the node's replicated exports, those
    /// among the written handles and, whichever slot was written, the deep
    /// ones. Returns the number of marks made.
    #[must_use]
    pub(crate) fn mark_written(&mut self, node: u32, written: &[Handle]) -> u64 {
        let st = &self.nodes[node as usize];
        let exported = written.iter().filter_map(|h| st.export_ids.get(h));
        let marks = exported
            .chain(&st.deep)
            .filter(|oid| st.replicated.contains(oid));
        let mut made = 0;
        for &oid in marks {
            self.dirty.insert((node, oid));
            made += 1;
        }
        made
    }

    /// Mark every replicated export of `node` dirty, whatever was written:
    /// the cluster-wide re-seed after a restart, and the quiescent check
    /// that must not depend on the marks being complete. Returns the number
    /// of marks made.
    #[must_use]
    pub(crate) fn mark_node(&mut self, node: u32) -> u64 {
        let replicated = &self.nodes[node as usize].replicated;
        self.dirty.extend(replicated.iter().map(|&oid| (node, oid)));
        replicated.len() as u64
    }

    /// Drain the dirty set for one sweep, in `(node, oid)` order. Marks
    /// made while the sweep runs are the next sweep's work.
    pub(crate) fn take_dirty(&mut self) -> BTreeSet<Loc> {
        std::mem::take(&mut self.dirty)
    }

    /// `loc` is about to ship `state` at `version` to its backups. The
    /// record is made *before* the shipment because each shipment is an
    /// exchange, whose own sweep must find this location settled.
    pub(crate) fn shipped(&mut self, loc: Loc, version: u64, state: Vec<WireValue>) {
        let deep = state.iter().any(|v| {
            matches!(
                v,
                WireValue::Remote { .. } | WireValue::Array(_) | WireValue::ObjectState { .. }
            )
        });
        let current = self.version(loc);
        let st = &mut self.nodes[loc.0 as usize];
        if deep {
            st.deep.insert(loc.1);
        } else {
            st.deep.remove(&loc.1);
        }
        let previous = st
            .synced_versions
            .insert(loc.1, Shipment { version, state });
        let was = previous.is_some_and(|p| behind(current, p.version));
        self.lagging = self.lagging - u64::from(was) + u64::from(behind(current, version));
        self.dirty.remove(&loc);
    }

    /// A probe found `loc` [`Drift::Settled`]: its dirty mark is spent.
    pub(crate) fn settled(&mut self, loc: Loc) {
        self.dirty.remove(&loc);
    }

    /// A probe of `loc` could not read its state: the mark the sweep took
    /// stands, so the next sweep probes it again.
    pub(crate) fn unsettled(&mut self, loc: Loc) {
        if self.nodes[loc.0 as usize].replicated.contains(&loc.1) {
            self.dirty.insert(loc);
        }
    }

    /// The probe for an export whose heap slot nobody has written since its
    /// live state last equalled its shipment record: if that record is flat
    /// and still at `loc`'s current version, the live state *is* the record
    /// — [`Directory::drift`] would answer [`Drift::Settled`] — so the
    /// dirty mark is spent and `true` returned. Otherwise nothing changes.
    #[must_use]
    pub(crate) fn settle_if_flat(&mut self, loc: Loc) -> bool {
        let st = &self.nodes[loc.0 as usize];
        let record = st.synced_versions.get(&loc.1);
        let settled =
            !st.deep.contains(&loc.1) && record.is_some_and(|s| s.version == self.version(loc));
        if settled {
            self.dirty.remove(&loc);
        }
        settled
    }

    /// `node` restarted with empty volatile state: its exports, stubs,
    /// shipment records and counters are gone (only the id counter
    /// survives), its dirty entries describe state that no longer exists,
    /// and — since it holds no backups any more — every owner's shipment
    /// records are void. Every node's replicated exports are re-marked so
    /// the next sweep re-seeds the rejoined node even at unmoved versions.
    /// Returns the marks made, per node.
    #[must_use]
    pub(crate) fn restart(&mut self, node: u32) -> Vec<u64> {
        for st in &mut self.nodes {
            st.synced_versions.clear();
            st.deep.clear();
        }
        self.lagging = 0;
        let st = &mut self.nodes[node as usize];
        *st = NodeDir {
            next_oid: st.next_oid,
            ..NodeDir::default()
        };
        self.dirty.retain(|&(n, _)| n != node);
        (0..self.nodes.len() as u32)
            .map(|n| self.mark_node(n))
            .collect()
    }

    /// Count one call served for the live object at `loc`, from `caller`.
    pub(crate) fn record_call(&mut self, loc: Loc, caller: u32) {
        *self.nodes[loc.0 as usize]
            .call_counts
            .entry(loc.1)
            .or_default()
            .entry(caller)
            .or_default() += 1;
    }

    /// Record `loc` as the canonical export of class `row`'s statics
    /// singleton — the first time it becomes remotely visible; later calls
    /// keep the first record.
    pub(crate) fn canonical_static(&mut self, row: usize, loc: Loc) {
        self.static_by_row[row].get_or_insert(loc);
    }

    /// Arm the test-only fault described on the field.
    pub(crate) fn skip_next_tombstone(&mut self) {
        self.skip_next_tombstone = true;
    }

    // --- shard map ---

    /// The node owning shard `key`, seeded as `seed` the first time the
    /// shard is seen.
    pub(crate) fn shard_owner(&mut self, key: ShardKey, seed: u32) -> u32 {
        *self.owner_by_shard.entry(key).or_insert(seed)
    }

    /// Hand shard `key` to `node`.
    pub(crate) fn assign_shard(&mut self, key: ShardKey, node: u32) {
        self.owner_by_shard.insert(key, node);
    }

    /// Add `member` to shard `key`, once.
    pub(crate) fn add_shard_member(&mut self, key: ShardKey, member: Loc) {
        let members = self.members_by_shard.entry(key).or_default();
        if !members.contains(&member) {
            members.push(member);
            self.members_per_node[member.0 as usize] += 1;
        }
    }

    /// Member `index` of shard `key` moved to `loc`.
    pub(crate) fn move_shard_member(&mut self, key: ShardKey, index: usize, loc: Loc) {
        if let Some(members) = self.members_by_shard.get_mut(&key) {
            let old = std::mem::replace(&mut members[index], loc);
            self.members_per_node[old.0 as usize] -= 1;
            self.members_per_node[loc.0 as usize] += 1;
        }
    }

    /// Drop shard members that no longer resolve (the registry was wiped)
    /// or that `keep(loc, handle)` rejects — the caller knows which nodes
    /// are down and which handles are still locally implemented objects.
    pub(crate) fn prune_shard_members(&mut self, keep: impl Fn(Loc, Handle) -> bool) {
        let nodes = &self.nodes;
        let per_node = &mut self.members_per_node;
        for members in self.members_by_shard.values_mut() {
            members.retain(|&loc| {
                let kept = lookup_in(nodes, loc).is_some_and(|h| keep(loc, h));
                per_node[loc.0 as usize] -= u64::from(!kept);
                kept
            });
        }
        self.members_by_shard.retain(|_, ms| !ms.is_empty());
    }

    // ------------------------------------------------------------------
    // Questions
    // ------------------------------------------------------------------

    /// The handle `loc` resolves to: a live export or a forwarding stub.
    pub(crate) fn lookup(&self, loc: Loc) -> Option<Handle> {
        lookup_in(&self.nodes, loc)
    }

    /// The handle of the live export at `loc`; `None` for stubs.
    pub(crate) fn live_export(&self, loc: Loc) -> Option<Handle> {
        self.nodes[loc.0 as usize].exports.get(&loc.1).copied()
    }

    /// The current property version of `loc` (0 if never mutated).
    pub(crate) fn version(&self, loc: Loc) -> u64 {
        self.versions.get(&loc).copied().unwrap_or(0)
    }

    /// Where the object once at `loc` was last recorded to live: the end
    /// of the chain of recorded moves, `loc` itself if it never moved.
    pub(crate) fn resolve(&self, mut loc: Loc) -> Loc {
        let mut hops = 0;
        while let Some(&next) = self.homes.get(&loc) {
            loc = next;
            hops += 1;
            debug_assert!(hops <= self.homes.len(), "cycle in the homes chain");
        }
        loc
    }

    /// The *next* recorded location after `loc`, if the object moved.
    pub(crate) fn recorded_home(&self, loc: Loc) -> Option<Loc> {
        self.homes.get(&loc).copied()
    }

    /// Every recorded move `old → next`, sorted by old location.
    pub(crate) fn recorded_homes(&self) -> Vec<(Loc, Loc)> {
        let mut entries: Vec<(Loc, Loc)> = self.homes.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        entries
    }

    /// The canonical export of class `row`'s statics singleton, if recorded.
    pub(crate) fn static_export(&self, row: usize) -> Option<Loc> {
        self.static_by_row[row]
    }

    /// Number of live exports on `node`.
    pub(crate) fn live_count(&self, node: u32) -> usize {
        self.nodes[node as usize].exports.len()
    }

    /// The live exports of `node`, sorted by id.
    pub(crate) fn exports_of(&self, node: u32) -> Vec<(u64, Handle)> {
        sorted_by_id(&self.nodes[node as usize].exports)
    }

    /// Live exports *and* forwarding stubs of `node`, sorted by id — a
    /// migration's trail stays visible at the old home.
    pub(crate) fn trail_of(&self, node: u32) -> Vec<(u64, Handle)> {
        let st = &self.nodes[node as usize];
        sorted_by_id(st.exports.iter().chain(&st.forwards))
    }

    /// How `state`, the live marshalled state of `loc`, relates to its
    /// last shipment.
    pub(crate) fn drift(&self, loc: Loc, state: &[WireValue]) -> Drift {
        match self.nodes[loc.0 as usize].synced_versions.get(&loc.1) {
            Some(s) if s.version == self.version(loc) => {
                if s.state == state {
                    Drift::Settled
                } else {
                    Drift::State
                }
            }
            _ => Drift::Version,
        }
    }

    /// Shipped exports whose backups lag the owner's current version. Read
    /// off the maintained gauge; debug builds re-count from the tables.
    pub(crate) fn replica_lag(&self) -> u64 {
        debug_assert_eq!(self.lagging, self.scan_replica_lag());
        self.lagging
    }

    /// [`Directory::replica_lag`] from scratch: every shipment record of
    /// every node against its location's current version. The reference
    /// the gauge is checked against, never the answer.
    fn scan_replica_lag(&self) -> u64 {
        let mut lag = 0;
        for (owner, st) in self.nodes.iter().enumerate() {
            for (&oid, shipment) in &st.synced_versions {
                let current = self.version((owner as u32, oid));
                lag += u64::from(behind(current, shipment.version));
            }
        }
        lag
    }

    /// The version `loc` last shipped to its backups, if it ever shipped
    /// (since the last restart).
    fn shipped_version(&self, loc: Loc) -> Option<u64> {
        let shipment = self.nodes[loc.0 as usize].synced_versions.get(&loc.1)?;
        Some(shipment.version)
    }

    /// Entries in the dirty set — what the next sweep will probe.
    pub(crate) fn dirty_depth(&self) -> usize {
        self.dirty.len()
    }

    /// The affinity counters of `node`, sorted by export id.
    pub(crate) fn affinity(&self, node: u32) -> Vec<Affinity> {
        let mut out: Vec<Affinity> = self.nodes[node as usize]
            .call_counts
            .iter()
            .filter_map(|(&oid, counts)| {
                let (&top_caller, &top_count) =
                    counts.iter().max_by_key(|&(&caller, &c)| (c, caller))?;
                Some(Affinity {
                    oid,
                    total: counts.values().sum(),
                    top_caller,
                    top_count,
                })
            })
            .collect();
        out.sort_unstable_by_key(|a| a.oid);
        out
    }

    // --- shard map ---

    /// The shard map, in key order.
    pub(crate) fn shard_owners(&self) -> Vec<(ShardKey, u32)> {
        self.owner_by_shard.iter().map(|(&k, &o)| (k, o)).collect()
    }

    /// The recorded members of shard `key`.
    pub(crate) fn shard_members(&self, key: ShardKey) -> Vec<Loc> {
        self.members_by_shard.get(&key).cloned().unwrap_or_default()
    }

    /// Every location recorded as a member of some shard.
    pub(crate) fn shard_member_set(&self) -> HashSet<Loc> {
        self.members_by_shard.values().flatten().copied().collect()
    }

    /// Calls served per shard: the affinity totals of its members at
    /// their recorded homes. An absent counter means a quiet member.
    pub(crate) fn shard_loads(&self) -> BTreeMap<ShardKey, u64> {
        let total = |&(n, oid): &Loc| {
            self.nodes[n as usize]
                .call_counts
                .get(&oid)
                .map_or(0, |counts| counts.values().sum::<u64>())
        };
        self.members_by_shard
            .iter()
            .map(|(&key, members)| (key, members.iter().map(total).sum()))
            .collect()
    }

    /// Shard balance: max / mean recorded members per node. 1.0 means
    /// perfectly even, growing with skew; 0 when nothing has been placed.
    /// Read off the maintained counts; debug builds re-count the shard map.
    pub(crate) fn shard_balance(&self) -> f64 {
        let per_node = &self.members_per_node;
        debug_assert_eq!(*per_node, self.scan_members_per_node());
        let total: u64 = per_node.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / per_node.len() as f64;
        per_node.iter().max().copied().unwrap_or(0) as f64 / mean
    }

    /// The per-node member counts from scratch: one pass over the shard
    /// map. The reference the counts are checked against.
    fn scan_members_per_node(&self) -> Vec<u64> {
        let mut per_node = vec![0u64; self.nodes.len()];
        for &(n, _) in self.members_by_shard.values().flatten() {
            per_node[n as usize] += 1;
        }
        per_node
    }
}

/// Whether backups that last received `shipped` lag an owner now at
/// `current`. A tombstoned owner has no backups to keep current.
fn behind(current: u64, shipped: u64) -> bool {
    current != VERSION_TOMBSTONE && current != shipped
}

fn sorted_by_id<'a>(
    entries: impl IntoIterator<Item = (&'a u64, &'a Handle)>,
) -> Vec<(u64, Handle)> {
    let mut out: Vec<(u64, Handle)> = entries.into_iter().map(|(&o, &h)| (o, h)).collect();
    out.sort_unstable_by_key(|&(oid, _)| oid);
    out
}

fn lookup_in(nodes: &[NodeDir], loc: Loc) -> Option<Handle> {
    let st = &nodes[loc.0 as usize];
    st.exports
        .get(&loc.1)
        .or_else(|| st.forwards.get(&loc.1))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rafda_classmodel::{ClassKind, ClassUniverse};
    use rafda_vm::Vm;
    use std::sync::Arc;

    const NODES: u32 = 3;

    /// Distinct live handles to export. The directory never looks inside
    /// a handle, so one pool serves every node.
    fn handles(n: usize) -> Vec<Handle> {
        let mut u = ClassUniverse::new();
        let c = u.declare("T", ClassKind::Class);
        let vm = Vm::new(Arc::new(u));
        (0..n).map(|_| vm.alloc_raw(c, vec![])).collect()
    }

    /// `h` moves from its export `old` to `to`, as a migration does: the
    /// handle left at `old` is now a proxy for the new location.
    fn migrate(dir: &mut Directory, old: Loc, h: Handle, to: u32) -> Loc {
        let new = (to, dir.export(to, h, false));
        dir.relocate(old, new, |n, x| (n == old.0 && x == h).then_some(new));
        new
    }

    /// Regression for `follow_homes` stopping short: the old walk took at
    /// most `node_count + 1` hops, but a chain gains one *fresh* location
    /// every time the object lands on a node that restarted since it last
    /// lived there (the restart wiped the id it would have reused).
    #[test]
    fn resolve_reaches_the_terminal_of_a_chain_longer_than_the_cluster() {
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let first = (0, dir.export(0, h, false));
        let mut at = migrate(&mut dir, first, h, 1);
        at = migrate(&mut dir, at, h, 2);
        for node in 0..NODES {
            let _ = dir.restart(node);
            at = migrate(&mut dir, at, h, node);
        }
        assert_eq!(at, (2, 2), "every landing after a restart is a fresh id");
        let mut hops = 0;
        let mut loc = first;
        while let Some(next) = dir.recorded_home(loc) {
            loc = next;
            hops += 1;
        }
        assert_eq!(hops, 5);
        assert!(hops > NODES + 1, "longer than the old walk's bound");
        assert_eq!(dir.resolve(first), at);
        assert_eq!(dir.lookup(at), Some(h));
    }

    #[test]
    fn an_object_coming_home_reuses_its_id_and_stays_tombstoned() {
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let home = (0, dir.export(0, h, true));
        let away = migrate(&mut dir, home, h, 1);
        assert_eq!(dir.live_export(home), None);
        assert_eq!(dir.lookup(home), Some(h), "the stub still resolves");
        assert_eq!(dir.version(home), VERSION_TOMBSTONE);
        assert!(!dir.bump(home), "a stub cannot ship");
        let back = (0, dir.export(0, h, true));
        dir.relocate(away, back, |n, x| (n == away.0 && x == h).then_some(back));
        assert_eq!(back, home);
        assert_eq!(dir.live_export(home), Some(h));
        assert_eq!(dir.version(home), VERSION_TOMBSTONE);
        assert_eq!(dir.resolve(away), home);
        assert_eq!(dir.recorded_home(home), None, "the live home is terminal");
    }

    #[test]
    fn relocate_purges_counters_of_both_locations_and_of_proxies_to_them() {
        let hs = handles(3);
        let mut dir = Directory::new(NODES, 1);
        let old = (0, dir.export(0, hs[0], false));
        let bystander = (0, dir.export(0, hs[1], false));
        // Node 2 exports a proxy that addresses `old`.
        let proxy = (2, dir.export(2, hs[2], false));
        for loc in [old, bystander, proxy] {
            dir.record_call(loc, 1);
        }
        let new = (1, dir.export(1, hs[0], false));
        dir.record_call(new, 2);
        dir.relocate(old, new, |n, h| (n == 2 && h == hs[2]).then_some(old));
        assert_eq!(dir.affinity(0).len(), 1);
        assert_eq!(dir.affinity(0)[0].oid, bystander.1);
        assert_eq!(dir.affinity(1), vec![]);
        assert_eq!(dir.affinity(2), vec![]);
    }

    #[test]
    fn the_skipped_tombstone_is_spent_by_one_relocation() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let a = (0, dir.export(0, hs[0], false));
        let b = (0, dir.export(0, hs[1], false));
        dir.skip_next_tombstone();
        migrate(&mut dir, a, hs[0], 1);
        migrate(&mut dir, b, hs[1], 1);
        assert_eq!(dir.version(a), 0, "the injected fault");
        assert_eq!(dir.version(b), VERSION_TOMBSTONE);
    }

    /// `settle_if_flat` answers for the full probe only where the full
    /// probe's answer is a function of the record alone: a record exists,
    /// it is flat, and the version has not moved past it.
    #[test]
    fn settle_if_flat_needs_a_flat_record_at_the_current_version() {
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let loc = (0, dir.export(0, h, true));
        assert!(!dir.settle_if_flat(loc), "never shipped");
        assert_eq!(dir.dirty_depth(), 1, "a refusal changes nothing");

        let scalars = vec![
            WireValue::Null,
            WireValue::Int(1),
            WireValue::Str("s".into()),
        ];
        dir.shipped(loc, 0, scalars.clone());
        let _ = dir.mark_node(0);
        assert!(dir.settle_if_flat(loc));
        assert_eq!(dir.dirty_depth(), 0, "settling spends the dirty mark");

        let _ = dir.bump(loc);
        assert!(
            !dir.settle_if_flat(loc),
            "the version moved past the record"
        );
        assert_eq!(dir.dirty_depth(), 1);

        let remote = WireValue::Remote {
            node: 1,
            object: 1,
            class: "T".into(),
        };
        let object = WireValue::ObjectState {
            class: "T".into(),
            fields: vec![],
        };
        for reaching in [remote, WireValue::Array(vec![]), object] {
            let mut state = scalars.clone();
            state.push(reaching);
            dir.shipped(loc, 1, state);
            assert!(!dir.settle_if_flat(loc), "state reaches past its own slot");
        }
    }

    /// What a drained write log marks: a written handle only if it is a
    /// replicated export, a deep export whichever handle was written, and a
    /// flat unwritten one not at all.
    #[test]
    fn mark_written_marks_written_replicated_exports_and_every_deep_one() {
        let hs = handles(4);
        let mut dir = Directory::new(NODES, 1);
        let flat = (0, dir.export(0, hs[0], true));
        let deep = (0, dir.export(0, hs[1], true));
        let plain = (0, dir.export(0, hs[2], false));
        dir.shipped(flat, 0, vec![WireValue::Int(1)]);
        dir.shipped(deep, 0, vec![WireValue::Array(vec![])]);
        dir.shipped(plain, 0, vec![WireValue::Array(vec![])]);
        assert_eq!(dir.dirty_depth(), 0);

        // An unexported handle and an unreplicated export were written.
        assert_eq!(dir.mark_written(0, &[hs[3], hs[2]]), 1);
        assert_eq!(dir.take_dirty(), BTreeSet::from([deep]));
        assert_eq!(dir.mark_written(0, &[hs[0]]), 2);
        assert_eq!(dir.take_dirty(), BTreeSet::from([flat, deep]));
        assert_eq!(dir.mark_written(1, &[hs[0]]), 0, "another node's heap");

        // A flat shipment takes the export out of the deep set again.
        dir.shipped(deep, 0, vec![WireValue::Int(2)]);
        assert_eq!(dir.mark_written(0, &[]), 0);
        // An export that moved away ships no more, and any restart voids
        // every record.
        dir.shipped(flat, 0, vec![WireValue::Array(vec![])]);
        migrate(&mut dir, flat, hs[0], 1);
        assert_eq!(dir.mark_written(0, &[hs[0]]), 0);
        dir.shipped(deep, 0, vec![WireValue::Array(vec![])]);
        let _ = dir.restart(2);
        let _ = dir.take_dirty();
        assert_eq!(dir.mark_written(0, &[]), 0);
    }

    /// A probe that could not read the state leaves the mark it took.
    #[test]
    fn an_unsettled_probe_keeps_its_mark_only_while_the_export_can_ship() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let loc = (0, dir.export(0, hs[0], true));
        let plain = (0, dir.export(0, hs[1], false));
        assert_eq!(dir.take_dirty(), BTreeSet::from([loc]));
        dir.unsettled(loc);
        dir.unsettled(plain);
        assert_eq!(dir.take_dirty(), BTreeSet::from([loc]));
        migrate(&mut dir, loc, hs[0], 1);
        dir.unsettled(loc);
        assert_eq!(dir.dirty_depth(), 0, "a stub cannot ship");
    }

    /// The lag gauge and the from-scratch scan, which must agree.
    fn lag(dir: &Directory) -> (u64, u64) {
        (dir.lagging, dir.scan_replica_lag())
    }

    #[test]
    fn the_lag_gauge_follows_a_location_through_every_transition() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let loc = (0, dir.export(0, hs[0], true));
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (0, 0), "never shipped: nothing to lag");
        dir.shipped(loc, 1, vec![]);
        assert_eq!(lag(&dir), (0, 0));
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (1, 1), "the version moved past the shipment");
        dir.shipped(loc, 1, vec![]);
        assert_eq!(
            lag(&dir),
            (1, 1),
            "re-shipping the old version settles nothing"
        );
        dir.shipped(loc, 2, vec![]);
        assert_eq!(lag(&dir), (0, 0));
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (1, 1));
        migrate(&mut dir, loc, hs[0], 1);
        assert_eq!(lag(&dir), (0, 0), "a tombstoned location never lags");
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (0, 0), "and stays tombstoned");
        // A restart voids every owner's records, lagging or not.
        let other = (2, dir.export(2, hs[1], true));
        dir.shipped(other, 0, vec![]);
        let _ = dir.bump(other);
        assert_eq!(lag(&dir), (1, 1));
        let _ = dir.restart(0);
        assert_eq!(lag(&dir), (0, 0));
        assert_eq!(dir.replica_lag(), 0);
    }

    // --- invariants under random transitions (proptest) ---

    const POOL: usize = 5;
    const SHARDS: u32 = 2;

    #[derive(Debug, Clone)]
    enum Op {
        Export {
            node: u32,
            h: usize,
            replicated: bool,
        },
        /// Move the `pick`-th live export of `from` to `to`.
        Move {
            from: u32,
            pick: usize,
            to: u32,
        },
        /// A backup on `to` takes over the `pick`-th export of the down node.
        Promote {
            pick: usize,
            to: u32,
        },
        Bump {
            node: u32,
            pick: usize,
        },
        /// Ship the `pick`-th export of `node`, at its current version or
        /// (`stale`) at the one before — a shipment overtaken by a bump.
        Shipped {
            node: u32,
            pick: usize,
            stale: bool,
            flat: bool,
        },
        /// Record the `pick`-th export of `node` as a member of `shard`.
        AddMember {
            shard: u32,
            node: u32,
            pick: usize,
        },
        /// Member `index` of `shard` is now the `pick`-th export of `node`.
        MoveMember {
            shard: u32,
            index: usize,
            node: u32,
            pick: usize,
        },
        /// Prune the shard map; `odd` also rejects odd export ids.
        PruneMembers {
            odd: bool,
        },
        MarkNode {
            node: u32,
        },
        /// `node`'s heap logged a write to pool handle `h`.
        MarkWritten {
            node: u32,
            h: usize,
        },
        RecordCall {
            node: u32,
            pick: usize,
            caller: u32,
        },
        Crash {
            node: u32,
        },
        Restart,
    }

    fn arb_op() -> BoxedStrategy<Op> {
        let node = || 0..NODES;
        let pick = || 0..POOL;
        let shard = || 0..SHARDS;
        prop_oneof![
            4 => (node(), pick(), any::<bool>())
                .prop_map(|(node, h, replicated)| Op::Export { node, h, replicated }),
            4 => (node(), pick(), node()).prop_map(|(from, pick, to)| Op::Move { from, pick, to }),
            2 => (pick(), node()).prop_map(|(pick, to)| Op::Promote { pick, to }),
            3 => (node(), pick()).prop_map(|(node, pick)| Op::Bump { node, pick }),
            2 => (node(), pick(), any::<bool>(), any::<bool>()).prop_map(
                |(node, pick, stale, flat)| Op::Shipped { node, pick, stale, flat }
            ),
            3 => (shard(), node(), pick())
                .prop_map(|(shard, node, pick)| Op::AddMember { shard, node, pick }),
            2 => (shard(), pick(), node(), pick()).prop_map(|(shard, index, node, pick)| {
                Op::MoveMember { shard, index, node, pick }
            }),
            1 => any::<bool>().prop_map(|odd| Op::PruneMembers { odd }),
            2 => node().prop_map(|node| Op::MarkNode { node }),
            2 => (node(), pick()).prop_map(|(node, h)| Op::MarkWritten { node, h }),
            4 => (node(), pick(), node())
                .prop_map(|(node, pick, caller)| Op::RecordCall { node, pick, caller }),
            1 => node().prop_map(|node| Op::Crash { node }),
            2 => Just(Op::Restart),
        ]
        .boxed()
    }

    /// What the test knows besides the directory: which handles were
    /// rewritten into proxies (and for where), which node is down, and
    /// every location something ever moved away from.
    #[derive(Default)]
    struct World {
        proxies: HashMap<(u32, Handle), Loc>,
        down: Option<u32>,
        moved_from: Vec<Loc>,
    }

    fn pick_live(dir: &Directory, node: u32, pick: usize) -> Option<(Loc, Handle)> {
        let exports = dir.exports_of(node);
        let &(oid, h) = exports.get(pick % exports.len().max(1))?;
        Some(((node, oid), h))
    }

    fn apply(dir: &mut Directory, w: &mut World, hs: &[Handle], op: &Op) {
        let up = |n: u32| w.down != Some(n);
        match *op {
            Op::Export {
                node,
                h,
                replicated,
            } if up(node) => {
                // Re-exporting a handle means the real object is (back)
                // behind it.
                w.proxies.remove(&(node, hs[h]));
                dir.export(node, hs[h], replicated);
            }
            Op::Move { from, pick, to } if from != to && up(from) && up(to) => {
                let Some((old, h)) = pick_live(dir, from, pick) else {
                    return;
                };
                if w.proxies.contains_key(&(from, h)) {
                    return; // only real objects move
                }
                w.proxies.remove(&(to, h));
                let new = (to, dir.export(to, h, pick % 2 == 0));
                // The mover rewrites the object it leaves behind into a
                // proxy before it relocates, as a migration does.
                w.proxies.insert((from, h), new);
                let proxies = &w.proxies;
                dir.relocate(old, new, |n, h| proxies.get(&(n, h)).copied());
                w.moved_from.push(old);
            }
            Op::Promote { pick, to } if w.down.is_some_and(|d| d != to) => {
                let from = w.down.expect("guarded");
                let Some((old, h)) = pick_live(dir, from, pick) else {
                    return;
                };
                w.proxies.remove(&(to, h));
                let new = (to, dir.export(to, h, true));
                let _ = dir.bump(new);
                let proxies = &w.proxies;
                dir.relocate(old, new, |n, h| proxies.get(&(n, h)).copied());
                w.moved_from.push(old);
            }
            Op::Bump { node, pick } if up(node) => {
                if let Some((loc, _)) = pick_live(dir, node, pick) {
                    let _ = dir.bump(loc);
                }
            }
            Op::Shipped {
                node,
                pick,
                stale,
                flat,
            } if up(node) => {
                if let Some((loc, _)) = pick_live(dir, node, pick) {
                    let version = dir.version(loc).saturating_sub(u64::from(stale));
                    let state = if flat {
                        vec![]
                    } else {
                        vec![WireValue::Array(vec![])]
                    };
                    dir.shipped(loc, version, state);
                }
            }
            Op::AddMember { shard, node, pick } if up(node) => {
                if let Some((loc, _)) = pick_live(dir, node, pick) {
                    dir.add_shard_member((0, shard), loc);
                }
            }
            Op::MoveMember {
                shard,
                index,
                node,
                pick,
            } if up(node) => {
                let key = (0, shard);
                let members = dir.shard_members(key).len();
                if let (true, Some((loc, _))) = (members > 0, pick_live(dir, node, pick)) {
                    dir.move_shard_member(key, index % members, loc);
                }
            }
            Op::PruneMembers { odd } => {
                dir.prune_shard_members(|(n, oid), _| up(n) && !(odd && oid % 2 == 1));
            }
            Op::MarkNode { node } => {
                let _ = dir.mark_node(node);
            }
            Op::MarkWritten { node, h } => {
                let _ = dir.mark_written(node, &[hs[h]]);
            }
            Op::RecordCall { node, pick, caller } if up(node) => {
                // The runtime counts calls only where the object lives.
                if let Some((loc, h)) = pick_live(dir, node, pick) {
                    if !w.proxies.contains_key(&(node, h)) {
                        dir.record_call(loc, caller);
                    }
                }
            }
            Op::Crash { node } if w.down.is_none() => w.down = Some(node),
            Op::Restart => {
                if let Some(node) = w.down.take() {
                    let _ = dir.restart(node);
                    w.proxies.retain(|&(n, _), _| n != node);
                }
            }
            _ => {}
        }
    }

    fn check(dir: &Directory, w: &World) -> Result<(), TestCaseError> {
        for (n, st) in dir.nodes.iter().enumerate() {
            let n = n as u32;
            for oid in st.exports.keys() {
                prop_assert!(!st.forwards.contains_key(oid), "{n}#{oid} live and stub");
            }
            prop_assert_eq!(st.export_ids.len(), st.exports.len() + st.forwards.len());
            // A stub is exactly an export whose handle became a proxy.
            for (oid, h) in &st.exports {
                prop_assert!(!w.proxies.contains_key(&(n, *h)), "{n}#{oid} live, a proxy");
            }
            for (oid, h) in &st.forwards {
                prop_assert!(w.proxies.contains_key(&(n, *h)), "{n}#{oid} stub, no proxy");
            }
            for oid in &st.replicated {
                prop_assert!(
                    st.exports.contains_key(oid),
                    "{n}#{oid} replicated, not live"
                );
            }
            for (oid, shipment) in &st.synced_versions {
                let deep = !shipment.state.is_empty();
                prop_assert_eq!(st.deep.contains(oid), deep, "{}#{} deep set", n, oid);
            }
            let recorded = |oid| st.synced_versions.contains_key(oid);
            prop_assert!(st.deep.iter().all(recorded), "node {n}: deep, no record");
            if w.down != Some(n) {
                for oid in st.call_counts.keys() {
                    prop_assert!(st.exports.contains_key(oid), "{n}#{oid} counted, not live");
                    let h = st.exports[oid];
                    prop_assert!(
                        !w.proxies.contains_key(&(n, h)),
                        "{n}#{oid} counted, but the object moved away"
                    );
                }
            }
        }
        for &(n, oid) in &dir.dirty {
            prop_assert!(
                dir.nodes[n as usize].replicated.contains(&oid),
                "{n}#{oid} dirty, not replicated"
            );
        }
        for &loc in &w.moved_from {
            prop_assert_eq!(
                dir.version(loc),
                VERSION_TOMBSTONE,
                "{:?} un-tombstoned",
                loc
            );
        }
        for &loc in dir.homes.keys() {
            let end = dir.resolve(loc);
            prop_assert_eq!(dir.recorded_home(end), None, "{:?} ends mid-chain", loc);
        }
        // The gauges a time-series sample reads equal the scans they replaced.
        prop_assert_eq!(dir.lagging, dir.scan_replica_lag());
        prop_assert_eq!(&dir.members_per_node, &dir.scan_members_per_node());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever sequence of transitions runs, every view of the
        /// directory stays consistent with every other.
        #[test]
        fn views_agree_after_every_transition(ops in prop::collection::vec(arb_op(), 1..80)) {
            let hs = handles(POOL);
            let mut dir = Directory::new(NODES, 1);
            let mut w = World::default();
            for op in &ops {
                apply(&mut dir, &mut w, &hs, op);
                check(&dir, &w)?;
            }
        }
    }
}
