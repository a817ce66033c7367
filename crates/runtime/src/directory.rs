//! The location directory: the one answer to "where does this object live
//! now, and at what version".
//!
//! Every table that records a location — the per-node export registries,
//! property versions, the identity index, canonical singleton exports, the
//! shard map, the replicated exports with what each one's backups were last
//! sent, the dirty-replica set and the affinity counters — lives behind
//! this one type, and changes only through the transitions below
//! ([`Directory::export`], [`Directory::relocate`], [`Directory::bump`],
//! [`Directory::shipped`] / [`Directory::undelivered`],
//! [`Directory::settled`] / [`Directory::unsettled`],
//! [`Directory::mark_written`] / [`Directory::mark_all`] /
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

use rafda_telemetry::{FastMap, FastSet};
use rafda_vm::Handle;
use rafda_wire::WireValue;
use std::collections::{BTreeMap, BTreeSet};

/// A location: `(node, export id on that node)`.
pub(crate) type Loc = (u32, u64);

/// A shard of a `shard by` class: `(class row id, shard index)`. Rows are
/// sorted by class name, so key order is `(class name, shard)` order.
pub(crate) type ShardKey = (usize, u32);

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

/// What one replicated export's backups were last sent.
#[derive(Debug)]
struct Shipment {
    version: u64,
    /// The state, if it was *deep* (it held a `Remote`, `Array` or
    /// `ObjectState`, so a write anywhere on the node may move it): the
    /// next probe compares against it. A flat state's written mark answers
    /// for it.
    deep: Option<Vec<WireValue>>,
    /// The backups it missed: cut off from the owner, or `Unreachable`.
    /// While any is owed the location stays marked dirty.
    owed: Vec<u32>,
}

/// A shipment record at its export's current version, as a probe reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Sent {
    /// It keeps its deep state, for [`Directory::deep_record_is`].
    pub is_deep: bool,
    /// The backups it still owes; empty when it reached them all.
    pub missed: Vec<u32>,
}

/// One node's share of the directory. Everything here is volatile: a
/// restart wipes it, except the id counter.
#[derive(Debug, Default)]
struct NodeDir {
    /// Live exports: objects this node answers for.
    exports: FastMap<u64, Handle>,
    /// Reverse map over `exports`, so exporting a handle twice reuses its
    /// id. A move vacates both directions: an object coming home is
    /// exported under a fresh id.
    export_ids: FastMap<Handle, u64>,
    /// Live exports that are locally implemented instances of a replicated
    /// class — the only locations a dirty mark can make shippable — each
    /// with what its backups were last sent: `None` before the first
    /// shipment, and again once a restart voided every record so that a
    /// rejoining backup is re-seeded at the owner's next sync.
    replicated: FastMap<u64, Option<Shipment>>,
    /// Last id handed out. Survives restarts, so a stale proxy addressing
    /// a pre-crash export gets a typed fault, not a different object.
    next_oid: u64,
    /// Per-export incoming call counts by caller node.
    call_counts: FastMap<u64, FastMap<u32, u64>>,
}

/// All location state of one cluster. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    nodes: Vec<NodeDir>,
    /// Authoritative property versions of the live exports (and of exports
    /// a restart wiped). Absent means uncacheable: the object moved away,
    /// so a read addressed there must go remote and be redirected, or a
    /// reader that never exchanges with the new owner could keep serving
    /// the pre-move value. Outlives restarts.
    versions: FastMap<Loc, u64>,
    /// Every location an object was relocated to → the object's identity:
    /// the location it was first exported under. A location absent here is
    /// its own identity. Outlives restarts.
    identities: FastMap<Loc, Loc>,
    /// Every moved identity → the object's live home. Outlives restarts:
    /// it is the only way a reference to a moved-away location reaches the
    /// object.
    homes: FastMap<Loc, Loc>,
    /// Per class row: the location its statics singleton was first
    /// exported under; resolution goes through `homes` from here.
    static_by_row: Vec<Option<Loc>>,
    /// Shard → owning node. `BTreeMap`: iteration order feeds decisions.
    owner_by_shard: BTreeMap<ShardKey, u32>,
    /// Shard → member instances at their last known locations.
    members_by_shard: BTreeMap<ShardKey, Vec<Loc>>,
    /// Locations whose state may have moved past their last shipment.
    /// Always a subset of the nodes' `replicated` entries; a `BTreeSet` so
    /// the sweep drains it in `(node, oid)` order.
    dirty: BTreeSet<Loc>,
    /// Gauge behind [`Directory::replica_lag`]: shipped locations some
    /// backup lags — the version moved past the record, or the record owes
    /// a backup. Every transition that writes a version or a record keeps
    /// it exact through [`Directory::keeping_lag`]; [`Directory::restart`],
    /// which voids every record, zeroes it.
    lagging: u64,
    /// Gauge behind [`Directory::shard_balance`]: recorded shard members
    /// per node, kept exact by the three shard-member transitions.
    members_per_node: Vec<u64>,
    /// Test-only injected fault: the next relocation keeps the old
    /// location's version, leaving it cacheable — the bug the stale-read
    /// monitor exists to catch.
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

    /// Export `h` on `node` and return its id: the id it already has, or a
    /// fresh one at version 0. `replicated` says whether `h` is *now* a
    /// locally implemented instance of a replicated class; it is
    /// re-evaluated on every call. A replicated export is marked dirty: its
    /// state is owed to the backups. One that is no longer replicated drops
    /// its shipment record with its mark.
    pub(crate) fn export(&mut self, node: u32, h: Handle, replicated: bool) -> u64 {
        let st = &mut self.nodes[node as usize];
        let versions = &mut self.versions;
        let oid = *st.export_ids.entry(h).or_insert_with(|| {
            st.next_oid += 1;
            st.exports.insert(st.next_oid, h);
            versions.insert((node, st.next_oid), 0);
            st.next_oid
        });
        if replicated {
            st.replicated.entry(oid).or_insert(None);
            self.dirty.insert((node, oid));
        } else {
            self.unreplicate((node, oid));
        }
        oid
    }

    /// The object at `old` now lives at `new`. In order: drop `old`'s
    /// replicated entry with its shipment record (it has no backups to keep
    /// current) and its version (no read through it may be cached again);
    /// vacate `old` — its export, export id and dirty mark go, whatever
    /// the mover left in the heap, so a call addressed there is answered
    /// `unknown object` and its caller is redirected to the live home;
    /// record `new` under the object's identity and `new` as that
    /// identity's home; and purge the affinity counters of both locations —
    /// the counts describe calls received at a home the object no longer
    /// has. A `new` that a landing rewrote in place from another object's
    /// live copy (left by an `Install` whose every reply was lost) folds
    /// that object into this one: all its locations take the mover's
    /// identity. Returns `new`'s prior identity unless it was the mover's.
    pub(crate) fn relocate(&mut self, old: Loc, new: Loc) -> Option<Loc> {
        self.unreplicate(old);
        if !std::mem::take(&mut self.skip_next_tombstone) {
            self.versions.remove(&old);
        }
        let st = &mut self.nodes[old.0 as usize];
        if let Some(h) = st.exports.remove(&old.1) {
            st.export_ids.remove(&h);
        }
        st.call_counts.remove(&old.1);
        self.nodes[new.0 as usize].call_counts.remove(&new.1);
        let (identity, prior) = (self.identity(old), self.identity(new));
        if prior != identity && self.homes.remove(&prior).is_some() {
            self.identities.insert(prior, identity);
            for id in self.identities.values_mut().filter(|id| **id == prior) {
                *id = identity;
            }
        }
        self.identities.insert(new, identity);
        self.homes.insert(identity, new);
        (prior != identity).then_some(prior)
    }

    /// Record a (possible) mutation at `loc`: cached reads tagged with an
    /// older version become stale, and the backups are behind until the
    /// next sweep. A location without a version stays without one. Returns
    /// whether the location was marked dirty.
    #[must_use]
    pub(crate) fn bump(&mut self, loc: Loc) -> bool {
        self.keeping_lag(loc, |dir| dir.versions.get_mut(&loc).map(|v| *v += 1));
        // Only a live replicated export can ship at all.
        let shippable = self.nodes[loc.0 as usize].replicated.contains_key(&loc.1);
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
        let exported = exported.filter(|oid| st.replicated.contains_key(oid));
        let deep = st
            .replicated
            .iter()
            .filter(|(_, r)| matches!(r, Some(s) if s.deep.is_some()));
        let marks = exported.chain(deep.map(|(oid, _)| oid));
        let mut made = 0;
        for &oid in marks {
            self.dirty.insert((node, oid));
            made += 1;
        }
        made
    }

    /// Mark every replicated export dirty, whatever was written: the
    /// cluster-wide re-seed after a restart, and the quiescent check that
    /// must not depend on the marks being complete. Returns the marks made
    /// per node. The set becomes all replicated entries, built from one
    /// sorted batch, so its tree's allocations do not depend on the order
    /// the per-process hash seed lists them in.
    #[must_use]
    pub(crate) fn mark_all(&mut self) -> Vec<u64> {
        let is_replicated = |&(n, oid): &Loc| self.nodes[n as usize].replicated.contains_key(&oid);
        debug_assert!(self.dirty.iter().all(is_replicated));
        let marks: Vec<u64> = self
            .nodes
            .iter()
            .map(|st| st.replicated.len() as u64)
            .collect();
        let mut all = Vec::with_capacity(marks.iter().sum::<u64>() as usize);
        for (n, st) in (0..).zip(&self.nodes) {
            all.extend(st.replicated.keys().map(|&oid| (n, oid)));
        }
        self.dirty = BTreeSet::from_iter(all);
        marks
    }

    /// Drain the dirty set for one sweep, in `(node, oid)` order. Marks
    /// made while the sweep runs are the next sweep's work.
    pub(crate) fn take_dirty(&mut self) -> BTreeSet<Loc> {
        std::mem::take(&mut self.dirty)
    }

    /// `loc` is about to ship `state` at `version` to its backups. The
    /// record is made *before* the shipment because each shipment is an
    /// exchange, whose own sweep must find this location settled. Only a
    /// deep state is kept, for the next probe to compare against. A
    /// location that is not a replicated export keeps no record.
    pub(crate) fn shipped(&mut self, loc: Loc, version: u64, state: &[WireValue]) {
        use WireValue::{Array, ObjectState, Remote};
        let reaches = |v: &WireValue| matches!(v, Remote { .. } | Array(_) | ObjectState { .. });
        self.keeping_lag(loc, |dir| {
            if let Some(record) = dir.nodes[loc.0 as usize].replicated.get_mut(&loc.1) {
                let deep = state.iter().any(reaches).then(|| state.to_vec());
                *record = Some(Shipment {
                    version,
                    deep,
                    owed: Vec::new(),
                });
            }
        });
        self.dirty.remove(&loc);
    }

    /// A probe found `loc`'s backups current: its dirty mark is spent.
    pub(crate) fn settled(&mut self, loc: Loc) {
        self.dirty.remove(&loc);
    }

    /// A probe of `loc` could not read its state: the mark the sweep took
    /// stands, so the next sweep probes it again.
    pub(crate) fn unsettled(&mut self, loc: Loc) {
        if self.nodes[loc.0 as usize].replicated.contains_key(&loc.1) {
            self.dirty.insert(loc);
        }
    }

    /// The shipment [`Directory::shipped`] just recorded for `loc` missed
    /// the backups `missed`: the record stands — some backups may hold
    /// it — and the location stays marked, owing them a shipment.
    pub(crate) fn undelivered(&mut self, loc: Loc, missed: Vec<u32>) {
        self.keeping_lag(loc, |dir| {
            if let Some(Some(shipment)) = dir.nodes[loc.0 as usize].replicated.get_mut(&loc.1) {
                shipment.owed = missed;
            }
        });
        self.unsettled(loc);
    }

    /// `node` restarted with empty volatile state: its exports, replicated
    /// entries and counters are gone (only the id counter survives), its
    /// dirty entries describe state that no longer exists, and — since it
    /// holds no backups any more — every other owner's shipment records are
    /// voided in place. Every node's replicated exports are re-marked so
    /// the next sweep re-seeds the rejoined node even at unmoved versions.
    /// Returns the marks made, per node.
    #[must_use]
    pub(crate) fn restart(&mut self, node: u32) -> Vec<u64> {
        for st in &mut self.nodes {
            st.replicated.values_mut().for_each(|record| *record = None);
        }
        self.lagging = 0;
        let st = &mut self.nodes[node as usize];
        *st = NodeDir {
            next_oid: st.next_oid,
            ..NodeDir::default()
        };
        self.dirty.retain(|&(n, _)| n != node);
        self.mark_all()
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

    /// Take `loc` out of the replicated set, with its record and dirty mark.
    fn unreplicate(&mut self, loc: Loc) {
        self.keeping_lag(loc, |dir| {
            dir.nodes[loc.0 as usize].replicated.remove(&loc.1)
        });
        self.dirty.remove(&loc);
    }

    /// Run `write`, which may change only `loc`'s version or replicated
    /// entry, and move the lag gauge by what that did to `loc`.
    fn keeping_lag<R>(&mut self, loc: Loc, write: impl FnOnce(&mut Directory) -> R) -> R {
        let was = self.lags(loc);
        let out = write(self);
        self.lagging = self.lagging + u64::from(self.lags(loc)) - u64::from(was);
        out
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
                let live = nodes[loc.0 as usize].exports.get(&loc.1);
                let kept = live.is_some_and(|&h| keep(loc, h));
                per_node[loc.0 as usize] -= u64::from(!kept);
                kept
            });
        }
        self.members_by_shard.retain(|_, ms| !ms.is_empty());
    }

    // ------------------------------------------------------------------
    // Questions
    // ------------------------------------------------------------------

    /// The handle of the live export at `loc`, if `loc` has one.
    pub(crate) fn live_export(&self, loc: Loc) -> Option<Handle> {
        self.nodes[loc.0 as usize].exports.get(&loc.1).copied()
    }

    /// The current property version of `loc`; `None` means uncacheable —
    /// the object moved away from `loc`.
    pub(crate) fn version(&self, loc: Loc) -> Option<u64> {
        self.versions.get(&loc).copied()
    }

    /// The identity of the object at (or once at) `loc`: the location it
    /// was first exported under.
    pub(crate) fn identity(&self, loc: Loc) -> Loc {
        self.identities.get(&loc).copied().unwrap_or(loc)
    }

    /// Where the object once at `loc` was last recorded to live: its
    /// identity's home, `loc` itself if it never moved.
    pub(crate) fn resolve(&self, loc: Loc) -> Loc {
        self.homes.get(&self.identity(loc)).copied().unwrap_or(loc)
    }

    /// Every moved object, `identity → live home`, sorted by identity.
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
        let mut out: Vec<(u64, Handle)> = self.nodes[node as usize]
            .exports
            .iter()
            .map(|(&o, &h)| (o, h))
            .collect();
        out.sort_unstable_by_key(|&(oid, _)| oid);
        out
    }

    /// What `loc`'s backups were sent at its current version: `None` if
    /// nothing (never shipped, voided by a restart, or the version moved
    /// since).
    pub(crate) fn current_shipment(&self, loc: Loc) -> Option<Sent> {
        let shipment = self.shipment(loc)?;
        (Some(shipment.version) == self.version(loc)).then(|| Sent {
            is_deep: shipment.deep.is_some(),
            missed: shipment.owed.clone(),
        })
    }

    /// Whether `state` is what `loc`'s deep record shipped.
    pub(crate) fn deep_record_is(&self, loc: Loc, state: &[WireValue]) -> bool {
        let deep = self.shipment(loc).and_then(|s| s.deep.as_deref());
        deep.is_some_and(|s| s == state)
    }

    /// Shipped exports whose backups lag the owner's current version. Read
    /// off the maintained gauge; debug builds re-count from the tables.
    pub(crate) fn replica_lag(&self) -> u64 {
        debug_assert_eq!(self.lagging, self.scan_replica_lag());
        self.lagging
    }

    /// [`Directory::replica_lag`] from scratch: every shipment record of
    /// every node. The reference the gauge is checked against, never the
    /// answer.
    fn scan_replica_lag(&self) -> u64 {
        let records = (0..).zip(&self.nodes);
        let records = records.flat_map(|(n, st)| st.replicated.keys().map(move |&o| (n, o)));
        records.filter(|&loc| self.lags(loc)).count() as u64
    }

    /// Whether some backup of `loc` lags its shipment record: the version
    /// moved past the record, or the shipment missed a backup.
    fn lags(&self, loc: Loc) -> bool {
        let shipment = self.shipment(loc);
        shipment.is_some_and(|s| Some(s.version) != self.version(loc) || !s.owed.is_empty())
    }

    /// `loc`'s shipment record, if it is a replicated export with one.
    fn shipment(&self, loc: Loc) -> Option<&Shipment> {
        self.nodes[loc.0 as usize].replicated.get(&loc.1)?.as_ref()
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
    pub(crate) fn shard_member_set(&self) -> FastSet<Loc> {
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

    /// `h` moves from its export `old` to `to`, as a migration does.
    fn migrate(dir: &mut Directory, old: Loc, h: Handle, to: u32) -> Loc {
        let new = (to, dir.export(to, h, false));
        dir.relocate(old, new);
        new
    }

    /// An object gains one *fresh* location every time it lands on a node,
    /// however often it lived there before — more locations than the
    /// cluster has nodes. Every one of them resolves to the live home in
    /// one lookup, and all share the first export's identity.
    #[test]
    fn resolve_reaches_the_terminal_of_a_chain_longer_than_the_cluster() {
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let first = (0, dir.export(0, h, false));
        let mut trail = vec![first];
        for node in [1, 2, 0, 1, 2] {
            let at = *trail.last().expect("non-empty");
            trail.push(migrate(&mut dir, at, h, node));
        }
        let live = trail[5];
        assert_eq!(live, (2, 2), "every landing is a fresh id");
        assert!(trail.len() as u32 > NODES + 1);
        for &loc in &trail {
            assert_eq!(dir.resolve(loc), live, "{loc:?}");
            assert_eq!(dir.identity(loc), first, "{loc:?}");
        }
        assert_eq!(dir.live_export(live), Some(h));
        assert_eq!(
            dir.recorded_homes(),
            vec![(first, live)],
            "one line per object"
        );
    }

    /// A move vacates the old location outright, so an object coming home
    /// is a fresh export: cacheable again (version 0, where the vacated
    /// locations have none), and every location it ever had resolves to it.
    #[test]
    fn an_object_coming_home_gets_a_fresh_id_and_its_old_ids_resolve_to_it() {
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let home = (0, dir.export(0, h, true));
        let away = migrate(&mut dir, home, h, 1);
        assert_eq!(dir.live_export(home), None);
        assert_eq!(dir.version(home), None);
        assert!(!dir.bump(home), "a vacated location cannot ship");
        assert_eq!(dir.version(home), None, "nor gain a version");
        let back = (0, dir.export(0, h, true));
        dir.relocate(away, back);
        assert_ne!(back, home, "the old id stays vacated");
        assert_eq!(dir.live_export(back), Some(h));
        assert_eq!(dir.live_export(home), None);
        assert_eq!(dir.version(back), Some(0), "the fresh export is cacheable");
        assert_eq!((dir.version(home), dir.version(away)), (None, None));
        assert_eq!(dir.resolve(home), back);
        assert_eq!(dir.resolve(away), back);
        assert_eq!(dir.resolve(back), back, "the live home is its own answer");
        assert_eq!(dir.identity(back), home);
        assert_eq!(dir.exports_of(0), vec![(back.1, h)]);
    }

    /// A landing that rewrites a live copy of another object in place —
    /// the copy left by an `Install` whose every reply was lost — folds
    /// that object into the mover: its identity and every location that
    /// had it take the mover's identity, and one home line remains.
    #[test]
    fn a_landing_on_another_objects_live_copy_folds_it_into_the_mover() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let mover = (0, dir.export(0, hs[0], false));
        let copy = (1, dir.export(1, hs[1], false));
        let live = migrate(&mut dir, copy, hs[1], 2);
        assert_eq!(dir.relocate(mover, live), Some(copy), "the folded identity");
        for loc in [mover, copy, live] {
            assert_eq!(dir.identity(loc), mover, "{loc:?}");
            assert_eq!(dir.resolve(loc), live, "{loc:?}");
        }
        assert_eq!(dir.recorded_homes(), vec![(mover, live)]);
        let next = migrate(&mut dir, live, hs[1], 0);
        assert_eq!(dir.resolve(copy), next, "the folded locations follow");
        let fresh = (1, dir.export(1, hs[0], false));
        assert_eq!(dir.relocate(next, fresh), Some(fresh), "its own identity");
        assert_eq!(dir.recorded_homes(), vec![(mover, fresh)]);
    }

    #[test]
    fn relocate_purges_counters_of_both_locations() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let old = (0, dir.export(0, hs[0], false));
        let bystander = (0, dir.export(0, hs[1], false));
        for loc in [old, bystander] {
            dir.record_call(loc, 1);
        }
        let new = (1, dir.export(1, hs[0], false));
        dir.record_call(new, 2);
        dir.relocate(old, new);
        assert_eq!(dir.affinity(0).len(), 1);
        assert_eq!(dir.affinity(0)[0].oid, bystander.1);
        assert_eq!(dir.affinity(1), vec![]);
    }

    #[test]
    fn the_skipped_tombstone_is_spent_by_one_relocation() {
        let hs = handles(2);
        let mut dir = Directory::new(NODES, 1);
        let a = (0, dir.export(0, hs[0], false));
        let b = (0, dir.export(0, hs[1], false));
        dir.skip_next_tombstone();
        let a_new = migrate(&mut dir, a, hs[0], 1);
        migrate(&mut dir, b, hs[1], 1);
        assert_eq!(dir.version(a), Some(0), "the injected fault");
        assert_eq!(dir.version(b), None);
        assert_eq!(dir.resolve(a), a_new, "the move itself is recorded");
    }

    /// A probe may skip marshalling only where the record answers for the
    /// live state: a record exists and the version has not moved past it.
    /// A flat record keeps no state; a deep one keeps what it shipped, for
    /// the probe to compare against. A shipment that missed a backup keeps
    /// its record, owes that backup and stays marked.
    #[test]
    fn current_shipment_needs_a_record_at_the_current_version() {
        let sent = |is_deep, missed: &[u32]| {
            let missed = missed.to_vec();
            Some(Sent { is_deep, missed })
        };
        let h = handles(1)[0];
        let mut dir = Directory::new(NODES, 1);
        let loc = (0, dir.export(0, h, true));
        assert_eq!(dir.current_shipment(loc), None, "never shipped");

        let scalars = vec![
            WireValue::Null,
            WireValue::Int(1),
            WireValue::Str("s".into()),
        ];
        dir.shipped(loc, 0, &scalars);
        assert_eq!(dir.current_shipment(loc), sent(false, &[]), "flat");
        assert!(
            !dir.deep_record_is(loc, &scalars),
            "no copy of a flat state"
        );

        let _ = dir.bump(loc);
        assert_eq!(
            dir.current_shipment(loc),
            None,
            "the version moved past the record"
        );

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
            dir.shipped(loc, 1, &state);
            let reaching = dir.current_shipment(loc);
            assert_eq!(reaching, sent(true, &[]), "reaches past its slot");
            assert!(dir.deep_record_is(loc, &state));
            assert!(!dir.deep_record_is(loc, &scalars));
        }

        let _ = dir.take_dirty();
        dir.undelivered(loc, vec![2]);
        let owing = dir.current_shipment(loc);
        assert_eq!(owing, sent(true, &[2]), "the record stands, owing backup 2");
        assert_eq!(dir.take_dirty(), BTreeSet::from([loc]), "re-marked");

        // A restart voids the record in place: the export stays replicated.
        let _ = dir.restart(1);
        assert_eq!(dir.current_shipment(loc), None);
        assert!(!dir.deep_record_is(loc, &[WireValue::Array(vec![])]));
        assert_eq!(dir.take_dirty(), BTreeSet::from([loc]), "re-marked");
        // An export that is no longer replicated keeps no record at all.
        dir.shipped(loc, 2, &scalars);
        let _ = dir.export(0, h, false);
        dir.shipped(loc, 2, &scalars);
        assert_eq!(dir.current_shipment(loc), None);
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
        dir.shipped(flat, 0, &[WireValue::Int(1)]);
        dir.shipped(deep, 0, &[WireValue::Array(vec![])]);
        dir.shipped(plain, 0, &[WireValue::Array(vec![])]);
        assert_eq!(dir.dirty_depth(), 0);

        // An unexported handle and an unreplicated export were written.
        assert_eq!(dir.mark_written(0, &[hs[3], hs[2]]), 1);
        assert_eq!(dir.take_dirty(), BTreeSet::from([deep]));
        assert_eq!(dir.mark_written(0, &[hs[0]]), 2);
        assert_eq!(dir.take_dirty(), BTreeSet::from([flat, deep]));
        assert_eq!(dir.mark_written(1, &[hs[0]]), 0, "another node's heap");

        // A flat shipment takes the export out of the deep set again.
        dir.shipped(deep, 0, &[WireValue::Int(2)]);
        assert_eq!(dir.mark_written(0, &[]), 0);
        // An export that moved away ships no more, and any restart voids
        // every record.
        dir.shipped(flat, 0, &[WireValue::Array(vec![])]);
        migrate(&mut dir, flat, hs[0], 1);
        assert_eq!(dir.mark_written(0, &[hs[0]]), 0);
        dir.shipped(deep, 0, &[WireValue::Array(vec![])]);
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
        assert_eq!(dir.dirty_depth(), 0, "a vacated location cannot ship");
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
        dir.shipped(loc, 1, &[]);
        assert_eq!(lag(&dir), (0, 0));
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (1, 1), "the version moved past the shipment");
        dir.shipped(loc, 1, &[]);
        assert_eq!(
            lag(&dir),
            (1, 1),
            "re-shipping the old version settles nothing"
        );
        dir.shipped(loc, 2, &[]);
        assert_eq!(lag(&dir), (0, 0));
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (1, 1));
        let new = migrate(&mut dir, loc, hs[0], 1);
        assert_eq!(lag(&dir), (0, 0), "a vacated location never lags");
        let _ = dir.bump(loc);
        assert_eq!(lag(&dir), (0, 0), "and gains no version");
        assert_eq!(dir.version(loc), None);
        // The new home starts unshipped; its first shipment settles it.
        assert_eq!(dir.export(1, hs[0], true), new.1);
        let _ = dir.bump(new);
        dir.shipped(new, 0, &[]);
        assert_eq!(lag(&dir), (1, 1), "shipped a version the bump overtook");
        dir.shipped(new, 1, &[]);
        assert_eq!(lag(&dir), (0, 0));
        // A restart voids every owner's records, lagging or not.
        let other = (2, dir.export(2, hs[1], true));
        dir.shipped(other, 0, &[]);
        let _ = dir.bump(other);
        assert_eq!(lag(&dir), (1, 1));
        dir.shipped(other, 1, &[]);
        assert_eq!(lag(&dir), (0, 0));
        dir.undelivered(other, vec![0]);
        assert_eq!(lag(&dir), (1, 1), "a backup missed the shipment");
        let _ = dir.bump(other);
        assert_eq!(lag(&dir), (1, 1), "still one location");
        dir.shipped(other, 2, &[]);
        assert_eq!(lag(&dir), (0, 0), "a new shipment pays what was owed");
        dir.undelivered(other, vec![0]);
        assert_eq!(lag(&dir), (1, 1));
        let _ = dir.bump(new);
        assert_eq!(lag(&dir), (2, 2));
        let _ = dir.export(1, hs[0], false);
        assert_eq!(lag(&dir), (1, 1), "no longer replicated: no record");
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
        /// (`stale`) at the one before — a shipment overtaken by a bump —
        /// and (`missed`) miss backup 0.
        Shipped {
            node: u32,
            pick: usize,
            stale: bool,
            flat: bool,
            missed: bool,
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
        /// Mark every replicated export dirty (the quiescent check).
        MarkAll,
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
            2 => (node(), pick(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
                |(node, pick, stale, flat, missed)| Op::Shipped { node, pick, stale, flat, missed }
            ),
            3 => (shard(), node(), pick())
                .prop_map(|(shard, node, pick)| Op::AddMember { shard, node, pick }),
            2 => (shard(), pick(), node(), pick()).prop_map(|(shard, index, node, pick)| {
                Op::MoveMember { shard, index, node, pick }
            }),
            1 => any::<bool>().prop_map(|odd| Op::PruneMembers { odd }),
            2 => Just(Op::MarkAll),
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
        proxies: FastMap<(u32, Handle), Loc>,
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
                dir.relocate(old, new);
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
                dir.relocate(old, new);
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
                missed,
            } if up(node) => {
                if let Some((loc, _)) = pick_live(dir, node, pick) {
                    let version = dir
                        .version(loc)
                        .expect("live")
                        .saturating_sub(u64::from(stale));
                    let state = if flat {
                        vec![]
                    } else {
                        vec![WireValue::Array(vec![])]
                    };
                    dir.shipped(loc, version, &state);
                    if missed {
                        dir.undelivered(loc, vec![0]);
                    }
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
            Op::MarkAll => {
                let _ = dir.mark_all();
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
            prop_assert_eq!(st.export_ids.len(), st.exports.len());
            for (oid, h) in &st.exports {
                prop_assert_eq!(st.export_ids.get(h), Some(oid), "{}#{} reverse map", n, oid);
                // The mover rewrote it into a proxy, and the move vacated it.
                prop_assert!(!w.proxies.contains_key(&(n, *h)), "{n}#{oid} live, a proxy");
                // One home per object: a live export resolves to itself,
                // and reads addressed at it may be cached.
                let loc = (n, *oid);
                prop_assert_eq!(dir.resolve(loc), loc, "{}#{} live, moved", n, oid);
                prop_assert!(dir.version(loc).is_some(), "{n}#{oid} live, no version");
            }
            for (oid, record) in &st.replicated {
                prop_assert!(
                    st.exports.contains_key(oid),
                    "{n}#{oid} replicated, not live"
                );
                let deep = record.as_ref().and_then(|s| s.deep.as_ref());
                prop_assert!(
                    deep.is_none_or(|state| !state.is_empty()),
                    "{n}#{oid} flat state kept"
                );
            }
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
                dir.nodes[n as usize].replicated.contains_key(&oid),
                "{n}#{oid} dirty, not replicated"
            );
        }
        for &(n, oid) in &w.moved_from {
            let loc = (n, oid);
            prop_assert_eq!(dir.version(loc), None, "{:?} vacated, versioned", loc);
            let replicated = dir.nodes[n as usize].replicated.contains_key(&oid);
            prop_assert!(!replicated, "{:?} vacated, replicated", loc);
        }
        // One identity per object: every location it had shares it, and
        // resolving is idempotent.
        for (&loc, &identity) in &dir.identities {
            prop_assert_eq!(dir.identity(identity), identity, "{:?}", loc);
            prop_assert_eq!(dir.resolve(loc), dir.resolve(identity), "{:?}", loc);
        }
        for &loc in dir.identities.keys().chain(dir.homes.keys()) {
            let home = dir.resolve(loc);
            prop_assert_eq!(dir.resolve(home), home, "{:?} resolves twice", loc);
            prop_assert_eq!(dir.identity(home), dir.identity(loc), "{:?}", loc);
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
