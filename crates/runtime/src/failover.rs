//! Crash-stop fault handling: crashing and restarting nodes, and the
//! client-side re-homing of a call whose owner died — follow the
//! recorded moves, else ask the owner's backups to promote.

use crate::batch::flush_outqueues;
use crate::cluster::{lookup_export, point_proxy_at, ClassRow, Cluster, NodeState, Shared};
use crate::detector::suspects;
use crate::obs::Met;
use crate::profile::Section;
use crate::replicate::{charge_marks, replica_targets};
use crate::rpc::{read_reply, rpc};
use crate::serve::is_unknown_object;
use crate::stats::bump;
use rafda_classmodel::ClassId;
use rafda_net::{NetError, NodeId};
use rafda_telemetry::SpanOutcome;
use rafda_vm::{Handle, VmError};
use rafda_wire::{Reply, Request, WireValue};

impl Cluster {
    /// Crash-stop `node`: every message to or from it fails with
    /// [`NodeCrashed`](rafda_net::NetError::NodeCrashed) until
    /// [`Cluster::restart`]. The node's memory is untouched while down
    /// (nobody can observe it), but a restart wipes it — crash-stop nodes
    /// lose volatile state.
    ///
    /// Calls in flight are unaffected: the runtime is synchronous, so the
    /// crash takes effect between top-level operations, never mid-exchange.
    pub fn crash(&self, node: NodeId) {
        let _p = self.shared.prof.section(Section::Placement);
        // A crash is a synchronization point: operations already deferred
        // are flushed while every party is still up, so "the owner
        // acknowledged it" keeps meaning "a replica has it". Ops deferred
        // *after* this point fail at their own flush, like any other call
        // to a crashed node.
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.crash(node));
    }

    /// Restart a crashed node with empty volatile state, as a crash-stop
    /// process would: exports, imports, singletons, caches and backup
    /// replica state are all gone. Only the export-id counter survives, so
    /// ids handed out before the crash are never reused — a stale proxy
    /// addressing a pre-crash export gets a typed fault, not a different
    /// object. The node rejoins as a replication target at the owner's next
    /// sync.
    pub fn restart(&self, node: NodeId) {
        let _p = self.shared.prof.section(Section::Placement);
        // Synchronization point, as for [`Cluster::crash`].
        let _ = flush_outqueues(&self.shared);
        self.shared.net.fault_plan(|f| f.recover(node));
        self.shared.nodes.borrow_mut()[node.0 as usize] = NodeState::default();
        let marks = self.shared.directory.borrow_mut().restart(node.0);
        for (n, marked) in marks.into_iter().enumerate() {
            charge_marks(&self.shared, n as u32, marked);
        }
    }
}

/// Whether an exchange's outcome says the owner of the addressed object is
/// gone: it is crashed (delivery refused, nothing applied), or it restarted
/// with amnesia and answered that it does not know the export. Either way
/// the caller re-homes the call onto a promoted backup — a proxy call its
/// whole request, a batch flush each deferred call whose own sub-reply says
/// so.
pub(crate) fn owner_gone(outcome: Result<&Reply, &VmError>) -> bool {
    match outcome {
        Ok(reply) => is_unknown_object(reply),
        Err(VmError::Unreachable(failure)) => matches!(failure.kind, NetError::NodeCrashed(_)),
        Err(_) => false,
    }
}

/// Client-side re-homing after the owner of `(target, oid)` turned out to
/// be crashed, or restarted with amnesia. Goes to the recorded live home
/// first; only if that is a dead (or amnesiac) location
/// does it ask that location's replicas — lowest node id first — to promote
/// their backup copy. On success the proxy `recv` is rewritten in place to
/// the new home, which is also returned; `None` means no live replica could
/// take over and the original failure stands.
///
/// The whole re-homing is wrapped in a `rpc.failover` span chained via
/// `retry_of` to the exchange that failed, so traces show the causal link
/// from the dead owner to the promoted copy.
pub(crate) fn failover(
    shared: &Shared,
    node: NodeId,
    recv: Handle,
    proxy_class: ClassId,
    row: &ClassRow,
    (target, oid): (u32, u64),
) -> Option<(u32, u64)> {
    let start = shared.net.now().as_ns();
    let vocab = &shared.span_vocab;
    let span = {
        let mut spans = shared.spans.borrow_mut();
        let h = spans.start_span("rpc.failover", node.0, start);
        let old_home = spans.intern(&format!("{target}#{oid}"));
        spans.set_attrs(
            h,
            &[
                vocab.class.sym(row.name_sym),
                vocab.protocol.sym(row.protocol_sym),
                vocab.from.u64(node.0.into()),
                vocab.old_home.sym(old_home),
            ],
        );
        let prior = shared.last_exchange_span.get();
        if prior != 0 {
            spans.set_retry_of(h, prior);
        }
        h
    };
    let home = locate_home(shared, node, row, (target, oid));
    let end = shared.net.now().as_ns();
    {
        let mut spans = shared.spans.borrow_mut();
        match home {
            Some((nn, noid)) => {
                let new_home = spans.intern(&format!("{nn}#{noid}"));
                spans.set_attrs(span, &[vocab.new_home.sym(new_home)]);
                spans.end_span(span, end, SpanOutcome::Ok);
            }
            None => spans.end_span(span, end, SpanOutcome::NetFailure),
        }
    }
    let (nn, noid) = home?;
    // When this node itself promoted the object, the backup was materialised
    // straight into `recv` (the import rewritten in place, as with Install):
    // `recv` already IS the object, and re-proxying it would create a proxy
    // that points at itself.
    if !(nn == node.0 && lookup_export(shared, node, noid) == Some(recv)) {
        point_proxy_at(shared, node, recv, proxy_class, (nn, noid));
    }
    bump(shared, node.0, Met::Failovers);
    Some((nn, noid))
}

/// Find the live home of `(target, oid)`: the recorded one, else ask the
/// resolved location's replicas to promote their backup, lowest
/// node id first. Returns `None` when nobody can take over — the class is
/// unreplicated, or every backup is down, lost its copy or is behind.
pub(crate) fn locate_home(
    shared: &Shared,
    node: NodeId,
    row: &ClassRow,
    (target, oid): (u32, u64),
) -> Option<(u32, u64)> {
    let suspected = |n: u32| suspects(shared, node, NodeId(n));
    let (tn, toid) = shared.directory.borrow().resolve((target, oid));
    // Only route to the recorded home while the promoted copy is actually
    // there: a home node that crash-restarted has a wiped registry, and
    // sending callers to it would loop through "unknown object" faults
    // instead of promoting one of the copy's own backups below.
    if (tn, toid) != (target, oid)
        && !suspected(tn)
        && lookup_export(shared, NodeId(tn), toid).is_some()
    {
        return Some((tn, toid));
    }
    for c in replica_targets(row.rule.replicas, tn, shared.vms.len() as u32) {
        // The client asks the failure detector: a suspected candidate is
        // skipped instead of timed out against.
        if suspected(c) {
            continue;
        }
        let req = Request::Promote {
            node: tn,
            object: toid,
        };
        let promoted = rpc(shared, node, NodeId(c), row, &req, None)
            .and_then(|(reply, _)| read_reply(shared, node, reply));
        match promoted {
            Ok(WireValue::Remote {
                node: nn,
                object: noid,
                ..
            }) => return Some((nn, noid)),
            // A fault (the backup lost its copy, or it is behind the
            // recorded version) or a network failure: try the next one.
            _ => continue,
        }
    }
    None
}
