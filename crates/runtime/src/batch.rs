//! Batched remote invocation: per-`(caller, owner)` outcall queues of
//! deferred operations, and the flush that ships each queue as one
//! exchange at a synchronization point.
//!
//! A deferred call addressed at a location its object has since left is
//! answered `unknown object` in its sub-reply, like one addressed at a dead
//! owner; the flush re-homes it through the recorded moves and re-defers it
//! toward the live home.

use crate::cluster::{ClassRow, Shared};
use crate::failover::{locate_home, owner_gone};
use crate::obs::Met;
use crate::profile::Section;
use crate::rpc::{rethrow, rpc};
use crate::stats::bump;
use rafda_net::NodeId;
use rafda_vm::VmError;
use rafda_wire::{Reply, Request};

/// Operations deferred toward one owner by one caller, flushed as a single
/// [`Request::Batch`] exchange at the next synchronization point.
///
/// The queue is per `(caller, owner)`, but protocol is per *class*: two
/// batched classes with different protocols placed on one owner share the
/// queue, and the whole frame ships under the class (so the protocol) of
/// the **first** operation enqueued. Splitting the queue by protocol would
/// break the per-owner program order batching promises.
#[derive(Debug)]
pub(crate) struct PendingBatch {
    /// [`ClassRow::id`] of the first operation's class.
    pub(crate) row: usize,
    pub(crate) ops: Vec<Request>,
}

/// Defer `op` onto the `(from, to)` outcall queue instead of performing an
/// exchange now.
pub(crate) fn enqueue_outcall(
    shared: &Shared,
    from: NodeId,
    to: NodeId,
    row: &ClassRow,
    op: Request,
) {
    let mut queues = shared.outqueues.borrow_mut();
    let pending = queues
        .entry((from.0, to.0))
        .or_insert_with(|| PendingBatch {
            row: row.id,
            ops: Vec::new(),
        });
    // Replica shipments supersede each other: only the newest state of an
    // export needs to travel, so a queued sync of the same object is
    // replaced in place (keeping its slot preserves the order of the other
    // queued operations).
    let sync_of = match &op {
        Request::ReplicaSync { object, .. } => Some(*object),
        _ => None,
    };
    if let Some(target_oid) = sync_of {
        if let Some(slot) = pending
            .ops
            .iter_mut()
            .find(|q| matches!(**q, Request::ReplicaSync { object, .. } if object == target_oid))
        {
            *slot = op;
            drop(queues);
            bump(shared, from.0, Met::BatchedOps);
            return;
        }
    }
    pending.ops.push(op);
    drop(queues);
    bump(shared, from.0, Met::BatchedOps);
}

/// Drain every pending outcall queue, shipping each as one
/// [`Request::Batch`] exchange. Called at every synchronization point: any
/// top-level exchange, migrate/pull, an adaptation tick,
/// crash/restart, a clock read, and [`Cluster::flush`].
///
/// Serving a batch can enqueue follow-up operations (replica shipments of
/// the applied calls, ops re-deferred to a moved object's live home), so the
/// drain loops until quiescent; queues go out in sorted key order so runs
/// stay deterministic. After the first failure the remaining queues still
/// drain — their operations must not be silently lost — and the first
/// error is reported.
///
/// With batching off the queues are permanently empty and this returns
/// after one emptiness check, leaving clocks, traces and telemetry
/// byte-identical to a runtime without batching.
pub(crate) fn flush_outqueues(shared: &Shared) -> Result<(), VmError> {
    if shared.in_flush.get() || shared.outqueues.borrow().is_empty() {
        return Ok(());
    }
    let _s = shared.prof.section(Section::BatchFlush);
    shared.in_flush.set(true);
    let mut first_err = None;
    loop {
        let mut keys: Vec<(u32, u32)> = shared.outqueues.borrow().keys().copied().collect();
        if keys.is_empty() {
            break;
        }
        keys.sort_unstable();
        for key in keys {
            let Some(pending) = shared.outqueues.borrow_mut().remove(&key) else {
                continue;
            };
            bump(shared, key.0, Met::Flushes);
            let (from, to) = (NodeId(key.0), NodeId(key.1));
            let row = &shared.rows[pending.row];
            let batch = Request::Batch(pending.ops);
            let outcome = rpc(shared, from, to, row, &batch, None);
            let Request::Batch(ops) = batch else {
                unreachable!("built above");
            };
            // The owner died, restarted with amnesia, or the object moved
            // away between the deferral and this flush: the whole frame was
            // refused, or a deferred call's own sub-reply says its export is
            // unknown (nothing applied either way). The accepted calls must
            // not be lost: re-home each onto the object's live home or
            // promoted backup — the same failover a synchronous call would
            // take — and re-defer it there; this drain loop ships the new
            // queues. Replica
            // shipments for a dead node are dropped: restart clears the
            // synced-version marks, so the owner re-seeds it at its next
            // sync anyway.
            let refused = owner_gone(outcome.as_ref().map(|(reply, _)| reply));
            let sub_reply = |i: usize| match &outcome {
                Ok((Reply::Batch(results), _)) => results.get(i).map(|(_, r)| r),
                _ => None,
            };
            for (i, op) in ops.into_iter().enumerate() {
                if !refused && !sub_reply(i).is_some_and(|r| owner_gone(Ok(r))) {
                    continue;
                }
                let Request::Call {
                    object,
                    method,
                    args,
                } = op
                else {
                    continue;
                };
                match locate_home(shared, from, row, (to.0, object)) {
                    Some((nn, noid)) => {
                        let call = Request::Call {
                            object: noid,
                            method,
                            args,
                        };
                        enqueue_outcall(shared, from, NodeId(nn), row, call);
                        bump(shared, from.0, Met::Failovers);
                    }
                    // Nobody can take over (unreplicated, or every backup
                    // is gone): the deferred call is lost for real —
                    // surface that at this synchronization point like any
                    // other flush failure.
                    None => {
                        first_err.get_or_insert_with(|| match (&outcome, sub_reply(i)) {
                            (Err(e), _) => e.clone(),
                            (_, Some(Reply::Fault(m))) => VmError::Native(m.clone()),
                            _ => VmError::Native("deferred call lost".into()),
                        });
                    }
                }
            }
            if !refused && first_err.is_none() {
                first_err = flush_error(shared, from, outcome);
            }
        }
    }
    shared.in_flush.set(false);
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Surface the outcome of one flushed batch at the synchronization point
/// that triggered it: network failures and faults propagate as-is, and a
/// deferred operation that threw when it finally ran re-materialises its
/// exception on the flushing node.
fn flush_error(
    shared: &Shared,
    from: NodeId,
    outcome: Result<(Reply, u64), VmError>,
) -> Option<VmError> {
    let results = match outcome {
        Err(e) => return Some(e),
        Ok((Reply::Batch(results), _)) => results,
        Ok((Reply::Fault(m), _)) => return Some(VmError::Native(m)),
        Ok(_) => return None,
    };
    for (_, r) in results {
        match r {
            // Re-homed by the flush, or reported as lost there.
            _ if owner_gone(Ok(&r)) => {}
            Reply::Value(_) => {}
            Reply::Exception { class, fields } => {
                return Some(rethrow(shared, from, &class, &fields));
            }
            Reply::Fault(m) => return Some(VmError::Native(m)),
            Reply::Batch(_) => return Some(VmError::Native("nested batch reply".into())),
        }
    }
    None
}
