//! Batched remote invocation: per-`(caller, owner)` outcall queues of
//! deferred operations, and the flush that ships each queue as one
//! exchange at a synchronization point.

use crate::cluster::{ClassRow, Shared};
use crate::failover::locate_home;
use crate::obs::Met;
use crate::profile::Section;
use crate::rpc::{rethrow, rpc};
use crate::stats::bump;
use rafda_net::NodeId;
use rafda_vm::{NetFailureKind, VmError};
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
/// top-level exchange, fetch/migrate/pull, an adaptation tick,
/// crash/restart, a clock read, and [`Cluster::flush`].
///
/// Serving a batch can enqueue follow-up operations (replica shipments of
/// the applied calls, ops re-deferred through a forwarding proxy), so the
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
            let outcome = rpc(shared, from, to, row, &batch);
            // The owner died between the deferral and this flush (delivery
            // refused, nothing applied). The accepted calls must not be
            // lost: re-home each onto the object's promoted backup — the
            // same failover a synchronous call would take — and re-defer
            // it there; this drain loop ships the new queues. Replica
            // shipments for the dead node are dropped: restart clears the
            // synced-version marks, so the owner re-seeds it at its next
            // sync anyway.
            let node_crashed = matches!(
                &outcome,
                Err(e) if matches!(
                    e.net_failure().map(|nf| nf.kind),
                    Some(NetFailureKind::NodeCrashed(_))
                )
            );
            if node_crashed {
                let Request::Batch(ops) = batch else {
                    unreachable!("built above");
                };
                for op in ops {
                    let Request::Call { object, .. } = &op else {
                        continue;
                    };
                    match locate_home(shared, from, row, (to.0, *object)) {
                        Some((nn, noid)) => {
                            let Request::Call { method, args, .. } = op else {
                                unreachable!("matched above");
                            };
                            let call = Request::Call {
                                object: noid,
                                method,
                                args,
                            };
                            enqueue_outcall(shared, from, NodeId(nn), row, call);
                            bump(shared, from.0, Met::Failovers);
                        }
                        // Nobody can take over (unreplicated, or every
                        // backup is gone): the deferred call is lost for
                        // real — surface that at this synchronization
                        // point like any other flush failure.
                        None => {
                            if first_err.is_none() {
                                first_err =
                                    outcome.as_ref().err().cloned().or_else(|| {
                                        Some(VmError::Native("deferred call lost".into()))
                                    });
                            }
                        }
                    }
                }
            } else if first_err.is_none() {
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
