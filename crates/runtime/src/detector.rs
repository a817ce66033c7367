//! The failure detector: which peers a node has given up on (Chandra and
//! Toueg, JACM 1996). Every runtime decision that skips a peer asks here and
//! names the node asking. A node asking about itself asks whether it is up,
//! which it always knows. The one body reads the simulator's fault plan, so
//! it is perfect and blind to the asker; the watchdog and the stats tables
//! read the plan too, but decide nothing.

use crate::cluster::Shared;
use rafda_net::NodeId;

/// Whether `asker` treats `peer` as down and skips it.
pub(crate) fn suspects(shared: &Shared, _asker: NodeId, peer: NodeId) -> bool {
    shared.net.fault_plan(|f| f.is_crashed(peer))
}

/// Whether `asker` finds its link to `peer` cut and sends nothing over it.
pub(crate) fn cut(shared: &Shared, asker: NodeId, peer: NodeId) -> bool {
    shared.net.fault_plan(|f| f.is_partitioned(asker, peer))
}
