//! Reusable encode buffers, pooled per directed link.
//!
//! Every RPC used to allocate a fresh `Vec<u8>` per frame, encode into it,
//! and drop it after transmission. On the hot path (E13) that allocation
//! dominates the encode cost for small frames. The pool keeps the vectors
//! of finished frames — cleared, capacity intact — in a slot per directed
//! link (`free[from][to]`, grown on demand: node ids are dense), so steady
//! traffic on a link settles into a few right-sized buffers and stops
//! allocating altogether.
//!
//! A *stack* of free buffers per link (not a single slot) is required:
//! a re-entrant RPC (callee calls back into the caller mid-request) has
//! several frames for the same link in flight on the Rust stack at once.

use crate::NodeId;

/// How many free buffers a single directed link retains. Deeper nesting
/// than this simply falls back to allocation; the cap keeps a burst of
/// deeply-nested calls from pinning memory forever.
const PER_LINK_CAP: usize = 8;

/// Links between nodes with ids below this are pooled; a buffer of any
/// other link (a frame to a node the deployment lacks) is dropped.
const MAX_NODES: usize = 1 << 10;

/// Pool of reusable encode buffers, one stack per directed link.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<Vec<Vec<u8>>>>,
    reuses: u64,
    allocs: u64,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer for the directed link `(from, to)`, reusing a
    /// previously returned one when available.
    pub fn checkout(&mut self, from: NodeId, to: NodeId) -> Vec<u8> {
        let (from, to) = (from.0 as usize, to.0 as usize);
        let stack = self.free.get_mut(from).and_then(|row| row.get_mut(to));
        match stack.and_then(Vec::pop) {
            Some(buf) => {
                self.reuses += 1;
                debug_assert!(buf.is_empty());
                buf
            }
            None => {
                self.allocs += 1;
                Vec::with_capacity(64)
            }
        }
    }

    /// Return a buffer to the pool of `(from, to)`. Its contents are
    /// cleared (capacity kept); buffers beyond the per-link cap are
    /// dropped.
    pub fn put_back(&mut self, from: NodeId, to: NodeId, mut buf: Vec<u8>) {
        let (from, to) = (from.0 as usize, to.0 as usize);
        if from.max(to) >= MAX_NODES {
            return;
        }
        buf.clear();
        if self.free.len() <= from {
            self.free.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.free[from];
        if row.len() <= to {
            row.resize_with(to + 1, Vec::new);
        }
        let stack = &mut row[to];
        if stack.len() < PER_LINK_CAP {
            stack.push(buf);
        }
    }

    /// Checkouts served from the pool (no allocation).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Checkouts that had to allocate a fresh buffer.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_checkout_reuses_the_returned_buffer() {
        let mut pool = BufPool::new();
        let (a, b) = (NodeId(0), NodeId(1));
        let mut buf = pool.checkout(a, b);
        buf.extend_from_slice(&[1, 2, 3]);
        buf.reserve(500);
        let cap = buf.capacity();
        pool.put_back(a, b, buf);
        let again = pool.checkout(a, b);
        assert!(again.is_empty(), "pooled buffer must come back cleared");
        assert_eq!(again.capacity(), cap, "capacity survives the pool");
        assert_eq!((pool.reuses(), pool.allocs()), (1, 1));
    }

    #[test]
    fn links_do_not_share_buffers() {
        let mut pool = BufPool::new();
        pool.put_back(NodeId(0), NodeId(1), Vec::new());
        let _ = pool.checkout(NodeId(1), NodeId(0));
        assert_eq!(pool.reuses(), 0, "reverse direction is a different link");
        let _ = pool.checkout(NodeId(0), NodeId(1));
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers_and_cap_holds() {
        let mut pool = BufPool::new();
        let (a, b) = (NodeId(2), NodeId(3));
        // Re-entrant RPC: several frames on the same link live at once.
        let bufs: Vec<_> = (0..PER_LINK_CAP + 4).map(|_| pool.checkout(a, b)).collect();
        assert_eq!(pool.allocs(), (PER_LINK_CAP + 4) as u64);
        for buf in bufs {
            pool.put_back(a, b, buf);
        }
        // Only PER_LINK_CAP survive; the rest were dropped.
        for _ in 0..PER_LINK_CAP + 4 {
            let _ = pool.checkout(a, b);
        }
        assert_eq!(pool.reuses(), PER_LINK_CAP as u64);
    }

    #[test]
    fn links_first_seen_out_of_order_keep_their_own_stacks() {
        let mut pool = BufPool::new();
        let (late, early) = ((NodeId(5), NodeId(0)), (NodeId(0), NodeId(1)));
        for _ in 0..PER_LINK_CAP + 2 {
            pool.put_back(late.0, late.1, vec![5]);
        }
        for _ in 0..PER_LINK_CAP + 1 {
            pool.put_back(early.0, early.1, Vec::with_capacity(7));
        }
        let _ = pool.checkout(NodeId(1), NodeId(0));
        let _ = pool.checkout(NodeId(5), NodeId(1));
        assert_eq!(
            (pool.reuses(), pool.allocs()),
            (0, 2),
            "unused links stay empty"
        );
        for _ in 0..PER_LINK_CAP {
            assert_eq!(pool.checkout(early.0, early.1).capacity(), 7);
        }
        for _ in 0..PER_LINK_CAP {
            assert_eq!(pool.checkout(late.0, late.1).capacity(), 1);
        }
        assert_eq!(
            pool.reuses(),
            2 * PER_LINK_CAP as u64,
            "the cap holds per link"
        );
        let _ = pool.checkout(early.0, early.1);
        let _ = pool.checkout(late.0, late.1);
        assert_eq!(pool.allocs(), 4, "each link kept exactly PER_LINK_CAP");
    }

    #[test]
    fn a_link_to_a_stray_node_id_is_not_pooled() {
        let mut pool = BufPool::new();
        let (a, stray) = (NodeId(0), NodeId(u32::MAX));
        pool.put_back(a, stray, Vec::new());
        pool.put_back(stray, a, Vec::new());
        let _ = pool.checkout(a, stray);
        assert_eq!((pool.reuses(), pool.allocs()), (0, 1));
        assert!(pool.free.len() <= 1, "no slot row grown for the stray id");
    }
}
