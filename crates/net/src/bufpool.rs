//! Reusable encode buffers, pooled per directed link.
//!
//! Every RPC used to allocate a fresh `Vec<u8>` per frame, encode into it,
//! and drop it after transmission. On the hot path (E13) that allocation
//! dominates the encode cost for small frames. The pool keeps the vectors
//! of finished frames — cleared, capacity intact — keyed by the directed
//! link they served, so steady-state traffic on a link settles into a
//! small set of right-sized buffers and stops allocating altogether.
//!
//! A *stack* of free buffers per link (not a single slot) is required:
//! a re-entrant RPC (callee calls back into the caller mid-request) has
//! several frames for the same link in flight on the Rust stack at once.

use crate::NodeId;
use std::collections::HashMap;

/// How many free buffers a single directed link retains. Deeper nesting
/// than this simply falls back to allocation; the cap keeps a burst of
/// deeply-nested calls from pinning memory forever.
const PER_LINK_CAP: usize = 8;

/// Pool of reusable encode buffers, keyed by directed link.
#[derive(Debug, Default)]
pub struct BufPool {
    free: HashMap<(NodeId, NodeId), Vec<Vec<u8>>>,
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
        match self.free.get_mut(&(from, to)).and_then(Vec::pop) {
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
        buf.clear();
        let stack = self.free.entry((from, to)).or_default();
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
}
