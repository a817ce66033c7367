//! A map that holds at most `CAP` entries and forgets the oldest first.

use rafda_telemetry::FastMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// A bounded map with first-in-first-out eviction: inserting a new key into
/// a full map drops the key that was inserted longest ago. Overwriting a
/// live key keeps its place in the queue.
#[derive(Debug)]
pub(crate) struct FifoMap<K, V, const CAP: usize> {
    map: FastMap<K, V>,
    /// The map's keys, oldest first.
    order: VecDeque<K>,
}

impl<K, V, const CAP: usize> Default for FifoMap<K, V, CAP> {
    fn default() -> Self {
        FifoMap {
            map: FastMap::default(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V, const CAP: usize> FifoMap<K, V, CAP> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            if self.order.len() > CAP {
                let oldest = self.order.pop_front().expect("longer than CAP");
                self.map.remove(&oldest);
            }
        }
    }

    /// Keep only the entries `keep` accepts; the survivors stay in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let before = self.map.len();
        self.map.retain(|k, v| keep(k, v));
        if self.map.len() < before {
            self.order.retain(|k| self.map.contains_key(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<const CAP: usize>(m: &FifoMap<u32, &str, CAP>) -> Vec<u32> {
        assert_eq!(m.map.len(), m.order.len(), "map and order disagree");
        assert!(m.order.iter().all(|k| m.map.contains_key(k)));
        m.order.iter().copied().collect()
    }

    #[test]
    fn a_full_map_evicts_in_insertion_order() {
        let mut m = FifoMap::<u32, &str, 3>::default();
        for k in 1..=5 {
            m.insert(k, "v");
            assert!(m.map.len() <= 3);
        }
        assert_eq!(keys(&m), [3, 4, 5]);
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&3), Some(&"v"));
    }

    #[test]
    fn overwriting_a_live_key_keeps_its_slot() {
        let mut m = FifoMap::<u32, &str, 3>::default();
        for k in 1..=3 {
            m.insert(k, "old");
        }
        m.insert(1, "new");
        assert_eq!(keys(&m), [1, 2, 3], "no second slot, no move to the back");
        assert_eq!(m.get(&1), Some(&"new"));
        m.insert(4, "v");
        assert_eq!(keys(&m), [2, 3, 4], "key 1 was still the oldest");
    }

    #[test]
    fn retain_leaves_map_and_order_in_agreement() {
        let mut m = FifoMap::<u32, &str, 4>::default();
        for k in 1..=4 {
            m.insert(k, if k % 2 == 0 { "even" } else { "odd" });
        }
        m.retain(|_, v| *v == "odd");
        assert_eq!(keys(&m), [1, 3]);
        assert_eq!(m.map.len(), 2);
        // The freed room is usable and the survivors are still the oldest.
        for k in 5..=7 {
            m.insert(k, "v");
        }
        assert_eq!(keys(&m), [3, 5, 6, 7]);
    }
}
