//! One cheap hasher for every table an exchange touches: [`FastMap`] /
//! [`FastSet`]. Fx-style (a rotate, an xor and a multiply per word); `finish`
//! rotates the product's well-mixed high bits into the low bits `hashbrown`
//! indexes by; the seed is drawn once per process from [`RandomState`], so
//! iteration order differs between runs and a run-twice diff sees a leak.

use std::collections::{hash_map::RandomState, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` on [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;
/// A `HashSet` on [`FastState`].
pub type FastSet<K> = HashSet<K, FastState>;

/// The multiplier of `rustc-hash`'s Fx hasher.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds [`FastHasher`]s that start from the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct FastState(u64);

impl Default for FastState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl FastState {
    pub(crate) const fn with_seed(seed: u64) -> Self {
        FastState(seed)
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.0)
    }
}

/// The hasher [`FastState`] builds.
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    /// Bits 38..54 of the product, well mixed by the multiply, become the
    /// low bits: keys sharing low zero bits (multiples of 64, `oid << 12`)
    /// would otherwise share buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn equal_keys_hash_equal_across_maps() {
        let (a, b) = (FastState::default(), FastState::default());
        for key in [(0u32, 0u64), (3, 17), (u32::MAX, u64::MAX)] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one("m@12"), b.hash_one(String::from("m@12")));
        let mut m: FastMap<(u32, u64), u32> = FastMap::default();
        m.insert((1, 2), 7);
        let n: FastMap<(u32, u64), u32> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(n.get(&(1, 2)), Some(&7));
    }

    #[test]
    fn two_seeds_give_two_iteration_orders() {
        let order = |seed| {
            let mut set = FastSet::with_hasher(FastState::with_seed(seed));
            set.extend(0u64..1000);
            set.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }

    /// The fullest of 2^16 buckets, indexed by a hash's low 16 bits as
    /// `hashbrown` does, after inserting `keys`.
    fn fullest_bucket<T: Hash>(seed: u64, keys: impl Iterator<Item = T>) -> u32 {
        let state = FastState::with_seed(seed);
        let mut buckets = vec![0u32; 1 << 16];
        for key in keys {
            buckets[(state.hash_one(key) & 0xffff) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn runtime_key_shapes_spread_over_the_low_bits() {
        const N: u64 = 100_000;
        for seed in [0, 1, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let shapes = [
                ("sequential oids", fullest_bucket(seed, 1..=N)),
                (
                    "locations",
                    fullest_bucket(seed, (0..N).map(|i| ((i % 6) as u32, i / 6 + 1))),
                ),
                (
                    "(caller, msg id)",
                    fullest_bucket(seed, (0..N).map(|i| ((i % 7) as u32, i + 1))),
                ),
                // `(node, export id, SigId)`: a `SigId` hashes as its `u32`.
                (
                    "property keys",
                    fullest_bucket(
                        seed,
                        (0..N).map(|i| ((i % 6) as u32, i / 24 + 1, (i / 6 % 4) as u32)),
                    ),
                ),
                (
                    "multiples of 64",
                    fullest_bucket(seed, (0..N).map(|i| i * 64)),
                ),
                (
                    "(node, oid << 12)",
                    fullest_bucket(seed, (0..N).map(|i| ((i % 6) as u32, (i / 6) << 12))),
                ),
            ];
            for (shape, fullest) in shapes {
                assert!(
                    fullest <= 12,
                    "seed {seed:#x}, {shape}: {fullest} keys in one bucket"
                );
            }
        }
    }
}
