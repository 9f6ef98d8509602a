//! An FxHash-style hasher for the hot candidate tables.
//!
//! Candidate support counting probes a hash table once per k-itemset per
//! transaction, which dominates the runtime of every algorithm in the paper.
//! The default SipHash 1-3 is collision-resistant but slow for short integer
//! keys; the Fx algorithm (a multiply-and-rotate mix used by rustc) is far
//! faster and adequate here because keys are small, dense item identifiers
//! under our control, not attacker-supplied data.
//!
//! Implemented locally instead of depending on `rustc-hash` to keep the
//! dependency set within the sanctioned list (see DESIGN.md §5).

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx mixing constant (golden-ratio derived, same as rustc's).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hasher state. One `u64` of rolling state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = fx_mix(self.hash, word);
    }
}

/// One Fx step: the state after `word` is written to a hasher in `state`.
/// `fx_mix(fx_hash_u32s(p), x as u64)` is `fx_hash_u32s` of `p` followed
/// by `x`, so a caller enumerating itemsets can carry each prefix's state
/// and pay one multiply per itemset instead of re-hashing it.
#[inline]
pub fn fx_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED)
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash a sequence of `u32` words (an itemset's codes) with the Fx mix —
/// the placement hash of a key: see [`place`].
#[inline]
pub fn fx_hash_u32s(values: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        h.write_u32(v);
    }
    h.finish()
}

/// The one placement rule of the workspace: a key whose placement hash
/// ([`fx_hash_u32s`] of its words) is `hash` lives in slot `hash mod n`
/// (`n = 0` counts as 1). It places an HPGM candidate by its codes, an
/// H-HPGM candidate and an FP-Growth projection by their root codes on
/// the cluster's nodes, and a rule by its antecedent's root key on the
/// serving shards. Callers that carry a key's hash from its prefix pass
/// that hash in.
#[inline]
pub fn place(hash: u64, n: usize) -> usize {
    (hash % n.max(1) as u64) as usize
}

/// The FxHash checksum sealing every persisted blob and wire frame in the
/// workspace (`GCKP`, `GFPC`, `GRUL`, serve frames): detects torn writes
/// and bit rot, not adversaries.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash_u32s([42]), fx_hash_u32s([42]));
        assert_eq!(fx_hash_u32s([1, 2, 3]), fx_hash_u32s([1, 2, 3]));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test — just a sanity check that the mix is not
        // the identity on small integers.
        let h: Vec<u64> = (0..64).map(|v| fx_hash_u32s([v])).collect();
        let distinct: std::collections::HashSet<_> = h.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn order_sensitive_for_slices() {
        assert_ne!(fx_hash_u32s([1, 2, 3]), fx_hash_u32s([3, 2, 1]));
    }

    #[test]
    fn byte_writes_match_chunked_path() {
        // write() must consume trailing bytes; two different-length inputs
        // sharing a prefix must hash differently.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hashmap_round_trip() {
        let mut m: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1], u64::from(i));
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&vec![i, i + 1]), Some(&u64::from(i)));
        }
        assert_eq!(m.len(), 1000);
    }
}
