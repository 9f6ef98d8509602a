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

use crate::item::ItemId;
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
/// by `x`, so [`SubsetWalk`] carries each prefix's state and pays one
/// multiply per subset instead of re-hashing it.
#[inline]
fn fx_mix(state: u64, word: u64) -> u64 {
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

/// The one k-subset walk of the workspace, and its reusable scratch:
/// the subset's positions, the subset, and per `i` the placement hash of
/// its first `i` members. HPGM's send loop walks every transaction with
/// one scratch.
#[derive(Debug, Default)]
pub struct SubsetWalk {
    at: Vec<usize>,
    subset: Vec<ItemId>,
    prefix: Vec<u64>,
}

impl SubsetWalk {
    /// Calls `f` with every `k`-subset of the ascending `items`, in
    /// lexicographic order, and its placement hash ([`fx_hash_u32s`] of
    /// its codes); returns `f`'s first `Err`. An odometer: the last
    /// member runs under a fixed prefix whose hash is carried, so a
    /// subset costs one [`fx_mix`], and a carry moves one earlier member
    /// right and those after it just behind. Nothing recurses, so a
    /// subset as long as `items` costs no stack.
    #[inline]
    pub fn walk<E>(
        &mut self,
        items: &[ItemId],
        k: usize,
        mut f: impl FnMut(&[ItemId], u64) -> Result<(), E>,
    ) -> Result<(), E> {
        let (n, Self { at, subset, prefix }) = (items.len(), self);
        let Some(last) = k.checked_sub(1) else {
            return f(&[], fx_hash_u32s([]));
        };
        if k > n {
            return Ok(());
        }
        // HPGM's pass 2 walks pairs, its hottest loop: a pair of known
        // length lets the callback's copies unroll, and inlining the walk
        // into its caller is what lets them (together, measured on
        // `hpgm-exchange`'s mining CPU; neither helps alone).
        if k == 2 {
            for (i, &a) in items.iter().enumerate() {
                let prefix = fx_mix(fx_hash_u32s([]), a.raw().into());
                for &b in &items[i + 1..] {
                    f(&[a, b], fx_mix(prefix, b.raw().into()))?;
                }
            }
            return Ok(());
        }
        at.clear();
        subset.clear();
        prefix.clear();
        prefix.push(fx_hash_u32s([]));
        for (i, &it) in items[..k].iter().enumerate() {
            at.push(i);
            subset.push(it);
            prefix.push(fx_mix(prefix[i], it.raw().into()));
        }
        let mut from = last;
        loop {
            let hash = prefix[last];
            for &it in &items[from..] {
                subset[last] = it;
                f(subset, fx_mix(hash, it.raw().into()))?;
            }
            let Some(i) = (0..last).rev().find(|&i| at[i] < n - k + i) else {
                return Ok(());
            };
            let mut next = at[i];
            for j in i..last {
                next += 1;
                at[j] = next;
                subset[j] = items[next];
                prefix[j + 1] = fx_mix(prefix[j], items[next].raw().into());
            }
            from = next + 1;
        }
    }
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

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn subsets(t: &[ItemId], k: usize, walk: &mut SubsetWalk) -> Vec<Vec<ItemId>> {
        let mut got = Vec::new();
        walk.walk(t, k, |s, _| {
            got.push(s.to_vec());
            Ok::<(), ()>(())
        })
        .unwrap();
        got
    }

    #[test]
    fn k_subsets_pairs_and_triples() {
        let t = ids(&[1, 2, 3, 4]);
        let mut walk = SubsetWalk::default();
        let got = subsets(&t, 2, &mut walk);
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], ids(&[1, 2]));
        assert_eq!(got[5], ids(&[3, 4]));

        let got = subsets(&t, 3, &mut walk);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn k_subsets_of_short_input_is_empty() {
        let mut walk = SubsetWalk::default();
        assert!(subsets(&ids(&[1]), 2, &mut walk).is_empty());
        // The one empty subset, even of nothing.
        assert_eq!(subsets(&[], 0, &mut walk), [Vec::<ItemId>::new()]);
    }

    #[test]
    fn a_walk_stops_at_the_first_error() {
        let mut seen = 0;
        let out = SubsetWalk::default().walk(&ids(&[1, 2, 3, 4]), 2, |s, _| {
            seen += 1;
            if s == ids(&[1, 4]) {
                Err(seen)
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err(3));
        assert_eq!(seen, 3);
    }

    #[test]
    fn a_subset_as_long_as_a_long_slice_is_walked() {
        let t: Vec<ItemId> = (0..1 << 16).map(ItemId).collect();
        let mut walk = SubsetWalk::default();
        let mut got = Vec::new();
        walk.walk(&t, t.len(), |s, hash| {
            got.push((s.len(), hash));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(got, [(t.len(), fx_hash_u32s(0..1 << 16))]);
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // HPGM routes by the carried hash, so it must be the subset's own
        // placement hash — for every subset, in lexicographic order, with
        // codes small and near `u32::MAX`.
        #[test]
        fn carried_hash_is_the_subset_hash(
            k in 1usize..5,
            small in proptest::collection::btree_set(0u32..64, 0..10),
            large in proptest::collection::btree_set(0u32..4, 0..3)
        ) {
            let t: Vec<ItemId> = small
                .into_iter()
                .chain(large.into_iter().rev().map(|d| u32::MAX - d))
                .map(ItemId)
                .collect();
            let mut got = Vec::new();
            SubsetWalk::default()
                .walk(&t, k, |s, hash| {
                    got.push((s.to_vec(), hash));
                    Ok::<(), ()>(())
                })
                .expect("the callback never fails");
            // C(n, k) strictly increasing sorted k-subsets of `t`: all of them.
            let n = t.len();
            let binom = (0..k).fold(1, |c, i| c * n.saturating_sub(i) / (i + 1));
            prop_assert_eq!(got.len(), binom);
            prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "not lexicographic");
            for (s, hash) in &got {
                prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?} unsorted");
                prop_assert!(s.iter().all(|it| t.binary_search(it).is_ok()), "{s:?} not in t");
                prop_assert_eq!(*hash, fx_hash_u32s(s.iter().map(|it| it.raw())));
            }
        }
    }
}
