//! The flat hash-map candidate counter, compiled for tests only: the
//! reference the counter suites hold the hash tree to.

use super::CountOutcome;
use gar_types::{FxHashMap, ItemId, Itemset};

/// Candidate counter backed by one Fx hash map from itemset to a dense
/// count index. Counting a transaction enumerates its k-subsets and probes
/// each — the paper's "generate k-itemsets from t' and search the hash
/// table". Its counts and hits are the hash tree's; its `work` is the
/// number of subsets enumerated, `C(|t|, k)` per transaction and set.
pub struct HashMapCounter {
    k: usize,
    index: FxHashMap<Box<[ItemId]>, u32>,
    counts: Vec<u64>,
    /// Non-empty candidate sets: a union counter enumerates once and
    /// charges each subset once per set, as one counter per set would.
    sets: u64,
    /// Scratch for subset enumeration (reused across calls to avoid a
    /// per-subset allocation on the hot path).
    scratch: Vec<ItemId>,
}

impl HashMapCounter {
    /// Builds the counter over `candidates` (each of size `k`).
    pub fn new(k: usize, candidates: &[Itemset]) -> HashMapCounter {
        HashMapCounter::union(k, &[candidates])
    }

    /// Builds one counter over the disjoint candidate sets `sets`: counts
    /// are laid out set after set, and `count_transaction` meters the sum
    /// of one counter per set.
    pub fn union(k: usize, sets: &[&[Itemset]]) -> HashMapCounter {
        let candidates = || sets.iter().flat_map(|s| s.iter());
        let len = candidates().count();
        let mut index = FxHashMap::default();
        index.reserve(len);
        for (i, c) in candidates().enumerate() {
            debug_assert_eq!(c.len(), k, "candidate {c:?} is not a {k}-itemset");
            let prev = index.insert(c.items().to_vec().into_boxed_slice(), i as u32);
            debug_assert!(prev.is_none(), "duplicate candidate {c:?}");
        }
        HashMapCounter {
            k,
            index,
            counts: vec![0; len],
            sets: sets.iter().filter(|s| !s.is_empty()).count() as u64,
            scratch: Vec::with_capacity(k),
        }
    }

    /// Recursive k-subset enumeration with probing. `depth` items are
    /// already chosen in `scratch`.
    fn enumerate(&mut self, t: &[ItemId], start: usize, out: &mut CountOutcome) {
        let chosen = self.scratch.len();
        let need = self.k - chosen;
        // Not enough items left to finish a subset.
        if t.len() - start < need {
            return;
        }
        if need == 0 {
            out.work += 1;
            if let Some(&idx) = self.index.get(self.scratch.as_slice()) {
                self.counts[idx as usize] += 1;
                out.hits += 1;
            }
            return;
        }
        for i in start..t.len() {
            self.scratch.push(t[i]);
            self.enumerate(t, i + 1, out);
            self.scratch.pop();
        }
    }

    /// Probes one sorted k-itemset, as `HashTreeCounter::probe` does.
    pub fn probe(&mut self, itemset: &[ItemId]) -> CountOutcome {
        debug_assert_eq!(itemset.len(), self.k);
        let mut out = CountOutcome { work: 1, hits: 0 };
        if let Some(&idx) = self.index.get(itemset) {
            self.counts[idx as usize] += 1;
            out.hits = 1;
        }
        out
    }

    /// The fold of [`probe`](Self::probe) over the k-itemsets of `flat`.
    pub fn probe_many(&mut self, flat: &[ItemId]) -> CountOutcome {
        let mut out = CountOutcome::default();
        for itemset in flat.chunks_exact(self.k) {
            out.absorb(self.probe(itemset));
        }
        out
    }

    /// Counts every candidate contained in the sorted, de-duplicated
    /// transaction `t`.
    pub fn count_transaction(&mut self, t: &[ItemId]) -> CountOutcome {
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]), "unsorted txn");
        let mut out = CountOutcome::default();
        if t.len() < self.k || self.counts.is_empty() {
            return out;
        }
        self.scratch.clear();
        self.enumerate(t, 0, &mut out);
        out.work *= self.sets;
        out
    }

    /// The counts, in candidate insertion order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn pair_path_enumerates_all_pairs() {
        let mut c = HashMapCounter::new(2, &[iset![1, 3]]);
        let out = c.count_transaction(&ids(&[1, 2, 3, 4]));
        assert_eq!(out.work, 6); // C(4,2)
        assert_eq!(out.hits, 1);
    }

    #[test]
    fn k1_counting_works() {
        let mut c = HashMapCounter::new(1, &[iset![2], iset![5]]);
        c.count_transaction(&ids(&[1, 2, 3]));
        c.count_transaction(&ids(&[5]));
        assert_eq!(c.counts(), &[1, 1]);
    }

    #[test]
    fn k4_recursive_path() {
        let cands = vec![iset![1, 2, 3, 4], iset![2, 3, 4, 5]];
        let mut c = HashMapCounter::new(4, &cands);
        let out = c.count_transaction(&ids(&[1, 2, 3, 4, 5]));
        assert_eq!(out.hits, 2);
        assert_eq!(out.work, 5); // C(5,4)
        assert_eq!(c.counts(), &[1, 1]);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let mut c = HashMapCounter::new(2, &[]);
        let out = c.count_transaction(&ids(&[1, 2, 3]));
        assert_eq!(out, CountOutcome::default());
    }
}
