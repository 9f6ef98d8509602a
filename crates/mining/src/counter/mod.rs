//! Candidate support counters.
//!
//! Support counting is the hot loop of every algorithm in the paper: for
//! each (extended) transaction, find which candidates it contains and
//! increment their `sup_cou`. Two interchangeable structures:
//!
//! * [`HashMapCounter`] — a flat Fx hash map over the candidates; the
//!   transaction's k-subsets are enumerated and each is probed. This is
//!   the structure the HPA/HPGM papers describe ("search the hash table,
//!   if hit increment its sup_cou").
//! * [`HashTreeCounter`] — a rank-mapped candidate prefix tree in the
//!   style of [RR94]'s hash tree; it walks transaction and tree together,
//!   skipping subsets that cannot match, by table lookups instead of
//!   merges. The default. The proptests compare the two: both against
//!   direct containment and each other (below), the tree against its
//!   pointer-walking reference (`hashtree.rs`).
//!
//! Both report the same two meters: `hits` (successful probes — the
//! quantity Figure 15 plots as "the number of hash table probes to
//! increment sup_cou value") and `work` (abstract CPU steps: enumerated
//! subsets or visited tree nodes) for the cost model.
//!
//! Counts live in one dense `Vec<u64>` in **candidate insertion order**,
//! which is identical on every node (candidate generation is
//! deterministic), so NPGM and the `C_k^D` duplicate sets can all-reduce
//! raw count vectors without any key exchange. A counter keeps no copy of
//! its candidates: the caller pairs `counts()` with the slices it built
//! the counter from.

mod hashmap;
mod hashtree;

pub use hashmap::HashMapCounter;
pub use hashtree::HashTreeCounter;

use crate::params::CounterKind;
use gar_types::{ItemId, Itemset};

/// Meters returned by a counting call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountOutcome {
    /// Abstract work: subsets enumerated / tree nodes visited.
    pub work: u64,
    /// Successful probes (candidate count increments).
    pub hits: u64,
}

impl CountOutcome {
    /// Accumulates another outcome into this one.
    pub fn absorb(&mut self, other: CountOutcome) {
        self.work += other.work;
        self.hits += other.hits;
    }
}

/// Footprint of an arena-backed counter, reported as the
/// `counter.arena.*` obs series (one observation per counter built).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Tree nodes in the arena.
    pub nodes: u64,
    /// Edges (fan-out entries) across all nodes.
    pub edges: u64,
    /// Nodes that own a dense child table.
    pub dense_nodes: u64,
    /// Total bytes of the flat arrays: rank map, nodes, edges with their
    /// targets, child tables and the position scratch.
    pub bytes: u64,
}

/// A support counter over a fixed candidate set.
pub trait CandidateCounter: Send {
    /// Number of candidates.
    fn num_candidates(&self) -> usize;

    /// The `k` of the k-itemsets being counted.
    fn k(&self) -> usize;

    /// Probes one sorted k-itemset; increments its count if it is a
    /// candidate. Returns the outcome (work 1, hits 0/1).
    fn probe(&mut self, itemset: &[ItemId]) -> CountOutcome;

    /// Probes each k-itemset of `flat` (itemsets back to back, a trailing
    /// partial one ignored) — the fold of [`probe`](Self::probe): work is
    /// the number of itemsets, hits the sum of theirs. One call per
    /// received batch or per transaction's local subsets.
    fn probe_many(&mut self, flat: &[ItemId]) -> CountOutcome {
        let mut out = CountOutcome::default();
        for itemset in flat.chunks_exact(self.k()) {
            out.absorb(self.probe(itemset));
        }
        out
    }

    /// Counts every candidate contained in the sorted, de-duplicated
    /// transaction `t` (increments each at most once).
    fn count_transaction(&mut self, t: &[ItemId]) -> CountOutcome;

    /// The counts, in candidate insertion order.
    fn counts(&self) -> &[u64];

    /// Arena footprint when the counter is backed by a flat arena;
    /// `None` for hash-map structures.
    fn arena_stats(&self) -> Option<ArenaStats> {
        None
    }
}

/// Builds the configured counter over `candidates` (all of size `k`, all
/// distinct).
pub fn build_counter(
    kind: CounterKind,
    k: usize,
    candidates: &[Itemset],
) -> Box<dyn CandidateCounter> {
    build_union_counter(kind, k, &[candidates])
}

/// Builds one counter of the configured kind over the disjoint candidate
/// sets `sets` (all of size `k`). Its counts are laid out set after set,
/// and each `count_transaction` returns the sum of what one counter per
/// set would return, so one walk of a transaction counts and meters every
/// set. `probe` and `probe_many` meter the union as one set.
pub fn build_union_counter(
    kind: CounterKind,
    k: usize,
    sets: &[&[Itemset]],
) -> Box<dyn CandidateCounter> {
    match kind {
        CounterKind::HashMap => Box::new(HashMapCounter::union(k, sets)),
        CounterKind::HashTree => Box::new(HashTreeCounter::union(k, sets)),
    }
}

/// Approximate in-memory footprint of one candidate k-itemset entry, in
/// bytes: `k` item codes, a 64-bit count, and hash-table overhead. This is
/// the unit of the simulated 256 MB memory budget: NPGM fragments by it,
/// and the TGD/PGD/FGD duplication budget is measured in it.
#[inline]
pub fn candidate_entry_bytes(k: usize) -> u64 {
    (4 * k + 8 + 16) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn counters(k: usize, cands: &[Itemset]) -> Vec<Box<dyn CandidateCounter>> {
        vec![
            build_counter(CounterKind::HashMap, k, cands),
            build_counter(CounterKind::HashTree, k, cands),
        ]
    }

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn both_counters_agree_on_simple_counting() {
        let cands = vec![iset![1, 2], iset![2, 3], iset![4, 5]];
        for mut c in counters(2, &cands) {
            assert_eq!(c.num_candidates(), 3);
            assert_eq!(c.k(), 2);
            c.count_transaction(&ids(&[1, 2, 3]));
            c.count_transaction(&ids(&[2, 3]));
            c.count_transaction(&ids(&[1, 4]));
            let get = |s: &Itemset| c.counts()[cands.iter().position(|x| x == s).unwrap()];
            assert_eq!(get(&iset![1, 2]), 1);
            assert_eq!(get(&iset![2, 3]), 2);
            assert_eq!(get(&iset![4, 5]), 0);
        }
    }

    #[test]
    fn probe_hits_and_misses() {
        let cands = vec![iset![1, 2]];
        for mut c in counters(2, &cands) {
            let hit = c.probe(&ids(&[1, 2]));
            assert_eq!(hit.hits, 1);
            let miss = c.probe(&ids(&[1, 3]));
            assert_eq!(miss.hits, 0);
            assert_eq!(c.counts(), &[1]);
        }
    }

    #[test]
    fn counts_preserve_insertion_order() {
        let cands = vec![iset![9, 10], iset![1, 2], iset![5, 6]];
        for mut c in counters(2, &cands) {
            c.probe(&ids(&[1, 2]));
            c.probe(&ids(&[1, 2]));
            c.probe(&ids(&[5, 6]));
            assert_eq!(c.counts(), &[0, 2, 1]);
        }
    }

    #[test]
    fn transaction_shorter_than_k_is_no_work_hit_wise() {
        let cands = vec![iset![1, 2, 3]];
        for mut c in counters(3, &cands) {
            let out = c.count_transaction(&ids(&[1, 2]));
            assert_eq!(out.hits, 0);
            assert_eq!(c.counts(), &[0]);
        }
    }

    #[test]
    fn triple_counting_agrees_between_counters() {
        let cands = vec![
            iset![1, 2, 3],
            iset![1, 2, 4],
            iset![2, 3, 4],
            iset![1, 3, 5],
        ];
        let t = ids(&[1, 2, 3, 4, 5, 6]);
        let mut results = Vec::new();
        for mut c in counters(3, &cands) {
            c.count_transaction(&t);
            results.push(c.counts().to_vec());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_transaction_items_would_be_a_bug_upstream() {
        // Counters require sorted deduped transactions; a candidate is
        // counted at most once per call even when it matches.
        let cands = vec![iset![1, 2]];
        for mut c in counters(2, &cands) {
            c.count_transaction(&ids(&[1, 2]));
            assert_eq!(c.counts(), &[1]);
        }
    }

    #[test]
    fn entry_bytes_grows_with_k() {
        assert!(candidate_entry_bytes(3) > candidate_entry_bytes(2));
        assert_eq!(candidate_entry_bytes(2), 32);
    }

    #[test]
    fn hashtree_does_less_work_on_long_transactions() {
        // With k = 3 and a 20-item transaction, subset enumeration visits
        // C(20,3) = 1140 subsets; the tree only walks matching prefixes.
        let cands = vec![iset![1, 2, 3]];
        let t: Vec<ItemId> = (1..=20).map(ItemId).collect();
        let mut flat = build_counter(CounterKind::HashMap, 3, &cands);
        let mut tree = build_counter(CounterKind::HashTree, 3, &cands);
        let wf = flat.count_transaction(&t).work;
        let wt = tree.count_transaction(&t).work;
        assert!(wt < wf, "tree work {wt} >= flat work {wf}");
        assert_eq!(flat.counts(), tree.counts());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_itemsets(k: usize) -> impl Strategy<Value = Vec<Itemset>> {
        proptest::collection::btree_set(proptest::collection::btree_set(0u32..40, k..=k), 1..25)
            .prop_map(|sets| {
                sets.into_iter()
                    .map(|s| Itemset::from_unsorted(s.into_iter().map(ItemId).collect()))
                    .collect()
            })
    }

    proptest! {
        #[test]
        fn counters_agree_with_naive_containment(
            cands in arb_itemsets(2),
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..40, 0..12), 1..20)
        ) {
            let txns: Vec<Vec<ItemId>> = txns.into_iter()
                .map(|s| s.into_iter().map(ItemId).collect())
                .collect();
            // Ground truth by direct containment.
            let mut truth = vec![0u64; cands.len()];
            for t in &txns {
                for (i, c) in cands.iter().enumerate() {
                    if c.is_contained_in(t) {
                        truth[i] += 1;
                    }
                }
            }
            for kind in [CounterKind::HashMap, CounterKind::HashTree] {
                let mut counter = build_counter(kind, 2, &cands);
                for t in &txns {
                    counter.count_transaction(t);
                }
                prop_assert_eq!(counter.counts(), truth.as_slice());
            }
        }

        #[test]
        fn counters_agree_for_k3(
            cands in arb_itemsets(3),
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..40, 0..10), 1..12)
        ) {
            let txns: Vec<Vec<ItemId>> = txns.into_iter()
                .map(|s| s.into_iter().map(ItemId).collect())
                .collect();
            let mut flat = build_counter(CounterKind::HashMap, 3, &cands);
            let mut tree = build_counter(CounterKind::HashTree, 3, &cands);
            let mut flat_hits = 0;
            let mut tree_hits = 0;
            for t in &txns {
                flat_hits += flat.count_transaction(t).hits;
                tree_hits += tree.count_transaction(t).hits;
            }
            prop_assert_eq!(flat.counts(), tree.counts());
            prop_assert_eq!(flat_hits, tree_hits);
            prop_assert_eq!(flat_hits, flat.counts().iter().sum::<u64>());
        }

        // H-HPGM counts `C_k^D` and a node's own partition in one union
        // counter: its counts are the per-set counters' concatenated, and
        // each transaction's meters are the sum of theirs. Candidates fall
        // into set 0, set 1 or neither; `empty` forces a set empty.
        #[test]
        fn union_meters_are_the_sum_of_per_set_meters(
            k in 1usize..5,
            seed_cands in arb_itemsets(4),
            split in proptest::collection::vec(0u32..3, 25..=25),
            empty in 0u32..3,
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..40, 0..14), 1..16)
        ) {
            let mut sets: [Vec<Itemset>; 2] = [Vec::new(), Vec::new()];
            let mut seen = std::collections::BTreeSet::new();
            for (c, &to) in seed_cands.iter().zip(&split) {
                let c = Itemset::from_sorted(c.items()[..k].to_vec());
                if to < 2 && to + 1 != empty && seen.insert(c.clone()) {
                    sets[to as usize].push(c);
                }
            }
            for kind in [CounterKind::HashMap, CounterKind::HashTree] {
                let mut union = build_union_counter(kind, k, &[&sets[0], &sets[1]]);
                let mut apart: Vec<_> = sets.iter().map(|s| build_counter(kind, k, s)).collect();
                for t in &txns {
                    let t: Vec<ItemId> = t.iter().copied().map(ItemId).collect();
                    let mut sum = CountOutcome::default();
                    for counter in &mut apart {
                        sum.absorb(counter.count_transaction(&t));
                    }
                    prop_assert_eq!(union.count_transaction(&t), sum);
                }
                let concat: Vec<u64> = apart.iter().flat_map(|c| c.counts().to_vec()).collect();
                prop_assert_eq!(union.counts(), concat.as_slice());
            }
        }

        // HPGM probes a received batch, or a transaction's local subsets,
        // with one `probe_many`: it must count what probing each itemset
        // did. The run holds candidates (op 0) and their sorted successors
        // (1) — shared prefixes — the previous itemset's prefix with a new
        // last item (2), and broken itemsets: an item past the rank map
        // (3), `u32::MAX` (4), an unsorted itemset (5).
        #[test]
        fn probe_many_is_the_fold_of_probe(
            k in 1usize..5,
            seed_cands in arb_itemsets(4),
            ops in proptest::collection::vec((0u32..6, 0u32..1000, 0u32..48), 0..60)
        ) {
            let cands: Vec<Itemset> = {
                let mut seen = std::collections::BTreeSet::new();
                seed_cands
                    .iter()
                    .map(|c| Itemset::from_sorted(c.items()[..k].to_vec()))
                    .filter(|c| seen.insert(c.clone()))
                    .collect()
            };
            let mut flat: Vec<ItemId> = Vec::new();
            let mut at = 0;
            for (op, pick, item) in ops {
                at = (if op == 0 { pick as usize } else { at + 1 }) % cands.len();
                let mut set = cands[at].items().to_vec();
                match op {
                    2 if !flat.is_empty() => {
                        set = flat[flat.len() - k..].to_vec();
                        set[k - 1] = ItemId(item);
                    }
                    3 => set[pick as usize % k] = ItemId(1000 + item),
                    4 => set[pick as usize % k] = ItemId(u32::MAX),
                    5 => set.reverse(),
                    _ => {}
                }
                flat.extend(set);
            }
            for kind in [CounterKind::HashMap, CounterKind::HashTree] {
                let mut many = build_counter(kind, k, &cands);
                let mut one = build_counter(kind, k, &cands);
                let mut folded = CountOutcome::default();
                for itemset in flat.chunks_exact(k) {
                    folded.absorb(one.probe(itemset));
                }
                prop_assert_eq!(many.probe_many(&flat), folded);
                prop_assert_eq!(many.counts(), one.counts());
            }
        }
    }
}
