//! Candidate support counters.
//!
//! Support counting is the hot loop of every algorithm in the paper: for
//! each (extended) transaction, find which candidates it contains and
//! increment their `sup_cou`. Every miner counts with one structure,
//! [`HashTreeCounter`]: a rank-mapped candidate prefix tree in the style
//! of [RR94]'s hash tree. It walks transaction and tree together,
//! skipping subsets that cannot match, by table lookups instead of
//! merges.
//!
//! The paper describes a flat hash table instead ("search the hash
//! table, if hit increment its sup_cou"). That structure survives as the
//! test-only `HashMapCounter`, which enumerates a transaction's k-subsets
//! and probes each: the proptests hold the tree to it and to direct
//! containment (below), and the tree to its pointer-walking reference
//! (`hashtree.rs`).
//!
//! A counter reports two meters: `hits` (successful probes — the quantity
//! Figure 15 plots as "the number of hash table probes to increment
//! sup_cou value"), which both structures agree on, and `work` (abstract
//! CPU steps: visited tree nodes) for the cost model.
//!
//! Counts live in one dense `Vec<u64>` in **candidate insertion order**,
//! which is identical on every node (candidate generation is
//! deterministic), so NPGM and the `C_k^D` duplicate sets can all-reduce
//! raw count vectors without any key exchange. A counter keeps no copy of
//! its candidates: the caller pairs `counts()` with the slices it built
//! the counter from.

mod hashtree;

pub use hashtree::HashTreeCounter;

use crate::params::CounterKind;
use gar_types::Itemset;

/// Meters returned by a counting call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountOutcome {
    /// Abstract work: tree nodes visited (subsets enumerated, for the
    /// test-only flat map).
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

/// Footprint of the counter's arena, reported as the `counter.arena.*`
/// obs series (one observation per counter built).
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

/// [`HashTreeCounter::new`] behind the one-value [`CounterKind`]. The
/// miners call the tree directly; `benchmark/` still builds its pass-2
/// counter here, so this stays until it builds the tree itself (ROADMAP
/// item 6).
pub fn build_counter(_kind: CounterKind, k: usize, candidates: &[Itemset]) -> HashTreeCounter {
    HashTreeCounter::new(k, candidates)
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
mod hashmap;

#[cfg(test)]
use hashmap::HashMapCounter;

/// Runs `$body` once with `$C` naming [`HashMapCounter`], then once with
/// it naming [`HashTreeCounter`].
#[cfg(test)]
macro_rules! with_each_counter {
    ($C:ident => $body:block) => {{
        {
            type $C = HashMapCounter;
            $body
        }
        {
            type $C = HashTreeCounter;
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::{iset, ItemId};

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn both_counters_agree_on_simple_counting() {
        let cands = vec![iset![1, 2], iset![2, 3], iset![4, 5]];
        with_each_counter!(C => {
            let mut c = C::new(2, &cands);
            assert_eq!(c.counts().len(), 3);
            c.count_transaction(&ids(&[1, 2, 3]));
            c.count_transaction(&ids(&[2, 3]));
            c.count_transaction(&ids(&[1, 4]));
            let get = |s: &Itemset| c.counts()[cands.iter().position(|x| x == s).unwrap()];
            assert_eq!(get(&iset![1, 2]), 1);
            assert_eq!(get(&iset![2, 3]), 2);
            assert_eq!(get(&iset![4, 5]), 0);
        });
    }

    #[test]
    fn probe_hits_and_misses() {
        let cands = vec![iset![1, 2]];
        with_each_counter!(C => {
            let mut c = C::new(2, &cands);
            let hit = c.probe(&ids(&[1, 2]));
            assert_eq!(hit.hits, 1);
            let miss = c.probe(&ids(&[1, 3]));
            assert_eq!(miss.hits, 0);
            assert_eq!(c.counts(), &[1]);
        });
    }

    #[test]
    fn counts_preserve_insertion_order() {
        let cands = vec![iset![9, 10], iset![1, 2], iset![5, 6]];
        with_each_counter!(C => {
            let mut c = C::new(2, &cands);
            c.probe(&ids(&[1, 2]));
            c.probe(&ids(&[1, 2]));
            c.probe(&ids(&[5, 6]));
            assert_eq!(c.counts(), &[0, 2, 1]);
        });
    }

    #[test]
    fn transaction_shorter_than_k_is_no_work_hit_wise() {
        let cands = vec![iset![1, 2, 3]];
        with_each_counter!(C => {
            let mut c = C::new(3, &cands);
            let out = c.count_transaction(&ids(&[1, 2]));
            assert_eq!(out.hits, 0);
            assert_eq!(c.counts(), &[0]);
        });
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
        let mut flat = HashMapCounter::new(3, &cands);
        let mut tree = HashTreeCounter::new(3, &cands);
        flat.count_transaction(&t);
        tree.count_transaction(&t);
        assert_eq!(flat.counts(), tree.counts());
        assert_eq!(tree.counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_transaction_items_would_be_a_bug_upstream() {
        // Counters require sorted deduped transactions; a candidate is
        // counted at most once per call even when it matches.
        let cands = vec![iset![1, 2]];
        with_each_counter!(C => {
            let mut c = C::new(2, &cands);
            c.count_transaction(&ids(&[1, 2]));
            assert_eq!(c.counts(), &[1]);
        });
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
        let mut flat = HashMapCounter::new(3, &cands);
        let mut tree = HashTreeCounter::new(3, &cands);
        let wf = flat.count_transaction(&t).work;
        let wt = tree.count_transaction(&t).work;
        assert!(wt < wf, "tree work {wt} >= flat work {wf}");
        assert_eq!(flat.counts(), tree.counts());
    }

    // `benchmark/` times its pass-2 counter through `build_counter`, so
    // what it builds must be the tree the miners build: same counts, same
    // meters, same arena.
    #[test]
    fn build_counter_counts_and_meters_like_the_tree() {
        let cands = vec![iset![1, 2], iset![1, 5], iset![2, 3], iset![3, 5]];
        let mut built = build_counter(CounterKind::default(), 2, &cands);
        let mut tree = HashTreeCounter::new(2, &cands);
        assert_eq!(built.arena_stats(), Some(tree.stats()));
        for t in [&[1, 2, 3, 5][..], &[2, 3], &[1, 4, 5], &[3], &[1, 2, 5]] {
            let t = ids(t);
            assert_eq!(built.count_transaction(&t), tree.count_transaction(&t));
        }
        assert_eq!(built.counts(), tree.counts());
        assert_eq!(built.counts(), &[2, 3, 2, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gar_types::ItemId;
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
            with_each_counter!(C => {
                let mut counter = C::new(2, &cands);
                for t in &txns {
                    counter.count_transaction(t);
                }
                prop_assert_eq!(counter.counts(), truth.as_slice());
            });
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
            let mut flat = HashMapCounter::new(3, &cands);
            let mut tree = HashTreeCounter::new(3, &cands);
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
            with_each_counter!(C => {
                let mut union = C::union(k, &[&sets[0], &sets[1]]);
                let mut apart: Vec<_> = sets.iter().map(|s| C::new(k, s)).collect();
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
            });
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
            with_each_counter!(C => {
                let mut many = C::new(k, &cands);
                let mut one = C::new(k, &cands);
                let mut folded = CountOutcome::default();
                for itemset in flat.chunks_exact(k) {
                    folded.absorb(one.probe(itemset));
                }
                prop_assert_eq!(many.probe_many(&flat), folded);
                prop_assert_eq!(many.counts(), one.counts());
            });
        }
    }
}
