//! A deliberately naive reference miner, for differential testing.
//!
//! [`mine_naive`] computes large itemsets by definition: for every
//! candidate set of every size, walk every transaction and test
//! containment against the ancestor-extended transaction. No hash tables,
//! no pruning beyond Apriori's monotonicity, no parallelism — nothing
//! shared with the optimized implementations, so agreement is meaningful.
//! Property tests in `tests/oracle_equivalence.rs` check every algorithm
//! against it on randomized inputs.

use crate::params::{Algorithm, MiningParams};
use crate::report::{LargePass, MiningOutput};
use gar_taxonomy::Taxonomy;
use gar_types::{ItemId, Itemset};

/// Mines `transactions` under `tax` by brute force. Intended for tests
/// only: cost is O(|candidates| × |D| × k) per pass.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a test oracle: a bad input is a broken test, and a panic reports it"
)]
pub fn mine_naive(
    transactions: &[Vec<ItemId>],
    tax: &Taxonomy,
    params: &MiningParams,
) -> MiningOutput {
    params.validate().expect("valid params");
    let n = transactions.len() as u64;
    let threshold = params.min_support_count(n);

    // Precompute every extended transaction once.
    let extended: Vec<Vec<ItemId>> = transactions
        .iter()
        .map(|t| tax.extend_transaction(t))
        .collect();

    let count_of = |set: &Itemset| -> u64 {
        extended.iter().filter(|t| set.is_contained_in(t)).count() as u64
    };

    // L1: every item of the universe, by definition of containment.
    let mut passes: Vec<LargePass> = Vec::new();
    let l1: Vec<(Itemset, u64)> = (0..tax.num_items())
        .map(|i| Itemset::singleton(ItemId(i)))
        .map(|s| {
            let c = count_of(&s);
            (s, c)
        })
        .filter(|(_, c)| *c >= threshold)
        .collect();
    passes.push(LargePass { k: 1, itemsets: l1 });

    let mut k = 2;
    loop {
        if passes.last().is_none_or(|p| p.itemsets.is_empty()) {
            break;
        }
        if let Some(max) = params.max_pass {
            if k > max {
                break;
            }
        }
        // Candidates: every k-subset of the large items whose members are
        // pairwise hierarchy-unrelated and whose (k-1)-subsets are all
        // large. Built naively from the previous pass.
        let prev: Vec<&Itemset> = passes
            .last()
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s)
            .collect();
        let items: Vec<ItemId> = {
            let mut v: Vec<ItemId> = passes[0]
                .itemsets
                .iter()
                .map(|(s, _)| s.items()[0])
                .collect();
            v.sort_unstable();
            v
        };
        let mut large = Vec::new();
        let mut choose = vec![0usize; k];
        enumerate_subsets(&items, k, &mut choose, 0, 0, &mut |subset| {
            let set = Itemset::from_sorted(subset.to_vec());
            // Pairwise unrelated.
            for (i, &a) in set.items().iter().enumerate() {
                for &b in &set.items()[i + 1..] {
                    if tax.related(a, b) {
                        return;
                    }
                }
            }
            // Monotonicity: all (k-1)-subsets large.
            for d in 0..set.len() {
                let sub = set.without_index(d);
                if !prev.contains(&&sub) {
                    return;
                }
            }
            let c = count_of(&set);
            if c >= threshold {
                large.push((set, c));
            }
        });
        if large.is_empty() {
            break;
        }
        large.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        passes.push(LargePass { k, itemsets: large });
        k += 1;
    }

    passes.retain(|p| !p.itemsets.is_empty());
    MiningOutput {
        algorithm: Algorithm::Cumulate,
        num_transactions: n,
        min_support_count: threshold,
        passes,
    }
}

fn enumerate_subsets(
    items: &[ItemId],
    k: usize,
    _choose: &mut [usize],
    start: usize,
    depth: usize,
    f: &mut impl FnMut(&[ItemId]),
) {
    fn rec(
        items: &[ItemId],
        start: usize,
        need: usize,
        scratch: &mut Vec<ItemId>,
        f: &mut impl FnMut(&[ItemId]),
    ) {
        if need == 0 {
            f(scratch);
            return;
        }
        if items.len() - start < need {
            return;
        }
        for i in start..items.len() {
            scratch.push(items[i]);
            rec(items, i + 1, need - 1, scratch, f);
            scratch.pop();
        }
    }
    debug_assert_eq!(start, 0);
    debug_assert_eq!(depth, 0);
    let mut scratch = Vec::with_capacity(k);
    rec(items, 0, k, &mut scratch, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::iset;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn matches_hand_computed_example() {
        // 0 -> {1, 2}; transactions over leaves.
        let mut b = TaxonomyBuilder::new(4);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        let tax = b.build().unwrap();
        let txns = vec![ids(&[1, 3]), ids(&[2, 3]), ids(&[1])];
        let out = mine_naive(&txns, &tax, &MiningParams::with_min_support(0.6));
        // {0} in all 3, {3} in 2, {1} in 2; {0,3} in 2.
        assert_eq!(out.support_of(&[ItemId(0)]), Some(3));
        assert_eq!(out.support_of(&[ItemId(3)]), Some(2));
        assert_eq!(out.support_of(&[ItemId(0), ItemId(3)]), Some(2));
        // {1,0} pruned as related.
        assert_eq!(out.support_of(&[ItemId(0), ItemId(1)]), None);
    }

    #[test]
    fn agrees_with_cumulate_on_small_input() {
        let mut b = TaxonomyBuilder::new(8);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
            b.edge(c, p).unwrap();
        }
        let tax = b.build().unwrap();
        let txns = vec![
            ids(&[2]),
            ids(&[3, 7]),
            ids(&[4, 7]),
            ids(&[6]),
            ids(&[6]),
            ids(&[3]),
        ];
        let naive = mine_naive(&txns, &tax, &MiningParams::with_min_support(0.3));
        let db = gar_storage::PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let fast = crate::sequential::cumulate(
            db.partition(0),
            &tax,
            &MiningParams::with_min_support(0.3),
        )
        .unwrap();
        assert_eq!(naive.num_large(), fast.num_large());
        for (a, b) in naive.all_large().zip(fast.all_large()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_input() {
        let tax = TaxonomyBuilder::new(3).build().unwrap();
        let out = mine_naive(&[], &tax, &MiningParams::with_min_support(0.5));
        assert_eq!(out.num_large(), 0);
    }

    #[test]
    fn respects_max_pass() {
        let tax = TaxonomyBuilder::new(4).build().unwrap();
        let txns = vec![ids(&[1, 2, 3]); 5];
        let out = mine_naive(
            &txns,
            &tax,
            &MiningParams::with_min_support(0.5).max_pass(2),
        );
        assert!(out.large(2).is_some());
        assert!(out.large(3).is_none());
        let full = mine_naive(&txns, &tax, &MiningParams::with_min_support(0.5));
        assert_eq!(full.large(3).unwrap().itemsets, vec![(iset![1, 2, 3], 5)]);
    }
}
