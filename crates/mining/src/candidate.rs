//! Apriori candidate generation (`C_k` from `L_{k-1}`).
//!
//! Every algorithm in the paper generates candidates the same way on every
//! node (the paper's step 1): join `L_{k-1}` with itself, prune k-itemsets
//! with a small (k-1)-subset, and — for pass 2 with a taxonomy — "delete
//! any candidates that consist of an item and its ancestor" (their support
//! equals the descendant's, so they derive only the trivially redundant
//! rule `x ⇒ ancestor(x)`). Determinism matters: NPGM all-reduces raw count
//! vectors, which only lines up because every node produces the identical
//! candidate order.

use crate::report::LargePass;
use gar_taxonomy::Taxonomy;
use gar_types::{FxHashSet, ItemId, Itemset};

/// Generates the candidate 2-itemsets from the large items `l1` (sorted).
/// With a taxonomy, pairs of hierarchically related items are deleted.
pub fn generate_pairs(l1: &[ItemId], tax: Option<&Taxonomy>) -> Vec<Itemset> {
    debug_assert!(l1.windows(2).all(|w| w[0] < w[1]), "L1 must be sorted");
    let mut out = Vec::with_capacity(l1.len().saturating_sub(1).pow(2) / 2);
    for i in 0..l1.len() {
        for j in i + 1..l1.len() {
            if let Some(t) = tax {
                if t.related(l1[i], l1[j]) {
                    continue;
                }
            }
            out.push(Itemset::from_sorted(vec![l1[i], l1[j]]));
        }
    }
    out
}

/// Generates `C_k` (k ≥ 3) from the large (k-1)-itemsets.
///
/// `prev_large` need not be sorted; the output is sorted (deterministic).
/// The prune step removes every candidate with a (k-1)-subset outside
/// `prev_large`. Candidates mixing an item with its ancestor cannot occur
/// here: any such k-itemset has a related (k-1)-subset, which pass 2
/// already deleted, so the subset prune removes it.
pub fn generate_candidates(prev_large: &[Itemset]) -> Vec<Itemset> {
    if prev_large.is_empty() {
        return Vec::new();
    }
    let k = prev_large[0].len() + 1;
    debug_assert!(prev_large.iter().all(|s| s.len() == k - 1));

    let mut sorted: Vec<&Itemset> = prev_large.iter().collect();
    sorted.sort_unstable();
    let prev_set: FxHashSet<&Itemset> = sorted.iter().copied().collect();

    let mut out = Vec::new();
    // Join step: two (k-1)-itemsets sharing their first k-2 items combine
    // into one k-itemset. Scan runs of equal prefixes in the sorted list.
    let mut run_start = 0;
    while run_start < sorted.len() {
        let prefix = &sorted[run_start].items()[..k - 2];
        let mut run_end = run_start + 1;
        while run_end < sorted.len() && &sorted[run_end].items()[..k - 2] == prefix {
            run_end += 1;
        }
        for a in run_start..run_end {
            for b in a + 1..run_end {
                let mut items = sorted[a].items().to_vec();
                #[expect(
                    clippy::expect_used,
                    reason = "k >= 2, so every (k-1)-itemset is nonempty"
                )]
                items.push(*sorted[b].items().last().expect("nonempty"));
                let candidate = Itemset::from_sorted(items);
                if subsets_all_large(&candidate, &prev_set) {
                    out.push(candidate);
                }
            }
        }
        run_start = run_end;
    }
    out.sort_unstable();
    out
}

/// Prune check: every (k-1)-subset of `candidate` is in `prev`.
fn subsets_all_large(candidate: &Itemset, prev: &FxHashSet<&Itemset>) -> bool {
    // The subsets dropping the last two positions were the join operands;
    // checking all of them anyway is cheap and keeps the code obvious.
    for idx in 0..candidate.len() {
        let sub = candidate.without_index(idx);
        if !prev.contains(&sub) {
            return false;
        }
    }
    true
}

/// Generates pass-k candidates from `prev = L_{k-1}` — the one candidate
/// step of the sequential Cumulate and of every node of a parallel run
/// (identical on every node).
pub(crate) fn candidates_for_pass(k: usize, prev: &LargePass, tax: &Taxonomy) -> Vec<Itemset> {
    if k == 2 {
        let l1: Vec<ItemId> = prev.itemsets.iter().map(|(s, _)| s.items()[0]).collect();
        generate_pairs(&l1, Some(tax))
    } else {
        let prev_sets: Vec<Itemset> = prev.itemsets.iter().map(|(s, _)| s.clone()).collect();
        generate_candidates(&prev_sets)
    }
}

/// The distinct items appearing in any candidate — what Cumulate's
/// "delete any ancestors in T that are not present in the candidates"
/// optimization keeps ([`gar_taxonomy::PrunedView`] consumes this).
pub fn items_in_candidates<'a>(
    candidates: impl IntoIterator<Item = &'a Itemset>,
) -> FxHashSet<ItemId> {
    let mut out = FxHashSet::default();
    for c in candidates {
        out.extend(c.items().iter().copied());
    }
    out
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
    fn pairs_without_taxonomy_are_all_pairs() {
        let c = generate_pairs(&ids(&[1, 2, 3]), None);
        assert_eq!(c, vec![iset![1, 2], iset![1, 3], iset![2, 3]]);
    }

    #[test]
    fn pairs_with_taxonomy_drop_related() {
        // 1 is the parent of 2; {1,2} must be deleted.
        let mut b = TaxonomyBuilder::new(4);
        b.edge(2, 1).unwrap();
        let tax = b.build().unwrap();
        let c = generate_pairs(&ids(&[1, 2, 3]), Some(&tax));
        assert_eq!(c, vec![iset![1, 3], iset![2, 3]]);
    }

    #[test]
    fn pairs_drop_transitive_ancestors_too() {
        // 0 -> 1 -> 2 chain: {0,2} is ancestor-related transitively.
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        b.edge(2, 1).unwrap();
        let tax = b.build().unwrap();
        let c = generate_pairs(&ids(&[0, 1, 2]), Some(&tax));
        assert!(c.is_empty());
    }

    #[test]
    fn join_and_prune_classic_example() {
        // The [RR94] running example: L3 = {123, 124, 134, 135, 234}.
        // Join gives {1234, 1345}; prune kills 1345 (145 not large).
        let l3 = vec![
            iset![1, 2, 3],
            iset![1, 2, 4],
            iset![1, 3, 4],
            iset![1, 3, 5],
            iset![2, 3, 4],
        ];
        let c4 = generate_candidates(&l3);
        assert_eq!(c4, vec![iset![1, 2, 3, 4]]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(generate_candidates(&[]).is_empty());
        assert!(generate_pairs(&[], None).is_empty());
    }

    #[test]
    fn output_is_sorted_and_duplicate_free() {
        let l2 = vec![
            iset![2, 3],
            iset![1, 2],
            iset![1, 3],
            iset![2, 4],
            iset![3, 4],
            iset![1, 4],
        ];
        let c3 = generate_candidates(&l2);
        assert!(c3.windows(2).all(|w| w[0] < w[1]));
        // {1,2,3} (all subsets large), {1,2,4}, {1,3,4}, {2,3,4} all survive.
        assert_eq!(c3.len(), 4);
    }

    #[test]
    fn items_in_candidates_collects_distinct() {
        let set = items_in_candidates(&[iset![1, 2], iset![2, 3]]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&ItemId(2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_l2() -> impl Strategy<Value = Vec<Itemset>> {
        proptest::collection::btree_set(
            proptest::collection::btree_set(0u32..15, 2..=2usize),
            0..40,
        )
        .prop_map(|sets| {
            sets.into_iter()
                .map(|s| Itemset::from_unsorted(s.into_iter().map(ItemId).collect()))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn generated_c3_matches_brute_force(l2 in arb_l2()) {
            let fast = generate_candidates(&l2);
            // Brute force: every 3-subset of the item universe whose three
            // 2-subsets are all in L2.
            let l2set: FxHashSet<&Itemset> = l2.iter().collect();
            let items: Vec<ItemId> = {
                let mut v: Vec<ItemId> = items_in_candidates(&l2).into_iter().collect();
                v.sort_unstable();
                v
            };
            let mut brute = Vec::new();
            for i in 0..items.len() {
                for j in i + 1..items.len() {
                    for l in j + 1..items.len() {
                        let c = Itemset::from_sorted(vec![items[i], items[j], items[l]]);
                        let ok = (0..3).all(|d| l2set.contains(&c.without_index(d)));
                        if ok {
                            brute.push(c);
                        }
                    }
                }
            }
            brute.sort_unstable();
            prop_assert_eq!(fast, brute);
        }

        #[test]
        fn every_candidate_subset_is_large(l2 in arb_l2()) {
            let c3 = generate_candidates(&l2);
            let l2set: FxHashSet<&Itemset> = l2.iter().collect();
            for c in &c3 {
                for d in 0..c.len() {
                    prop_assert!(l2set.contains(&c.without_index(d)));
                }
            }
        }
    }
}
