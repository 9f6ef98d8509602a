//! Apriori candidate generation (`C_k` from `L_{k-1}`).
//!
//! Every algorithm in the paper generates candidates the same way on every
//! node (the paper's step 1): join `L_{k-1}` with itself, prune k-itemsets
//! with a small (k-1)-subset, and — for pass 2 with a taxonomy — "delete
//! any candidates that consist of an item and its ancestor" (their support
//! equals the descendant's, so they derive only the trivially redundant
//! rule `x ⇒ ancestor(x)`). Every pass from 3 on is one `apriori_gen`
//! over `L_{k-1}`'s rows, the kernel rule derivation also grows its
//! consequents with; pass 2, where every pair joins, is its plain pair
//! loop. Determinism matters: NPGM all-reduces raw count vectors, which
//! only lines up because every node produces the identical candidate
//! order.

use crate::report::LargePass;
use gar_taxonomy::Taxonomy;
use gar_types::{FxHashSet, ItemId, Itemset};

/// Generates the candidate 2-itemsets from the large items `l1` (sorted).
/// With a taxonomy, pairs of hierarchically related items are deleted.
/// Every pair joins, so this is apriori-gen at width 1 without the
/// kernel's intermediate rows.
pub fn generate_pairs(l1: &[ItemId], tax: Option<&Taxonomy>) -> Vec<Itemset> {
    debug_assert!(l1.windows(2).all(|w| w[0] < w[1]), "L1 must be sorted");
    let mut out = Vec::with_capacity(l1.len().saturating_sub(1).pow(2) / 2);
    for (i, &a) in l1.iter().enumerate() {
        for &b in &l1[i + 1..] {
            if tax.is_none_or(|t| !t.related(a, b)) {
                out.push(Itemset::from_sorted(vec![a, b]));
            }
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
    let mut sorted: Vec<&Itemset> = prev_large.iter().collect();
    sorted.sort_unstable();
    join(sorted)
}

/// Generates pass-k candidates from `prev = L_{k-1}` — the one candidate
/// step of the sequential Cumulate and of every node of a parallel run
/// (identical on every node).
pub(crate) fn candidates_for_pass(k: usize, prev: &LargePass, tax: &Taxonomy) -> Vec<Itemset> {
    // `L_{k-1}` is sorted by itemset: its items go over as rows.
    let prev = prev.itemsets.iter().map(|(s, _)| s);
    if k == 2 {
        let l1: Vec<ItemId> = prev.map(|s| s.items()[0]).collect();
        generate_pairs(&l1, Some(tax))
    } else {
        join(prev)
    }
}

/// `C_{m+1}` from the ascending large m-itemsets `prev`: their items go
/// to [`apriori_gen`] as rows, and its joins come back as itemsets.
fn join<'a>(prev: impl IntoIterator<Item = &'a Itemset>) -> Vec<Itemset> {
    let (mut m, mut rows) = (0, Vec::new());
    for s in prev {
        m = s.len();
        rows.extend_from_slice(s.items());
    }
    let mut joined = Vec::new();
    if m > 0 {
        apriori_gen(&rows, m, &mut joined);
    }
    joined
        .chunks_exact(m + 1)
        .map(|c| Itemset::from_sorted(c.to_vec()))
        .collect()
}

/// [AS94] apriori-gen, the one join-and-prune of the workspace: `rows`
/// holds ascending rows of `m ≥ 1` ascending entries each, back to back.
/// Every two rows sharing their first `m − 1` entries join into one row
/// of `m + 1`, kept only when each of its other `m`-subsets is a row
/// too, found by binary search. The kept rows are written to `next`
/// (cleared first), ascending. Candidate generation runs it over items,
/// rule derivation over consequents as positions into an itemset.
pub(crate) fn apriori_gen<T: Ord + Copy>(rows: &[T], m: usize, next: &mut Vec<T>) {
    next.clear();
    let rows: Vec<&[T]> = rows.chunks_exact(m).collect();
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
    let mut subset = Vec::with_capacity(m);
    for (i, a) in rows.iter().enumerate() {
        let prefix = &a[..m - 1];
        for b in rows[i + 1..].iter().take_while(|b| b.starts_with(prefix)) {
            let last = b[m - 1];
            // Dropping `a`'s last or `b`'s last leaves `a` or `b`; each
            // other subset sorts after `a`.
            let pruned = (0..m - 1).any(|d| {
                subset.clear();
                subset.extend_from_slice(&a[..d]);
                subset.extend_from_slice(&a[d + 1..]);
                subset.push(last);
                rows[i + 1..].binary_search(&subset.as_slice()).is_err()
            });
            if !pruned {
                next.extend_from_slice(a);
                next.push(last);
            }
        }
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
        fn apriori_gen_matches_brute_force_at_every_width(
            m in 1usize..5,
            raw in proptest::collection::btree_set(
                proptest::collection::btree_set(0u32..9, 1..5usize),
                0..60,
            )
        ) {
            // Ascending rows of width `m`, back to back.
            let rows: Vec<u32> = raw
                .iter()
                .filter(|r| r.len() == m)
                .flat_map(|r| r.iter().copied())
                .collect();
            let set: FxHashSet<&[u32]> = rows.chunks_exact(m).collect();
            let mut got = Vec::new();
            apriori_gen(&rows, m, &mut got);
            // Every ascending (m+1)-row over 0..9 whose m-subsets are all rows.
            let mut want = Vec::new();
            for mask in 0u32..1 << 9 {
                if mask.count_ones() as usize != m + 1 {
                    continue;
                }
                let c: Vec<u32> = (0..9).filter(|b| mask >> b & 1 == 1).collect();
                let all_rows = (0..=m).all(|d| {
                    let sub: Vec<u32> = c.iter().enumerate().filter(|&(i, _)| i != d).map(|(_, &x)| x).collect();
                    set.contains(sub.as_slice())
                });
                if all_rows {
                    want.push(c);
                }
            }
            want.sort_unstable();
            prop_assert_eq!(got, want.concat());
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
