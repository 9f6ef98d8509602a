//! Stratify — [SA95]'s alternative to Cumulate, reproduced as an
//! extension (the SIGMOD '98 paper parallelizes Cumulate, but cites both).
//!
//! Observation: `sup(X') ≥ sup(X)` whenever `X'` is an *ancestor itemset*
//! of `X` (each member generalized). Stratify therefore counts candidates
//! **top-down by depth**: the shallowest stratum first; after each
//! stratum, every descendant of a small itemset is deleted unseen. The
//! price is one transaction-database scan per stratum — profitable when
//! ancestor itemsets prune aggressively, wasteful otherwise (which is why
//! [SA95] ultimately recommends Cumulate, and the paper parallelizes
//! that). The implementation counts strata in batches of
//! `stratum_batch` depths per scan, as [SA95] suggests ("count C_k
//! together with enough following strata to fill memory").

use crate::candidate::{generate_candidates, generate_pairs, items_in_candidates};
use crate::counter::build_counter;
use crate::params::{Algorithm, MiningParams};
use crate::report::{LargePass, MiningOutput};
use crate::sequential::large_items_from_counts;
use gar_storage::TransactionSource;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::{FxHashMap, FxHashSet, ItemId, Itemset, Result};

/// Depth of an itemset: the sum of its members' taxonomy depths. Stratum
/// 0 holds the all-roots candidates.
fn itemset_depth(set: &Itemset, tax: &Taxonomy) -> u32 {
    set.items().iter().map(|&i| tax.depth(i)).sum()
}

/// True when `anc` is an ancestor itemset of `desc`: same size, each
/// member of `desc` equal to or a descendant of the matching member.
/// Members are matched greedily, which is unambiguous because itemsets
/// never contain two related items (two ancestors of one descendant item
/// would be related to each other). The pruning loop works through
/// direct parents instead, but this is the invariant it relies on and
/// the tests check it explicitly.
#[cfg_attr(not(test), allow(dead_code))]
fn is_ancestor_itemset(anc: &Itemset, desc: &Itemset, tax: &Taxonomy) -> bool {
    if anc.len() != desc.len() || anc == desc {
        return false;
    }
    let mut used = vec![false; anc.len()];
    'outer: for &d in desc.items() {
        for (i, &a) in anc.items().iter().enumerate() {
            if used[i] {
                continue;
            }
            if a == d || tax.is_ancestor(a, d) {
                used[i] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// The direct parent itemsets of `set` (one member lifted one level),
/// restricted to itemsets present in `index`.
fn parent_itemsets_in(set: &Itemset, tax: &Taxonomy, index: &FxHashSet<Itemset>) -> Vec<Itemset> {
    let mut out = Vec::new();
    for (i, &it) in set.items().iter().enumerate() {
        if let Some(p) = tax.parent(it) {
            let mut items: Vec<ItemId> = set.items().to_vec();
            items[i] = p;
            let cand = Itemset::from_unsorted(items);
            if cand.len() == set.len() && index.contains(&cand) {
                out.push(cand);
            }
        }
    }
    out
}

/// Mines all large itemsets with the Stratify strategy. Results are
/// identical to [`crate::sequential::cumulate`]; only the scan/candidate
/// schedule differs. `stratum_batch` controls how many depth strata are
/// counted per database scan (≥ 1).
pub fn stratify(
    part: &dyn TransactionSource,
    tax: &Taxonomy,
    params: &MiningParams,
    stratum_batch: u32,
) -> Result<MiningOutput> {
    params.validate()?;
    assert!(stratum_batch >= 1);
    let num_transactions = part.num_transactions() as u64;
    let min_support_count = params.min_support_count(num_transactions);

    // Pass 1 is exactly Cumulate's.
    let mut item_counts = vec![0u64; tax.num_items() as usize];
    let mut extended = Vec::new();
    let mut scan = part.scan()?;
    while let Some(t) = scan.next_slice()? {
        tax.extend_transaction_into(t, &mut extended);
        for &it in &extended {
            item_counts[it.index()] += 1;
        }
    }
    drop(scan);
    let l1 = large_items_from_counts(&item_counts, min_support_count);
    let mut passes = vec![l1];

    let mut k = 2;
    loop {
        if passes.last().is_none_or(|p| p.itemsets.is_empty()) {
            passes.retain(|p| !p.itemsets.is_empty());
            break;
        }
        if let Some(max) = params.max_pass {
            if k > max {
                break;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the check above breaks when there is no pass"
        )]
        let prev = &passes.last().expect("nonempty").itemsets;
        let mut candidates: Vec<Itemset> = if k == 2 {
            let l1_items: Vec<ItemId> = prev.iter().map(|(s, _)| s.items()[0]).collect();
            generate_pairs(&l1_items, Some(tax))
        } else {
            let prev_sets: Vec<Itemset> = prev.iter().map(|(s, _)| s.clone()).collect();
            generate_candidates(&prev_sets)
        };
        if candidates.is_empty() {
            break;
        }
        // Order by stratum (shallowest first; itemset order within a
        // stratum for determinism).
        candidates.sort_by_key(|c| (itemset_depth(c, tax), c.clone()));

        let view = PrunedView::new(tax, items_in_candidates(&candidates));
        let candidate_index: FxHashSet<Itemset> = candidates.iter().cloned().collect();
        // small[c]: c was found small (directly or via an ancestor) —
        // its descendants need never be counted.
        let mut known_small: FxHashSet<Itemset> = FxHashSet::default();
        let mut counted: FxHashMap<Itemset, u64> = FxHashMap::default();

        let mut cursor = 0;
        while cursor < candidates.len() {
            // Next batch: every not-yet-pruned candidate within the next
            // `stratum_batch` depth levels.
            let base_depth = itemset_depth(&candidates[cursor], tax);
            let mut batch = Vec::new();
            let mut next = cursor;
            while next < candidates.len() {
                let c = &candidates[next];
                if itemset_depth(c, tax) >= base_depth + stratum_batch {
                    break;
                }
                // Pruned when any direct parent itemset is known small.
                let pruned = parent_itemsets_in(c, tax, &candidate_index)
                    .iter()
                    .any(|p| known_small.contains(p));
                if pruned {
                    known_small.insert(c.clone());
                } else {
                    batch.push(c.clone());
                }
                next += 1;
            }
            cursor = next;
            if batch.is_empty() {
                continue;
            }

            let mut counter = build_counter(params.counter, k, &batch);
            let mut scan = part.scan()?;
            while let Some(t) = scan.next_slice()? {
                view.extend_transaction_into(tax, t, &mut extended);
                counter.count_transaction(&extended);
            }
            drop(scan);
            for (set, &count) in batch.into_iter().zip(counter.counts()) {
                if count >= min_support_count {
                    counted.insert(set, count);
                } else {
                    known_small.insert(set);
                }
            }
        }

        let mut large: Vec<(Itemset, u64)> = counted.into_iter().collect();
        large.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        if large.is_empty() {
            break;
        }
        passes.push(LargePass { k, itemsets: large });
        k += 1;
    }

    Ok(MiningOutput {
        algorithm: Algorithm::Cumulate, // answer-compatible with Cumulate
        num_transactions,
        min_support_count,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::cumulate;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::iset;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn sa95() -> (Taxonomy, PartitionedDatabase) {
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
        (
            tax,
            PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap(),
        )
    }

    #[test]
    fn itemset_depth_sums_member_depths() {
        let (tax, _) = sa95();
        assert_eq!(itemset_depth(&iset![0, 5], &tax), 0);
        assert_eq!(itemset_depth(&iset![1, 5], &tax), 1);
        assert_eq!(itemset_depth(&iset![3, 7], &tax), 3);
    }

    #[test]
    fn ancestor_itemset_detection() {
        let (tax, _) = sa95();
        assert!(is_ancestor_itemset(&iset![1, 7], &iset![3, 7], &tax));
        assert!(is_ancestor_itemset(&iset![0, 5], &iset![3, 7], &tax));
        assert!(!is_ancestor_itemset(&iset![3, 7], &iset![1, 7], &tax));
        assert!(!is_ancestor_itemset(&iset![1, 7], &iset![1, 7], &tax));
        assert!(!is_ancestor_itemset(&iset![2, 5], &iset![3, 7], &tax));
    }

    #[test]
    fn agrees_with_cumulate_on_sa95_example() {
        let (tax, db) = sa95();
        for batch in [1u32, 2, 100] {
            for minsup in [0.3, 0.15, 0.5] {
                let params = MiningParams::with_min_support(minsup);
                let a = cumulate(db.partition(0), &tax, &params).unwrap();
                let b = stratify(db.partition(0), &tax, &params, batch).unwrap();
                assert_eq!(
                    a.num_large(),
                    b.num_large(),
                    "batch {batch} minsup {minsup}"
                );
                for (x, y) in a.all_large().zip(b.all_large()) {
                    assert_eq!(x, y);
                }
            }
        }
    }

    #[test]
    fn prunes_descendants_of_small_ancestors() {
        // Count scans: with stratum_batch = 1 and a small ancestor
        // stratum, descendant strata must trigger fewer counted
        // candidates. We verify indirectly: small ancestor => descendant
        // never large, and the scan count grows with strata.
        let (tax, db) = sa95();
        let params = MiningParams::with_min_support(0.9); // everything small at k=2
        let out = stratify(db.partition(0), &tax, &params, 1).unwrap();
        assert!(out.large(2).is_none());
    }

    #[test]
    fn stratified_scans_cost_more_io_than_cumulate() {
        let (tax, db) = sa95();
        let params = MiningParams::with_min_support(0.3);
        let before = db.partition(0).bytes_read();
        cumulate(db.partition(0), &tax, &params).unwrap();
        let cumulate_io = db.partition(0).bytes_read() - before;
        let before = db.partition(0).bytes_read();
        stratify(db.partition(0), &tax, &params, 1).unwrap();
        let stratify_io = db.partition(0).bytes_read() - before;
        assert!(
            stratify_io >= cumulate_io,
            "stratify {stratify_io} < cumulate {cumulate_io}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::stratify;
    use crate::params::MiningParams;
    use crate::sequential::cumulate;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::synth::{synthesize, SynthTaxonomyConfig};
    use gar_types::ItemId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn stratify_always_matches_cumulate(
            seed in 0u64..500,
            raw in proptest::collection::vec(
                proptest::collection::btree_set(0u32..30, 1..5), 4..30),
            div in 2u32..5,
            batch in 1u32..4,
        ) {
            let tax = synthesize(&SynthTaxonomyConfig {
                num_items: 30,
                num_roots: 3,
                fanout: 3.0,
                seed,
            });
            let txns: Vec<Vec<ItemId>> = raw.into_iter()
                .map(|s| s.into_iter().map(ItemId).collect())
                .collect();
            let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
            let params = MiningParams::with_min_support(1.0 / f64::from(div));
            let a = cumulate(db.partition(0), &tax, &params).unwrap();
            let b = stratify(db.partition(0), &tax, &params, batch).unwrap();
            prop_assert_eq!(a.num_large(), b.num_large());
            for (x, y) in a.all_large().zip(b.all_large()) {
                prop_assert_eq!(x, y);
            }
        }
    }
}
