//! Duplicate-candidate selection for the skew-handling algorithms
//! (§3.4): H-HPGM-TGD, -PGD, -FGD.
//!
//! All three fill a node's *free* candidate memory (`M` minus the largest
//! H-HPGM partition) with copies of the candidates expected to be hottest,
//! so their support counting happens locally on every node — removing both
//! the communication and the probe hot spot those candidates would
//! otherwise concentrate on one owner. They differ only in the granule:
//!
//! * **Tree** — whole root-itemset groups ("trees"), hottest roots first,
//!   stopping at the first group that does not fit (the paper: "when the
//!   size of free memory is small, H-HPGM-TGD cannot duplicate ... since
//!   it copies the whole hierarchy");
//! * **Path** — hot *leaf-level* candidates plus all their ancestor
//!   candidates, skipping what does not fit and packing on;
//! * **Fine** — hot candidates of *any* level plus ancestors, greedy by
//!   estimated frequency. The finest granule, the best packing — and the
//!   only one that catches hot interior itemsets whose descendants are
//!   individually cold (the paper's stated weakness of PGD).
//!
//! A candidate's *ancestor candidates* are the candidates it properly
//! specializes, from the one generalization lookup, [`Generalizations`],
//! built once per selection over the candidates.
//!
//! Frequency is estimated from the pass-1 global item counts (`sup_cou` of
//! each item), which every node holds identically, so the selection is
//! deterministic and replica-consistent with zero communication.

use crate::counter::candidate_entry_bytes;
use gar_taxonomy::{Generalizations, Taxonomy};
use gar_types::{ItemId, Itemset};
use std::cmp::Ordering;

/// The duplication granule (one per skew-handling algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateGrain {
    /// H-HPGM-TGD: whole root-itemset trees.
    Tree,
    /// H-HPGM-PGD: hot leaf-level candidates + ancestor paths.
    Path,
    /// H-HPGM-FGD: hot candidates of any level + ancestors.
    Fine,
}

/// The outcome of duplicate selection.
#[derive(Debug, Clone)]
pub struct DuplicateSelection {
    /// `C_k^D` — candidates replicated on every node, in deterministic
    /// selection order (the order matters: its count vector is
    /// all-reduced).
    pub duplicated: Vec<Itemset>,
    /// The candidates that stay hash-partitioned, in input order.
    pub remaining: Vec<Itemset>,
}

/// Estimated frequency of an itemset: the product of its items' global
/// support fractions (independence assumption — only the *ranking*
/// matters, and item supports are what the paper sorts by too).
fn estimate(
    items: impl IntoIterator<Item = ItemId>,
    item_counts: &[u64],
    num_transactions: u64,
) -> f64 {
    let n = (num_transactions.max(1)) as f64;
    items
        .into_iter()
        .map(|it| item_counts[it.index()] as f64 / n)
        .product()
}

/// Sorts `entries` hottest first — `heat` descending, ties by `tie`
/// ascending — computing each entry's heat once, not twice per
/// comparison. Heats are products of non-negative fractions (never NaN,
/// never −0), where `total_cmp` is `partial_cmp`.
fn sort_hottest_first<T>(
    entries: &mut Vec<T>,
    heat: impl Fn(&T) -> f64,
    tie: impl Fn(&T, &T) -> Ordering,
) {
    let mut keyed: Vec<(f64, T)> = entries.drain(..).map(|e| (heat(&e), e)).collect();
    keyed.sort_by(|(ha, a), (hb, b)| hb.total_cmp(ha).then_with(|| tie(a, b)));
    entries.extend(keyed.into_iter().map(|(_, e)| e));
}

/// The root-itemset keys of `candidates`, back to back: `k` root codes
/// per candidate (each member replaced by its root, sorted), the H-HPGM
/// family's placement key computed once per candidate.
pub(crate) fn root_keys(candidates: &[Itemset], tax: &Taxonomy) -> Vec<u32> {
    let mut keys = Vec::with_capacity(candidates.iter().map(Itemset::len).sum());
    for c in candidates {
        let at = keys.len();
        keys.extend(c.items().iter().map(|&it| tax.root_of(it).raw()));
        keys[at..].sort_unstable();
    }
    keys
}

/// The greedy fill of the free memory: which candidates are taken, in
/// what order, and how many bytes are left.
struct Fill {
    taken: Vec<bool>,
    order: Vec<usize>,
    budget: u64,
    entry: u64,
}

impl Fill {
    /// Takes the untaken members of `group` (candidate indices, distinct)
    /// atomically: all of them if they fit, else none.
    fn take(&mut self, group: &[usize]) -> bool {
        let need = group.iter().filter(|&&i| !self.taken[i]).count() as u64 * self.entry;
        if need == 0 {
            return true;
        }
        if need > self.budget {
            return false;
        }
        self.budget -= need;
        for &i in group {
            if !self.taken[i] {
                self.taken[i] = true;
                self.order.push(i);
            }
        }
        true
    }
}

/// Selects `C_k^D` under `budget_bytes` of per-node free memory.
///
/// `candidates` are distinct, in any order. `item_counts` are the
/// pass-1 global item supports; `l1` flags which items are large (needed
/// to find the leaf level of the *large* item hierarchy for the Path
/// grain).
pub fn select_duplicates(
    grain: DuplicateGrain,
    candidates: &[Itemset],
    tax: &Taxonomy,
    item_counts: &[u64],
    num_transactions: u64,
    l1: &[bool],
    budget_bytes: u64,
) -> DuplicateSelection {
    let keys = root_keys(candidates, tax);
    let (order, taken) = select_duplicate_indices(
        grain,
        candidates,
        &keys,
        tax,
        item_counts,
        num_transactions,
        l1,
        budget_bytes,
    );
    DuplicateSelection {
        duplicated: order.iter().map(|&i| candidates[i].clone()).collect(),
        remaining: candidates
            .iter()
            .zip(taken)
            .filter(|(_, t)| !t)
            .map(|(c, _)| c.clone())
            .collect(),
    }
}

/// [`select_duplicates`] over candidate indices: the indices of `C_k^D`
/// in selection order, and per candidate whether it is in `C_k^D`.
/// `keys` are the candidates' [`root_keys`].
#[expect(
    clippy::too_many_arguments,
    reason = "select_duplicates' inputs plus the caller's root keys"
)]
pub(crate) fn select_duplicate_indices(
    grain: DuplicateGrain,
    candidates: &[Itemset],
    keys: &[u32],
    tax: &Taxonomy,
    item_counts: &[u64],
    num_transactions: u64,
    l1: &[bool],
    budget_bytes: u64,
) -> (Vec<usize>, Vec<bool>) {
    let none = || (Vec::new(), vec![false; candidates.len()]);
    let Some(k) = candidates.first().map(Itemset::len) else {
        return none();
    };
    let entry = candidate_entry_bytes(k);
    if budget_bytes < entry {
        return none();
    }
    let mut fill = Fill {
        taken: vec![false; candidates.len()],
        order: Vec::new(),
        budget: budget_bytes,
        entry,
    };

    let (counts, txns) = (item_counts, num_transactions);
    let key = |i: usize| &keys[i * k..][..k];
    match grain {
        DuplicateGrain::Tree => {
            // Group candidates by root itemset (a stable sort keeps each
            // group in input order); order groups by estimated
            // root-combination frequency; take whole groups until one
            // fails to fit.
            let mut by_key: Vec<usize> = (0..candidates.len()).collect();
            by_key.sort_by(|&a, &b| key(a).cmp(key(b)));
            let mut groups: Vec<&[usize]> = by_key.chunk_by(|&a, &b| key(a) == key(b)).collect();
            sort_hottest_first(
                &mut groups,
                |g| estimate(key(g[0]).iter().map(|&r| ItemId(r)), counts, txns),
                |a, b| key(a[0]).cmp(key(b[0])),
            );
            for group in groups {
                if !fill.take(group) {
                    break; // coarse grain: stop at the first non-fit
                }
            }
        }
        DuplicateGrain::Path | DuplicateGrain::Fine => {
            // Seed pool: for Path, candidates whose members are all
            // leaf-level large items (large with no large descendant);
            // for Fine, every candidate.
            let is_large = |it: ItemId| l1.get(it.index()).copied().unwrap_or(false);
            let mut has_large_below = vec![false; tax.num_items() as usize];
            if grain == DuplicateGrain::Path {
                for it in (0..tax.num_items()).map(ItemId).filter(|&it| is_large(it)) {
                    for &a in tax.ancestors(it) {
                        has_large_below[a.index()] = true;
                    }
                }
            }
            let lowest_large = |it: ItemId| is_large(it) && !has_large_below[it.index()];
            let mut pool: Vec<usize> = (0..candidates.len())
                .filter(|&i| match grain {
                    DuplicateGrain::Path => {
                        candidates[i].items().iter().all(|&it| lowest_large(it))
                    }
                    _ => true,
                })
                .collect();
            sort_hottest_first(
                &mut pool,
                |&i| estimate(candidates[i].items().iter().copied(), counts, txns),
                |&a, &b| candidates[a].cmp(&candidates[b]),
            );
            // The candidates are distinct: a candidate's id is its index.
            let mut general = Generalizations::new(tax);
            general.extend(candidates.iter().map(Itemset::items));
            let mut group = Vec::new();
            for &seed in &pool {
                if fill.taken[seed] {
                    continue;
                }
                // The seed, then its ancestor candidates in candidate order.
                group.clear();
                group.push(seed);
                let ancestors = general.of(candidates[seed].items());
                group.extend(ancestors.iter().map(|&i| i as usize));
                group[1..].sort_unstable_by(|&a, &b| candidates[a].cmp(&candidates[b]));
                match grain {
                    // A path is atomic: the hot leaf itemset together with
                    // its whole generalization chain, or nothing.
                    DuplicateGrain::Path => {
                        fill.take(&group);
                    }
                    // Fine grain packs candidate by candidate "so that free
                    // space be occupied as much as possible".
                    _ => {
                        for one in group.chunks(1) {
                            fill.take(one);
                        }
                    }
                }
                if fill.budget < entry {
                    break; // no room for anything further
                }
            }
        }
    }
    (fill.order, fill.taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::common::root_key;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::{iset, FxHashMap, FxHashSet};
    use proptest::prelude::*;

    /// The allocating enumeration `select_duplicates` used before its
    /// scratch was reused, kept as the oracle: the ancestor candidates of
    /// `c` as itemsets, sorted.
    fn ancestor_candidates(
        c: &Itemset,
        tax: &Taxonomy,
        index: &FxHashMap<Itemset, usize>,
    ) -> Vec<Itemset> {
        // Choice list per member: itself + its proper ancestors.
        let choices: Vec<Vec<ItemId>> = c
            .items()
            .iter()
            .map(|&it| {
                let mut v = vec![it];
                v.extend_from_slice(tax.ancestors(it));
                v
            })
            .collect();
        let mut out = Vec::new();
        let mut pick = vec![0usize; choices.len()];
        loop {
            // Skip the all-self combination (that is `c`).
            if pick.iter().any(|&p| p > 0) {
                let items: Vec<ItemId> = pick.iter().zip(&choices).map(|(&p, ch)| ch[p]).collect();
                let set = Itemset::from_unsorted(items);
                if set.len() == c.len() && index.contains_key(&set) {
                    out.push(set);
                }
            }
            // Odometer increment.
            let mut d = 0;
            loop {
                if d == pick.len() {
                    out.sort_unstable();
                    out.dedup();
                    return out;
                }
                pick[d] += 1;
                if pick[d] < choices[d].len() {
                    break;
                }
                pick[d] = 0;
                d += 1;
            }
        }
    }

    /// The allocating selection — cloned index, `FxHashSet` of taken
    /// indices, boxed root keys, per-item descendant walks, heats
    /// recomputed in every comparison — kept as the oracle of
    /// `select_duplicates`.
    fn select_reference(
        grain: DuplicateGrain,
        candidates: &[Itemset],
        tax: &Taxonomy,
        counts: &[u64],
        txns: u64,
        l1: &[bool],
        budget_bytes: u64,
    ) -> DuplicateSelection {
        let none = || DuplicateSelection {
            duplicated: Vec::new(),
            remaining: candidates.to_vec(),
        };
        if candidates.is_empty() {
            return none();
        }
        let entry = candidate_entry_bytes(candidates[0].len());
        if budget_bytes < entry {
            return none();
        }
        let index: FxHashMap<Itemset, usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        let mut taken: FxHashSet<usize> = FxHashSet::default();
        let mut duplicated: Vec<Itemset> = Vec::new();
        let mut budget = budget_bytes;
        let try_take = |group: &[usize],
                        taken: &mut FxHashSet<usize>,
                        duplicated: &mut Vec<Itemset>,
                        budget: &mut u64|
         -> bool {
            let fresh: Vec<usize> = group
                .iter()
                .copied()
                .filter(|i| !taken.contains(i))
                .collect();
            let need = fresh.len() as u64 * entry;
            if need == 0 {
                return true;
            }
            if need > *budget {
                return false;
            }
            *budget -= need;
            for i in fresh {
                taken.insert(i);
                duplicated.push(candidates[i].clone());
            }
            true
        };
        match grain {
            DuplicateGrain::Tree => {
                let mut groups: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
                for (i, c) in candidates.iter().enumerate() {
                    groups.entry(root_key(c.items(), tax)).or_default().push(i);
                }
                // Hash order, sorted just below with a total-order tie-break.
                let mut ordered: Vec<(Box<[u32]>, Vec<usize>)> = groups.into_iter().collect();
                sort_hottest_first_uncached(
                    &mut ordered,
                    |(key, _)| estimate(key.iter().map(|&r| ItemId(r)), counts, txns),
                    |(ka, _), (kb, _)| ka.cmp(kb),
                );
                for (_, group) in &ordered {
                    if !try_take(group, &mut taken, &mut duplicated, &mut budget) {
                        break;
                    }
                }
            }
            DuplicateGrain::Path | DuplicateGrain::Fine => {
                let is_large = |it: ItemId| l1.get(it.index()).copied().unwrap_or(false);
                // Large, with no large proper descendant.
                let lowest_large = |it: ItemId| -> bool {
                    let mut below = tax.children(it).to_vec();
                    let mut descendants = std::iter::from_fn(|| {
                        let d = below.pop()?;
                        below.extend_from_slice(tax.children(d));
                        Some(d)
                    });
                    is_large(it) && !descendants.any(is_large)
                };
                let mut pool: Vec<usize> = (0..candidates.len())
                    .filter(|&i| match grain {
                        DuplicateGrain::Path => {
                            candidates[i].items().iter().all(|&it| lowest_large(it))
                        }
                        _ => true,
                    })
                    .collect();
                sort_hottest_first_uncached(
                    &mut pool,
                    |&i| estimate(candidates[i].items().iter().copied(), counts, txns),
                    |&a, &b| candidates[a].cmp(&candidates[b]),
                );
                for &seed in &pool {
                    if taken.contains(&seed) {
                        continue;
                    }
                    let ancestors: Vec<usize> = ancestor_candidates(&candidates[seed], tax, &index)
                        .into_iter()
                        .map(|anc| index[&anc])
                        .collect();
                    if grain == DuplicateGrain::Path {
                        let mut group = vec![seed];
                        group.extend_from_slice(&ancestors);
                        try_take(&group, &mut taken, &mut duplicated, &mut budget);
                    } else {
                        try_take(&[seed], &mut taken, &mut duplicated, &mut budget);
                        for anc in ancestors {
                            try_take(&[anc], &mut taken, &mut duplicated, &mut budget);
                        }
                    }
                    if budget < entry {
                        break;
                    }
                }
            }
        }
        let remaining = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| !taken.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        DuplicateSelection {
            duplicated,
            remaining,
        }
    }

    /// How `select_duplicates` sorted before heats were cached: both
    /// heats recomputed for every comparison.
    fn sort_hottest_first_uncached<T>(
        entries: &mut [T],
        heat: impl Fn(&T) -> f64,
        tie: impl Fn(&T, &T) -> Ordering,
    ) {
        entries.sort_by(|a, b| {
            heat(b)
                .partial_cmp(&heat(a))
                .unwrap()
                .then_with(|| tie(a, b))
        });
    }

    proptest! {
        // Random forests (items 0..6 are roots, item i ≥ 6 hangs under an
        // earlier one) with item counts that tie often, with pairs and
        // with the triples joined from them, under budgets from nothing to
        // everything: each grain duplicates exactly what the allocating,
        // comparator-sorted selection did, in its order, and keeps the
        // same remainder in input order.
        #[test]
        fn allocation_free_selection_matches_the_reference(
            parents in proptest::collection::vec(0u32..1000, 40..=40),
            counts in proptest::collection::vec(1u64..6, 40..=40),
            large in proptest::collection::vec(0u32..10, 40..=40),
            budget in 0u64..400,
            triples in 0u32..2
        ) {
            let mut b = TaxonomyBuilder::new(40);
            for i in 6..40u32 {
                b.edge(i, parents[i as usize] % i).unwrap();
            }
            let tax = b.build().unwrap();
            let l1: Vec<bool> = large.iter().map(|&r| r < 8).collect();
            let items: Vec<ItemId> = (0..40).filter(|&i| l1[i as usize]).map(ItemId).collect();
            let mut cands = crate::candidate::generate_pairs(&items, Some(&tax));
            if triples == 1 {
                cands = crate::candidate::generate_candidates(&cands);
            }
            let k = cands.first().map_or(2, Itemset::len);
            let budget = budget * candidate_entry_bytes(k);
            for grain in [DuplicateGrain::Tree, DuplicateGrain::Path, DuplicateGrain::Fine] {
                let got = select_duplicates(grain, &cands, &tax, &counts, 20, &l1, budget);
                let want = select_reference(grain, &cands, &tax, &counts, 20, &l1, budget);
                prop_assert_eq!((grain, &got.duplicated), (grain, &want.duplicated));
                prop_assert_eq!((grain, &got.remaining), (grain, &want.remaining));
            }
        }
    }

    /// The paper's example forest: 1 -> {3,4,5}, 3 -> {7,8}, 4 -> {9,10},
    /// 2 -> {6}, 6 -> {15}.
    fn paper_forest() -> Taxonomy {
        let mut b = TaxonomyBuilder::new(16);
        for (c, p) in [
            (3, 1),
            (4, 1),
            (5, 1),
            (7, 3),
            (8, 3),
            (9, 4),
            (10, 4),
            (6, 2),
            (15, 6),
        ] {
            b.edge(c, p).unwrap();
        }
        b.build().unwrap()
    }

    /// All non-related pairs over the paper's large items, as in Figure 6.
    fn figure6_candidates(tax: &Taxonomy) -> Vec<Itemset> {
        let large: Vec<ItemId> = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15]
            .into_iter()
            .map(ItemId)
            .collect();
        crate::candidate::generate_pairs(&large, Some(tax))
    }

    fn counts_with(tax: &Taxonomy, hot: &[(u32, u64)]) -> Vec<u64> {
        let mut c = vec![10u64; tax.num_items() as usize];
        for &(i, v) in hot {
            c[i as usize] = v;
        }
        c
    }

    fn l1_all(tax: &Taxonomy) -> Vec<bool> {
        let large = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15];
        (0..tax.num_items()).map(|i| large.contains(&i)).collect()
    }

    #[test]
    fn zero_budget_duplicates_nothing() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let sel = select_duplicates(
            DuplicateGrain::Fine,
            &cands,
            &tax,
            &counts_with(&tax, &[]),
            100,
            &l1_all(&tax),
            0,
        );
        assert!(sel.duplicated.is_empty());
        assert_eq!(sel.remaining.len(), cands.len());
    }

    #[test]
    fn tree_grain_takes_whole_hot_tree() {
        // Paper Example 3: Sup(1) highest => the tree of root 1 (pairs
        // within root 1: {4,5},{5,10},{4,8},... all pairs with root key
        // [1,1]) is duplicated first.
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(1, 1000), (3, 500), (2, 100)]);
        let tree11: Vec<&Itemset> = cands
            .iter()
            .filter(|c| &*root_key(c.items(), &tax) == [1, 1].as_slice())
            .collect();
        let budget = tree11.len() as u64 * candidate_entry_bytes(2);
        let sel = select_duplicates(
            DuplicateGrain::Tree,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        assert_eq!(sel.duplicated.len(), tree11.len());
        for d in &sel.duplicated {
            assert_eq!(&*root_key(d.items(), &tax), [1, 1].as_slice());
        }
        // Paper Example 3 names {4,5} and {5,10} among them.
        assert!(sel.duplicated.contains(&iset![4, 5]));
        assert!(sel.duplicated.contains(&iset![5, 10]));
    }

    #[test]
    fn tree_grain_stops_when_tree_does_not_fit() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(1, 1000)]);
        // Budget for 2 entries: the [1,1] tree is bigger, so nothing fits.
        let sel = select_duplicates(
            DuplicateGrain::Tree,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            2 * candidate_entry_bytes(2),
        );
        assert!(sel.duplicated.is_empty());
    }

    #[test]
    fn path_grain_matches_paper_example_4() {
        // Paper Example 4: hot leaf pair {8,10} is duplicated with its
        // ancestor candidates {1,3},{1,8},{3,4},{3,10},{4,8} (and {4,10},
        // {1,10},{1,4},{3,8}? — the paper lists the five shown; the exact
        // ancestor set is every candidate reachable by generalizing 8
        // and/or 10).
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(8, 900), (10, 800)]);
        let budget = 16 * candidate_entry_bytes(2);
        let sel = select_duplicates(
            DuplicateGrain::Path,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        assert!(sel.duplicated.contains(&iset![8, 10]));
        for anc in [iset![3, 4], iset![3, 10], iset![4, 8]] {
            assert!(sel.duplicated.contains(&anc), "missing ancestor {anc:?}");
        }
        // {1,3} and {1,8}: ancestors of {8,10}? 1 is an ancestor of 10 via
        // 4, 3 of 8 — but {1,3},{1,8} mix tree-1 items, they are related
        // pairs and never candidates. The paper's figure lists them due to
        // its different tree (8 under 3 under 1, 10 under 4 under 1 — both
        // in tree 1). In this forest both ARE in tree 1, so {1,anything
        // under 1} is related => the true ancestor candidates here are the
        // unrelated generalizations only.
        for d in &sel.duplicated {
            assert!(!tax.related(d.items()[0], d.items()[1]));
        }
    }

    #[test]
    fn path_grain_ignores_hot_interior_items() {
        // Interior item 3 is hot, but its leaf descendants are cold: Path
        // must not seed from {3, x} (interior), Fine must.
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(3, 1000), (6, 950)]);
        let budget = 3 * candidate_entry_bytes(2);
        let path = select_duplicates(
            DuplicateGrain::Path,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        let fine = select_duplicates(
            DuplicateGrain::Fine,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        assert!(!path.duplicated.contains(&iset![3, 6]));
        assert!(fine.duplicated.contains(&iset![3, 6]));
    }

    #[test]
    fn fine_grain_fills_budget_better_than_tree() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(1, 1000), (8, 900), (10, 800)]);
        let budget = 5 * candidate_entry_bytes(2);
        let tree = select_duplicates(
            DuplicateGrain::Tree,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        let fine = select_duplicates(
            DuplicateGrain::Fine,
            &cands,
            &tax,
            &counts,
            100,
            &l1_all(&tax),
            budget,
        );
        assert!(fine.duplicated.len() > tree.duplicated.len());
        assert!(fine.duplicated.len() as u64 * candidate_entry_bytes(2) <= budget);
    }

    #[test]
    fn duplicated_and_remaining_partition_the_candidates() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(8, 900)]);
        for grain in [
            DuplicateGrain::Tree,
            DuplicateGrain::Path,
            DuplicateGrain::Fine,
        ] {
            let sel = select_duplicates(
                grain,
                &cands,
                &tax,
                &counts,
                100,
                &l1_all(&tax),
                8 * candidate_entry_bytes(2),
            );
            assert_eq!(sel.duplicated.len() + sel.remaining.len(), cands.len());
            let dup: FxHashSet<&Itemset> = sel.duplicated.iter().collect();
            assert_eq!(dup.len(), sel.duplicated.len(), "duplicates repeated");
            for r in &sel.remaining {
                assert!(!dup.contains(r));
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let counts = counts_with(&tax, &[(8, 900), (10, 900)]);
        let run = || {
            select_duplicates(
                DuplicateGrain::Fine,
                &cands,
                &tax,
                &counts,
                100,
                &l1_all(&tax),
                10 * candidate_entry_bytes(2),
            )
            .duplicated
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ancestor_candidates_enumeration() {
        let tax = paper_forest();
        let cands = figure6_candidates(&tax);
        let index: FxHashMap<Itemset, usize> = cands
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        // {8,15}: 8 generalizes to 3, 1; 15 to 6, 2. The generalization
        // lookup finds what the allocating enumeration does, in its order
        // (the pairs are generated in ascending order).
        let ancs = ancestor_candidates(&iset![8, 15], &tax, &index);
        let mut general = Generalizations::new(&tax);
        general.extend(cands.iter().map(Itemset::items));
        let found: Vec<&Itemset> = general
            .of(iset![8, 15].items())
            .iter()
            .map(|&i| &cands[i as usize])
            .collect();
        assert_eq!(found, ancs.iter().collect::<Vec<_>>());
        for expected in [
            iset![3, 15],
            iset![1, 15],
            iset![6, 8],
            iset![2, 8],
            iset![3, 6],
            iset![1, 6],
            iset![2, 3],
            iset![1, 2],
        ] {
            assert!(ancs.contains(&expected), "missing {expected:?}");
        }
        assert!(!ancs.contains(&iset![8, 15]), "must exclude the seed");
    }
}
