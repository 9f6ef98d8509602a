//! Single-threaded taxonomy-extended FP-Growth.
//!
//! Two scans (count, build) plus one projection sweep. The output matches
//! the sequential Cumulate oracle byte-for-byte: identical itemsets,
//! identical support counts, identical canonical order — that equality is
//! pinned by the `oracle` integration tests at several minimum supports
//! and pass caps.

use crate::grow::{mine_projection, CondBase, GrowCtx};
use crate::order::{ItemOrder, RelatedRanks};
use crate::tree::FpTree;
use gar_mining::params::{Algorithm, MiningParams};
use gar_mining::report::{LargePass, MiningOutput};
use gar_mining::sequential::large_items_from_counts;
use gar_storage::FlatPartition;
use gar_taxonomy::Taxonomy;
use gar_types::{ItemId, Itemset, Result};
use std::collections::BTreeMap;

/// Mines all generalized large itemsets of `source` by pattern growth.
///
/// # Errors
/// Propagates invalid parameters and storage failures.
pub fn mine_sequential(
    source: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
) -> Result<MiningOutput> {
    params.validate()?;
    let num_transactions = source.num_transactions() as u64;
    let min_support_count = params.min_support_count(num_transactions);

    // Scan 1: count every item of every level over extended transactions.
    let mut counts = vec![0u64; tax.num_items() as usize];
    let mut extended = Vec::new();
    scan(source, |t| {
        tax.extend_transaction_into(t, &mut extended);
        for &it in &extended {
            counts[it.index()] += 1;
        }
    })?;
    let large1 = large_items_from_counts(&counts, min_support_count);
    let order = ItemOrder::new(&counts, min_support_count);

    let mut passes = Vec::new();
    if !large1.itemsets.is_empty() {
        passes.push(large1);
    }

    if params.max_pass != Some(1) && order.num_large() > 0 {
        // Scan 2: build the FP-tree over rank-projected transactions.
        let mut tree = FpTree::new(order.num_large());
        let mut ranks = Vec::new();
        scan(source, |t| {
            tax.extend_transaction_into(t, &mut extended);
            order.project(&extended, &mut ranks);
            tree.insert(&ranks);
        })?;

        // One projection per large item, most frequent first.
        let related = RelatedRanks::new(&order, tax);
        let mut ctx = GrowCtx::new(&order, &related, min_support_count, params.max_pass);
        let mut base = CondBase::new();
        let mut found: Vec<(Itemset, u64)> = Vec::new();
        for r in 0..order.num_large() as u32 {
            extract_base(&tree, &related, r, &mut base);
            mine_projection(&mut ctx, order.item_at(r), &base, &mut found);
        }
        passes.extend(group_passes(found));
    }

    Ok(MiningOutput {
        algorithm: Algorithm::FpGrowth,
        num_transactions,
        min_support_count,
        passes,
    })
}

/// Refills `base` with the conditional base of rank `r`'s item: its
/// prefix paths with items hierarchy-related to it dropped (the
/// ancestor-redundancy filter) and empty remainders skipped.
fn extract_base(tree: &FpTree, related: &RelatedRanks, r: u32, base: &mut CondBase) {
    base.clear();
    tree.for_each_base_path::<std::convert::Infallible>(r, &mut |path, count| {
        base.push_filtered(path, related.row(r), count);
        Ok(())
    })
    .unwrap_or_else(|e| match e {});
}

/// Canonicalizes depth-first growth emissions into the Apriori pass
/// shape: grouped by size, each group sorted by itemset, sizes ascending.
pub(crate) fn group_passes(found: Vec<(Itemset, u64)>) -> Vec<LargePass> {
    let mut by_k: BTreeMap<usize, Vec<(Itemset, u64)>> = BTreeMap::new();
    for (set, count) in found {
        by_k.entry(set.len()).or_default().push((set, count));
    }
    by_k.into_iter()
        .map(|(k, mut itemsets)| {
            itemsets.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
            LargePass { k, itemsets }
        })
        .collect()
}

fn scan(source: &FlatPartition, mut f: impl FnMut(&[ItemId])) -> Result<()> {
    let mut s = source.scan()?;
    while let Some(t) = s.next_slice()? {
        f(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::iset;

    fn db(txns: Vec<Vec<u32>>) -> PartitionedDatabase {
        PartitionedDatabase::build_in_memory(
            1,
            txns.into_iter()
                .map(|t| t.into_iter().map(ItemId).collect()),
        )
        .unwrap()
    }

    #[test]
    fn ancestors_count_without_appearing() {
        // 0 is the parent of 1 and 2.
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        let tax = b.build().unwrap();
        let database = db(vec![vec![1], vec![2], vec![1, 2], vec![1]]);
        let out = mine_sequential(
            database.partition(0),
            &tax,
            &MiningParams::with_min_support(0.9),
        )
        .unwrap();
        // Every transaction holds a descendant of 0.
        assert_eq!(out.support_of(&[ItemId(0)]), Some(4));
        // {0, 1} would pair an item with its ancestor: never emitted.
        assert_eq!(out.support_of(&[ItemId(0), ItemId(1)]), None);
    }

    #[test]
    fn pairs_across_subtrees_are_found() {
        // Roots 0 and 3; 0 -> {1, 2}, 3 -> {4}.
        let mut b = TaxonomyBuilder::new(5);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        b.edge(4, 3).unwrap();
        let tax = b.build().unwrap();
        let database = db(vec![vec![1, 4], vec![2, 4], vec![1], vec![4]]);
        let out = mine_sequential(
            database.partition(0),
            &tax,
            &MiningParams::with_min_support(0.5),
        )
        .unwrap();
        // {0, 3} is supported by the two mixed transactions (via
        // ancestors), as is {0, 4}.
        assert_eq!(out.support_of(&[ItemId(0), ItemId(3)]), Some(2));
        assert_eq!(out.support_of(&[ItemId(0), ItemId(4)]), Some(2));
        assert_eq!(out.support_of(&[ItemId(1), ItemId(4)]), None); // count 1
    }

    #[test]
    fn group_passes_canonical_order() {
        let passes = group_passes(vec![
            (iset![2, 5], 4),
            (iset![1, 2, 3], 2),
            (iset![0, 1], 9),
        ]);
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].k, 2);
        assert_eq!(passes[0].itemsets, vec![(iset![0, 1], 9), (iset![2, 5], 4)]);
        assert_eq!(passes[1].k, 3);
    }

    #[test]
    fn empty_database_yields_empty_output() {
        let tax = TaxonomyBuilder::new(2).build().unwrap();
        let database = db(vec![]);
        let out = mine_sequential(
            database.partition(0),
            &tax,
            &MiningParams::with_min_support(0.1),
        )
        .unwrap();
        assert_eq!(out.num_large(), 0);
        assert_eq!(out.num_transactions, 0);
    }
}
