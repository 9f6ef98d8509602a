//! Plain Apriori ([RR94]) — the hierarchy-blind baseline.

use crate::candidate::{generate_candidates, generate_pairs};
use crate::counter::build_counter;
use crate::params::{Algorithm, MiningParams};
use crate::report::{LargePass, MiningOutput};
use crate::sequential::{extract_large, large_items_from_counts};
use gar_storage::TransactionSource;
use gar_types::{ItemId, Itemset, Result};

/// Mines large itemsets without any taxonomy: transactions are counted
/// as-is. `num_items` bounds the item universe (dense pass-1 counting).
///
/// Kept as the reference point the paper's introduction argues against:
/// on hierarchical data it finds only leaf-level itemsets, missing every
/// association that is frequent only at a generalized level (the bench
/// crate's ablation quantifies the difference).
pub fn apriori(
    part: &dyn TransactionSource,
    num_items: u32,
    params: &MiningParams,
) -> Result<MiningOutput> {
    params.validate()?;
    let num_transactions = part.num_transactions() as u64;
    let min_support_count = params.min_support_count(num_transactions);

    let mut item_counts = vec![0u64; num_items as usize];
    let mut buf = Vec::new();
    let mut scan = part.scan()?;
    while scan.next_into(&mut buf)? {
        for it in &buf {
            item_counts[it.index()] += 1;
        }
    }
    drop(scan);
    let mut passes = vec![large_items_from_counts(&item_counts, min_support_count)];

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
        let candidates: Vec<Itemset> = if k == 2 {
            let l1: Vec<ItemId> = prev.iter().map(|(s, _)| s.items()[0]).collect();
            generate_pairs(&l1, None)
        } else {
            let prev_sets: Vec<Itemset> = prev.iter().map(|(s, _)| s.clone()).collect();
            generate_candidates(&prev_sets)
        };
        if candidates.is_empty() {
            break;
        }
        let mut counter = build_counter(params.counter, k, &candidates);
        let mut scan = part.scan()?;
        while scan.next_into(&mut buf)? {
            counter.count_transaction(&buf);
        }
        drop(scan);
        let large = extract_large(counter, min_support_count);
        if large.is_empty() {
            break;
        }
        passes.push(LargePass { k, itemsets: large });
        k += 1;
    }

    Ok(MiningOutput {
        algorithm: Algorithm::Apriori,
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

    #[test]
    fn textbook_example() {
        // Four transactions, 50% support.
        let txns = vec![
            ids(&[1, 3, 4]),
            ids(&[2, 3, 5]),
            ids(&[1, 2, 3, 5]),
            ids(&[2, 5]),
        ];
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let out = apriori(db.partition(0), 6, &MiningParams::with_min_support(0.5)).unwrap();
        let l1: Vec<u32> = out
            .large(1)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.items()[0].raw())
            .collect();
        assert_eq!(l1, vec![1, 2, 3, 5]);
        let l2: Vec<Itemset> = out
            .large(2)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.clone())
            .collect();
        assert_eq!(l2, vec![iset![1, 3], iset![2, 3], iset![2, 5], iset![3, 5]]);
        let l3 = &out.large(3).unwrap().itemsets;
        assert_eq!(l3, &vec![(iset![2, 3, 5], 2)]);
    }

    #[test]
    fn misses_generalized_associations_cumulate_finds() {
        // Leaves 1 and 2 under parent 0; each leaf alone is infrequent,
        // the parent is frequent. Apriori finds nothing at 60%.
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        let tax = b.build().unwrap();
        let txns = vec![ids(&[1]), ids(&[2]), ids(&[1]), ids(&[2]), ids(&[1])];
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let params = MiningParams::with_min_support(0.8);
        let flat = apriori(db.partition(0), 3, &params).unwrap();
        assert_eq!(flat.num_large(), 0);
        let gen = cumulate(db.partition(0), &tax, &params).unwrap();
        assert_eq!(gen.support_of(&[ItemId(0)]), Some(5));
    }

    #[test]
    fn agrees_with_cumulate_on_flat_taxonomy() {
        let tax = TaxonomyBuilder::new(10).build().unwrap();
        let txns: Vec<Vec<ItemId>> = (0..30u32)
            .map(|i| ids(&[i % 3, 3 + i % 4, 7 + i % 2]))
            .collect();
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let params = MiningParams::with_min_support(0.2);
        let a = apriori(db.partition(0), 10, &params).unwrap();
        let c = cumulate(db.partition(0), &tax, &params).unwrap();
        assert_eq!(a.num_large(), c.num_large());
        for (x, y) in a.all_large().zip(c.all_large()) {
            assert_eq!(x, y);
        }
    }
}
