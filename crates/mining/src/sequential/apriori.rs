//! Plain Apriori ([RR94]) — the hierarchy-blind baseline.

use crate::params::{Algorithm, MiningParams};
use crate::report::MiningOutput;
use crate::sequential::cumulate;
use gar_storage::FlatPartition;
use gar_taxonomy::TaxonomyBuilder;
use gar_types::Result;

/// Mines large itemsets over items `0..num_items` without any taxonomy,
/// counting transactions as-is. Apriori is Cumulate over a taxonomy with
/// no edges: extension is the identity and no pair is related, so this
/// runs [`cumulate`] over that taxonomy and relabels the output.
///
/// Kept as the reference point the paper's introduction argues against:
/// on hierarchical data it finds only leaf-level itemsets, missing every
/// association that is frequent only at a generalized level (the bench
/// crate's ablation quantifies the difference).
pub fn apriori(
    part: &FlatPartition,
    num_items: u32,
    params: &MiningParams,
) -> Result<MiningOutput> {
    let tax = TaxonomyBuilder::new(num_items).build()?;
    let mut output = cumulate(part, &tax, params)?;
    output.algorithm = Algorithm::Apriori;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_storage::PartitionedDatabase;
    use gar_types::{iset, ItemId, Itemset};

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
