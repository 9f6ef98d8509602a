//! The Cumulate algorithm ([SA95]), as described in the paper's section 2.

use crate::candidate::{candidates_for_pass, items_in_candidates};
use crate::counter::HashTreeCounter;
use crate::params::{Algorithm, MiningParams};
use crate::report::{LargePass, MiningOutput};
use crate::sequential::{extract_large, large_items_from_counts};
use gar_cluster::NodeStatsSnapshot;
use gar_storage::FlatPartition;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::Result;

/// Mines all large itemsets of `part` under the classification hierarchy
/// `tax`, sequentially, with Cumulate's three optimizations:
///
/// 1. ancestors are precomputed (the taxonomy's closed form);
/// 2. ancestors present in no candidate of the pass are not added to
///    extended transactions ([`PrunedView`]);
/// 3. pass-2 candidates consisting of an item and its ancestor are
///    deleted (their support equals the item's — only redundant rules
///    would follow).
pub fn cumulate(
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
) -> Result<MiningOutput> {
    cumulate_metered(part, tax, params).map(|(out, _)| out)
}

/// [`cumulate`], additionally returning the run's abstract work in the
/// units of the parallel ledgers, as the one node that exchanges nothing:
/// `cpu_ticks` per extension item, counter-walk step and generated
/// candidate, `hash_probes` per count increment, `io_bytes` per byte
/// scanned, one `scan_passes` per pass. `CostModel::node_seconds` prices
/// it like any other node.
pub fn cumulate_metered(
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
) -> Result<(MiningOutput, NodeStatsSnapshot)> {
    params.validate()?;
    let num_transactions = part.num_transactions() as u64;
    let min_support_count = params.min_support_count(num_transactions);
    let mut meters = NodeStatsSnapshot::default();

    // Pass 1: count every item of every level via full ancestor extension.
    let mut item_counts = vec![0u64; tax.num_items() as usize];
    let mut extended = Vec::new();
    let io_before = part.bytes_read();
    let mut scan = part.scan()?;
    while let Some(t) = scan.next_slice()? {
        tax.extend_transaction_into(t, &mut extended);
        meters.cpu_ticks += extended.len() as u64;
        for &it in &extended {
            item_counts[it.index()] += 1;
        }
    }
    meters.io_bytes += part.bytes_read() - io_before;
    meters.scan_passes += 1;
    let l1 = large_items_from_counts(&item_counts, min_support_count);
    let mut passes = vec![l1];

    // Passes k >= 2.
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
        let candidates = candidates_for_pass(k, passes.last().expect("nonempty"), tax);
        if candidates.is_empty() {
            break;
        }
        meters.cpu_ticks += candidates.len() as u64;

        // Optimization 2: prune taxonomy items absent from all candidates.
        let view = PrunedView::new(tax, items_in_candidates(&candidates));
        let mut counter = HashTreeCounter::new(k, &candidates);

        let io_before = part.bytes_read();
        let mut scan = part.scan()?;
        while let Some(t) = scan.next_slice()? {
            view.extend_transaction_into(tax, t, &mut extended);
            meters.cpu_ticks += extended.len() as u64;
            counter.push(&extended);
        }
        let out = counter.settle();
        meters.cpu_ticks += out.work;
        meters.hash_probes += out.hits;
        meters.io_bytes += part.bytes_read() - io_before;
        meters.scan_passes += 1;

        let large = extract_large(&candidates, counter.counts(), min_support_count);
        let empty = large.is_empty();
        if !empty {
            passes.push(LargePass { k, itemsets: large });
        }
        if empty {
            break;
        }
        k += 1;
    }

    Ok((
        MiningOutput {
            algorithm: Algorithm::Cumulate,
            num_transactions,
            min_support_count,
            passes,
        },
        meters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::{iset, ItemId, Itemset};

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    /// Taxonomy from [SA95]'s running example:
    ///   clothes(0) -> outerwear(1) -> jackets(3), ski pants(4)
    ///   clothes(0) -> shirts(2)
    ///   footwear(5) -> shoes(6), hiking boots(7)
    fn sa95_taxonomy() -> Taxonomy {
        let mut b = TaxonomyBuilder::new(8);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
            b.edge(c, p).unwrap();
        }
        b.build().unwrap()
    }

    /// The six transactions of [SA95] Table 1 (by item code above):
    fn sa95_db() -> PartitionedDatabase {
        let txns = vec![
            ids(&[2]),    // shirt
            ids(&[3, 7]), // jacket, hiking boots
            ids(&[4, 7]), // ski pants, hiking boots
            ids(&[6]),    // shoes
            ids(&[6]),    // shoes
            ids(&[3]),    // jacket
        ];
        PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap()
    }

    #[test]
    fn reproduces_sa95_running_example() {
        // [SA95] with minimum support 30% (2 transactions) finds the large
        // itemsets: {jacket} {outerwear} {clothes} {shoes} {hiking boots}
        // {footwear} {outerwear, hiking boots} {clothes, hiking boots}
        // {outerwear, footwear} {clothes, footwear}.
        let tax = sa95_taxonomy();
        let db = sa95_db();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.3)).unwrap();

        let l1: Vec<u32> = out
            .large(1)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.items()[0].raw())
            .collect();
        assert_eq!(l1, vec![0, 1, 3, 5, 6, 7]);

        let l2: Vec<Itemset> = out
            .large(2)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.clone())
            .collect();
        assert_eq!(l2, vec![iset![0, 5], iset![0, 7], iset![1, 5], iset![1, 7]]);
        // Counts: outerwear ∧ hiking boots in transactions 2 and 3.
        assert_eq!(out.support_of(&ids(&[1, 7])), Some(2));
        assert_eq!(out.support_of(&ids(&[0, 5])), Some(2));
        assert!(out.large(3).is_none());
    }

    #[test]
    fn interior_support_includes_descendants() {
        let tax = sa95_taxonomy();
        let db = sa95_db();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.1)).unwrap();
        // clothes(0) is contained in transactions 1,2,3,6 (any clothing).
        assert_eq!(out.support_of(&[ItemId(0)]), Some(4));
        // footwear(5) in 2,3,4,5.
        assert_eq!(out.support_of(&[ItemId(5)]), Some(4));
    }

    #[test]
    fn no_item_ancestor_pairs_ever_large() {
        let tax = sa95_taxonomy();
        let db = sa95_db();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.01)).unwrap();
        for (set, _) in out.all_large() {
            for (i, &a) in set.items().iter().enumerate() {
                for &b in &set.items()[i + 1..] {
                    assert!(!tax.related(a, b), "{set:?} mixes related items");
                }
            }
        }
    }

    #[test]
    fn max_pass_stops_early() {
        let tax = sa95_taxonomy();
        let db = sa95_db();
        let params = MiningParams::with_min_support(0.1).max_pass(1);
        let out = cumulate(db.partition(0), &tax, &params).unwrap();
        assert_eq!(out.passes.len(), 1);
        assert_eq!(out.passes[0].k, 1);
    }

    #[test]
    fn empty_database_yields_no_large_itemsets() {
        let tax = sa95_taxonomy();
        let db = PartitionedDatabase::build_in_memory(1, std::iter::empty()).unwrap();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.5)).unwrap();
        assert_eq!(out.num_large(), 0);
        assert_eq!(out.num_transactions, 0);
    }

    #[test]
    fn min_support_one_hundred_percent() {
        let tax = sa95_taxonomy();
        let txns = vec![ids(&[3, 7]), ids(&[3, 7]), ids(&[3, 6])];
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(1.0)).unwrap();
        // Items in every transaction: 3 (jacket), its ancestors 1 and 0,
        // and footwear 5 (7 or 6 in each txn).
        let l1: Vec<u32> = out
            .large(1)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.items()[0].raw())
            .collect();
        assert_eq!(l1, vec![0, 1, 3, 5]);
        // {3,5} holds in all three; {0,3} etc. pruned as related.
        let l2: Vec<Itemset> = out
            .large(2)
            .unwrap()
            .itemsets
            .iter()
            .map(|(s, _)| s.clone())
            .collect();
        assert_eq!(l2, vec![iset![0, 5], iset![1, 5], iset![3, 5]]);
    }

    #[test]
    fn deep_passes_terminate() {
        // Flat taxonomy (no hierarchy): Cumulate = Apriori. A dense block
        // of identical transactions drives k to 4.
        let tax = TaxonomyBuilder::new(6).build().unwrap();
        let txns: Vec<Vec<ItemId>> = (0..10).map(|_| ids(&[1, 2, 3, 4])).collect();
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.9)).unwrap();
        assert_eq!(
            out.large(4).unwrap().itemsets,
            vec![(iset![1, 2, 3, 4], 10)]
        );
        assert!(out.large(5).is_none());
    }

    #[test]
    fn metered_run_matches_and_charges_every_meter() {
        let tax = sa95_taxonomy();
        let db = sa95_db();
        let params = MiningParams::with_min_support(0.3);
        let plain = cumulate(db.partition(0), &tax, &params).unwrap();
        let (metered, m) = cumulate_metered(db.partition(0), &tax, &params).unwrap();
        assert_eq!(plain.num_large(), metered.num_large());
        for (a, b) in plain.all_large().zip(metered.all_large()) {
            assert_eq!(a, b);
        }
        assert!(m.cpu_ticks > 0, "extension/walk work must be charged");
        assert!(m.hash_probes > 0, "sup_cou increments must be charged");
        assert!(m.io_bytes > 0, "scanned bytes must be charged");
        // At least the item pass and the pair pass touch the data.
        assert!(m.scan_passes >= 2);
    }
}
