//! Sequential miners: the baselines every parallel algorithm must match.
//!
//! * [`cumulate`] — the hierarchy-aware algorithm of [SA95] the paper
//!   parallelizes (section 2 describes it pass by pass);
//! * [`apriori`] — the hierarchy-blind original [RR94], kept to quantify
//!   what the taxonomy costs and finds. It is not a second pass loop:
//!   it runs [`cumulate`] over the edge-less taxonomy.
//!
//! The parallel correctness tests assert every parallel variant produces
//! exactly `cumulate`'s large itemsets and counts.

mod apriori;
mod cumulate;

pub use apriori::apriori;
pub use cumulate::{cumulate, cumulate_metered};

use crate::report::LargePass;
use gar_types::{ItemId, Itemset};

/// The large itemsets (count ≥ threshold) among `candidates`, paired
/// with their `counts` (a counter's, in the same order), keeping itemset
/// order (already sorted — candidates are generated sorted).
pub(crate) fn extract_large(
    candidates: &[Itemset],
    counts: &[u64],
    min_support_count: u64,
) -> Vec<(Itemset, u64)> {
    candidates
        .iter()
        .zip(counts)
        .filter(|(_, &c)| c >= min_support_count)
        .map(|(s, &c)| (s.clone(), c))
        .collect()
}

/// Builds the pass-1 result from dense per-item counts (ascending item
/// id), for both miner families.
pub fn large_items_from_counts(counts: &[u64], min_support_count: u64) -> LargePass {
    let itemsets = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c >= min_support_count)
        .map(|(i, &c)| (Itemset::singleton(ItemId(i as u32)), c))
        .collect();
    LargePass { k: 1, itemsets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_items_filters_by_threshold() {
        let pass = large_items_from_counts(&[5, 0, 3, 10], 4);
        let items: Vec<u32> = pass
            .itemsets
            .iter()
            .map(|(s, _)| s.items()[0].raw())
            .collect();
        assert_eq!(items, vec![0, 3]);
        assert_eq!(pass.itemsets[1].1, 10);
    }
}
