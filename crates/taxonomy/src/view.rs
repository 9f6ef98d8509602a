//! Pruned taxonomy views (the Cumulate ancestor-filtering optimization).

use crate::taxonomy::Taxonomy;
use gar_types::ItemId;

/// A per-pass filter over the taxonomy: "which ancestors are present in at
/// least one candidate of `C_k`?"
///
/// Cumulate's second optimization ([SA95], carried into every algorithm of
/// the paper): when an interior item occurs in no candidate of the current
/// pass, adding it to extended transactions is pure waste, so it is deleted
/// from the taxonomy *for this pass*. The view is a dense bitmask, so the
/// per-item check on the extension hot path is one load.
#[derive(Debug, Clone)]
pub struct PrunedView {
    keep: Vec<bool>,
}

impl PrunedView {
    /// Keeps exactly the items yielded by `present`.
    pub fn new(tax: &Taxonomy, present: impl IntoIterator<Item = ItemId>) -> Self {
        let mut keep = vec![false; tax.num_items() as usize];
        for it in present {
            keep[it.index()] = true;
        }
        PrunedView { keep }
    }

    /// Whether `item` survives the pruning.
    #[inline]
    pub fn keeps(&self, item: ItemId) -> bool {
        self.keep[item.index()]
    }

    /// Extends a transaction with only the ancestors this view keeps,
    /// into `out` (cleared first, so per-transaction scan loops can thread
    /// one scratch `Vec` through every call). Original items are always
    /// retained (they may still match leaf-level candidates); only the
    /// *added ancestors* are filtered, exactly as in Cumulate's
    /// count-support step.
    #[inline]
    pub fn extend_transaction_into(&self, tax: &Taxonomy, t: &[ItemId], out: &mut Vec<ItemId>) {
        out.clear();
        out.extend_from_slice(t);
        for &it in t {
            for &a in tax.ancestors(it) {
                if self.keeps(a) {
                    out.push(a);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;

    fn chain() -> Taxonomy {
        // 0 <- 1 <- 2 <- 3 (3 is the deepest leaf)
        let mut b = TaxonomyBuilder::new(4);
        b.edge(1, 0).unwrap();
        b.edge(2, 1).unwrap();
        b.edge(3, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn filters_absent_ancestors() {
        let tax = chain();
        let view = PrunedView::new(&tax, [ItemId(0), ItemId(3)]);
        assert!(view.keeps(ItemId(0)));
        assert!(!view.keeps(ItemId(1)));
        let mut ext = Vec::new();
        view.extend_transaction_into(&tax, &[ItemId(3)], &mut ext);
        assert_eq!(ext, vec![ItemId(0), ItemId(3)]);
    }

    #[test]
    fn keep_all_behaves_like_plain_extension() {
        let tax = chain();
        let view = PrunedView::new(&tax, (0..4).map(ItemId));
        let mut ext = Vec::new();
        view.extend_transaction_into(&tax, &[ItemId(3)], &mut ext);
        assert_eq!(ext, tax.extend_transaction(&[ItemId(3)]));
    }

    #[test]
    fn duplicate_present_items_counted_once() {
        let tax = chain();
        let view = PrunedView::new(&tax, [ItemId(1), ItemId(1), ItemId(1)]);
        let kept: Vec<u32> = (0..4).filter(|&i| view.keeps(ItemId(i))).collect();
        assert_eq!(kept, vec![1]);
    }
}
