//! The global frequency order over large items.
//!
//! FP-Growth's determinism hangs on one total order shared by every tree
//! and every shipped path: items sorted by descending global support,
//! ties broken by ascending id. Both keys come out of pass 1's all-reduce,
//! so every node — at any cluster size — derives the identical order.

use gar_taxonomy::Taxonomy;
use gar_types::ItemId;

/// A dense bidirectional map between large items and their frequency
/// ranks. Rank 0 is the most frequent item; ranks are `u32` because they
/// double as the on-wire representation of path elements.
#[derive(Debug, Clone)]
pub struct ItemOrder {
    /// `rank_of[item.index()]`, or `u32::MAX` for items below minimum
    /// support.
    rank_of: Vec<u32>,
    /// `items[rank]` — the inverse map.
    items: Vec<ItemId>,
}

impl ItemOrder {
    /// Builds the order from the global per-item counts of pass 1.
    pub fn new(item_counts: &[u64], min_support_count: u64) -> ItemOrder {
        let mut items: Vec<ItemId> = (0..item_counts.len() as u32)
            .map(ItemId)
            .filter(|i| item_counts[i.index()] >= min_support_count)
            .collect();
        items.sort_unstable_by(|a, b| {
            item_counts[b.index()]
                .cmp(&item_counts[a.index()])
                .then(a.cmp(b))
        });
        let mut rank_of = vec![u32::MAX; item_counts.len()];
        for (r, &it) in items.iter().enumerate() {
            rank_of[it.index()] = r as u32;
        }
        ItemOrder { rank_of, items }
    }

    /// Number of large items (= number of ranks = number of projections).
    pub fn num_large(&self) -> usize {
        self.items.len()
    }

    /// The rank of `item`, or `None` if it is not large.
    pub fn rank(&self, item: ItemId) -> Option<u32> {
        let r = *self.rank_of.get(item.index())?;
        (r != u32::MAX).then_some(r)
    }

    /// The item holding `rank` (must be `< num_large()`).
    pub fn item_at(&self, rank: u32) -> ItemId {
        self.items[rank as usize]
    }

    /// Projects a transaction onto the order: keeps the large items and
    /// sorts their ranks ascending (most frequent first), which is the
    /// FP-tree insertion order. The input must be duplicate-free (which
    /// `Taxonomy::extend_transaction` guarantees).
    pub fn project(&self, t: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        for &it in t {
            if let Some(r) = self.rank(it) {
                out.push(r);
            }
        }
        out.sort_unstable();
    }
}

/// "Is rank `q` hierarchy-related to rank `j`" as one bit load: a
/// ‖L1‖ × ‖L1‖ matrix built once per run from `Taxonomy::ancestors`.
/// Both directions are set — a descendant whose count ties its
/// ancestor's can rank *above* it, so a projection's prefix paths may
/// hold descendants as well as ancestors — and so is the diagonal, which
/// makes the matrix agree with `Taxonomy::related` on every pair.
#[derive(Debug, Clone)]
pub struct RelatedRanks {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl RelatedRanks {
    /// Builds the matrix over the large items of `order`.
    pub fn new(order: &ItemOrder, tax: &Taxonomy) -> RelatedRanks {
        let n = order.num_large();
        let words_per_row = n.div_ceil(64);
        let mut m = RelatedRanks {
            words_per_row,
            bits: vec![0; n * words_per_row],
        };
        for (r, &item) in order.items.iter().enumerate() {
            m.set(r, r);
            for &anc in tax.ancestors(item) {
                if let Some(a) = order.rank(anc) {
                    m.set(r, a as usize);
                    m.set(a as usize, r);
                }
            }
        }
        m
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    /// The relation row of `rank` (must be `< num_large()`), to be
    /// queried with [`RelatedRow::contains`] once per path element.
    pub fn row(&self, rank: u32) -> RelatedRow<'_> {
        let start = rank as usize * self.words_per_row;
        RelatedRow(&self.bits[start..start + self.words_per_row])
    }
}

/// One row of [`RelatedRanks`]: the ranks related to one fixed rank.
#[derive(Debug, Clone, Copy)]
pub struct RelatedRow<'a>(&'a [u64]);

impl RelatedRow<'_> {
    /// Whether rank `q` (must be `< num_large()`) is related to the
    /// row's rank.
    #[inline]
    pub fn contains(self, q: u32) -> bool {
        self.0[(q / 64) as usize] >> (q % 64) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_count_then_id() {
        // counts: item0=5, item1=9, item2=5, item3=1
        let order = ItemOrder::new(&[5, 9, 5, 1], 2);
        assert_eq!(order.num_large(), 3);
        assert_eq!(order.item_at(0), ItemId(1)); // highest count
        assert_eq!(order.item_at(1), ItemId(0)); // tie broken by id
        assert_eq!(order.item_at(2), ItemId(2));
        assert_eq!(order.rank(ItemId(3)), None); // below support
        assert_eq!(order.rank(ItemId(2)), Some(2));
    }

    #[test]
    fn project_filters_and_sorts() {
        let order = ItemOrder::new(&[5, 9, 5, 1], 2);
        let mut out = Vec::new();
        order.project(&[ItemId(3), ItemId(2), ItemId(1)], &mut out);
        assert_eq!(out, vec![0, 2]); // item1 (rank 0), item2 (rank 2)
    }
}
