//! Validated construction of a [`Taxonomy`].

use crate::taxonomy::Taxonomy;
use gar_types::{Error, ItemId, Result};

/// Incrementally assembles a taxonomy from `(child, parent)` edges and
/// validates the forest invariants before producing a [`Taxonomy`].
///
/// Invariants checked by [`TaxonomyBuilder::build`]:
/// * every referenced item id is `< num_items`;
/// * no item has two parents (the hierarchy is a forest, per the paper's
///   Figure 1);
/// * no cycles (an item is never its own ancestor);
/// * the items' ancestor lists hold at most
///   [`MAX_ANCESTOR_ENTRIES`](crate::MAX_ANCESTOR_ENTRIES) entries in all.
#[derive(Debug, Clone)]
pub struct TaxonomyBuilder {
    num_items: u32,
    parent: Vec<Option<ItemId>>,
}

impl TaxonomyBuilder {
    /// Starts a taxonomy over items `0..num_items`, all initially roots.
    pub fn new(num_items: u32) -> Self {
        TaxonomyBuilder {
            num_items,
            parent: vec![None; num_items as usize],
        }
    }

    /// Records that `parent` is the direct generalization of `child`.
    ///
    /// Returns an error if either id is out of range or `child` already has
    /// a different parent.
    pub fn add_edge(&mut self, child: ItemId, parent: ItemId) -> Result<&mut Self> {
        if child.raw() >= self.num_items || parent.raw() >= self.num_items {
            return Err(Error::InvalidTaxonomy(format!(
                "edge {child:?} -> {parent:?} references an item >= num_items ({})",
                self.num_items
            )));
        }
        if child == parent {
            return Err(Error::InvalidTaxonomy(format!(
                "item {child:?} cannot be its own parent"
            )));
        }
        match self.parent[child.index()] {
            Some(existing) if existing != parent => Err(Error::InvalidTaxonomy(format!(
                "item {child:?} has two parents: {existing:?} and {parent:?}"
            ))),
            _ => {
                self.parent[child.index()] = Some(parent);
                Ok(self)
            }
        }
    }

    /// Convenience wrapper over [`add_edge`](Self::add_edge) for raw codes.
    pub fn edge(&mut self, child: u32, parent: u32) -> Result<&mut Self> {
        self.add_edge(ItemId(child), ItemId(parent))
    }

    /// Validates the forest and produces the immutable [`Taxonomy`].
    pub fn build(self) -> Result<Taxonomy> {
        Taxonomy::from_parent_array(self.parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_universe_is_all_roots() {
        let t = TaxonomyBuilder::new(4).build().unwrap();
        assert_eq!(t.num_items(), 4);
        assert_eq!(t.roots().len(), 4);
        assert!(t.ancestors(ItemId(2)).is_empty());
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let mut b = TaxonomyBuilder::new(3);
        assert!(b.edge(0, 5).is_err());
        assert!(b.edge(5, 0).is_err());
    }

    #[test]
    fn rejects_self_parent() {
        let mut b = TaxonomyBuilder::new(3);
        assert!(b.edge(1, 1).is_err());
    }

    #[test]
    fn rejects_second_parent() {
        let mut b = TaxonomyBuilder::new(3);
        b.edge(2, 0).unwrap();
        assert!(b.edge(2, 1).is_err());
        // Re-adding the same edge is idempotent, not an error.
        assert!(b.edge(2, 0).is_ok());
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TaxonomyBuilder::new(3);
        b.edge(0, 1).unwrap();
        b.edge(1, 2).unwrap();
        b.edge(2, 0).unwrap();
        assert!(b.build().is_err());
    }

    /// The chain `n − 1 → … → 1 → 0`: its depths sum to n(n − 1)/2.
    fn chain(n: u32) -> TaxonomyBuilder {
        let mut b = TaxonomyBuilder::new(n);
        for i in 1..n {
            b.edge(i, i - 1).unwrap();
        }
        b
    }

    #[test]
    fn a_chain_past_the_ancestor_bound_is_refused() {
        // 5,794 · 5,793 / 2 = 16,782,321 > 2^24, by 5,105 entries.
        let n = 5_794u32;
        assert!(u64::from(n) * u64::from(n - 1) / 2 > crate::MAX_ANCESTOR_ENTRIES);
        let err = chain(n).build().unwrap_err();
        assert!(
            matches!(&err, Error::InvalidTaxonomy(m) if m.contains("ancestor")),
            "{err}"
        );
    }

    #[test]
    fn the_longest_chain_within_the_bound_keeps_exact_ancestors() {
        // 5,793 · 5,792 / 2 = 16,776,528 <= 2^24.
        let n = 5_793u32;
        assert!(u64::from(n) * u64::from(n - 1) / 2 <= crate::MAX_ANCESTOR_ENTRIES);
        let t = chain(n).build().unwrap();
        assert_eq!(t.max_depth(), n - 1);
        for i in [0, 1, 2, n / 2, n - 1] {
            let want: Vec<ItemId> = (0..i).rev().map(ItemId).collect();
            assert_eq!(t.ancestors(ItemId(i)), want.as_slice());
            assert_eq!(t.depth(ItemId(i)), i);
            assert_eq!(t.root_of(ItemId(i)), ItemId(0));
        }
    }

    #[test]
    fn builds_paper_figure_1_shape() {
        // A two-tree forest like the paper's running example:
        //   1 -> {3,4,5}, 3 -> {7,8}, 4 -> {9,10}
        //   2 -> {6}, 6 -> {15}
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
        let t = b.build().unwrap();
        assert_eq!(t.root_of(ItemId(10)), ItemId(1));
        assert_eq!(t.root_of(ItemId(15)), ItemId(2));
        assert_eq!(t.ancestors(ItemId(10)), &[ItemId(4), ItemId(1)]);
        assert!(t.is_ancestor(ItemId(1), ItemId(8)));
        assert!(!t.is_ancestor(ItemId(8), ItemId(1)));
        assert!(!t.is_ancestor(ItemId(2), ItemId(8)));
    }
}
