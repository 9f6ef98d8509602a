//! The immutable, query-optimized taxonomy.

use gar_types::ItemId;

/// An immutable classification hierarchy over items `0..num_items`.
///
/// Construction goes through [`crate::TaxonomyBuilder`] (validated) or
/// [`crate::synth`] (random forests for the synthetic datasets). All queries
/// are `O(1)` or proportional to the answer size: the proper-ancestor
/// closure is precomputed into one flattened arena ordered bottom-up
/// (parent first, root last).
#[derive(Debug, Clone)]
pub struct Taxonomy {
    parent: Vec<Option<ItemId>>,
    /// Flattened ancestor closure: `anc_data[anc_off[i]..anc_off[i+1]]` are
    /// the proper ancestors of item `i`, nearest first.
    anc_data: Vec<ItemId>,
    anc_off: Vec<u32>,
    root_of: Vec<ItemId>,
    depth: Vec<u32>,
    children: Vec<Vec<ItemId>>,
    roots: Vec<ItemId>,
    leaves: Vec<ItemId>,
    max_depth: u32,
}

impl Taxonomy {
    /// Builds all derived tables from a validated parent array.
    ///
    /// Callers must have checked acyclicity; this is `pub(crate)` for that
    /// reason.
    pub(crate) fn from_parent_array(parent: Vec<Option<ItemId>>) -> Taxonomy {
        let n = parent.len();
        let mut children: Vec<Vec<ItemId>> = vec![Vec::new(); n];
        for (c, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(ItemId(c as u32));
            }
        }

        let mut anc_data = Vec::new();
        let mut anc_off = Vec::with_capacity(n + 1);
        let mut root_of = Vec::with_capacity(n);
        let mut depth = vec![0u32; n];
        anc_off.push(0u32);
        let mut max_depth = 0;
        for i in 0..n {
            let mut cur = parent[i];
            let mut d = 0u32;
            let mut root = ItemId(i as u32);
            while let Some(p) = cur {
                anc_data.push(p);
                root = p;
                d += 1;
                cur = parent[p.index()];
            }
            anc_off.push(anc_data.len() as u32);
            root_of.push(root);
            depth[i] = d;
            max_depth = max_depth.max(d);
        }

        let roots: Vec<ItemId> = (0..n)
            .filter(|&i| parent[i].is_none())
            .map(|i| ItemId(i as u32))
            .collect();
        let leaves: Vec<ItemId> = (0..n)
            .filter(|&i| children[i].is_empty())
            .map(|i| ItemId(i as u32))
            .collect();

        Taxonomy {
            parent,
            anc_data,
            anc_off,
            root_of,
            depth,
            children,
            roots,
            leaves,
            max_depth,
        }
    }

    /// Total number of items (leaves + interior + roots).
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.parent.len() as u32
    }

    /// The direct parent, or `None` for a root.
    #[inline]
    pub fn parent(&self, item: ItemId) -> Option<ItemId> {
        self.parent[item.index()]
    }

    /// The proper ancestors of `item`, nearest (parent) first, root last.
    #[inline]
    pub fn ancestors(&self, item: ItemId) -> &[ItemId] {
        let lo = self.anc_off[item.index()] as usize;
        let hi = self.anc_off[item.index() + 1] as usize;
        &self.anc_data[lo..hi]
    }

    /// The root of `item`'s tree (`item` itself when it is a root).
    ///
    /// This is the partitioning key of the H-HPGM family: every ancestor
    /// itemset of an itemset maps to the same root itemset, so placing
    /// candidates by root keeps whole generalization chains on one node.
    #[inline]
    pub fn root_of(&self, item: ItemId) -> ItemId {
        self.root_of[item.index()]
    }

    /// Depth below the root: roots are 0.
    #[inline]
    pub fn depth(&self, item: ItemId) -> u32 {
        self.depth[item.index()]
    }

    /// The deepest level in the forest.
    #[inline]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Direct children of `item`.
    #[inline]
    pub fn children(&self, item: ItemId) -> &[ItemId] {
        &self.children[item.index()]
    }

    /// All roots, in increasing id order.
    #[inline]
    pub fn roots(&self) -> &[ItemId] {
        &self.roots
    }

    /// All leaves (items with no children), in increasing id order.
    #[inline]
    pub fn leaves(&self) -> &[ItemId] {
        &self.leaves
    }

    /// True when `item` has no children.
    #[inline]
    pub fn is_leaf(&self, item: ItemId) -> bool {
        self.children[item.index()].is_empty()
    }

    /// True when `anc` is a **proper** ancestor of `desc`. An id outside
    /// the taxonomy has no ancestor and is no item's ancestor.
    pub fn is_ancestor(&self, anc: ItemId, desc: ItemId) -> bool {
        // Depth prunes most negative queries; ancestor lists are short
        // (taxonomy depth), so a linear scan beats building hash sets.
        match (self.depth.get(anc.index()), self.depth.get(desc.index())) {
            (Some(a), Some(d)) if a < d => self.ancestors(desc).contains(&anc),
            _ => false,
        }
    }

    /// True when `a == b`, or one is a proper ancestor of the other.
    pub fn related(&self, a: ItemId, b: ItemId) -> bool {
        a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// All items of the tree rooted at `root`, including `root`, in
    /// breadth-first order.
    pub fn tree_items(&self, root: ItemId) -> Vec<ItemId> {
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() {
            out.extend_from_slice(self.children(out[i]));
            i += 1;
        }
        out
    }

    /// *Extends* a transaction: the union of the items and **all** their
    /// ancestors, sorted and de-duplicated. This is Cumulate's `t'` (and
    /// NPGM/HPGM's), before the candidate-presence filter.
    pub fn extend_transaction(&self, t: &[ItemId]) -> Vec<ItemId> {
        let mut out = Vec::with_capacity(t.len() * 2);
        self.extend_transaction_into(t, &mut out);
        out
    }

    /// [`Taxonomy::extend_transaction`] into a caller-owned buffer
    /// (cleared first). The extension runs once per transaction per pass,
    /// so hot loops reuse one scratch vector instead of allocating.
    pub fn extend_transaction_into(&self, t: &[ItemId], out: &mut Vec<ItemId>) {
        out.clear();
        out.extend_from_slice(t);
        for &it in t {
            out.extend_from_slice(self.ancestors(it));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// *Reduces* a transaction for the H-HPGM family into a caller-owned
    /// buffer (cleared first): each item is replaced by itself if
    /// `is_large`, otherwise by its nearest large ancestor; items with no
    /// large ancestor are dropped. Result is sorted and de-duplicated.
    pub fn reduce_to_lowest_large_into(
        &self,
        t: &[ItemId],
        is_large: impl Fn(ItemId) -> bool,
        out: &mut Vec<ItemId>,
    ) {
        out.clear();
        for &it in t {
            if is_large(it) {
                out.push(it);
            } else if let Some(&a) = self.ancestors(it).iter().find(|&&a| is_large(a)) {
                out.push(a);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The nearest large ancestor-or-self of `item`, if any.
    pub fn lowest_large(&self, item: ItemId, is_large: impl Fn(ItemId) -> bool) -> Option<ItemId> {
        if is_large(item) {
            return Some(item);
        }
        self.ancestors(item).iter().copied().find(|&a| is_large(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;

    /// The paper's example forest (Figures 4/6):
    /// tree 1: 1 -> {3,4,5}, 3 -> {7,8}, 4 -> {9,10}
    /// tree 2: 2 -> {6}, 6 -> {15}
    /// items 11..=14 unused leaves of nothing (kept as isolated roots 0,11-14).
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

    #[test]
    fn ancestor_closure_is_nearest_first() {
        let t = paper_forest();
        assert_eq!(t.ancestors(ItemId(9)), &[ItemId(4), ItemId(1)]);
        assert_eq!(t.ancestors(ItemId(15)), &[ItemId(6), ItemId(2)]);
        assert_eq!(t.ancestors(ItemId(1)), &[] as &[ItemId]);
    }

    #[test]
    fn depth_and_max_depth() {
        let t = paper_forest();
        assert_eq!(t.depth(ItemId(1)), 0);
        assert_eq!(t.depth(ItemId(4)), 1);
        assert_eq!(t.depth(ItemId(10)), 2);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn roots_and_leaves() {
        let t = paper_forest();
        assert!(t.roots().contains(&ItemId(1)));
        assert!(t.roots().contains(&ItemId(2)));
        assert!(t.roots().contains(&ItemId(0))); // isolated item: both root and leaf
        assert!(t.is_leaf(ItemId(0)));
        assert!(t.is_leaf(ItemId(15)));
        assert!(!t.is_leaf(ItemId(6)));
    }

    #[test]
    fn related_covers_both_directions() {
        let t = paper_forest();
        assert!(t.related(ItemId(1), ItemId(10)));
        assert!(t.related(ItemId(10), ItemId(1)));
        assert!(t.related(ItemId(7), ItemId(7)));
        assert!(!t.related(ItemId(7), ItemId(9)));
    }

    #[test]
    fn ids_outside_the_taxonomy_are_unrelated_to_it() {
        let t = paper_forest();
        let out = ItemId(t.num_items());
        assert!(!t.is_ancestor(ItemId(1), out));
        assert!(!t.is_ancestor(out, ItemId(10)));
        assert!(!t.is_ancestor(out, ItemId(out.raw() + 1)));
        assert!(!t.related(ItemId(1), out));
        assert!(t.related(out, out));
    }

    #[test]
    fn tree_items_covers_whole_tree() {
        let t = paper_forest();
        let mut tree = t.tree_items(ItemId(1));
        tree.sort_unstable();
        assert_eq!(
            tree,
            vec![1, 3, 4, 5, 7, 8, 9, 10]
                .into_iter()
                .map(ItemId)
                .collect::<Vec<_>>()
        );
        assert_eq!(t.tree_items(ItemId(2)).len(), 3);
    }

    #[test]
    fn extend_transaction_matches_paper_example_1() {
        // Paper Example 1: t = {10, 12, 14} extends to {1,2,4,5,6,10,12,14}
        // *after* small-item filtering; raw extension adds ancestors of 10.
        let t = paper_forest();
        let ext = t.extend_transaction(&[ItemId(10), ItemId(12), ItemId(14)]);
        assert_eq!(
            ext,
            vec![1, 4, 10, 12, 14]
                .into_iter()
                .map(ItemId)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn extend_transaction_filtered_drops_unwanted_ancestors() {
        let t = paper_forest();
        let mut ext = Vec::new();
        crate::PrunedView::new(&t, [ItemId(1)]).extend_transaction_into(
            &t,
            &[ItemId(10)],
            &mut ext,
        );
        assert_eq!(ext, vec![ItemId(1), ItemId(10)]);
    }

    #[test]
    fn reduce_matches_paper_example_2() {
        // Paper Example 2: t = {10, 12, 14}; 12 and 14 are small; their
        // nearest large ancestors give t' = {5, 6, 10}. Model 12 under 5 and
        // 14 under 6 via a dedicated forest.
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
            (12, 5),
            (14, 6),
        ] {
            b.edge(c, p).unwrap();
        }
        let t = b.build().unwrap();
        let large: Vec<ItemId> = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15]
            .into_iter()
            .map(ItemId)
            .collect();
        let is_large = |i: ItemId| large.contains(&i);
        let mut reduced = Vec::new();
        t.reduce_to_lowest_large_into(
            &[ItemId(10), ItemId(12), ItemId(14)],
            is_large,
            &mut reduced,
        );
        assert_eq!(reduced, vec![ItemId(5), ItemId(6), ItemId(10)]);
    }

    #[test]
    fn reduce_drops_items_with_no_large_ancestor() {
        let t = paper_forest();
        let mut reduced = vec![ItemId(0)];
        t.reduce_to_lowest_large_into(&[ItemId(13)], |_| false, &mut reduced);
        assert!(reduced.is_empty());
    }

    #[test]
    fn lowest_large_prefers_self() {
        let t = paper_forest();
        assert_eq!(t.lowest_large(ItemId(10), |_| true), Some(ItemId(10)));
        assert_eq!(
            t.lowest_large(ItemId(10), |i| i == ItemId(1)),
            Some(ItemId(1))
        );
        assert_eq!(t.lowest_large(ItemId(10), |_| false), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::synth::{synthesize, SynthTaxonomyConfig};
    use proptest::prelude::*;

    fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
        (2u32..200, 1u32..8, 1.5f64..8.0, 0u64..1000).prop_map(|(n, roots, fanout, seed)| {
            synthesize(&SynthTaxonomyConfig {
                num_items: n.max(roots + 1),
                num_roots: roots.min(n / 2).max(1),
                fanout,
                seed,
            })
        })
    }

    proptest! {
        #[test]
        fn ancestor_chain_matches_parent_walk(t in arb_taxonomy()) {
            for i in 0..t.num_items() {
                let item = ItemId(i);
                let mut walk = Vec::new();
                let mut cur = t.parent(item);
                while let Some(p) = cur {
                    walk.push(p);
                    cur = t.parent(p);
                }
                prop_assert_eq!(t.ancestors(item), walk.as_slice());
                prop_assert_eq!(t.root_of(item), *walk.last().unwrap_or(&item));
                prop_assert_eq!(t.depth(item) as usize, t.ancestors(item).len());
            }
        }

        #[test]
        fn roots_union_descendants_is_universe(t in arb_taxonomy()) {
            let mut seen = vec![false; t.num_items() as usize];
            for &r in t.roots() {
                for it in t.tree_items(r) {
                    prop_assert!(!seen[it.index()], "item in two trees");
                    seen[it.index()] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        #[test]
        fn extension_is_superset_and_closed(t in arb_taxonomy(), raw in proptest::collection::vec(0u32..200, 1..10)) {
            let txn: Vec<ItemId> = raw.into_iter()
                .map(|x| ItemId(x % t.num_items()))
                .collect();
            let ext = t.extend_transaction(&txn);
            // superset of the original
            for &it in &txn {
                prop_assert!(ext.contains(&it));
            }
            // ancestor-closed
            for &it in &ext {
                for &a in t.ancestors(it) {
                    prop_assert!(ext.contains(&a));
                }
            }
            // sorted, deduped
            prop_assert!(ext.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn reduction_output_is_large_only(t in arb_taxonomy(), raw in proptest::collection::vec(0u32..200, 1..10), large_mod in 2u32..5) {
            let txn: Vec<ItemId> = raw.into_iter()
                .map(|x| ItemId(x % t.num_items()))
                .collect();
            let is_large = |i: ItemId| i.raw().is_multiple_of(large_mod);
            let mut red = Vec::new();
            t.reduce_to_lowest_large_into(&txn, is_large, &mut red);
            prop_assert!(red.iter().all(|&i| is_large(i)));
            prop_assert!(red.windows(2).all(|w| w[0] < w[1]));
            // every reduced item is an ancestor-or-self of some txn item
            for &r in &red {
                prop_assert!(txn.iter().any(|&x| x == r || t.is_ancestor(r, x)));
            }
        }

        #[test]
        fn into_variants_match_allocating(
            t in arb_taxonomy(),
            raw in proptest::collection::vec(0u32..200, 1..10),
            large_mod in 2u32..5,
        ) {
            let txn: Vec<ItemId> = raw.into_iter()
                .map(|x| ItemId(x % t.num_items()))
                .collect();
            // Pre-poison the scratch to prove it is cleared, and give it
            // capacity to prove reuse does not change results.
            let mut buf = vec![ItemId(u32::MAX); 7];

            t.extend_transaction_into(&txn, &mut buf);
            prop_assert_eq!(&buf, &t.extend_transaction(&txn));

            // A pruned view extends with exactly the kept ancestors.
            let view = crate::PrunedView::new(&t, (0..t.num_items()).step_by(2).map(ItemId));
            view.extend_transaction_into(&t, &txn, &mut buf);
            let mut want = t.extend_transaction(&txn);
            want.retain(|&a| txn.contains(&a) || view.keeps(a));
            prop_assert_eq!(&buf, &want);

            // Reduction is each item's lowest large ancestor-or-self.
            let is_large = |i: ItemId| i.raw().is_multiple_of(large_mod);
            t.reduce_to_lowest_large_into(&txn, is_large, &mut buf);
            let mut want: Vec<ItemId> =
                txn.iter().filter_map(|&it| t.lowest_large(it, is_large)).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(&buf, &want);
        }
    }
}
