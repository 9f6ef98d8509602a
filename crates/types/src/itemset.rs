//! Canonical itemsets.

use crate::item::ItemId;
use std::fmt;
use std::ops::Deref;

/// A canonical itemset: a sorted, duplicate-free sequence of [`ItemId`]s.
///
/// The Apriori family relies on a canonical order for the `L_{k-1} ⋈ L_{k-1}`
/// join and for hashing itemsets consistently across cluster nodes, so the
/// invariant (strictly increasing item codes) is enforced by construction.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itemset {
    items: Box<[ItemId]>,
}

impl Itemset {
    /// Builds an itemset from items that are already strictly increasing.
    ///
    /// # Panics
    /// In debug builds, panics when the input violates the invariant.
    #[inline]
    pub fn from_sorted(items: Vec<ItemId>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "itemset must be strictly increasing: {items:?}"
        );
        Itemset {
            items: items.into_boxed_slice(),
        }
    }

    /// Builds an itemset from arbitrary items, sorting and de-duplicating.
    pub fn from_unsorted(mut items: Vec<ItemId>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset {
            items: items.into_boxed_slice(),
        }
    }

    /// The single-item itemset.
    pub fn singleton(item: ItemId) -> Self {
        Itemset {
            items: vec![item].into_boxed_slice(),
        }
    }

    /// Number of items (the `k` of a k-itemset).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the itemset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, in strictly increasing order.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// True when `item` is a member (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// True when every member of `self` occurs in the sorted slice `other`.
    ///
    /// Both sides must be strictly increasing; the merge runs in
    /// `O(|self| + |other|)`.
    pub fn is_contained_in(&self, other: &[ItemId]) -> bool {
        let mut oi = other.iter();
        'outer: for &x in self.items.iter() {
            for &y in oi.by_ref() {
                match y.cmp(&x) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// The itemset with the element at `idx` removed. Used when generating
    /// the `(k-1)`-subsets for the Apriori prune step and for rule
    /// derivation.
    pub fn without_index(&self, idx: usize) -> Itemset {
        let mut v = Vec::with_capacity(self.items.len() - 1);
        for (i, &it) in self.items.iter().enumerate() {
            if i != idx {
                v.push(it);
            }
        }
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// The union of two itemsets.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut v = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    use std::cmp::Ordering::*;
                    match x.cmp(&y) {
                        Less => {
                            v.push(x);
                            a.next();
                        }
                        Greater => {
                            v.push(y);
                            b.next();
                        }
                        Equal => {
                            v.push(x);
                            a.next();
                            b.next();
                        }
                    }
                }
                (Some(&&x), None) => {
                    v.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    v.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Itemset {
            items: v.into_boxed_slice(),
        }
    }
}

impl Deref for Itemset {
    type Target = [ItemId];
    #[inline]
    fn deref(&self) -> &[ItemId] {
        &self.items
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = &'a ItemId;
    type IntoIter = std::slice::Iter<'a, ItemId>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl FromIterator<ItemId> for Itemset {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        Itemset::from_unsorted(iter.into_iter().collect())
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", it.raw())?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience constructor used pervasively in tests: `iset![1, 2, 3]`.
#[macro_export]
macro_rules! iset {
    ($($x:expr),* $(,)?) => {
        $crate::Itemset::from_unsorted(vec![$($crate::ItemId($x)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn from_unsorted_canonicalizes() {
        let s = Itemset::from_unsorted(ids(&[3, 1, 2, 3, 1]));
        assert_eq!(s.items(), ids(&[1, 2, 3]).as_slice());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_uses_membership() {
        let s = iset![1, 5, 9];
        assert!(s.contains(ItemId(5)));
        assert!(!s.contains(ItemId(4)));
    }

    #[test]
    fn containment_in_sorted_slice() {
        let s = iset![2, 4];
        assert!(s.is_contained_in(&ids(&[1, 2, 3, 4, 5])));
        assert!(s.is_contained_in(&ids(&[2, 4])));
        assert!(!s.is_contained_in(&ids(&[2, 3, 5])));
        assert!(!s.is_contained_in(&ids(&[4])));
        assert!(iset![].is_contained_in(&[]));
    }

    #[test]
    fn without_index_drops_exactly_one() {
        let s = iset![1, 2, 3];
        assert_eq!(s.without_index(0), iset![2, 3]);
        assert_eq!(s.without_index(1), iset![1, 3]);
        assert_eq!(s.without_index(2), iset![1, 2]);
    }

    #[test]
    fn union_merges_both_sides() {
        let a = iset![1, 3, 5];
        let b = iset![2, 3, 6];
        assert_eq!(a.union(&b), iset![1, 2, 3, 5, 6]);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(iset![1, 2] < iset![1, 3]);
        assert!(iset![1, 2] < iset![1, 2, 3]);
    }

    #[test]
    fn display_formats_braces() {
        assert_eq!(format!("{}", iset![1, 2]), "{1,2}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_items() -> impl Strategy<Value = Vec<ItemId>> {
        proptest::collection::vec(0u32..200, 0..12)
            .prop_map(|v| v.into_iter().map(ItemId).collect())
    }

    proptest! {
        #[test]
        fn canonical_invariant_holds(v in arb_items()) {
            let s = Itemset::from_unsorted(v);
            prop_assert!(s.items().windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn union_is_commutative(a in arb_items(), b in arb_items()) {
            let (a, b) = (Itemset::from_unsorted(a), Itemset::from_unsorted(b));
            prop_assert_eq!(a.union(&b), b.union(&a));
        }

        #[test]
        fn union_contains_both_sides(a in arb_items(), b in arb_items()) {
            let (a, b) = (Itemset::from_unsorted(a), Itemset::from_unsorted(b));
            let u = a.union(&b);
            prop_assert!(a.is_contained_in(u.items()));
            prop_assert!(b.is_contained_in(u.items()));
        }

        #[test]
        fn containment_matches_naive(a in arb_items(), b in arb_items()) {
            let sa = Itemset::from_unsorted(a);
            let sb = Itemset::from_unsorted(b);
            let naive = sa.iter().all(|x| sb.contains(*x));
            prop_assert_eq!(sa.is_contained_in(sb.items()), naive);
        }
    }
}
