//! Counting index over rule antecedents.
//!
//! One CSR pair: the postings of item `i` are the ids of the rules whose
//! **antecedent literally contains** `i`, ascending. Consequents are not
//! indexed (a rule can only fire through its antecedent) and no ancestor
//! closure is folded in: the query side already holds the basket's
//! extended transaction (the paper's `t'`), so walking the postings of
//! every extended item visits each (rule, antecedent item) pair that the
//! basket satisfies exactly once. A per-rule counter is bumped on every
//! visit, and a rule's antecedent is contained in the basket exactly
//! when its counter reaches `need[rule] = |antecedent|` — no containment
//! test, no sort, no dedup, and no work for a rule the basket does not
//! touch.
//!
//! A rule with an antecedent item outside the taxonomy has no posting
//! for that item, so its counter stays below `need` and it never fires.

use crate::store::MAX_ITEMSET_LEN;
use gar_mining::rules::Rule;
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use std::cell::RefCell;

/// `parent` entry of a root.
const NO_PARENT: u32 = u32::MAX;

// Counters and `need` are `u32`: a narrower counter would wrap on a
// long antecedent and fire the rule on a subset of it.
const _: () = assert!(MAX_ITEMSET_LEN <= u32::MAX as usize);

thread_local! {
    /// The calling thread's per-rule hit counters. All zero between
    /// walks (each walk resets exactly what it bumped), so a shard
    /// worker pays one allocation for its lifetime, not one per basket.
    static COUNTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Immutable item → rule-id postings over antecedents (rule ids index
/// the sequence the index was built from).
#[derive(Debug, Clone)]
pub struct RuleIndex {
    /// `postings[offsets[i]..offsets[i + 1]]` are item `i`'s rules.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    /// `|antecedent|` per rule.
    need: Vec<u32>,
    /// The taxonomy's parent array, for [`RuleIndex::candidates`].
    parent: Vec<u32>,
}

impl RuleIndex {
    /// Indexes the antecedents of `rules` under `tax`.
    pub fn build(rules: &[Rule], tax: &Taxonomy) -> RuleIndex {
        RuleIndex::over(rules.iter().map(|r| r.antecedent.items()), tax)
    }

    /// Indexes a sequence of antecedents; rule ids are positions in it.
    /// Items outside the taxonomy get no posting (and must not panic a
    /// serving path), which leaves their rule unable to fire.
    pub(crate) fn over<'a>(
        antecedents: impl Iterator<Item = &'a [ItemId]> + Clone,
        tax: &Taxonomy,
    ) -> RuleIndex {
        let n = tax.num_items() as usize;
        // Per item: first its postings count, then (after the prefix
        // sum) the next free slot of its list.
        let mut next = vec![0usize; n];
        let mut need = Vec::new();
        for items in antecedents.clone() {
            need.push(u32::try_from(items.len()).unwrap_or(u32::MAX));
            for it in items {
                if let Some(count) = next.get_mut(it.index()) {
                    *count += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0;
        for slot in &mut next {
            offsets.push(total);
            let count = std::mem::replace(slot, total);
            total += count;
        }
        offsets.push(total);
        let mut postings = vec![0u32; total];
        for (rule, items) in antecedents.enumerate() {
            for it in items {
                if let Some(at) = next.get_mut(it.index()) {
                    if let Some(slot) = postings.get_mut(*at) {
                        *slot = rule as u32;
                    }
                    *at += 1;
                }
            }
        }
        let parent = (0..tax.num_items())
            .map(|i| tax.parent(ItemId(i)).map_or(NO_PARENT, ItemId::raw))
            .collect();
        RuleIndex {
            offsets,
            postings,
            need,
            parent,
        }
    }

    /// The rules whose antecedent literally contains `item`, ascending.
    pub fn postings(&self, item: ItemId) -> &[u32] {
        let i = item.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => self.postings.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Bumps the counter of every rule on the postings of `items`,
    /// handing `bumped` the rule and its new count, then walks the same
    /// postings again to zero what it bumped. Returns the number of
    /// postings scanned.
    fn walk(&self, items: &[ItemId], mut bumped: impl FnMut(u32, u32)) -> usize {
        COUNTS.with(|cell| {
            let mut counts = cell.borrow_mut();
            if counts.len() < self.need.len() {
                counts.resize(self.need.len(), 0);
            }
            let mut scanned = 0;
            for &it in items {
                let list = self.postings(it);
                scanned += list.len();
                for &rule in list {
                    if let Some(count) = counts.get_mut(rule as usize) {
                        *count += 1;
                        bumped(rule, *count);
                    }
                }
            }
            for &it in items {
                for &rule in self.postings(it) {
                    if let Some(count) = counts.get_mut(rule as usize) {
                        *count = 0;
                    }
                }
            }
            scanned
        })
    }

    /// Calls `hit` with every rule whose whole antecedent lies in
    /// `extended`, which must be sorted and distinct (an item repeated
    /// would be counted twice) — the output of
    /// [`crate::Catalog::extend_basket`]. Returns the number of postings
    /// scanned, the work this basket cost the index.
    pub fn for_each_contained(&self, extended: &[ItemId], mut hit: impl FnMut(u32)) -> usize {
        debug_assert!(extended.is_sorted_by(|a, b| a < b));
        self.walk(extended, |rule, count| {
            if self.need.get(rule as usize) == Some(&count) {
                hit(rule);
            }
        })
    }

    /// Sorted distinct ids of the rules a **raw** (unextended) basket
    /// makes the engine examine: every rule with an antecedent item
    /// among the basket's items and their ancestors. A diagnostic — the
    /// scoring path is [`RuleIndex::for_each_contained`]. Items outside
    /// the taxonomy contribute nothing.
    pub fn candidates(&self, basket: &[ItemId]) -> Vec<u32> {
        let mut extended = Vec::new();
        for &it in basket {
            let mut cur = it.raw();
            while let Some(&up) = self.parent.get(cur as usize) {
                extended.push(ItemId(cur));
                cur = up;
            }
        }
        extended.sort_unstable();
        extended.dedup();
        let mut out = Vec::new();
        self.walk(&extended, |rule, count| {
            if count == 1 {
                out.push(rule);
            }
        });
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rule as fixture_rule, sa95_taxonomy};
    use gar_types::{iset, Itemset};

    fn rule(a: Itemset, c: Itemset) -> Rule {
        fixture_rule(a, c, 2, 0.5)
    }

    fn contained(idx: &RuleIndex, extended: &[u32]) -> Vec<u32> {
        let extended: Vec<ItemId> = extended.iter().map(|&i| ItemId(i)).collect();
        let mut out = Vec::new();
        idx.for_each_contained(&extended, |r| out.push(r));
        out.sort_unstable();
        out
    }

    #[test]
    fn postings_are_exact_and_antecedent_only() {
        let tax = sa95_taxonomy();
        let rules = vec![rule(iset![1], iset![7]), rule(iset![7], iset![1])];
        let idx = RuleIndex::build(&rules, &tax);
        // outerwear(1) is rule 0's antecedent and rule 1's consequent:
        // only the antecedent is indexed.
        assert_eq!(idx.postings(ItemId(1)), &[0]);
        assert_eq!(idx.postings(ItemId(7)), &[1]);
        // jackets(3) is a descendant of outerwear(1): no closure is
        // folded in, the extended basket supplies the ancestor.
        assert!(idx.postings(ItemId(3)).is_empty());
        assert!(idx.postings(ItemId(99)).is_empty());
    }

    #[test]
    fn a_rule_fires_exactly_when_its_whole_antecedent_is_present() {
        let tax = sa95_taxonomy();
        let rules = vec![
            rule(iset![1, 7], iset![2]),
            rule(iset![1], iset![7]),
            rule(iset![2, 3, 6], iset![7]),
        ];
        let idx = RuleIndex::build(&rules, &tax);
        assert_eq!(contained(&idx, &[1]), vec![1]);
        assert_eq!(contained(&idx, &[0, 1, 5, 7]), vec![0, 1]);
        assert_eq!(contained(&idx, &[2, 3]), Vec::<u32>::new());
        // Counters are back at zero: a second walk sees the same thing.
        assert_eq!(contained(&idx, &[2, 3]), Vec::<u32>::new());
        assert_eq!(contained(&idx, &[2, 3, 6]), vec![2]);
        let mut hits = 0;
        assert_eq!(
            idx.for_each_contained(&[ItemId(1), ItemId(7)], |_| hits += 1),
            3,
            "postings scanned: two for item 1, one for item 7"
        );
        assert_eq!(hits, 2);
    }

    #[test]
    fn candidates_union_is_sorted_distinct() {
        let tax = sa95_taxonomy();
        let rules = vec![
            rule(iset![1], iset![7]),
            rule(iset![2], iset![6]),
            rule(iset![7], iset![1]),
            rule(iset![0, 3], iset![6]),
        ];
        let idx = RuleIndex::build(&rules, &tax);
        // jackets(3) reaches rule 0 through its ancestor outerwear(1)
        // and rule 3 twice (itself and its root clothes(0)).
        let c = idx.candidates(&[ItemId(3), ItemId(7), ItemId(3)]);
        assert_eq!(c, vec![0, 2, 3]);
        // An out-of-range item is ignored, not a panic.
        assert!(idx.candidates(&[ItemId(99)]).is_empty());
    }

    /// A taxonomy of `n` roots and the antecedent `0..len` over it.
    fn flat(n: u32, len: u32) -> (Taxonomy, Vec<ItemId>) {
        let tax = gar_taxonomy::TaxonomyBuilder::new(n).build().unwrap();
        (tax, (0..len).map(ItemId).collect())
    }

    #[test]
    fn long_antecedents_never_fire_on_a_subset() {
        // 300 wraps a u8 counter, the longest antecedent the store
        // admits a u16 one: a counter that wrapped to a small value
        // would fire the rule on a handful of items.
        for len in [300, MAX_ITEMSET_LEN as u32] {
            let (tax, items) = flat(len + 1, len);
            let idx = RuleIndex::over(std::iter::once(items.as_slice()), &tax);
            assert_eq!(contained(&idx, &[0]), Vec::<u32>::new(), "len={len}");
            let raw: Vec<u32> = (0..len).collect();
            assert_eq!(contained(&idx, &raw[1..]), Vec::<u32>::new(), "len={len}");
            assert_eq!(contained(&idx, &raw[..44]), Vec::<u32>::new(), "len={len}");
            assert_eq!(contained(&idx, &raw), vec![0], "len={len}");
        }
    }

    #[test]
    fn an_out_of_range_antecedent_item_keeps_the_rule_from_firing() {
        let (tax, _) = flat(4, 0);
        let rules = vec![rule(iset![1, 9], iset![2]), rule(iset![1], iset![2])];
        let idx = RuleIndex::build(&rules, &tax);
        // Item 9 has no posting, so {1} alone must not fire rule 0 —
        // and neither may a basket that names the unknown item.
        assert_eq!(contained(&idx, &[1]), vec![1]);
        assert_eq!(contained(&idx, &[1, 9]), vec![1]);
        assert_eq!(idx.candidates(&[ItemId(1)]), vec![0, 1]);
    }
}
