//! Prefix-tree index over rule antecedents, with each rule's consequent
//! riding beside it.
//!
//! The antecedents are merged into one prefix tree: antecedents that
//! share a prefix share its nodes, and a rule hangs off the node where
//! its antecedent ends. The tree is stored flat in depth-first order, so
//! a node's subtree is the run of nodes up to its `skip`.
//!
//! Scoring asks of a basket's extended transaction (the paper's `t'`)
//! what counting asks of every transaction — which itemsets does it
//! contain? — and answers it the way Cumulate's hash tree does, by
//! descending only along items of `t'`. The extended items are marked
//! in a per-thread table; one loop, with no stack and no recursion,
//! steps into a marked node (every item on the path to it is marked, so
//! its rules are contained) and jumps over an unmarked node's whole
//! subtree. A rule is reached only when its whole antecedent is in the
//! basket, and an antecedent the basket leaves costs the walk nothing
//! past its first missing item.
//!
//! Consequents add no node (a rule can only fire through its
//! antecedent). Each rule's consequent is stored as a flat run of item
//! ids in the terminal order of the rule ids, so
//! [`RuleIndex::for_each_match`] can drop a reached rule whose
//! consequent the basket already holds by reading the same marks — the
//! scoring path never opens a [`Rule`]. No ancestor closure is folded
//! in: the query side already holds `t'`. A rule with an empty
//! antecedent, or with an antecedent item outside the taxonomy, is left
//! out of the tree and never fires; a consequent item outside the
//! taxonomy is never marked, so it never counts as held.

use gar_mining::rules::Rule;
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use std::cell::RefCell;
use std::ops::Range;

/// `parent` entry of a root.
const NO_PARENT: u32 = u32::MAX;

thread_local! {
    /// The calling thread's item marks. All clear between walks (each
    /// walk clears exactly what it marked), so a shard worker pays one
    /// allocation for its lifetime, not one per basket.
    static MARKS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// One tree node: the last item of the prefixes that end here.
#[derive(Debug, Clone, Copy)]
struct Node {
    item: u32,
    /// The first node after this node's subtree.
    skip: u32,
}

/// Ends the subtrees of the `closed` nodes before the next node pushed.
fn close(nodes: &mut [Node], closed: impl Iterator<Item = usize>) {
    let end = nodes.len() as u32;
    for at in closed {
        if let Some(node) = nodes.get_mut(at) {
            node.skip = end;
        }
    }
}

/// Immutable prefix tree over rule antecedents; its rule ids are the
/// ids the tree was built with.
#[derive(Debug, Clone)]
pub struct RuleIndex {
    /// The tree in depth-first order.
    nodes: Vec<Node>,
    /// `ids[first[n]..first[n + 1]]` are the rules whose antecedent ends
    /// at node `n`.
    first: Vec<u32>,
    ids: Vec<u32>,
    /// `consequents[ends[j]..ends[j + 1]]` is the consequent of rule
    /// `ids[j]`.
    ends: Vec<u32>,
    consequents: Vec<u32>,
    /// The taxonomy's parent array: its length bounds the marks, and
    /// [`RuleIndex::candidates`] extends raw baskets with it.
    parent: Vec<u32>,
}

impl RuleIndex {
    /// Indexes `rules` under `tax`; rule ids are positions in `rules`.
    pub fn build(rules: &[Rule], tax: &Taxonomy) -> RuleIndex {
        RuleIndex::over((0u32..).zip(rules).collect(), tax)
    }

    /// Indexes `(id, rule)` entries. Entries in ascending antecedent
    /// order — a store's canonical order — build in one pass; any other
    /// order is sorted first. Offsets are `u32`: a tree past 2^32 nodes
    /// or consequent items would need a store of tens of gigabytes.
    pub(crate) fn over(mut entries: Vec<(u32, &Rule)>, tax: &Taxonomy) -> RuleIndex {
        if !entries.is_sorted_by(|a, b| a.1.antecedent <= b.1.antecedent) {
            entries.sort_by(|a, b| a.1.antecedent.cmp(&b.1.antecedent));
        }
        let num_items = tax.num_items();
        let mut nodes: Vec<Node> = Vec::new();
        let mut first = Vec::new();
        let mut ids = Vec::new();
        let mut ends = vec![0];
        let mut consequents = Vec::new();
        // The nodes on the path to the previous antecedent's end. In
        // sorted order an antecedent shares a prefix with that path and
        // never ends above its end, so the nodes it leaves are complete.
        let mut path: Vec<usize> = Vec::new();
        for (id, rule) in entries {
            let items = rule.antecedent.items();
            if items.is_empty() || items.iter().any(|it| it.raw() >= num_items) {
                continue;
            }
            let shared = path
                .iter()
                .zip(items)
                .take_while(|&(&at, it)| nodes.get(at).is_some_and(|n| n.item == it.raw()))
                .count();
            close(&mut nodes, path.drain(shared..));
            for it in items.iter().skip(shared) {
                path.push(nodes.len());
                nodes.push(Node {
                    item: it.raw(),
                    skip: 0,
                });
                first.push(ids.len() as u32);
            }
            ids.push(id);
            consequents.extend(rule.consequent.items().iter().map(|it| it.raw()));
            ends.push(consequents.len() as u32);
        }
        close(&mut nodes, path.drain(..));
        first.push(ids.len() as u32);
        let parent = (0..num_items)
            .map(|i| tax.parent(ItemId(i)).map_or(NO_PARENT, ItemId::raw))
            .collect();
        RuleIndex {
            nodes,
            first,
            ids,
            ends,
            consequents,
            parent,
        }
    }

    /// The walk: marks `items`, then calls `reached` with the rule
    /// positions (into `ids`) of every node whose path is all marked,
    /// and the marks. Returns the number of nodes walked.
    fn walk(&self, items: &[ItemId], mut reached: impl FnMut(Range<usize>, &[bool])) -> usize {
        MARKS.with(|cell| {
            let mut marks = cell.borrow_mut();
            let n = self.parent.len();
            if marks.len() < n {
                marks.resize(n, false);
            }
            let Some(marks) = marks.get_mut(..n) else {
                return 0;
            };
            for it in items {
                if let Some(m) = marks.get_mut(it.index()) {
                    *m = true;
                }
            }
            let mut walked = 0;
            let mut at = 0;
            while let Some(node) = self.nodes.get(at) {
                walked += 1;
                if marks.get(node.item as usize) == Some(&true) {
                    let lo = self.first.get(at).map_or(0, |&i| i as usize);
                    let hi = self.first.get(at + 1).map_or(0, |&i| i as usize);
                    reached(lo..hi, marks);
                    at += 1;
                } else {
                    at = node.skip as usize;
                }
            }
            for it in items {
                if let Some(m) = marks.get_mut(it.index()) {
                    *m = false;
                }
            }
            walked
        })
    }

    /// Calls `hit` with every rule whose whole antecedent lies in
    /// `items` — in order or not, repeats allowed; items outside the
    /// taxonomy match nothing. Returns the number of nodes walked (each
    /// entered or jumped over), the work this basket cost the index.
    pub fn for_each_contained(&self, items: &[ItemId], mut hit: impl FnMut(u32)) -> usize {
        self.walk(items, |rules, _| {
            for &id in self.ids.get(rules).unwrap_or(&[]) {
                hit(id);
            }
        })
    }

    /// Calls `hit` with every rule that *matches* `items`: its whole
    /// antecedent lies in `items` and its consequent does not (an empty
    /// consequent always does). On the scoring path `items` is
    /// [`crate::Catalog::extend_basket`]'s output. Returns the number of
    /// nodes walked, as [`RuleIndex::for_each_contained`] does.
    pub fn for_each_match(&self, items: &[ItemId], mut hit: impl FnMut(u32)) -> usize {
        self.walk(items, |rules, marks| {
            let ids = self.ids.get(rules.clone()).unwrap_or(&[]);
            let ends = self.ends.get(rules.start..=rules.end).unwrap_or(&[]);
            for (&id, run) in ids.iter().zip(ends.windows(2)) {
                let &[lo, hi] = run else { continue };
                let consequent = self
                    .consequents
                    .get(lo as usize..hi as usize)
                    .unwrap_or(&[]);
                if !consequent
                    .iter()
                    .all(|&c| marks.get(c as usize) == Some(&true))
                {
                    hit(id);
                }
            }
        })
    }

    /// Sorted distinct ids of the rules a **raw** (unextended) basket
    /// makes the engine examine: the rules whose antecedent lies in the
    /// basket's items and their ancestors. A diagnostic — the scoring
    /// path is [`RuleIndex::for_each_match`]. Items outside the
    /// taxonomy contribute nothing.
    pub fn candidates(&self, basket: &[ItemId]) -> Vec<u32> {
        let mut extended = Vec::new();
        for &it in basket {
            let mut cur = it.raw();
            while let Some(&up) = self.parent.get(cur as usize) {
                extended.push(ItemId(cur));
                cur = up;
            }
        }
        let mut out = Vec::new();
        self.for_each_contained(&extended, |id| out.push(id));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MAX_ITEMSET_LEN;
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

    fn matching(idx: &RuleIndex, extended: &[u32]) -> Vec<u32> {
        let extended: Vec<ItemId> = extended.iter().map(|&i| ItemId(i)).collect();
        let mut out = Vec::new();
        idx.for_each_match(&extended, |r| out.push(r));
        out.sort_unstable();
        out
    }

    #[test]
    fn a_rule_whose_consequent_is_held_stays_silent() {
        let tax = sa95_taxonomy();
        let rules = vec![
            rule(iset![1], iset![5, 7]),
            rule(iset![1], iset![2, 7]),
            rule(iset![1], iset![7]),
            rule(iset![1], iset![8]),
        ];
        let idx = RuleIndex::build(&rules, &tax);
        // t' = {0, 1, 3, 5, 7}: rule 0's consequent is all there, its
        // sibling rule 1 misses shirts(2), and item 8 lies outside the
        // taxonomy, so it is never held.
        assert_eq!(matching(&idx, &[0, 1, 3, 5, 7]), vec![1, 3]);
        // Every antecedent is still contained: the diagnostic walk
        // reports all four.
        assert_eq!(contained(&idx, &[0, 1, 3, 5, 7]), vec![0, 1, 2, 3]);
        // Without boots(7) in t' all four fire.
        assert_eq!(matching(&idx, &[0, 1, 3]), vec![0, 1, 2, 3]);
        // An empty consequent is always held.
        let empty = RuleIndex::build(&[rule(iset![1], Itemset::from_sorted(Vec::new()))], &tax);
        assert_eq!(contained(&empty, &[1]), vec![0]);
        assert!(matching(&empty, &[1]).is_empty());
    }

    #[test]
    fn the_tree_shares_prefixes_and_holds_antecedents_only() {
        let tax = sa95_taxonomy();
        let rules = vec![
            rule(iset![1], iset![7]),
            rule(iset![1, 7], iset![2]),
            rule(iset![1, 7], iset![3]),
            rule(iset![2, 3], iset![1]),
        ];
        let idx = RuleIndex::build(&rules, &tax);
        // {1} and {1, 7} share node 1; the consequents add no node.
        let shape: Vec<(u32, u32)> = idx.nodes.iter().map(|n| (n.item, n.skip)).collect();
        assert_eq!(shape, vec![(1, 2), (7, 2), (2, 4), (3, 4)]);
        assert_eq!(idx.first, vec![0, 1, 3, 3, 4]);
        assert_eq!(idx.ids, vec![0, 1, 2, 3]);
        // The consequents ride beside the ids, one run per rule.
        assert_eq!(idx.ends, vec![0, 1, 2, 3, 4]);
        assert_eq!(idx.consequents, vec![7, 2, 3, 1]);
        // jackets(3) is a descendant of outerwear(1): no closure is
        // folded in, the extended basket supplies the ancestor.
        assert!(contained(&idx, &[3]).is_empty());
        assert_eq!(contained(&idx, &[1, 3]), vec![0]);
        assert!(contained(&idx, &[99]).is_empty());
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
        // Marks are cleared: a second walk sees the same thing.
        assert_eq!(contained(&idx, &[2, 3]), Vec::<u32>::new());
        assert_eq!(contained(&idx, &[2, 3, 6]), vec![2]);
        let mut hits = 0;
        assert_eq!(
            idx.for_each_contained(&[ItemId(1), ItemId(7)], |_| hits += 1),
            3,
            "nodes walked: 1 and 1→7 entered, 2 jumped over with 2→3→6"
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
        // jackets(3) contains rule 0 through its ancestor outerwear(1)
        // and rule 3 through itself and its root clothes(0); the repeat
        // of 3 changes nothing.
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
        // The longest antecedent the store admits is a 65,536-deep path:
        // it must build and walk without recursion, and fire only on the
        // whole of it.
        for len in [300, MAX_ITEMSET_LEN as u32] {
            let (tax, items) = flat(len + 1, len);
            let long = rule(Itemset::from_sorted(items), iset![len]);
            let idx = RuleIndex::over(vec![(0, &long)], &tax);
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
        // Item 9 is in no tree, so {1} alone must not fire rule 0 — and
        // neither may a basket that names the unknown item.
        assert_eq!(contained(&idx, &[1]), vec![1]);
        assert_eq!(contained(&idx, &[1, 9]), vec![1]);
        assert_eq!(idx.candidates(&[ItemId(1)]), vec![1]);
        // Marks from a walk over a larger taxonomy on the same thread
        // do not leak into this one.
        let (big, _) = flat(16, 0);
        let wide = RuleIndex::build(&[rule(iset![9], iset![2])], &big);
        assert_eq!(contained(&wide, &[9]), vec![0]);
        assert_eq!(contained(&idx, &[1, 9]), vec![1]);
    }

    /// The definition: a rule is reached when its antecedent is
    /// non-empty, names only taxonomy items, and lies in `items`; it
    /// matches when, besides, some consequent item is not a taxonomy
    /// item of `items`. Returns `(reached, matched)`.
    fn brute_force(rules: &[Rule], num_items: u32, items: &[ItemId]) -> (Vec<u32>, Vec<u32>) {
        let known = |it: &ItemId| it.raw() < num_items && items.contains(it);
        let reached: Vec<u32> = (0u32..)
            .zip(rules)
            .filter(|(_, r)| !r.antecedent.is_empty() && r.antecedent.items().iter().all(known))
            .map(|(id, _)| id)
            .collect();
        let matched = reached
            .iter()
            .copied()
            .filter(|&id| {
                let consequent = rules
                    .get(id as usize)
                    .map_or(&[][..], |r| r.consequent.items());
                !consequent.iter().all(known)
            })
            .collect();
        (reached, matched)
    }

    proptest::proptest! {
        #[test]
        fn the_walk_finds_exactly_the_contained_antecedents(
            shape in (1u32..4, 6u32..40, 0u32..4, 0u64..10_000),
            stems in proptest::collection::vec(proptest::collection::vec(0u32..48, 0..6), 1..5),
            drawn in proptest::collection::vec(
                (0usize..5, 0usize..7, proptest::collection::vec(0u32..48, 0..3), 0u32..6,
                 proptest::collection::vec(0u32..48, 0..3), 0u32..3), 1..40),
            baskets in proptest::collection::vec(proptest::collection::vec(0u32..48, 0..8), 1..10),
        ) {
            let (roots, items, fanout, seed) = shape;
            let tax = gar_taxonomy::synth::synthesize(&gar_taxonomy::synth::SynthTaxonomyConfig {
                num_items: items.max(roots + 1),
                num_roots: roots,
                fanout: 1.5 + f64::from(fanout),
                seed,
            });
            let n = tax.num_items();
            // Items run to n + 1: a few draws fall outside the taxonomy.
            let item = |x: u32| ItemId(x % (n + 2));
            let parents = |a: &[ItemId]| -> Vec<ItemId> {
                a.iter().filter(|it| it.raw() < n).filter_map(|&it| tax.parent(it)).collect()
            };
            // Antecedents are a prefix of a shared stem plus extras, so
            // prefixes and whole antecedents repeat across rules.
            // Consequents are drawn, or the antecedent's parents (held
            // whenever the antecedent is), or overlap the antecedent.
            let rules: Vec<Rule> = drawn
                .into_iter()
                .map(|(stem, len, extra, kind, drawn, consequent_kind)| {
                    let mut a: Vec<ItemId> = if kind == 0 {
                        Vec::new()
                    } else {
                        let stem = &stems[stem % stems.len()];
                        stem.iter().take(len).chain(&extra).map(|&x| item(x)).collect()
                    };
                    if kind == 1 {
                        // Each item beside its own parent.
                        a.extend(parents(&a));
                    }
                    let mut c: Vec<ItemId> = drawn.iter().map(|&x| item(x)).collect();
                    match consequent_kind {
                        0 => {}
                        1 => c = parents(&a),
                        _ => c.extend(a.first()),
                    }
                    rule(Itemset::from_unsorted(a), Itemset::from_unsorted(c))
                })
                .collect();
            let entries: Vec<(u32, &Rule)> = (0u32..).zip(&rules).collect();
            let mut sorted = entries.clone();
            sorted.sort_by(|a, b| a.1.antecedent.cmp(&b.1.antecedent));
            let unsorted = RuleIndex::over(entries, &tax);
            let canonical = RuleIndex::over(sorted, &tax);
            for raw in &baskets {
                let raw: Vec<ItemId> = raw.iter().map(|&x| item(x)).collect();
                let known: Vec<ItemId> = raw.iter().copied().filter(|it| it.raw() < n).collect();
                // The scoring path's input, plus whatever unknown items
                // the raw basket named.
                let mut extended = tax.extend_transaction(&known);
                extended.extend(raw.iter().filter(|it| it.raw() >= n));
                let (reached, matched) = brute_force(&rules, n, &extended);
                for idx in [&unsorted, &canonical] {
                    let mut got = Vec::new();
                    idx.for_each_contained(&extended, |id| got.push(id));
                    got.sort_unstable();
                    proptest::prop_assert_eq!(got, reached.clone());
                    proptest::prop_assert_eq!(idx.candidates(&raw), reached.clone());
                    let mut got = Vec::new();
                    idx.for_each_match(&extended, |id| got.push(id));
                    got.sort_unstable();
                    proptest::prop_assert_eq!(got, matched.clone());
                }
            }
        }
    }
}
