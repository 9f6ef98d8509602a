//! Rule derivation — the paper's second subproblem.
//!
//! From every large itemset `X` and proper non-empty subset `Y ⊂ X`, the
//! rule `(X−Y) ⇒ Y` is emitted when its confidence
//! `sup(X) / sup(X−Y)` reaches the minimum. Rules whose consequent
//! contains an ancestor of an antecedent item (or vice versa: `x ⇒
//! ancestor(x)` has confidence 100% by construction) are redundant and
//! dropped — though with taxonomy-pruned candidates they cannot arise.
//!
//! [`derive_rules`] is [AS94]'s ap-genrules. It visits the large
//! itemsets in output order and grows each one's consequents level by
//! level: the 1-item consequents first, then the `(m+1)`-item ones by
//! apriori-gen (`candidate::apriori_gen`, which also builds the
//! candidates) over the `m`-item consequents still alive, as rows of
//! positions into `X`. A consequent whose rule misses the minimum
//! confidence is not extended. That prunes nothing that could pass: for
//! `Y ⊂ Y'`, `X−Y' ⊂ X−Y`, so `sup(X−Y') ≥ sup(X−Y)` and the confidence
//! can only fall as the consequent grows. A rule skipped for redundancy,
//! or for an antecedent whose support the output lacks (a dropped pass),
//! still extends. Because consequents are positions, an itemset of any
//! length derives every rule; levels stop once the antecedents are
//! shorter than every large itemset, since none of them can have a
//! support.
//!
//! Rules have one stored order: the canonical `(antecedent, consequent)`
//! key order of [`canonicalize_rules`]. [`derive_rules`] reaches it with
//! one sort of packed 16-byte integers, one per rule, and moves each rule
//! once; the rule store checks the order in one pass, and the serving
//! catalog reads a store position where it would compare keys.
//! Presentation order (confidence first, [`presentation_order`]) is a
//! view: [`top_rules`] selects and sorts only the rules it shows.
//!
//! As the [SA95] extension, [`prune_uninteresting`] implements the
//! **R-interesting** filter: a rule is kept only if its support is at
//! least `R` times what its *closest ancestor rule* predicts (the
//! ancestor rule's support scaled by the descendants' share of their
//! ancestors), removing rules that merely restate a generalization.

use crate::candidate::apriori_gen;
use crate::report::MiningOutput;
use gar_taxonomy::Taxonomy;
use gar_types::{FxHashMap, FxHashSet, ItemId, Itemset};
use std::cmp::Ordering;

/// One association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// `X − Y`.
    pub antecedent: Itemset,
    /// `Y`.
    pub consequent: Itemset,
    /// `sup(X)` as an absolute transaction count.
    pub support_count: u64,
    /// `sup(X)` as a fraction of the database.
    pub support: f64,
    /// `sup(X) / sup(X−Y)`.
    pub confidence: f64,
}

impl Rule {
    /// The union `X = antecedent ∪ consequent`.
    pub fn itemset(&self) -> Itemset {
        self.antecedent.union(&self.consequent)
    }

    /// The rule's key `(antecedent, consequent)`: unique in a store, and
    /// the store's order.
    pub fn key(&self) -> (&Itemset, &Itemset) {
        (&self.antecedent, &self.consequent)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {}  (sup {:.2}%, conf {:.1}%)",
            self.antecedent,
            self.consequent,
            self.support * 100.0,
            self.confidence * 100.0
        )
    }
}

/// Presentation order: confidence desc, support desc, then the rule's
/// key. The `(antecedent, consequent)` key is unique, so the order is
/// total and an unstable sort cannot reorder ties. No store holds rules
/// in this order; [`top_rules`] is the view that shows them in it.
pub fn presentation_order(a: &Rule, b: &Rule) -> Ordering {
    // Confidences are ratios of counts, so never negative: `total_cmp`
    // orders them as `partial_cmp` does, and a NaN from a hand-built
    // output sorts instead of panicking.
    b.confidence
        .total_cmp(&a.confidence)
        .then_with(|| b.support_count.cmp(&a.support_count))
        .then_with(|| a.key().cmp(&b.key()))
}

/// The first `n` of `rules` in [`presentation_order`]: selects them,
/// then sorts only those, so showing the top of a large rule set costs
/// O(len + n log n).
pub fn top_rules(rules: &[Rule], n: usize) -> Vec<&Rule> {
    let mut top: Vec<&Rule> = rules.iter().collect();
    if n < top.len() {
        top.select_nth_unstable_by(n, |a, b| presentation_order(a, b));
        top.truncate(n);
    }
    top.sort_unstable_by(|a, b| presentation_order(a, b));
    top
}

/// Canonical order — the one order rules are stored in: sorted by
/// `(antecedent, consequent)` item ids, one rule kept per key. Unlike
/// [`presentation_order`] (keyed on floating-point confidence), it
/// depends only on the item ids, so the same rule set serializes to the
/// same bytes no matter which algorithm or node count produced it — the
/// invariant the persisted rule store's determinism guarantee rests on.
/// Of rules that share a key, the one kept is the least by
/// `(support_count, confidence bits)`, so which survives does not depend
/// on the input order either.
///
/// [`derive_rules`] already returns this order, so the common case is
/// one linear check; only other input is sorted and deduplicated.
pub fn canonicalize_rules(rules: &mut Vec<Rule>) {
    if rules.is_sorted_by(|a, b| a.key() < b.key()) {
        return;
    }
    rules.sort_by(|a, b| {
        a.key()
            .cmp(&b.key())
            .then_with(|| a.support_count.cmp(&b.support_count))
            .then_with(|| a.confidence.to_bits().cmp(&b.confidence.to_bits()))
    });
    rules.dedup_by(|a, b| a.key() == b.key());
}

/// The support of every large itemset, keyed by its items and borrowed
/// from `output`, so building it clones no itemset.
fn borrowed_supports(output: &MiningOutput) -> FxHashMap<&[ItemId], u64> {
    output.all_large().map(|(s, c)| (s.items(), *c)).collect()
}

/// Derives every rule meeting `min_confidence` from the mined large
/// itemsets, in canonical `(antecedent, consequent)` order (see
/// [`canonicalize_rules`]); each key occurs once. With a taxonomy, rules
/// whose consequent holds an ancestor of an antecedent item are dropped
/// as redundant.
pub fn derive_rules(
    output: &MiningOutput,
    min_confidence: f64,
    tax: Option<&Taxonomy>,
) -> Vec<Rule> {
    assert!((0.0..=1.0).contains(&min_confidence));
    let support = borrowed_supports(output);
    // No antecedent shorter than every large itemset has a support, so no
    // level past the one that reaches that length can emit a rule.
    let shortest = output.all_large().map(|(s, _)| s.len()).min().unwrap_or(0);
    let n = output.num_transactions.max(1) as f64;
    let mut rules = Vec::new();
    // Reused across itemsets: a level's consequents and the ones it
    // keeps alive, each a row of `m` ascending positions into `x`, and
    // the antecedent of the rule at hand.
    let mut level: Vec<usize> = Vec::new();
    let mut alive: Vec<usize> = Vec::new();
    let mut antecedent: Vec<ItemId> = Vec::new();
    for &(ref x, sup_x) in output.all_large() {
        let items = x.items();
        let k = items.len();
        level.clear();
        level.extend(0..k);
        let mut m = 1;
        while m < k && k - m >= shortest && !level.is_empty() {
            alive.clear();
            for y in level.chunks_exact(m) {
                antecedent.clear();
                let mut next = 0;
                for (p, &it) in items.iter().enumerate() {
                    if y.get(next) == Some(&p) {
                        next += 1;
                    } else {
                        antecedent.push(it);
                    }
                }
                let Some(&sup_ante) = support.get(antecedent.as_slice()) else {
                    // A pass missing from the output: skip the rule, but a
                    // larger consequent's antecedent may still be there.
                    alive.extend_from_slice(y);
                    continue;
                };
                let confidence = sup_x as f64 / sup_ante as f64;
                if confidence < min_confidence {
                    continue;
                }
                alive.extend_from_slice(y);
                if let Some(t) = tax {
                    let redundant = y
                        .iter()
                        .any(|&c| antecedent.iter().any(|&a| t.is_ancestor(items[c], a)));
                    if redundant {
                        continue;
                    }
                }
                rules.push(Rule {
                    antecedent: Itemset::from_sorted(antecedent.clone()),
                    consequent: Itemset::from_sorted(y.iter().map(|&c| items[c]).collect()),
                    support_count: sup_x,
                    support: sup_x as f64 / n,
                    confidence,
                });
            }
            apriori_gen(&alive, m, &mut level);
            m += 1;
        }
    }
    sort_by_key_order(&mut rules);
    rules
}

/// Sorts `rules` into `(antecedent, consequent)` order with one sort of
/// 16-byte integers. A key is read as the symbols `antecedent, 0,
/// consequent, 0`, each item `i` as `i + 1`: no such sequence is a prefix
/// of another, so comparing them symbol by symbol is comparing the keys.
/// Each sort key packs as many leading symbols as fit in 96 bits, at the
/// width the largest item needs, above the rule's position; only rules
/// whose packed prefixes tie (keys longer than the prefix) are compared
/// item by item afterwards. The rules then move once, in place, along
/// the cycles of the sorted positions.
fn sort_by_key_order(rules: &mut [Rule]) {
    let symbol = |it: &ItemId| u64::from(it.raw()) + 1;
    let top = rules
        .iter()
        .flat_map(|r| r.antecedent.items().iter().chain(r.consequent.items()))
        .map(symbol)
        .max()
        .unwrap_or(0);
    let width = (u64::BITS - top.leading_zeros()).max(1);
    let slots = 96 / width;
    let mut packed: Vec<u128> = (0u32..)
        .zip(rules.iter())
        .map(|(at, r)| {
            let symbols = r
                .antecedent
                .items()
                .iter()
                .map(symbol)
                .chain([0])
                .chain(r.consequent.items().iter().map(symbol))
                .chain([0]);
            let mut prefix = 0u128;
            let mut filled = 0;
            for symbol in symbols.take(slots as usize) {
                prefix = prefix << width | u128::from(symbol);
                filled += 1;
            }
            (prefix << (width * (slots - filled))) << 32 | u128::from(at)
        })
        .collect();
    packed.sort_unstable();
    let at = |p: &u128| *p as u32 as usize;
    for tied in packed.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if tied.len() > 1 {
            tied.sort_unstable_by_key(|p| rules.get(at(p)).map(Rule::key));
        }
    }
    // Position `i` takes the rule at `from[i]`; a done position points
    // at itself.
    let mut from: Vec<usize> = packed.iter().map(at).collect();
    for start in 0..from.len() {
        let mut i = start;
        while from[i] != start {
            let next = from[i];
            rules.swap(i, next);
            from[i] = i;
            i = next;
        }
        from[i] = i;
    }
}

/// The closest ancestor itemsets of `x`: every itemset obtained by
/// replacing exactly one member with its direct parent (deduplicated,
/// same-size only).
fn parent_itemsets(x: &Itemset, tax: &Taxonomy) -> Vec<Itemset> {
    let mut out = Vec::new();
    for (i, &it) in x.items().iter().enumerate() {
        if let Some(p) = tax.parent(it) {
            let mut items: Vec<ItemId> = x.items().to_vec();
            items[i] = p;
            let set = Itemset::from_unsorted(items);
            if set.len() == x.len() {
                out.push(set);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// [SA95] R-interestingness: keep a rule only when its support is at least
/// `r` times the support *expected* from each closest ancestor rule.
///
/// For an ancestor rule `X' ⇒ Y'` (one item generalized one level), the
/// expected support of the descendant rule is
/// `sup(X' ∪ Y') × Π sup(z_i) / sup(z'_i)` over the specialized items —
/// i.e. the ancestor association diluted by the descendant's share. Rules
/// with no mined ancestor rule are kept unconditionally.
pub fn prune_uninteresting(
    rules: &[Rule],
    output: &MiningOutput,
    tax: &Taxonomy,
    r: f64,
) -> Vec<Rule> {
    assert!(r >= 1.0, "R must be >= 1");
    let support = borrowed_supports(output);
    // Single-item supports (for the dilution ratio).
    let item_sup = |it: ItemId| -> Option<u64> { support.get([it].as_slice()).copied() };
    // Every derived rule as `(X ∪ Y, |X|)`: antecedent and consequent are
    // disjoint, so this pair fixes the consequent's size too.
    let derived: FxHashSet<(Itemset, usize)> = rules
        .iter()
        .map(|rl| (rl.itemset(), rl.antecedent.len()))
        .collect();

    let mut kept = Vec::new();
    'rules: for rule in rules {
        let x = rule.itemset();
        for anc_x in parent_itemsets(&x, tax) {
            let Some(&anc_sup) = support.get(anc_x.items()) else {
                continue;
            };
            // The specialized position: the item of x missing from anc_x.
            let specialized: Vec<(ItemId, ItemId)> = x
                .items()
                .iter()
                .filter(|it| !anc_x.contains(**it))
                .filter_map(|&child| tax.parent(child).map(|p| (child, p)))
                .collect();
            let mut ratio = 1.0;
            for (child, parent) in &specialized {
                match (item_sup(*child), item_sup(*parent)) {
                    (Some(c), Some(p)) if p > 0 => ratio *= c as f64 / p as f64,
                    _ => continue,
                }
            }
            let expected = anc_sup as f64 * ratio;
            // Only prune against ancestor rules that were themselves
            // derived (same antecedent/consequent shape, generalized).
            if (rule.support_count as f64) < r * expected
                && derived.contains(&(anc_x, rule.antecedent.len()))
            {
                continue 'rules;
            }
        }
        kept.push(rule.clone());
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::sequential::cumulate;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::{iset, FxHashMap};

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    /// clothes(0) -> outerwear(1) -> jackets(3), ski pants(4);
    /// clothes(0) -> shirts(2); footwear(5) -> shoes(6), boots(7).
    fn sa95() -> (Taxonomy, MiningOutput) {
        let mut b = TaxonomyBuilder::new(8);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
            b.edge(c, p).unwrap();
        }
        let tax = b.build().unwrap();
        let txns = vec![
            ids(&[2]),
            ids(&[3, 7]),
            ids(&[4, 7]),
            ids(&[6]),
            ids(&[6]),
            ids(&[3]),
        ];
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let out = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(0.3)).unwrap();
        (tax, out)
    }

    #[test]
    fn derives_sa95_example_rules() {
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 0.6, Some(&tax));
        // [SA95]: "Outerwear => Hiking Boots" holds with 2/3 confidence
        // and 33% support.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == iset![1] && r.consequent == iset![7])
            .expect("outerwear => hiking boots");
        assert_eq!(rule.support_count, 2);
        assert!((rule.confidence - 2.0 / 3.0).abs() < 1e-9);
        // "Jackets => Hiking Boots" (1/2 confidence) must be excluded at 60%.
        assert!(!rules
            .iter()
            .any(|r| r.antecedent == iset![3] && r.consequent == iset![7]));
    }

    #[test]
    fn hundred_percent_confidence_rules() {
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 1.0, Some(&tax));
        // Hiking boots => outerwear: both boot transactions have outerwear.
        assert!(rules
            .iter()
            .any(|r| r.antecedent == iset![7] && r.consequent == iset![1]));
    }

    #[test]
    fn min_confidence_zero_emits_all_splits() {
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 0.0, Some(&tax));
        // Each large 2-itemset contributes both directions.
        let l2 = out.large(2).unwrap().itemsets.len();
        assert_eq!(rules.len(), 2 * l2);
    }

    #[test]
    fn rules_sorted_by_confidence() {
        // Derivation stores key order; the presentation view sorts by
        // confidence, and its top `n` is the full sort's first `n`.
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 0.0, Some(&tax));
        let all = top_rules(&rules, rules.len());
        assert_eq!(all.len(), rules.len());
        assert!(all.windows(2).all(|w| w[0].confidence >= w[1].confidence));
        assert!(all
            .windows(2)
            .all(|w| presentation_order(w[0], w[1]) == Ordering::Less));
        for n in 0..=rules.len() + 1 {
            assert_eq!(top_rules(&rules, n), all[..n.min(all.len())]);
        }
    }

    #[test]
    fn derived_rules_come_in_canonical_order() {
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 0.0, Some(&tax));
        assert!(rules.len() > 2);
        let mut canonical = rules.clone();
        canonicalize_rules(&mut canonical);
        assert_eq!(canonical, rules);
        assert!(rules.windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn redundant_ancestor_rules_filtered() {
        // Without candidate-level pruning (flat output injected), the
        // consequent-ancestor filter must drop x => ancestor(x).
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        let tax = b.build().unwrap();
        let out = MiningOutput {
            algorithm: crate::params::Algorithm::Cumulate,
            num_transactions: 10,
            min_support_count: 1,
            passes: vec![
                crate::report::LargePass {
                    k: 1,
                    itemsets: vec![(iset![0], 5), (iset![1], 5)],
                },
                crate::report::LargePass {
                    k: 2,
                    itemsets: vec![(iset![0, 1], 5)],
                },
            ],
        };
        let rules = derive_rules(&out, 0.0, Some(&tax));
        // {1} => {0} (child => parent) is redundant; {0} => {1} is not.
        assert!(!rules
            .iter()
            .any(|r| r.antecedent == iset![1] && r.consequent == iset![0]));
        assert!(rules
            .iter()
            .any(|r| r.antecedent == iset![0] && r.consequent == iset![1]));
    }

    #[test]
    fn canonicalize_sorts_by_items_and_dedups() {
        let mk = |a: Itemset, c: Itemset, conf: f64| Rule {
            antecedent: a,
            consequent: c,
            support_count: 2,
            support: 0.5,
            confidence: conf,
        };
        let mut rules = vec![
            mk(iset![3], iset![7], 0.9),
            mk(iset![1], iset![7], 0.5),
            mk(iset![3], iset![7], 0.9), // duplicate
            mk(iset![1], iset![4], 0.7),
        ];
        canonicalize_rules(&mut rules);
        let keys: Vec<_> = rules
            .iter()
            .map(|r| (r.antecedent.clone(), r.consequent.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (iset![1], iset![4]),
                (iset![1], iset![7]),
                (iset![3], iset![7]),
            ]
        );
    }

    #[test]
    fn conflicting_duplicates_canonicalize_regardless_of_input_order() {
        // Two rules with one key but different measures: the survivor
        // must not depend on which came first.
        let mk = |sup: u64, conf: f64| Rule {
            antecedent: iset![1],
            consequent: iset![7],
            support_count: sup,
            support: sup as f64 / 6.0,
            confidence: conf,
        };
        let mut a = vec![mk(2, 0.5), mk(3, 0.5), mk(2, 0.25)];
        let mut b = a.clone();
        b.reverse();
        canonicalize_rules(&mut a);
        canonicalize_rules(&mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![mk(2, 0.25)]);
    }

    #[test]
    fn canonical_order_is_independent_of_input_order() {
        let (tax, out) = sa95();
        let mut a = derive_rules(&out, 0.0, Some(&tax));
        let mut b = a.clone();
        b.reverse();
        canonicalize_rules(&mut a);
        canonicalize_rules(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_readable() {
        let r = Rule {
            antecedent: iset![1],
            consequent: iset![7],
            support_count: 2,
            support: 1.0 / 3.0,
            confidence: 2.0 / 3.0,
        };
        assert_eq!(r.to_string(), "{1} => {7}  (sup 33.33%, conf 66.7%)");
    }

    #[test]
    fn parent_itemsets_single_generalization() {
        let (tax, _) = sa95();
        let ps = parent_itemsets(&iset![3, 7], &tax);
        assert_eq!(ps, vec![iset![1, 7], iset![3, 5]]);
    }

    /// The deriver as it was first written, kept as the reference: it
    /// tries every bitmask split of every itemset, so it is exponential in
    /// the itemset's length and overflows its mask at 32 items.
    fn derive_rules_reference(
        output: &MiningOutput,
        min_confidence: f64,
        tax: Option<&Taxonomy>,
    ) -> Vec<Rule> {
        assert!((0.0..=1.0).contains(&min_confidence));
        let support = borrowed_supports(output);
        let n = output.num_transactions.max(1) as f64;
        let mut rules = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "each itemset derives its rules independently and the key sort imposes a \
                      total order on the combined output, so visit order cannot leak into the \
                      report"
        )]
        for (x, &sup_x) in support.iter().filter(|(s, _)| s.len() >= 2) {
            // Every non-empty proper subset Y, via bitmask over the members.
            for mask in 1..(1u32 << x.len()) - 1 {
                let mut antecedent = Vec::new();
                let mut consequent = Vec::new();
                for (i, &it) in x.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        consequent.push(it);
                    } else {
                        antecedent.push(it);
                    }
                }
                let antecedent = Itemset::from_sorted(antecedent);
                let consequent = Itemset::from_sorted(consequent);
                let Some(&sup_ante) = support.get(antecedent.items()) else {
                    // Apriori closure guarantees presence; a miss means the
                    // output was truncated by max_pass — skip quietly.
                    continue;
                };
                let confidence = sup_x as f64 / sup_ante as f64;
                if confidence < min_confidence {
                    continue;
                }
                if let Some(t) = tax {
                    let redundant = consequent
                        .items()
                        .iter()
                        .any(|&c| antecedent.items().iter().any(|&a| t.is_ancestor(c, a)));
                    if redundant {
                        continue;
                    }
                }
                rules.push(Rule {
                    antecedent,
                    consequent,
                    support_count: sup_x,
                    support: sup_x as f64 / n,
                    confidence,
                });
            }
        }
        // Canonical key order: what `derive_rules` returns.
        rules.sort_unstable_by(|a, b| a.key().cmp(&b.key()));
        rules
    }

    fn hand_built(num_transactions: u64, passes: Vec<Vec<(Itemset, u64)>>) -> MiningOutput {
        MiningOutput {
            algorithm: crate::params::Algorithm::Cumulate,
            num_transactions,
            min_support_count: 1,
            passes: passes
                .into_iter()
                .map(|itemsets| crate::report::LargePass {
                    k: itemsets.first().map_or(0, |(s, _)| s.len()),
                    itemsets,
                })
                .collect(),
        }
    }

    fn keys(rules: &[Rule]) -> Vec<(Itemset, Itemset)> {
        let mut keys: Vec<_> = rules
            .iter()
            .map(|r| (r.antecedent.clone(), r.consequent.clone()))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn a_redundant_rule_still_extends_its_consequent() {
        // 1 is a child of 0. {1,2} => {0} and {1} => {0,2} are redundant;
        // {2} => {0,1} is not, and it grows from the redundant {0}.
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        let tax = b.build().unwrap();
        let out = hand_built(
            10,
            vec![
                vec![(iset![0], 10), (iset![1], 5), (iset![2], 5)],
                vec![(iset![0, 1], 5), (iset![0, 2], 5), (iset![1, 2], 5)],
                vec![(iset![0, 1, 2], 5)],
            ],
        );
        let rules = derive_rules(&out, 1.0, Some(&tax));
        assert_eq!(
            keys(&rules),
            vec![
                (iset![0, 1], iset![2]),
                (iset![0, 2], iset![1]),
                (iset![1], iset![2]),
                (iset![2], iset![0]),
                (iset![2], iset![0, 1]),
                (iset![2], iset![1]),
            ]
        );
        assert_eq!(rules, derive_rules_reference(&out, 1.0, Some(&tax)));
    }

    #[test]
    fn a_missing_antecedent_support_still_extends_its_consequent() {
        // Pass 2 was dropped: no 1-item consequent has an antecedent
        // support, yet each 2-item consequent's rule is at exactly 50%.
        let out = hand_built(
            10,
            vec![
                vec![(iset![0], 8), (iset![1], 8), (iset![2], 8)],
                vec![(iset![0, 1, 2], 4)],
            ],
        );
        let rules = derive_rules(&out, 0.5, None);
        assert_eq!(
            keys(&rules),
            vec![
                (iset![0], iset![1, 2]),
                (iset![1], iset![0, 2]),
                (iset![2], iset![0, 1]),
            ]
        );
        assert_eq!(rules, derive_rules_reference(&out, 0.5, None));
    }

    #[test]
    fn an_itemset_of_forty_items_derives_its_rules() {
        // X has 40 items; each 1-item consequent's antecedent holds 10 of
        // X's 10 transactions, each 2-item one's 10 of 100.
        let x: Vec<u32> = (0..40).collect();
        let without = |drop: &[u32]| -> Itemset {
            x.iter()
                .filter(|i| !drop.contains(i))
                .map(|&i| ItemId(i))
                .collect()
        };
        let l38 = (0..40)
            .flat_map(|a| (a + 1..40).map(move |b| (a, b)))
            .map(|(a, b)| (without(&[a, b]), 100))
            .collect::<Vec<_>>();
        let l39 = (0..40).map(|a| (without(&[a]), 10)).collect();
        let out = hand_built(1000, vec![l38, l39, vec![(without(&[]), 10)]]);
        let rules = derive_rules(&out, 0.5, None);
        let mut expected: Vec<_> = (0..40).map(|a| (without(&[a]), iset![a])).collect();
        expected.sort_unstable();
        assert_eq!(keys(&rules), expected);
        assert!(rules.iter().all(|r| r.confidence == 1.0));
    }

    /// The filter as it was first written, kept as the reference: it looks
    /// the ancestor rule up by scanning every rule, so it is quadratic.
    /// [SA95] R-interestingness: keep a rule only when its support is at least
    /// `r` times the support *expected* from each closest ancestor rule.
    ///
    /// For an ancestor rule `X' ⇒ Y'` (one item generalized one level), the
    /// expected support of the descendant rule is
    /// `sup(X' ∪ Y') × Π sup(z_i) / sup(z'_i)` over the specialized items —
    /// i.e. the ancestor association diluted by the descendant's share. Rules
    /// with no mined ancestor rule are kept unconditionally.
    fn prune_uninteresting_reference(
        rules: &[Rule],
        output: &MiningOutput,
        tax: &Taxonomy,
        r: f64,
    ) -> Vec<Rule> {
        assert!(r >= 1.0, "R must be >= 1");
        let support = borrowed_supports(output);
        // Single-item supports (for the dilution ratio).
        let item_sup = |it: ItemId| -> Option<u64> { support.get([it].as_slice()).copied() };
        let rule_index: FxHashMap<(Itemset, Itemset), &Rule> = rules
            .iter()
            .map(|rl| ((rl.antecedent.clone(), rl.consequent.clone()), rl))
            .collect();

        let mut kept = Vec::new();
        'rules: for rule in rules {
            let x = rule.itemset();
            for anc_x in parent_itemsets(&x, tax) {
                let Some(&anc_sup) = support.get(anc_x.items()) else {
                    continue;
                };
                // The specialized position: the item of x missing from anc_x.
                let specialized: Vec<(ItemId, ItemId)> = x
                    .items()
                    .iter()
                    .filter(|it| !anc_x.contains(**it))
                    .filter_map(|&child| tax.parent(child).map(|p| (child, p)))
                    .collect();
                let mut ratio = 1.0;
                for (child, parent) in &specialized {
                    match (item_sup(*child), item_sup(*parent)) {
                        (Some(c), Some(p)) if p > 0 => ratio *= c as f64 / p as f64,
                        _ => continue,
                    }
                }
                let expected = anc_sup as f64 * ratio;
                // Only prune against ancestor rules that were themselves
                // derived (same antecedent/consequent shape, generalized).
                #[expect(
                    clippy::disallowed_methods,
                    reason = "existence check: `any` over an order-independent pure predicate"
                )]
                let anc_rule_exists = rule_index.keys().any(|(a, c)| {
                    a.union(c) == anc_x
                        && a.len() == rule.antecedent.len()
                        && c.len() == rule.consequent.len()
                });
                if anc_rule_exists && (rule.support_count as f64) < r * expected {
                    continue 'rules;
                }
            }
            kept.push(rule.clone());
        }
        kept
    }

    proptest::proptest! {
        #[test]
        fn interest_filter_matches_the_reference(
            shape in (1u32..4, 8u32..30, 0u32..4, 0u64..10_000),
            raw_txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..30, 1..6), 4..30),
            div in 2u32..6,
        ) {
            let (roots, items, fanout, seed) = shape;
            let tax = gar_taxonomy::synth::synthesize(&gar_taxonomy::synth::SynthTaxonomyConfig {
                num_items: items.max(roots + 1),
                num_roots: roots,
                fanout: 1.5 + f64::from(fanout),
                seed,
            });
            let txns = raw_txns.into_iter().map(|t| {
                let mut v: Vec<ItemId> = t.into_iter().map(|x| ItemId(x % tax.num_items())).collect();
                v.sort_unstable();
                v.dedup();
                v
            });
            let db = PartitionedDatabase::build_in_memory(1, txns).unwrap();
            let params = MiningParams::with_min_support(1.0 / f64::from(div));
            let out = cumulate(db.partition(0), &tax, &params).unwrap();
            let rules = derive_rules(&out, 0.0, Some(&tax));
            for r in [1.0, 1.1, 2.0] {
                proptest::prop_assert_eq!(
                    prune_uninteresting(&rules, &out, &tax, r),
                    prune_uninteresting_reference(&rules, &out, &tax, r)
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn key_order_sorts_like_the_keys(
            keys in proptest::collection::vec(
                (proptest::collection::btree_set(0u32..12, 1..6),
                 proptest::collection::btree_set(0u32..12, 1..5)), 0..80),
            scale in 0usize..3,
        ) {
            // Small ids pack whole keys; the widest ids leave two symbols
            // per prefix, so most ties fall back to the items.
            let scale = [1, 1 << 20, u32::MAX / 11][scale];
            let itemset = |s: &std::collections::BTreeSet<u32>| -> Itemset {
                s.iter().map(|&x| ItemId(x * scale)).collect()
            };
            // Each rule's support is its input position, to follow it.
            let mut rules: Vec<Rule> = (0u64..)
                .zip(&keys)
                .map(|(at, (a, c))| Rule {
                    antecedent: itemset(a),
                    consequent: itemset(c),
                    support_count: at,
                    support: 0.0,
                    confidence: 1.0,
                })
                .collect();
            sort_by_key_order(&mut rules);
            proptest::prop_assert!(rules.windows(2).all(|w| w[0].key() <= w[1].key()));
            // Every rule moved whole, and none was lost or repeated.
            let mut moved: Vec<u64> = rules.iter().map(|r| r.support_count).collect();
            moved.sort_unstable();
            proptest::prop_assert_eq!(moved, (0..keys.len() as u64).collect::<Vec<_>>());
            for r in &rules {
                let (a, c) = &keys[r.support_count as usize];
                proptest::prop_assert!(r.antecedent == itemset(a) && r.consequent == itemset(c));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn derive_matches_the_reference(
            shape in (1u32..4, 8u32..30, 0u32..4, 0u64..10_000),
            raw_txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..30, 1..8), 4..30),
            div in 2u32..8,
            cut in 1usize..4,
        ) {
            let (roots, items, fanout, seed) = shape;
            let tax = gar_taxonomy::synth::synthesize(&gar_taxonomy::synth::SynthTaxonomyConfig {
                num_items: items.max(roots + 1),
                num_roots: roots,
                fanout: 1.5 + f64::from(fanout),
                seed,
            });
            let txns = raw_txns.into_iter().map(|t| {
                let mut v: Vec<ItemId> = t.into_iter().map(|x| ItemId(x % tax.num_items())).collect();
                v.sort_unstable();
                v.dedup();
                v
            });
            let db = PartitionedDatabase::build_in_memory(1, txns).unwrap();
            let min_support = 1.0 / f64::from(div);
            let whole = cumulate(db.partition(0), &tax, &MiningParams::with_min_support(min_support))
                .unwrap();
            let capped = cumulate(
                db.partition(0),
                &tax,
                &MiningParams::with_min_support(min_support).max_pass(cut),
            )
            .unwrap();
            // A middle pass dropped: some antecedents lose their support.
            let mut holed = whole.clone();
            if holed.passes.len() >= 3 {
                holed.passes.remove(1 + cut % (holed.passes.len() - 2));
            }
            for out in [&whole, &capped, &holed] {
                for min_confidence in [0.0, 0.5, 0.88, 1.0] {
                    for t in [Some(&tax), None] {
                        proptest::prop_assert_eq!(
                            derive_rules(out, min_confidence, t),
                            derive_rules_reference(out, min_confidence, t)
                        );
                    }
                }
            }
        }
    }

    /// The filter over 100 k+ rules: every unrelated pair of 330 items
    /// (30 parents of 10 leaves each) is large, so each rule has its
    /// closest ancestor rules among the others. The quadratic reference
    /// would take minutes here; no time is asserted, only the result.
    #[test]
    fn interest_filter_scales_to_a_hundred_thousand_rules() {
        let parent = |leaf: u32| (leaf - 30) / 10;
        let mut b = TaxonomyBuilder::new(330);
        for leaf in 30..330 {
            b.edge(leaf, parent(leaf)).unwrap();
        }
        let tax = b.build().unwrap();
        let singles = (0..330)
            .map(|i| (iset![i], if i < 30 { 1000 } else { 100 }))
            .collect();
        let mut pairs = Vec::new();
        for a in 0..330u32 {
            for b in a + 1..330 {
                if tax.related(ItemId(a), ItemId(b)) {
                    continue;
                }
                let sup = match (a < 30, b < 30) {
                    (true, true) => 500,
                    (true, false) => 50 + (a * 7 + b * 13) % 40,
                    _ => 5 + (a * 31 + b * 17) % 20,
                };
                pairs.push((iset![a, b], u64::from(sup)));
            }
        }
        let out = MiningOutput {
            algorithm: crate::params::Algorithm::Cumulate,
            num_transactions: 10_000,
            min_support_count: 5,
            passes: vec![
                crate::report::LargePass {
                    k: 1,
                    itemsets: singles,
                },
                crate::report::LargePass {
                    k: 2,
                    itemsets: pairs,
                },
            ],
        };
        let rules = derive_rules(&out, 0.0, Some(&tax));
        assert!(rules.len() >= 100_000, "{} rules", rules.len());
        let loose = prune_uninteresting(&rules, &out, &tax, 1.0);
        let strict = prune_uninteresting(&rules, &out, &tax, 2.0);
        // Rules between parents have no ancestor rule: always kept.
        let top = rules
            .iter()
            .filter(|r| r.itemset().items()[1].raw() < 30)
            .count();
        assert_eq!(top, 2 * 30 * 29 / 2);
        assert!(strict.len() >= top, "{} kept at R = 2", strict.len());
        // Some leaf rules fall below their expectation; a larger R keeps
        // a subset of what a smaller one keeps.
        assert!(loose.len() < rules.len(), "nothing pruned at R = 1");
        assert!(strict.len() < loose.len(), "R = 2 pruned nothing more");
        let loose: FxHashSet<_> = loose
            .iter()
            .map(|r| (&r.antecedent, &r.consequent))
            .collect();
        assert!(strict
            .iter()
            .all(|r| loose.contains(&(&r.antecedent, &r.consequent))));
    }

    #[test]
    fn r_interesting_keeps_rules_beating_expectation() {
        // Ancestor rule {0}=>{4} has support 8/10; children 1 and 2 split
        // the parent 0 evenly. Descendant rule {1}=>{4} with support 7
        // (>> expected 4) is interesting at R=1.5; {2}=>{4} with support 1
        // (< 6) is not.
        let mut b = TaxonomyBuilder::new(5);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        let tax = b.build().unwrap();
        let out = MiningOutput {
            algorithm: crate::params::Algorithm::Cumulate,
            num_transactions: 10,
            min_support_count: 1,
            passes: vec![
                crate::report::LargePass {
                    k: 1,
                    itemsets: vec![(iset![0], 10), (iset![1], 5), (iset![2], 5), (iset![4], 8)],
                },
                crate::report::LargePass {
                    k: 2,
                    itemsets: vec![(iset![0, 4], 8), (iset![1, 4], 7), (iset![2, 4], 1)],
                },
            ],
        };
        let rules = derive_rules(&out, 0.0, Some(&tax));
        let kept = prune_uninteresting(&rules, &out, &tax, 1.5);
        assert!(kept
            .iter()
            .any(|r| r.antecedent == iset![1] && r.consequent == iset![4]));
        assert!(!kept
            .iter()
            .any(|r| r.antecedent == iset![2] && r.consequent == iset![4]));
        // The ancestor rule itself has no mined ancestor: always kept.
        assert!(kept
            .iter()
            .any(|r| r.antecedent == iset![0] && r.consequent == iset![4]));
    }
}
