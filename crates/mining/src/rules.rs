//! Rule derivation — the paper's second subproblem.
//!
//! From every large itemset `X` and proper non-empty subset `Y ⊂ X`, the
//! rule `(X−Y) ⇒ Y` is emitted when its confidence
//! `sup(X) / sup(X−Y)` reaches the minimum. Rules whose consequent
//! contains an ancestor of an antecedent item (or vice versa: `x ⇒
//! ancestor(x)` has confidence 100% by construction) are redundant and
//! dropped — though with taxonomy-pruned candidates they cannot arise.
//!
//! As the [SA95] extension, [`prune_uninteresting`] implements the
//! **R-interesting** filter: a rule is kept only if its support is at
//! least `R` times what its *closest ancestor rule* predicts (the
//! ancestor rule's support scaled by the descendants' share of their
//! ancestors), removing rules that merely restate a generalization.

use crate::report::MiningOutput;
use gar_taxonomy::Taxonomy;
use gar_types::{FxHashMap, ItemId, Itemset};

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

/// Derives the rules of a single large itemset `x` into `out` — the unit
/// of work [`crate::parallel::rules::derive_rules_parallel`] distributes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_rules_for_itemset(
    x: &Itemset,
    sup_x: u64,
    support: &FxHashMap<Itemset, u64>,
    num_transactions: u64,
    min_confidence: f64,
    tax: Option<&Taxonomy>,
    out: &mut Vec<Rule>,
) {
    let n = num_transactions.max(1) as f64;
    let k = x.len();
    // Every non-empty proper subset Y, via bitmask over the members.
    for mask in 1..(1u32 << k) - 1 {
        let mut antecedent = Vec::new();
        let mut consequent = Vec::new();
        for (i, &it) in x.items().iter().enumerate() {
            if mask & (1 << i) != 0 {
                consequent.push(it);
            } else {
                antecedent.push(it);
            }
        }
        let antecedent = Itemset::from_sorted(antecedent);
        let consequent = Itemset::from_sorted(consequent);
        let Some(&sup_ante) = support.get(&antecedent) else {
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
        out.push(Rule {
            antecedent,
            consequent,
            support_count: sup_x,
            support: sup_x as f64 / n,
            confidence,
        });
    }
}

/// Canonical presentation order: confidence desc, support desc, then the
/// rule's itemsets. Shared by the sequential and parallel derivers so
/// their outputs compare equal.
#[expect(
    clippy::unwrap_used,
    reason = "confidences are ratios of counts, never NaN"
)]
pub(crate) fn sort_rules(rules: &mut [Rule]) {
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap()
            .then_with(|| b.support_count.cmp(&a.support_count))
            .then_with(|| {
                (a.antecedent.clone(), a.consequent.clone())
                    .cmp(&(b.antecedent.clone(), b.consequent.clone()))
            })
    });
}

/// Canonical *storage* order: sorted by `(antecedent, consequent)` item
/// ids, exact duplicates removed. Unlike [`sort_rules`] (a presentation
/// order keyed on floating-point confidence), this order depends only on
/// the item ids, so the same rule set serializes to the same bytes no
/// matter which algorithm or node count produced it — the invariant the
/// persisted rule store's determinism guarantee rests on.
pub fn canonicalize_rules(rules: &mut Vec<Rule>) {
    rules.sort_by(|a, b| {
        a.antecedent
            .cmp(&b.antecedent)
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules.dedup_by(|a, b| a.antecedent == b.antecedent && a.consequent == b.consequent);
}

/// Derives every rule meeting `min_confidence` from the mined large
/// itemsets. With a taxonomy, rules whose consequent holds an ancestor of
/// an antecedent item are dropped as redundant.
pub fn derive_rules(
    output: &MiningOutput,
    min_confidence: f64,
    tax: Option<&Taxonomy>,
) -> Vec<Rule> {
    assert!((0.0..=1.0).contains(&min_confidence));
    let support = output.support_map();
    let mut rules = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "each itemset derives its rules independently and `sort_rules` imposes a total \
                  order on the combined output, so visit order cannot leak into the report"
    )]
    for (x, &sup_x) in support.iter().filter(|(s, _)| s.len() >= 2) {
        derive_rules_for_itemset(
            x,
            sup_x,
            &support,
            output.num_transactions,
            min_confidence,
            tax,
            &mut rules,
        );
    }
    sort_rules(&mut rules);
    rules
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
    let support = output.support_map();
    // Single-item supports (for the dilution ratio).
    let item_sup = |it: ItemId| -> Option<u64> { support.get(&Itemset::singleton(it)).copied() };
    let rule_index: FxHashMap<(Itemset, Itemset), &Rule> = rules
        .iter()
        .map(|rl| ((rl.antecedent.clone(), rl.consequent.clone()), rl))
        .collect();

    let mut kept = Vec::new();
    'rules: for rule in rules {
        let x = rule.itemset();
        for anc_x in parent_itemsets(&x, tax) {
            let Some(&anc_sup) = support.get(&anc_x) else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::sequential::cumulate;
    use gar_storage::PartitionedDatabase;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::iset;

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
        let (tax, out) = sa95();
        let rules = derive_rules(&out, 0.0, Some(&tax));
        assert!(rules.windows(2).all(|w| w[0].confidence >= w[1].confidence));
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
