//! The pool of maximal potentially large itemsets ("patterns").

use crate::dist::{corruption_level, exp1, WeightedIndex};
use gar_taxonomy::synth::poisson;
use gar_taxonomy::Taxonomy;
use gar_types::{FxHashMap, FxHashSet, ItemId};
use rand::Rng;

/// One maximal potentially large itemset: the seed of the associations the
/// generator plants into transactions.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// Member items. May include interior taxonomy nodes — those are
    /// specialized to random leaf descendants at emission time.
    pub items: Vec<ItemId>,
    /// Normalized sampling weight (exponentially distributed ⇒ heavy skew).
    pub weight: f64,
    /// Corruption level: higher means members are dropped more often.
    pub corruption: f64,
}

/// The full pattern pool plus its weighted sampler.
#[derive(Debug, Clone)]
pub struct PatternPool {
    patterns: Vec<Pattern>,
    sampler: WeightedIndex,
}

/// Probability that a fresh pattern item is lifted to an ancestor after the
/// initial leaf pick. This stands in for [SA95]'s depth-ratio parameter
/// (default depth-ratio 1 ⇒ interior nodes are reachable but leaf-biased).
const LIFT_PROB: f64 = 0.25;

/// Mean fraction of a pattern inherited from its predecessor ([AS94]'s
/// correlation level, 0.5).
const CORRELATION: f64 = 0.5;

/// Probability that a fresh pattern item comes from the *same tree* as the
/// pattern's first item. [SA95] chooses the items of a potentially large
/// itemset close to each other in the taxonomy; this locality is what the
/// H-HPGM family exploits — transactions touch few roots, so root-itemset
/// partitioning ships data to few nodes.
const SAME_TREE_PROB: f64 = 0.75;

impl PatternPool {
    /// Draws `num_patterns` patterns of mean size `avg_size` over the
    /// taxonomy's items.
    pub fn generate(
        tax: &Taxonomy,
        num_patterns: usize,
        avg_size: f64,
        rng: &mut impl Rng,
    ) -> PatternPool {
        assert!(num_patterns > 0, "need at least one pattern");
        let leaves = tax.leaves();
        assert!(!leaves.is_empty());
        // Leaves grouped by tree, for the same-tree locality bias.
        let mut leaves_by_root: FxHashMap<ItemId, Vec<ItemId>> = FxHashMap::default();
        for &leaf in leaves {
            leaves_by_root
                .entry(tax.root_of(leaf))
                .or_default()
                .push(leaf);
        }

        let mut patterns: Vec<Pattern> = Vec::with_capacity(num_patterns);
        let mut weights = Vec::with_capacity(num_patterns);
        let mut prev_items: Vec<ItemId> = Vec::new();

        for _ in 0..num_patterns {
            let size = poisson(rng, avg_size).max(1) as usize;
            let mut items: FxHashSet<ItemId> = FxHashSet::default();

            // Correlated part: an exponentially distributed fraction of the
            // previous pattern is carried over ([AS94] §4.1).
            if !prev_items.is_empty() {
                let frac = (exp1(rng) * CORRELATION).min(1.0);
                let take = ((size as f64) * frac).round() as usize;
                for _ in 0..take.min(prev_items.len()) {
                    let pick = prev_items[rng.gen_range(0..prev_items.len())];
                    items.insert(pick);
                }
            }

            // Fresh part: taxonomy-walk picks. The first item is a uniform
            // leaf; later items stay in its tree with high probability
            // ([SA95]'s "close in the taxonomy"). Each pick is lifted to
            // an ancestor with geometric probability, so patterns mix
            // hierarchy levels.
            #[expect(
                clippy::disallowed_methods,
                reason = "FxHash has no per-process seed, so the first member is the same on every \
                          run; every generated dataset depends on this pick"
            )]
            let mut home_root: Option<ItemId> = items.iter().next().map(|&it| tax.root_of(it));
            let mut guard = 0;
            while items.len() < size && guard < size * 64 {
                guard += 1;
                let leaf = match home_root {
                    Some(root) if rng.gen::<f64>() < SAME_TREE_PROB => {
                        let pool = &leaves_by_root[&root];
                        pool[rng.gen_range(0..pool.len())]
                    }
                    _ => leaves[rng.gen_range(0..leaves.len())],
                };
                if home_root.is_none() {
                    home_root = Some(tax.root_of(leaf));
                }
                let mut pick = leaf;
                while rng.gen::<f64>() < LIFT_PROB {
                    match tax.parent(pick) {
                        Some(p) => pick = p,
                        None => break,
                    }
                }
                // An itemset never contains both an item and its ancestor —
                // such a pattern would plant trivially redundant rules.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "`any` over a pure predicate is order-independent"
                )]
                if items.iter().any(|&x| tax.related(x, pick)) {
                    continue;
                }
                items.insert(pick);
            }

            let mut items: Vec<ItemId> = items.into_iter().collect();
            items.sort_unstable();
            let weight = exp1(rng);
            weights.push(weight);
            prev_items = items.clone();
            patterns.push(Pattern {
                items,
                weight,
                corruption: corruption_level(rng),
            });
        }

        // Normalize weights so Pattern::weight is a probability.
        let total: f64 = weights.iter().sum();
        for (p, w) in patterns.iter_mut().zip(&weights) {
            p.weight = w / total;
        }
        let sampler = WeightedIndex::new(&weights);
        PatternPool { patterns, sampler }
    }

    /// All patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Draws a pattern index according to the weights.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.sampler.sample(rng)
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the pool is empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::synth::{synthesize, SynthTaxonomyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_tax() -> Taxonomy {
        synthesize(&SynthTaxonomyConfig {
            num_items: 300,
            num_roots: 5,
            fanout: 4.0,
            seed: 11,
        })
    }

    #[test]
    fn pool_has_requested_count_and_normalized_weights() {
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(1);
        let pool = PatternPool::generate(&tax, 200, 4.0, &mut rng);
        assert_eq!(pool.len(), 200);
        let total: f64 = pool.patterns().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn patterns_never_mix_ancestor_and_descendant() {
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(2);
        let pool = PatternPool::generate(&tax, 300, 5.0, &mut rng);
        for p in pool.patterns() {
            for (i, &a) in p.items.iter().enumerate() {
                for &b in &p.items[i + 1..] {
                    assert!(!tax.related(a, b), "pattern mixes {a:?} and {b:?}");
                }
            }
        }
    }

    #[test]
    fn patterns_are_sorted_and_nonempty() {
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(3);
        let pool = PatternPool::generate(&tax, 100, 3.0, &mut rng);
        for p in pool.patterns() {
            assert!(!p.items.is_empty());
            assert!(p.items.windows(2).all(|w| w[0] < w[1]));
            assert!((0.0..=1.0).contains(&p.corruption));
        }
    }

    #[test]
    fn some_patterns_contain_interior_items() {
        // The lift step must actually produce interior nodes; otherwise no
        // generalized rules would ever be planted above leaf level.
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(4);
        let pool = PatternPool::generate(&tax, 300, 5.0, &mut rng);
        let interior_count = pool
            .patterns()
            .iter()
            .flat_map(|p| &p.items)
            .filter(|&&i| !tax.is_leaf(i))
            .count();
        assert!(interior_count > 0, "no interior items in any pattern");
    }

    #[test]
    fn weights_are_skewed() {
        // Exponential weights: the heaviest decile should dominate.
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(5);
        let pool = PatternPool::generate(&tax, 500, 4.0, &mut rng);
        let mut ws: Vec<f64> = pool.patterns().iter().map(|p| p.weight).collect();
        ws.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top_decile: f64 = ws[..50].iter().sum();
        assert!(top_decile > 0.2, "top decile carries {top_decile}");
    }

    #[test]
    fn patterns_are_taxonomy_local() {
        // [SA95] locality: a pattern's items cluster in one tree. With 5
        // trees and mean size 5, uniform picks would average ~3.4 distinct
        // roots per pattern; the same-tree bias must pull it well below.
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(8);
        let pool = PatternPool::generate(&tax, 400, 5.0, &mut rng);
        let mut total_roots = 0usize;
        let mut n = 0usize;
        for p in pool.patterns().iter().filter(|p| p.items.len() >= 3) {
            let mut roots: Vec<_> = p.items.iter().map(|&i| tax.root_of(i)).collect();
            roots.sort_unstable();
            roots.dedup();
            total_roots += roots.len();
            n += 1;
        }
        let mean = total_roots as f64 / n as f64;
        assert!(mean < 2.6, "patterns span {mean:.2} roots on average");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let tax = small_tax();
        let mut rng = StdRng::seed_from_u64(6);
        let pool = PatternPool::generate(&tax, 100, 4.0, &mut rng);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(pool.sample(&mut r1), pool.sample(&mut r2));
        }
    }
}
