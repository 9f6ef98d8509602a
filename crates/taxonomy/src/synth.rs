//! Random forest synthesis for the Table-5 datasets.
//!
//! [SA95] grows the classification hierarchy from `R` roots where every
//! interior node's child count is drawn from a Poisson distribution with
//! mean `F` (the *fanout*). The total number of items is fixed, so the
//! resulting depth is roughly `log_F(items / roots)` — which is exactly how
//! Table 5's "number of levels" column emerges (5-6 levels for fanout 5,
//! 6-7 for fanout 3, 3-4 for fanout 10 at 30 000 items / 30 roots).

use crate::taxonomy::Taxonomy;
use gar_types::ItemId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Parameters of a synthetic taxonomy.
#[derive(Debug, Clone)]
pub struct SynthTaxonomyConfig {
    /// Total items in the universe (leaves + interior + roots).
    pub num_items: u32,
    /// Number of trees (`R` in the dataset names, e.g. `R30...` = 30 roots).
    pub num_roots: u32,
    /// Mean fanout (`F` in the dataset names, e.g. `...F5` = fanout 5).
    pub fanout: f64,
    /// RNG seed; equal seeds give identical forests.
    pub seed: u64,
}

impl Default for SynthTaxonomyConfig {
    fn default() -> Self {
        SynthTaxonomyConfig {
            num_items: 1000,
            num_roots: 10,
            fanout: 5.0,
            seed: 0,
        }
    }
}

/// Draws a Poisson-distributed value with mean `lambda` (Knuth's method —
/// fine for the small means used as fanouts; avoids an extra dependency).
pub(crate) fn poisson(rng: &mut impl Rng, lambda: f64) -> u32 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // Guard against pathological lambda; 16x the mean is vanishingly
        // unlikely for the fanouts used here.
        if f64::from(k) > lambda * 16.0 + 16.0 {
            return k;
        }
    }
}

/// Grows a random forest per the configuration. Item ids are assigned in
/// breadth-first order: roots get `0..num_roots`, then each expanded node's
/// children get the next consecutive ids, so lower ids sit higher in the
/// hierarchy.
///
/// # Panics
/// Panics when `num_roots == 0` or `num_roots > num_items`.
pub fn synthesize(cfg: &SynthTaxonomyConfig) -> Taxonomy {
    assert!(cfg.num_roots >= 1, "need at least one root");
    assert!(
        cfg.num_roots <= cfg.num_items,
        "more roots than items ({} > {})",
        cfg.num_roots,
        cfg.num_items
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7461_786f_6e6f_6d79); // "taxonomy"
    let n = cfg.num_items as usize;
    let mut parent: Vec<Option<ItemId>> = vec![None; n];
    let mut frontier: VecDeque<u32> = (0..cfg.num_roots).collect();
    let mut next_id = cfg.num_roots;

    while next_id < cfg.num_items {
        #[expect(
            clippy::expect_used,
            reason = "a node that empties the frontier gets at least one child below"
        )]
        let node = frontier.pop_front().expect("frontier never empties");
        let mut c = poisson(&mut rng, cfg.fanout);
        if frontier.is_empty() {
            // The frontier must stay alive while items remain unplaced.
            c = c.max(1);
        }
        let c = c.min(cfg.num_items - next_id);
        for _ in 0..c {
            parent[next_id as usize] = Some(ItemId(node));
            frontier.push_back(next_id);
            next_id += 1;
        }
    }

    Taxonomy::from_parent_array(parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_shape() {
        let t = synthesize(&SynthTaxonomyConfig {
            num_items: 3000,
            num_roots: 30,
            fanout: 5.0,
            seed: 42,
        });
        assert_eq!(t.num_items(), 3000);
        assert_eq!(t.roots().len(), 30);
        // 3000 items / 30 roots = 100 per tree, fanout 5 => depth ~3.
        assert!(
            t.max_depth() >= 2 && t.max_depth() <= 8,
            "depth {}",
            t.max_depth()
        );
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = SynthTaxonomyConfig {
            num_items: 500,
            num_roots: 5,
            fanout: 3.0,
            seed: 7,
        };
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        for i in 0..500 {
            assert_eq!(a.parent(ItemId(i)), b.parent(ItemId(i)));
        }
        let c = synthesize(&SynthTaxonomyConfig { seed: 8, ..cfg });
        let differs = (0..500).any(|i| a.parent(ItemId(i)) != c.parent(ItemId(i)));
        assert!(differs, "different seeds should give different forests");
    }

    #[test]
    fn higher_fanout_means_shallower_trees() {
        let mk = |fanout| {
            synthesize(&SynthTaxonomyConfig {
                num_items: 3000,
                num_roots: 30,
                fanout,
                seed: 1,
            })
            .max_depth()
        };
        // Table 5: fanout 10 => 3-4 levels, fanout 3 => 6-7 levels.
        assert!(mk(10.0) < mk(3.0));
    }

    #[test]
    fn mean_fanout_is_roughly_respected() {
        let t = synthesize(&SynthTaxonomyConfig {
            num_items: 10_000,
            num_roots: 10,
            fanout: 5.0,
            seed: 3,
        });
        let interior: Vec<_> = (0..t.num_items())
            .map(ItemId)
            .filter(|&i| !t.is_leaf(i))
            .collect();
        let total_children: usize = interior.iter().map(|&i| t.children(i).len()).sum();
        let mean = total_children as f64 / interior.len() as f64;
        assert!((3.5..=6.5).contains(&mean), "mean fanout {mean}");
    }

    #[test]
    fn degenerate_single_root_chain_is_fine() {
        let t = synthesize(&SynthTaxonomyConfig {
            num_items: 10,
            num_roots: 1,
            fanout: 0.1, // forces the frontier-keepalive path (c.max(1))
            seed: 0,
        });
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.num_items(), 10);
    }

    #[test]
    fn all_roots_all_items() {
        let t = synthesize(&SynthTaxonomyConfig {
            num_items: 8,
            num_roots: 8,
            fanout: 5.0,
            seed: 0,
        });
        assert_eq!(t.roots().len(), 8);
        assert_eq!(t.max_depth(), 0);
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(9);
        let samples: u64 = (0..20_000).map(|_| u64::from(poisson(&mut rng, 4.0))).sum();
        let mean = samples as f64 / 20_000.0;
        assert!((3.8..=4.2).contains(&mean), "poisson mean {mean}");
    }
}
