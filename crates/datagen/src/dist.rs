//! The small set of distributions the Quest generator needs.
//!
//! Implemented locally (inverse-CDF exponential, Box-Muller normal) to
//! stay within the sanctioned dependency list — `rand` ships the uniform
//! primitives, `rand_distr` is not on the list. Poisson sizes come from
//! [`gar_taxonomy::synth::poisson`], the sampler the taxonomy's fanouts
//! draw from.

use rand::Rng;

/// Exponentially distributed `f64` with unit mean.
pub fn exp1(rng: &mut impl Rng) -> f64 {
    // Inverse CDF; guard the log against an exact 0 draw.
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln()
}

/// Normal sample via Box-Muller.
pub fn normal(rng: &mut impl Rng, mean: f64, variance: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + z * variance.sqrt()
}

/// The corruption level of [AS94]: Normal(0.5, 0.1) clipped to `[0, 1]`.
pub fn corruption_level(rng: &mut impl Rng) -> f64 {
    normal(rng, 0.5, 0.1).clamp(0.0, 1.0)
}

/// Weighted index sampling by cumulative sums + binary search. The pattern
/// pool is sampled once per transaction slot, so `O(log n)` per draw is
/// fine and avoids the complexity of an alias table.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Builds the sampler from non-negative weights (need not be
    /// normalized).
    ///
    /// # Panics
    /// Panics when `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            debug_assert!(w >= 0.0);
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        WeightedIndex { cumulative }
    }

    /// Draws an index with probability proportional to its weight.
    #[expect(clippy::expect_used, reason = "new() rejects an empty weight list")]
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen::<f64>() * total;
        // partition_point: first index whose cumulative sum exceeds x.
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when there are no weights (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exp1_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exp1(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((0.97..=1.03).contains(&mean), "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 0.5, 0.1)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((0.48..=0.52).contains(&mean), "mean {mean}");
        assert!((0.09..=0.11).contains(&var), "var {var}");
    }

    #[test]
    fn corruption_is_clipped() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let c = corruption_level(&mut rng);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.7..=3.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_empty() {
        let _ = WeightedIndex::new(&[]);
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_all_zero() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }
}
