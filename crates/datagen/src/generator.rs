//! Dataset specification and the transaction stream.

use crate::pattern::PatternPool;
use gar_taxonomy::synth::{poisson, synthesize, SynthTaxonomyConfig};
use gar_taxonomy::Taxonomy;
use gar_types::{Error, ItemId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything Table 5 parameterizes, plus a seed.
///
/// Field names follow the table rows; see [`crate::presets`] for the three
/// named datasets.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (e.g. `R30F5`), used in reports.
    pub name: String,
    /// `|D|` — number of transactions (paper: 3 200 000).
    pub num_transactions: usize,
    /// `|T|` — average transaction size (paper: 10).
    pub avg_transaction_size: f64,
    /// `|I|` — average size of the maximal potentially large itemsets
    /// (paper: 5).
    pub avg_pattern_size: f64,
    /// `|L|` — number of maximal potentially large itemsets (paper: 10 000).
    pub num_patterns: usize,
    /// `N` — number of items (paper: 30 000).
    pub num_items: u32,
    /// `R` — number of taxonomy roots (paper: 30).
    pub num_roots: u32,
    /// `F` — mean fanout (paper: 5 / 3 / 10).
    pub fanout: f64,
    /// Seed for taxonomy, pattern pool, and transaction stream.
    pub seed: u64,
}

impl DatasetSpec {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.num_roots == 0 || self.num_roots > self.num_items {
            return Err(Error::InvalidConfig(format!(
                "num_roots {} must be in 1..=num_items {}",
                self.num_roots, self.num_items
            )));
        }
        if self.num_patterns == 0 {
            return Err(Error::InvalidConfig("num_patterns must be > 0".into()));
        }
        if self.avg_transaction_size < 1.0 || self.avg_pattern_size < 1.0 {
            return Err(Error::InvalidConfig("average sizes must be >= 1".into()));
        }
        if self.fanout <= 0.0 {
            return Err(Error::InvalidConfig("fanout must be positive".into()));
        }
        Ok(())
    }

    /// Grows this spec's classification hierarchy (deterministic in the
    /// seed).
    pub fn build_taxonomy(&self) -> Taxonomy {
        synthesize(&SynthTaxonomyConfig {
            num_items: self.num_items,
            num_roots: self.num_roots,
            fanout: self.fanout,
            seed: self.seed,
        })
    }

    /// A proportionally shrunk copy: transactions and patterns scale by
    /// `factor`, **items by `√factor`** (with sane floors); roots and
    /// fanout stay fixed so the hierarchy *shape* — what the algorithms
    /// partition by — is preserved.
    ///
    /// Scaling items slower than transactions keeps the paper's
    /// support regime: per-leaf frequency scales like
    /// `txns / items ∝ √factor`, so at the experiment supports most
    /// *leaves* stay small and transactions reduce onto interior items —
    /// the situation H-HPGM's reduced-transaction shipping exploits.
    /// Meanwhile the pass-2 candidate count (`∝ items²` at worst) still
    /// shrinks linearly in `factor`, keeping memory pressure reachable.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(factor > 0.0 && factor <= 1.0, "scale factor in (0, 1]");
        let scale_usize = |v: usize, floor: usize| ((v as f64 * factor) as usize).max(floor);
        DatasetSpec {
            name: format!("{}@{:.4}", self.name, factor),
            num_transactions: scale_usize(self.num_transactions, 1_000),
            num_items: ((f64::from(self.num_items) * factor.sqrt()) as u32)
                .max(10 * self.num_roots),
            num_patterns: scale_usize(self.num_patterns, 50),
            ..self.clone()
        }
    }
}

/// Precomputed leaf-descendant table: `data[off[i]..off[i+1]]` are the
/// leaves under item `i` (an item that *is* a leaf lists itself). Used to
/// specialize interior pattern items into concrete leaf purchases.
struct LeafSampler {
    data: Vec<ItemId>,
    off: Vec<u32>,
}

impl LeafSampler {
    fn build(tax: &Taxonomy) -> LeafSampler {
        let n = tax.num_items() as usize;
        let mut lists: Vec<Vec<ItemId>> = vec![Vec::new(); n];
        for &leaf in tax.leaves() {
            lists[leaf.index()].push(leaf);
            for &a in tax.ancestors(leaf) {
                lists[a.index()].push(leaf);
            }
        }
        let mut data = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut off = Vec::with_capacity(n + 1);
        off.push(0u32);
        for l in lists {
            data.extend_from_slice(&l);
            off.push(data.len() as u32);
        }
        LeafSampler { data, off }
    }

    fn sample(&self, item: ItemId, rng: &mut impl Rng) -> ItemId {
        let lo = self.off[item.index()] as usize;
        let hi = self.off[item.index() + 1] as usize;
        debug_assert!(hi > lo, "item {item:?} has no leaf descendants");
        self.data[lo + rng.gen_range(0..hi - lo)]
    }
}

/// Streaming transaction generator: an `Iterator` over `Vec<ItemId>` whose
/// items are always leaves, sorted and de-duplicated.
pub struct TransactionGenerator {
    tax: Taxonomy,
    pool: PatternPool,
    leaf_sampler: LeafSampler,
    rng: StdRng,
    avg_transaction_size: f64,
    remaining: usize,
    /// A corrupted pattern instance that overflowed the previous
    /// transaction and was deferred to this one ([AS94] §4.1).
    deferred: Option<Vec<ItemId>>,
}

impl TransactionGenerator {
    /// Builds the generator for a spec (validates first).
    pub fn new(spec: &DatasetSpec) -> Result<TransactionGenerator> {
        spec.validate()?;
        let tax = spec.build_taxonomy();
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7472_616e_7361_6374); // "transact"
        let pool = PatternPool::generate(&tax, spec.num_patterns, spec.avg_pattern_size, &mut rng);
        let leaf_sampler = LeafSampler::build(&tax);
        Ok(TransactionGenerator {
            tax,
            pool,
            leaf_sampler,
            rng,
            avg_transaction_size: spec.avg_transaction_size,
            remaining: spec.num_transactions,
            deferred: None,
        })
    }

    /// The taxonomy the generator drew (shared by the mining side).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.tax
    }

    /// Consumes the generator, returning the taxonomy (avoids a clone when
    /// the caller needs to keep it after draining the stream).
    pub fn into_taxonomy(self) -> Taxonomy {
        self.tax
    }

    /// Instantiates one pattern: corruption-drops members, then specializes
    /// interior items to random leaf descendants.
    fn instantiate_pattern(&mut self, idx: usize) -> Vec<ItemId> {
        let (items, corruption) = {
            let p = &self.pool.patterns()[idx];
            (p.items.clone(), p.corruption)
        };
        let mut kept = items;
        // [AS94]: drop items as long as a uniform draw stays below the
        // corruption level.
        while kept.len() > 1 && self.rng.gen::<f64>() < corruption {
            let at = self.rng.gen_range(0..kept.len());
            kept.swap_remove(at);
        }
        for item in kept.iter_mut() {
            if !self.tax.is_leaf(*item) {
                *item = self.leaf_sampler.sample(*item, &mut self.rng);
            }
        }
        kept
    }
}

impl Iterator for TransactionGenerator {
    type Item = Vec<ItemId>;

    fn next(&mut self) -> Option<Vec<ItemId>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;

        let size = poisson(&mut self.rng, self.avg_transaction_size).max(1) as usize;
        let mut txn: Vec<ItemId> = Vec::with_capacity(size + 4);

        if let Some(d) = self.deferred.take() {
            txn.extend_from_slice(&d);
        }

        let mut stall = 0;
        while txn.len() < size && stall < 64 {
            let idx = self.pool.sample(&mut self.rng);
            let inst = self.instantiate_pattern(idx);
            if inst.is_empty() {
                stall += 1;
                continue;
            }
            if txn.len() + inst.len() <= size || txn.is_empty() {
                txn.extend_from_slice(&inst);
            } else if self.rng.gen::<bool>() {
                // Half the time the overflowing itemset goes in anyway.
                txn.extend_from_slice(&inst);
                break;
            } else {
                // Otherwise it is deferred to the next transaction.
                self.deferred = Some(inst);
                break;
            }
        }

        txn.sort_unstable();
        txn.dedup();
        Some(txn)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "tiny".into(),
            num_transactions: 2_000,
            avg_transaction_size: 10.0,
            avg_pattern_size: 4.0,
            num_patterns: 100,
            num_items: 400,
            num_roots: 8,
            fanout: 4.0,
            seed: 99,
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut s = tiny_spec();
        s.num_roots = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.num_roots = s.num_items + 1;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.num_patterns = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.avg_transaction_size = 0.5;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.fanout = 0.0;
        assert!(s.validate().is_err());
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn emits_requested_number_of_transactions() {
        let g = TransactionGenerator::new(&tiny_spec()).unwrap();
        assert_eq!(g.count(), 2_000);
    }

    #[test]
    fn transactions_are_sorted_leaf_only() {
        let mut g = TransactionGenerator::new(&tiny_spec()).unwrap();
        let tax = g.taxonomy().clone();
        for txn in g.by_ref().take(500) {
            assert!(!txn.is_empty());
            assert!(txn.windows(2).all(|w| w[0] < w[1]), "not sorted: {txn:?}");
            for &it in &txn {
                assert!(tax.is_leaf(it), "interior item {it:?} leaked");
            }
        }
    }

    #[test]
    fn average_size_is_near_target() {
        let g = TransactionGenerator::new(&tiny_spec()).unwrap();
        let sizes: Vec<usize> = g.map(|t| t.len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Dedup and deferral shave a bit off the Poisson mean of 10.
        assert!((6.0..=12.0).contains(&mean), "mean size {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = TransactionGenerator::new(&tiny_spec())
            .unwrap()
            .take(50)
            .collect();
        let b: Vec<_> = TransactionGenerator::new(&tiny_spec())
            .unwrap()
            .take(50)
            .collect();
        assert_eq!(a, b);
        let mut spec2 = tiny_spec();
        spec2.seed = 100;
        let c: Vec<_> = TransactionGenerator::new(&spec2)
            .unwrap()
            .take(50)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn item_frequencies_are_skewed() {
        // Exponential pattern weights must induce visibly skewed item
        // frequencies — that skew is the premise of the paper's §3.4.
        let g = TransactionGenerator::new(&tiny_spec()).unwrap();
        let n_items = g.taxonomy().num_items() as usize;
        let mut freq = vec![0usize; n_items];
        for t in g {
            for it in t {
                freq[it.index()] += 1;
            }
        }
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = freq.iter().sum();
        let top_5pct: usize = freq[..n_items / 20].iter().sum();
        assert!(
            top_5pct as f64 > total as f64 * 0.3,
            "top 5% of items carry only {top_5pct}/{total}"
        );
    }

    #[test]
    fn scaled_spec_shrinks_proportionally() {
        let full = DatasetSpec {
            name: "R30F5".into(),
            num_transactions: 3_200_000,
            avg_transaction_size: 10.0,
            avg_pattern_size: 5.0,
            num_patterns: 10_000,
            num_items: 30_000,
            num_roots: 30,
            fanout: 5.0,
            seed: 0,
        };
        let s = full.scaled(0.05);
        assert_eq!(s.num_transactions, 160_000);
        // Items scale by sqrt: 30000 * sqrt(0.05) ≈ 6708.
        assert_eq!(s.num_items, 6_708);
        assert_eq!(s.num_patterns, 500);
        assert_eq!(s.num_roots, 30);
        assert!(s.validate().is_ok());
        // Floors kick in for extreme factors.
        let t = full.scaled(0.000_1);
        assert!(t.num_transactions >= 1_000);
        assert!(t.num_items >= 300);
        assert!(t.num_patterns >= 50);
    }

    #[test]
    fn size_hint_tracks_remaining() {
        let mut g = TransactionGenerator::new(&tiny_spec()).unwrap();
        assert_eq!(g.size_hint(), (2_000, Some(2_000)));
        g.next();
        assert_eq!(g.size_hint(), (1_999, Some(1_999)));
    }
}
