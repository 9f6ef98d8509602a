//! Mining parameters and algorithm identifiers.

use gar_types::{Error, Result};

/// The candidate counter: there is one, the hash tree
/// ([`HashTreeCounter`](crate::counter::HashTreeCounter)). The type and
/// [`MiningParams::counter`] remain only because `benchmark/` still names
/// them; both go when it stops (ROADMAP item 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterKind {
    /// Apriori hash tree ([RR94]).
    #[default]
    HashTree,
}

/// The algorithms of the paper (plus the sequential baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential non-hierarchical Apriori [RR94].
    Apriori,
    /// Sequential Cumulate [SA95].
    Cumulate,
    /// Non Partitioned Generalized association rule Mining (§3.1).
    Npgm,
    /// Hash Partitioned GM, hierarchy-blind (§3.2).
    Hpgm,
    /// Hierarchical HPGM — partition by root itemset (§3.3).
    HHpgm,
    /// H-HPGM with Tree Grain Duplicate (§3.4.1).
    HHpgmTgd,
    /// H-HPGM with Path Grain Duplicate (§3.4.2).
    HHpgmPgd,
    /// H-HPGM with Fine Grain Duplicate (§3.4.3).
    HHpgmFgd,
    /// Taxonomy-extended parallel FP-Growth (pattern growth instead of
    /// candidate generation). Implemented by the `gar-fpg` crate; the
    /// Apriori-family entry points reject it with a pointer there.
    FpGrowth,
}

impl Algorithm {
    /// Every algorithm, in declaration order: the sequential baselines,
    /// the six parallel Apriori-family algorithms in the paper's
    /// presentation order, then FP-Growth.
    pub const ALL: [Algorithm; 9] = [
        Algorithm::Apriori,
        Algorithm::Cumulate,
        Algorithm::Npgm,
        Algorithm::Hpgm,
        Algorithm::HHpgm,
        Algorithm::HHpgmTgd,
        Algorithm::HHpgmPgd,
        Algorithm::HHpgmFgd,
        Algorithm::FpGrowth,
    ];

    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Apriori => "Apriori",
            Algorithm::Cumulate => "Cumulate",
            Algorithm::Npgm => "NPGM",
            Algorithm::Hpgm => "HPGM",
            Algorithm::HHpgm => "H-HPGM",
            Algorithm::HHpgmTgd => "H-HPGM-TGD",
            Algorithm::HHpgmPgd => "H-HPGM-PGD",
            Algorithm::HHpgmFgd => "H-HPGM-FGD",
            Algorithm::FpGrowth => "FP-Growth",
        }
    }

    /// All parallel Apriori-family algorithms, in the paper's
    /// presentation order. FP-Growth is deliberately absent: it lives in
    /// the `gar-fpg` crate and the suites that iterate this list drive
    /// the candidate-generation pass loop.
    pub fn parallel_all() -> [Algorithm; 6] {
        std::array::from_fn(|i| Algorithm::ALL[2 + i])
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one mining run.
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// Minimum support as a fraction of the transaction count (the paper
    /// sweeps 0.3 %-2 %, i.e. `0.003..=0.02`).
    pub min_support: f64,
    /// Stop after this pass even if large itemsets remain (`None` = run to
    /// fixpoint). The paper's measurements focus on pass 2.
    pub max_pass: Option<usize>,
    /// Always [`CounterKind::HashTree`]; see [`CounterKind`].
    pub counter: CounterKind,
}

impl MiningParams {
    /// Parameters with the given minimum support and defaults elsewhere.
    pub fn with_min_support(min_support: f64) -> MiningParams {
        MiningParams {
            min_support,
            max_pass: None,
            counter: CounterKind::default(),
        }
    }

    /// Limits the run to the first `k` passes.
    pub fn max_pass(mut self, k: usize) -> MiningParams {
        self.max_pass = Some(k);
        self
    }

    /// Checks the parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.min_support > 0.0 && self.min_support <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "min_support {} must be in (0, 1]",
                self.min_support
            )));
        }
        if self.max_pass == Some(0) {
            return Err(Error::InvalidConfig("max_pass must be >= 1".into()));
        }
        Ok(())
    }

    /// The absolute support threshold for `num_transactions` transactions:
    /// the smallest count that satisfies `count / n >= min_support`.
    pub fn min_support_count(&self, num_transactions: u64) -> u64 {
        ((self.min_support * num_transactions as f64).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MiningParams::with_min_support(0.01).validate().is_ok());
        assert!(MiningParams::with_min_support(0.0).validate().is_err());
        assert!(MiningParams::with_min_support(1.5).validate().is_err());
        assert!(MiningParams::with_min_support(-0.1).validate().is_err());
        assert!(MiningParams::with_min_support(0.1)
            .max_pass(0)
            .validate()
            .is_err());
    }

    #[test]
    fn min_support_count_rounds_up() {
        let p = MiningParams::with_min_support(0.003);
        assert_eq!(p.min_support_count(1000), 3);
        assert_eq!(p.min_support_count(1001), 4); // 3.003 -> 4
        assert_eq!(p.min_support_count(1), 1);
        // Never zero, even for microscopic supports.
        let p = MiningParams::with_min_support(1e-9);
        assert_eq!(p.min_support_count(10), 1);
    }

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(Algorithm::HHpgmFgd.name(), "H-HPGM-FGD");
        assert_eq!(Algorithm::Npgm.to_string(), "NPGM");
        assert_eq!(
            Algorithm::parallel_all().map(|a| a.name()),
            [
                "NPGM",
                "HPGM",
                "H-HPGM",
                "H-HPGM-TGD",
                "H-HPGM-PGD",
                "H-HPGM-FGD"
            ]
        );
    }

    #[test]
    fn builder_style_setters() {
        let p = MiningParams::with_min_support(0.01).max_pass(2);
        assert_eq!(p.max_pass, Some(2));
    }
}
