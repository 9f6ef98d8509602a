//! Mining results and measurement reports.

use crate::params::Algorithm;
use gar_cluster::NodeStatsSnapshot;
use gar_types::{ItemId, Itemset};
use std::time::Duration;

/// The large itemsets of one pass (`L_k`), with their global support
/// counts.
#[derive(Debug, Clone)]
pub struct LargePass {
    /// The pass number (`k` = itemset size).
    pub k: usize,
    /// The large k-itemsets with their `sup_cou`, sorted by itemset.
    pub itemsets: Vec<(Itemset, u64)>,
}

/// The complete answer to the paper's first subproblem: all large itemsets
/// of every size, plus the thresholds they were mined under.
#[derive(Debug, Clone)]
pub struct MiningOutput {
    /// Which algorithm produced this (all must agree — that is tested).
    pub algorithm: Algorithm,
    /// Total transactions counted.
    pub num_transactions: u64,
    /// Absolute minimum support count applied.
    pub min_support_count: u64,
    /// `passes[i]` holds `L_{i+1}`.
    pub passes: Vec<LargePass>,
}

impl MiningOutput {
    /// The large k-itemsets, if pass `k` ran and found any.
    pub fn large(&self, k: usize) -> Option<&LargePass> {
        self.passes.iter().find(|p| p.k == k)
    }

    /// Iterates all large itemsets of every size.
    pub fn all_large(&self) -> impl Iterator<Item = &(Itemset, u64)> {
        self.passes.iter().flat_map(|p| p.itemsets.iter())
    }

    /// Total number of large itemsets across passes.
    pub fn num_large(&self) -> usize {
        self.passes.iter().map(|p| p.itemsets.len()).sum()
    }

    /// The support count of the itemset with exactly `items`, if large.
    #[expect(
        clippy::unwrap_used,
        reason = "the same lookup succeeded on the line above"
    )]
    pub fn support_of(&self, items: &[ItemId]) -> Option<u64> {
        let target = Itemset::from_unsorted(items.to_vec());
        self.large(target.len())?
            .itemsets
            .binary_search_by(|(s, _)| s.cmp(&target))
            .ok()
            .map(|i| self.large(target.len()).unwrap().itemsets[i].1)
    }
}

/// Per-pass measurements of a parallel run.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Pass number.
    pub k: usize,
    /// `|C_k|` — candidates generated (before duplication split).
    pub num_candidates: usize,
    /// `|C_k^D|` — candidates duplicated to every node (TGD/PGD/FGD).
    pub num_duplicated: usize,
    /// NPGM fragment count (1 when the candidates fit in one node's
    /// memory).
    pub num_fragments: usize,
    /// `|L_k|`.
    pub num_large: usize,
    /// `true` when this pass was replayed from a checkpoint (`mine
    /// --resume` or degraded-mode recovery) instead of computed; its
    /// `node_deltas` are zero.
    pub restored: bool,
    /// Per-node counter deltas for this pass alone.
    pub node_deltas: Vec<NodeStatsSnapshot>,
    /// Cost-model execution time of this pass (critical path).
    pub modeled_seconds: f64,
}

impl PassReport {
    /// Average megabytes received per node in this pass — the Table 6
    /// metric.
    pub fn avg_mb_received(&self) -> f64 {
        if self.node_deltas.is_empty() {
            return 0.0;
        }
        let total: u64 = self.node_deltas.iter().map(|d| d.bytes_received).sum();
        total as f64 / self.node_deltas.len() as f64 / (1024.0 * 1024.0)
    }

    /// Per-node successful-probe counts — the Figure 15 series.
    pub fn probes_per_node(&self) -> Vec<u64> {
        self.node_deltas.iter().map(|d| d.hash_probes).collect()
    }
}

/// The full record of one parallel mining run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// The mined large itemsets.
    pub output: MiningOutput,
    /// Cluster size used.
    pub num_nodes: usize,
    /// One report per executed pass (index 0 = pass 1).
    pub pass_reports: Vec<PassReport>,
    /// Wall-clock of the threaded simulation on this machine.
    pub wall: Duration,
    /// Cost-model execution time summed over passes.
    pub modeled_seconds: f64,
    /// Whole-run per-node counters.
    pub node_totals: Vec<NodeStatsSnapshot>,
    /// Degraded-mode notes: one human-readable entry per node failure the
    /// run recovered from (empty for a clean run). The mined `output` is
    /// identical either way — only the execution story differs.
    pub degraded: Vec<String>,
}

impl ParallelReport {
    /// The report of pass `k`, if it ran.
    pub fn pass(&self, k: usize) -> Option<&PassReport> {
        self.pass_reports.iter().find(|p| p.k == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn sample_output() -> MiningOutput {
        MiningOutput {
            algorithm: Algorithm::Cumulate,
            num_transactions: 100,
            min_support_count: 5,
            passes: vec![
                LargePass {
                    k: 1,
                    itemsets: vec![(iset![1], 50), (iset![2], 30)],
                },
                LargePass {
                    k: 2,
                    itemsets: vec![(iset![1, 2], 20)],
                },
            ],
        }
    }

    #[test]
    fn support_lookup() {
        let out = sample_output();
        assert_eq!(out.support_of(&[ItemId(1)]), Some(50));
        assert_eq!(out.support_of(&[ItemId(2), ItemId(1)]), Some(20));
        assert_eq!(out.support_of(&[ItemId(3)]), None);
        assert_eq!(out.num_large(), 3);
    }

    #[test]
    fn pass_report_metrics() {
        let mk = |recv: u64, probes: u64| NodeStatsSnapshot {
            bytes_received: recv,
            hash_probes: probes,
            ..Default::default()
        };
        let p = PassReport {
            k: 2,
            num_candidates: 10,
            num_duplicated: 0,
            num_fragments: 1,
            num_large: 4,
            restored: false,
            node_deltas: vec![mk(2 * 1024 * 1024, 5), mk(4 * 1024 * 1024, 15)],
            modeled_seconds: 0.0,
        };
        assert!((p.avg_mb_received() - 3.0).abs() < 1e-9);
        assert_eq!(p.probes_per_node(), vec![5, 15]);
    }
}
