//! Non-hierarchical parallel baselines: CD and HPA.
//!
//! The paper's introduction positions its algorithms against the earlier
//! flat (taxonomy-free) parallel miners: **CD** (Count Distribution,
//! Agrawal & Shafer [AS96]) replicates the candidates and all-reduces
//! counts — NPGM without the hierarchy — while **HPA** (Hash Partitioned
//! Apriori, the authors' own [SK96]) hash-partitions the candidates and
//! ships generated k-itemsets — the algorithm HPGM generalizes. That
//! lineage is literal here: both run NPGM's / HPGM's code over an
//! edge-less taxonomy, where ancestor extension is the identity. On flat
//! data they are the exact baselines; on hierarchical data they mine
//! leaf-level rules only (see [`crate::sequential::apriori`]).

use crate::parallel::common::{node_sources, PassPersistence};
use crate::parallel::{hpgm, npgm};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use gar_cluster::ClusterConfig;
use gar_storage::PartitionedDatabase;
use gar_taxonomy::TaxonomyBuilder;
use gar_types::Result;

/// The flat parallel algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatAlgorithm {
    /// Count Distribution [AS96]: replicated candidates, all-reduced
    /// counts, no data exchange (fragments under memory pressure, like
    /// NPGM).
    CountDistribution,
    /// Hash Partitioned Apriori [SK96]: candidates hash-partitioned by
    /// itemset, generated k-itemsets shipped to their owners.
    Hpa,
}

impl FlatAlgorithm {
    /// The published name.
    pub fn name(&self) -> &'static str {
        match self {
            FlatAlgorithm::CountDistribution => "CD",
            FlatAlgorithm::Hpa => "HPA",
        }
    }
}

/// Runs a flat parallel algorithm over `db` (items `0..num_items`, no
/// taxonomy).
pub fn mine_parallel_flat(
    algorithm: FlatAlgorithm,
    db: &PartitionedDatabase,
    num_items: u32,
    params: &MiningParams,
    cluster: &ClusterConfig,
) -> Result<ParallelReport> {
    let sources = node_sources(db, params, cluster)?;
    let tax = TaxonomyBuilder::new(num_items).build()?;
    let mine = match algorithm {
        FlatAlgorithm::CountDistribution => npgm::mine,
        FlatAlgorithm::Hpa => hpgm::mine,
    };
    let mut report = mine(&sources, &tax, params, cluster, &PassPersistence::NONE)?;
    report.output.algorithm = Algorithm::Apriori;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::mine_parallel;
    use crate::sequential::apriori;
    use gar_types::ItemId;

    fn flat_txns(seed: u64) -> Vec<Vec<ItemId>> {
        // Deterministic pseudo-random flat transactions over 40 items.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..400)
            .map(|_| {
                let len = 2 + (next() % 6) as usize;
                let mut t: Vec<ItemId> = (0..len).map(|_| ItemId((next() % 40) as u32)).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect()
    }

    #[test]
    fn cd_and_hpa_match_sequential_apriori() {
        let txns = flat_txns(3);
        let seq_db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter()).unwrap();
        let params = MiningParams::with_min_support(0.05);
        let expected = apriori(seq_db.partition(0), 40, &params).unwrap();
        assert!(expected.num_large() > 10, "dataset too sparse");

        let db = PartitionedDatabase::build_in_memory(4, txns.into_iter()).unwrap();
        let cluster = ClusterConfig::new(4, 1 << 24);
        for alg in [FlatAlgorithm::CountDistribution, FlatAlgorithm::Hpa] {
            let rep = mine_parallel_flat(alg, &db, 40, &params, &cluster)
                .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
            assert_eq!(
                rep.output.num_large(),
                expected.num_large(),
                "{}",
                alg.name()
            );
            for (a, b) in rep.output.all_large().zip(expected.all_large()) {
                assert_eq!(a, b, "{}", alg.name());
            }
        }
    }

    #[test]
    fn cd_fragments_under_memory_pressure() {
        let txns = flat_txns(7);
        let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
        let params = MiningParams::with_min_support(0.02).max_pass(2);
        let tight = ClusterConfig::new(2, 1024);
        let rep =
            mine_parallel_flat(FlatAlgorithm::CountDistribution, &db, 40, &params, &tight).unwrap();
        assert!(rep.pass_reports[1].num_fragments > 1);
    }

    #[test]
    fn hpa_traffic_scales_with_data_cd_with_candidates() {
        // The structural difference: CD's only traffic is the count
        // all-reduce (independent of |D|); HPA ships generated itemsets
        // (linear in |D|). Doubling the data must roughly double HPA's
        // bytes and leave CD's unchanged.
        let params = MiningParams::with_min_support(0.02).max_pass(2);
        let cluster = ClusterConfig::new(3, 1 << 24);
        let pass2_bytes = |alg: FlatAlgorithm, copies: usize| -> u64 {
            let txns: Vec<Vec<ItemId>> = std::iter::repeat_n(flat_txns(11), copies)
                .flatten()
                .collect();
            let db = PartitionedDatabase::build_in_memory(3, txns.into_iter()).unwrap();
            let rep = mine_parallel_flat(alg, &db, 40, &params, &cluster).unwrap();
            rep.pass_reports[1]
                .node_deltas
                .iter()
                .map(|d| d.bytes_sent)
                .sum()
        };
        let cd_1 = pass2_bytes(FlatAlgorithm::CountDistribution, 1);
        let cd_2 = pass2_bytes(FlatAlgorithm::CountDistribution, 2);
        assert_eq!(cd_1, cd_2, "CD traffic must not scale with data");
        let hpa_1 = pass2_bytes(FlatAlgorithm::Hpa, 1);
        let hpa_2 = pass2_bytes(FlatAlgorithm::Hpa, 2);
        assert!(
            hpa_2 as f64 > 1.5 * hpa_1 as f64,
            "HPA traffic should scale with data: {hpa_1} -> {hpa_2}"
        );
    }

    #[test]
    fn cd_is_npgm_and_hpa_is_hpgm_over_an_edgeless_taxonomy() {
        // The adapter adds nothing: same large itemsets, same per-pass
        // bookkeeping, same per-node ledgers as the hierarchical algorithm
        // run directly over a taxonomy with no edges.
        let tax = TaxonomyBuilder::new(40).build().unwrap();
        let params = MiningParams::with_min_support(0.05);
        for nodes in [1usize, 3, 4] {
            let db = PartitionedDatabase::build_in_memory(nodes, flat_txns(3).into_iter()).unwrap();
            let cluster = ClusterConfig::new(nodes, 1 << 24);
            for (flat, hier) in [
                (FlatAlgorithm::CountDistribution, Algorithm::Npgm),
                (FlatAlgorithm::Hpa, Algorithm::Hpgm),
            ] {
                let a = mine_parallel_flat(flat, &db, 40, &params, &cluster).unwrap();
                let b = mine_parallel(hier, &db, &tax, &params, &cluster).unwrap();
                let what = format!("{} at {nodes} nodes", flat.name());
                assert_eq!(a.output.algorithm, Algorithm::Apriori, "{what}");
                assert!(a.output.all_large().eq(b.output.all_large()), "{what}");
                assert_eq!(a.pass_reports.len(), b.pass_reports.len(), "{what}");
                for (x, y) in a.pass_reports.iter().zip(&b.pass_reports) {
                    assert_eq!(
                        (x.k, x.num_candidates, x.num_fragments, x.num_large),
                        (y.k, y.num_candidates, y.num_fragments, y.num_large),
                        "{what}"
                    );
                    assert_eq!(x.node_deltas, y.node_deltas, "{what} pass {}", x.k);
                }
            }
        }
    }

    #[test]
    fn single_node_flat_runs() {
        let txns = flat_txns(1);
        let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
        let params = MiningParams::with_min_support(0.05);
        let cluster = ClusterConfig::new(1, 1 << 24);
        for alg in [FlatAlgorithm::CountDistribution, FlatAlgorithm::Hpa] {
            let rep = mine_parallel_flat(alg, &db, 40, &params, &cluster).unwrap();
            assert!(rep.output.num_large() > 0);
            assert_eq!(rep.node_totals[0].bytes_sent, 0);
        }
    }
}
