//! Differential property tests: randomized taxonomies and transaction
//! sets, every algorithm (sequential and parallel) against the
//! brute-force oracle.

use gar_cluster::ClusterConfig;
use gar_mining::oracle::mine_naive;
use gar_mining::parallel::mine_parallel;
use gar_mining::sequential::{apriori, cumulate};
use gar_mining::{Algorithm, CounterKind, MiningParams};
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::synth::{synthesize, SynthTaxonomyConfig};
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::ItemId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    tax: Taxonomy,
    txns: Vec<Vec<ItemId>>,
    min_support: f64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2u32..5,      // roots
        12u32..40,    // items
        1.5f64..5.0,  // fanout
        0u64..10_000, // taxonomy seed
        proptest::collection::vec(proptest::collection::btree_set(0u32..40, 1..6), 4..40),
        2u32..6, // min support as a divisor of |D|
    )
        .prop_map(|(roots, items, fanout, seed, raw_txns, div)| {
            let tax = synthesize(&SynthTaxonomyConfig {
                num_items: items.max(roots + 1),
                num_roots: roots,
                fanout,
                seed,
            });
            let txns: Vec<Vec<ItemId>> = raw_txns
                .into_iter()
                .map(|s| {
                    let mut v: Vec<ItemId> =
                        s.into_iter().map(|x| ItemId(x % tax.num_items())).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            Scenario {
                tax,
                txns,
                min_support: 1.0 / f64::from(div),
            }
        })
}

/// Same round-robin split as `build_in_memory`, with every partition
/// round-tripped through a `GFP2` disk file (`write_to` then `open`;
/// `open` loads fully, so the files are deleted before mining).
fn persisted_db(num_nodes: usize, txns: &[Vec<ItemId>]) -> PartitionedDatabase {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let run = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gar-oracle-eq-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut buckets: Vec<FlatPartition> = (0..num_nodes).map(|_| FlatPartition::new()).collect();
    for (i, t) in txns.iter().enumerate() {
        buckets[i % num_nodes].push(t);
    }
    let parts: Vec<FlatPartition> = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let path = dir.join(format!("part-{i}.gfp"));
            b.write_to(&path).unwrap();
            FlatPartition::open(&path).unwrap()
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    PartitionedDatabase::from_parts(parts)
}

fn outputs_equal(a: &gar_mining::MiningOutput, b: &gar_mining::MiningOutput) -> Result<(), String> {
    if a.passes.len() != b.passes.len() {
        return Err(format!(
            "pass counts differ: {} vs {}",
            a.passes.len(),
            b.passes.len()
        ));
    }
    for (pa, pb) in a.passes.iter().zip(&b.passes) {
        if pa.itemsets != pb.itemsets {
            return Err(format!(
                "pass {} differs:\n  a: {:?}\n  b: {:?}",
                pa.k, pa.itemsets, pb.itemsets
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cumulate_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let fast = cumulate(db.partition(0), &s.tax, &params).unwrap();
        outputs_equal(&naive, &fast).map_err(TestCaseError::fail)?;
    }

    // Apriori mines as if no item had an ancestor: the oracle over the
    // edge-less taxonomy, whose output differs in the label only.
    #[test]
    fn apriori_matches_oracle(s in arb_scenario()) {
        let n = s.tax.num_items();
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &TaxonomyBuilder::new(n).build().unwrap(), &params);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let fast = apriori(db.partition(0), n, &params).unwrap();
        prop_assert_eq!(fast.algorithm, Algorithm::Apriori);
        prop_assert_eq!(
            (naive.num_transactions, naive.min_support_count),
            (fast.num_transactions, fast.min_support_count)
        );
        outputs_equal(&naive, &fast).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn cumulate_with_flat_map_counter_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support)
            .counter(CounterKind::HashMap)
            .max_pass(3);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let fast = cumulate(db.partition(0), &s.tax, &params).unwrap();
        outputs_equal(&naive, &fast).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hhpgm_fgd_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(3, s.txns.clone().into_iter()).unwrap();
        let cluster = ClusterConfig::new(3, 1 << 16);
        let rep = mine_parallel(Algorithm::HHpgmFgd, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }

    // The persisted GFP2 flat format must be invisible: partitions
    // round-tripped through disk files still match the oracle exactly.
    #[test]
    fn hhpgm_fgd_on_persisted_flat_partitions_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = persisted_db(3, &s.txns);
        let cluster = ClusterConfig::new(3, 1 << 16);
        let rep = mine_parallel(Algorithm::HHpgmFgd, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hpgm_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support).max_pass(3);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(2, s.txns.clone().into_iter()).unwrap();
        let cluster = ClusterConfig::new(2, 1 << 20);
        let rep = mine_parallel(Algorithm::Hpgm, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn npgm_with_tiny_memory_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(2, s.txns.clone().into_iter()).unwrap();
        // 256 bytes: forces many fragments.
        let cluster = ClusterConfig::new(2, 256);
        let rep = mine_parallel(Algorithm::Npgm, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hhpgm_tgd_with_tight_memory_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(2, s.txns.clone().into_iter()).unwrap();
        // Enough for partitions plus a sliver of duplication space.
        let cluster = ClusterConfig::new(2, 2048);
        let rep = mine_parallel(Algorithm::HHpgmTgd, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hhpgm_pgd_matches_oracle(s in arb_scenario()) {
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(4, s.txns.clone().into_iter()).unwrap();
        let cluster = ClusterConfig::new(4, 1 << 14);
        let rep = mine_parallel(Algorithm::HHpgmPgd, &db, &s.tax, &params, &cluster).unwrap();
        outputs_equal(&naive, &rep.output).map_err(TestCaseError::fail)?;
    }
}
