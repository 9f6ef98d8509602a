//! Differential equivalence: FP-Growth (sequential and parallel, any
//! node count) against the Cumulate oracle and the brute-force oracle.
//!
//! FP-Growth counts support over ancestor-extended transactions and
//! drops hierarchy-related items at growth time, so its output must be
//! *identical* — itemsets and support counts, pass for pass — to what
//! the Apriori-family Cumulate mines from the same data.

use gar_cluster::ClusterConfig;
use gar_fpg::{mine_parallel, mine_sequential};
use gar_mining::oracle::mine_naive;
use gar_mining::sequential::cumulate;
use gar_mining::{MiningOutput, MiningParams};
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::synth::{synthesize, SynthTaxonomyConfig};
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BIG_MEMORY: u64 = 1 << 30;

struct Scenario {
    tax: Taxonomy,
    txns: Vec<Vec<ItemId>>,
    min_support: f64,
}

/// A randomized taxonomy plus transaction set, seeded so every failure
/// reproduces from its printed seed.
fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_roots = rng.gen_range(2u32..5);
    let num_items = rng.gen_range(12u32..40).max(num_roots + 1);
    let tax = synthesize(&SynthTaxonomyConfig {
        num_items,
        num_roots,
        fanout: rng.gen_range(1.5f64..5.0),
        seed: rng.gen_range(0u64..10_000),
    });
    let num_txns = rng.gen_range(4usize..40);
    let txns: Vec<Vec<ItemId>> = (0..num_txns)
        .map(|_| {
            let len = rng.gen_range(1usize..6);
            let mut t: Vec<ItemId> = (0..len)
                .map(|_| ItemId(rng.gen_range(0..tax.num_items())))
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    Scenario {
        tax,
        txns,
        min_support: 1.0 / f64::from(rng.gen_range(2u32..6)),
    }
}

/// Round-trips a transaction set through the `GFP2` on-disk flat
/// format: write, reopen, delete the file (`open` loads it fully).
fn persisted_partition(txns: &[Vec<ItemId>], tag: &str) -> FlatPartition {
    let path =
        std::env::temp_dir().join(format!("gar-fpg-oracle-{}-{tag}.gfp", std::process::id()));
    FlatPartition::from_transactions(txns)
        .write_to(&path)
        .unwrap();
    let part = FlatPartition::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    part
}

fn assert_outputs_equal(a: &MiningOutput, b: &MiningOutput, ctxt: &str) {
    assert_eq!(
        a.passes.len(),
        b.passes.len(),
        "{ctxt}: pass counts differ ({} vs {})",
        a.passes.len(),
        b.passes.len()
    );
    for (pa, pb) in a.passes.iter().zip(&b.passes) {
        assert_eq!(pa.k, pb.k, "{ctxt}: pass k differs");
        assert_eq!(
            pa.itemsets, pb.itemsets,
            "{ctxt}: pass {} itemsets differ",
            pa.k
        );
    }
}

#[test]
fn sequential_fp_growth_matches_both_oracles() {
    for seed in 0..40u64 {
        let s = scenario(seed);
        let params = MiningParams::with_min_support(s.min_support);
        let naive = mine_naive(&s.txns, &s.tax, &params);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let cum = cumulate(db.partition(0), &s.tax, &params).unwrap();
        let fpg = mine_sequential(db.partition(0), &s.tax, &params).unwrap();
        assert_outputs_equal(&naive, &fpg, &format!("seed {seed} vs naive"));
        assert_outputs_equal(&cum, &fpg, &format!("seed {seed} vs cumulate"));

        // The on-disk GFP2 flat format must be invisible to the miners:
        // both families agree with the oracle on the reopened partition.
        let part = persisted_partition(&s.txns, &format!("seq-{seed}"));
        let fpg_disk = mine_sequential(&part, &s.tax, &params).unwrap();
        let cum_disk = cumulate(&part, &s.tax, &params).unwrap();
        assert_outputs_equal(
            &naive,
            &fpg_disk,
            &format!("seed {seed} persisted fpg vs naive"),
        );
        assert_outputs_equal(
            &naive,
            &cum_disk,
            &format!("seed {seed} persisted cumulate vs naive"),
        );
    }
}

#[test]
fn sequential_fp_growth_honors_max_pass() {
    for seed in 0..20u64 {
        let s = scenario(seed);
        for max_pass in [1usize, 2, 3] {
            let params = MiningParams::with_min_support(s.min_support).max_pass(max_pass);
            let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
            let cum = cumulate(db.partition(0), &s.tax, &params).unwrap();
            let fpg = mine_sequential(db.partition(0), &s.tax, &params).unwrap();
            assert_outputs_equal(&cum, &fpg, &format!("seed {seed} max_pass {max_pass}"));
        }
    }
}

#[test]
fn parallel_fp_growth_matches_cumulate_at_any_node_count() {
    for seed in 0..15u64 {
        let s = scenario(seed);
        let params = MiningParams::with_min_support(s.min_support);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let cum = cumulate(db.partition(0), &s.tax, &params).unwrap();
        for nodes in [1usize, 2, 4] {
            let db =
                PartitionedDatabase::build_in_memory(nodes, s.txns.clone().into_iter()).unwrap();
            let cluster = ClusterConfig::new(nodes, BIG_MEMORY);
            let rep = mine_parallel(&db, &s.tax, &params, &cluster)
                .unwrap_or_else(|e| panic!("seed {seed} @ {nodes} nodes failed: {e}"));
            assert_outputs_equal(&cum, &rep.output, &format!("seed {seed} @ {nodes} nodes"));
            assert_eq!(rep.output.num_transactions, cum.num_transactions);
            assert_eq!(rep.output.min_support_count, cum.min_support_count);
        }
    }
}

#[test]
fn parallel_fp_growth_honors_max_pass() {
    for seed in 0..10u64 {
        let s = scenario(seed);
        let params = MiningParams::with_min_support(s.min_support).max_pass(2);
        let db = PartitionedDatabase::build_in_memory(1, s.txns.clone().into_iter()).unwrap();
        let cum = cumulate(db.partition(0), &s.tax, &params).unwrap();
        let db = PartitionedDatabase::build_in_memory(3, s.txns.clone().into_iter()).unwrap();
        let cluster = ClusterConfig::new(3, BIG_MEMORY);
        let rep = mine_parallel(&db, &s.tax, &params, &cluster).unwrap();
        assert_outputs_equal(&cum, &rep.output, &format!("seed {seed} max_pass 2"));
    }
}

#[test]
fn empty_and_degenerate_inputs() {
    let tax = synthesize(&SynthTaxonomyConfig {
        num_items: 10,
        num_roots: 2,
        fanout: 3.0,
        seed: 7,
    });
    let params = MiningParams::with_min_support(0.5);

    // No transactions at all.
    let db = PartitionedDatabase::build_in_memory(1, std::iter::empty::<Vec<ItemId>>()).unwrap();
    let out = mine_sequential(db.partition(0), &tax, &params).unwrap();
    assert!(out.passes.is_empty());

    // Transactions but nothing large.
    let txns: Vec<Vec<ItemId>> = vec![vec![ItemId(3)], vec![ItemId(4)], vec![ItemId(5)]];
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let params = MiningParams::with_min_support(0.99);
    let rep = mine_parallel(&db, &tax, &params, &ClusterConfig::new(2, BIG_MEMORY)).unwrap();
    let db1 = PartitionedDatabase::build_in_memory(
        1,
        vec![vec![ItemId(3)], vec![ItemId(4)], vec![ItemId(5)]].into_iter(),
    )
    .unwrap();
    let cum = cumulate(db1.partition(0), &tax, &params).unwrap();
    assert_outputs_equal(&cum, &rep.output, "nothing-large");
}
