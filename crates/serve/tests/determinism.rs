//! Byte-level determinism of the persisted rule store.
//!
//! The store is written in canonical rule order (sorted by antecedent,
//! then consequent, deduplicated), so the same mining seed must produce
//! a byte-identical `.grul` file regardless of how many cluster nodes
//! mined it and across reruns — the serving-layer mirror of the mining
//! crate's `determinism` suite.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::rules::derive_rules;
use gar_mining::{Algorithm, MiningParams};
use gar_serve::RuleStore;
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use std::path::PathBuf;

const BIG_MEMORY: u64 = 1 << 30;

fn dataset(seed: u64) -> (Taxonomy, Vec<Vec<ItemId>>) {
    let spec = DatasetSpec {
        name: "serve-determinism".into(),
        num_transactions: 300,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 40,
        num_items: 150,
        num_roots: 6,
        fanout: 4.0,
        seed,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    (g.into_taxonomy(), txns)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gar-serve-det-{}-{name}.grul", std::process::id()))
}

/// Mines at `num_nodes`, derives rules, persists the store, and returns
/// the exact file bytes.
fn store_bytes(seed: u64, num_nodes: usize, name: &str) -> Vec<u8> {
    let (tax, txns) = dataset(seed);
    let db = PartitionedDatabase::build_in_memory(num_nodes, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(num_nodes, BIG_MEMORY);
    let params = MiningParams::with_min_support(0.05);
    let report = mine_parallel(Algorithm::HHpgmFgd, &db, &tax, &params, &cluster).unwrap();
    let rules = derive_rules(&report.output, 0.5, Some(&tax));
    assert!(!rules.is_empty(), "fixture mined no rules");
    let store = RuleStore::new(rules, tax, report.output.num_transactions);
    let path = tmp_path(name);
    store.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn store_is_byte_identical_across_node_counts() {
    let reference = store_bytes(11, 1, "n1");
    for nodes in [2, 4] {
        assert_eq!(
            store_bytes(11, nodes, &format!("n{nodes}")),
            reference,
            "store bytes differ between 1 and {nodes} nodes"
        );
    }
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    assert_eq!(store_bytes(23, 2, "a"), store_bytes(23, 2, "b"));
}

#[test]
fn reloaded_store_round_trips_exactly() {
    let (tax, txns) = dataset(31);
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(2, BIG_MEMORY);
    let params = MiningParams::with_min_support(0.05);
    let report = mine_parallel(Algorithm::HHpgmFgd, &db, &tax, &params, &cluster).unwrap();
    let rules = derive_rules(&report.output, 0.5, Some(&tax));
    let store = RuleStore::new(rules, tax, report.output.num_transactions);

    let a = tmp_path("rt-a");
    let b = tmp_path("rt-b");
    store.save(&a).unwrap();
    // Save → load → save must be a fixed point of the codec.
    RuleStore::load(&a).unwrap().save(&b).unwrap();
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}
