//! Byte-level determinism of the mined rule report.
//!
//! Clippy bans hash-order iteration (`iter_over_hash_type` and the
//! `disallowed-methods` list in `clippy.toml`); this test is the dynamic
//! half of that guarantee, and also covers what clippy cannot see:
//! `into_iter()` on a hash collection outside a `for` loop. A rendered
//! report must be byte-identical between two same-seed runs (no ambient
//! nondeterminism: thread scheduling, hash seeds, allocation addresses)
//! and across node counts (the cluster decomposition must not leak into
//! the output).

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::parallel::rules::derive_rules_parallel;
use gar_mining::{Algorithm, MiningParams};
use gar_obs::{MetricsSnapshot, Obs};
use gar_storage::{FlatPartition, PartitionedDatabase, TransactionSource};
use gar_taxonomy::Taxonomy;
use gar_types::ItemId;
use std::fmt::Write as _;

const BIG_MEMORY: u64 = 1 << 30;

fn dataset(seed: u64) -> (Taxonomy, Vec<Vec<ItemId>>) {
    let spec = DatasetSpec {
        name: "determinism".into(),
        num_transactions: 350,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 40,
        num_items: 200,
        num_roots: 6,
        fanout: 4.0,
        seed,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<_> = g.by_ref().collect();
    (g.into_taxonomy(), txns)
}

/// One full mining + rule-derivation run, rendered to the same textual
/// report shape the CLI emits: every large itemset with its support
/// count, then every rule via its `Display` impl.
fn rendered_report(alg: Algorithm, seed: u64, num_nodes: usize) -> String {
    let (tax, txns) = dataset(seed);
    let db = PartitionedDatabase::build_in_memory(num_nodes, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(num_nodes, BIG_MEMORY);
    let params = MiningParams::with_min_support(0.05);

    let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
    let rules = derive_rules_parallel(&report.output, 0.5, Some(&tax), &cluster).unwrap();

    let mut out = String::new();
    for pass in &report.output.passes {
        writeln!(out, "pass k={}", pass.k).unwrap();
        for (set, count) in &pass.itemsets {
            writeln!(out, "  {set} x{count}").unwrap();
        }
    }
    writeln!(out, "rules ({})", rules.len()).unwrap();
    for rule in &rules {
        writeln!(out, "  {rule}").unwrap();
    }
    out
}

/// One instrumented run, rendered to the exact bytes `gar-cli mine
/// --metrics-out` would write.
fn rendered_metrics(alg: Algorithm, seed: u64, num_nodes: usize) -> String {
    let (tax, txns) = dataset(seed);
    let db = PartitionedDatabase::build_in_memory(num_nodes, txns.into_iter()).unwrap();
    let obs = Obs::enabled();
    let cluster = ClusterConfig::new(num_nodes, BIG_MEMORY).with_obs(obs.clone());
    let params = MiningParams::with_min_support(0.05);
    mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
    obs.metrics().to_json()
}

/// Same round-robin split as `build_in_memory`, but every partition is
/// round-tripped through the `GFP2` on-disk flat format first: written
/// with `FlatPartition::write_to`, reopened with `FlatPartition::open`.
/// `open` loads the file fully, so the temp files can be deleted before
/// mining starts.
fn persisted_db(num_nodes: usize, txns: &[Vec<ItemId>], tag: &str) -> PartitionedDatabase {
    let dir = std::env::temp_dir().join(format!(
        "gar-determinism-{}-{tag}-{num_nodes}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut buckets: Vec<FlatPartition> = (0..num_nodes).map(|_| FlatPartition::new()).collect();
    for (i, t) in txns.iter().enumerate() {
        buckets[i % num_nodes].push(t);
    }
    let parts: Vec<Box<dyn TransactionSource>> = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let path = dir.join(format!("part-{i}.gfp"));
            b.write_to(&path).unwrap();
            Box::new(FlatPartition::open(&path).unwrap()) as Box<dyn TransactionSource>
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    PartitionedDatabase::from_parts(parts)
}

/// `rendered_report`, except the partitions went through GFP2 disk files.
fn rendered_report_persisted(alg: Algorithm, seed: u64, num_nodes: usize) -> String {
    let (tax, txns) = dataset(seed);
    let db = persisted_db(num_nodes, &txns, "report");
    let cluster = ClusterConfig::new(num_nodes, BIG_MEMORY);
    let params = MiningParams::with_min_support(0.05);

    let report = mine_parallel(alg, &db, &tax, &params, &cluster).unwrap();
    let rules = derive_rules_parallel(&report.output, 0.5, Some(&tax), &cluster).unwrap();

    let mut out = String::new();
    for pass in &report.output.passes {
        writeln!(out, "pass k={}", pass.k).unwrap();
        for (set, count) in &pass.itemsets {
            writeln!(out, "  {set} x{count}").unwrap();
        }
    }
    writeln!(out, "rules ({})", rules.len()).unwrap();
    for rule in &rules {
        writeln!(out, "  {rule}").unwrap();
    }
    out
}

/// Same seed, same node count, run twice → byte-identical reports.
#[test]
fn same_seed_reruns_are_byte_identical() {
    for alg in [Algorithm::Hpgm, Algorithm::HHpgmTgd] {
        let a = rendered_report(alg, 7, 2);
        let b = rendered_report(alg, 7, 2);
        assert!(a.contains("rules ("), "report looks empty:\n{a}");
        assert_eq!(a, b, "{alg}: two same-seed runs diverged");
    }
}

/// `metrics.json` carries counters and histograms only — no
/// timestamps — so two same-seed instrumented runs must also be
/// byte-identical. (The chrome trace is wall-clock and excluded.)
#[test]
fn same_seed_metrics_are_byte_identical() {
    for alg in [Algorithm::Hpgm, Algorithm::HHpgmFgd] {
        let a = rendered_metrics(alg, 7, 2);
        let b = rendered_metrics(alg, 7, 2);
        assert!(
            a.contains("cluster.bytes_sent{"),
            "{alg}: metrics look empty:\n{a}"
        );
        assert_eq!(a, b, "{alg}: two same-seed runs' metrics diverged");
        // And the bytes survive the codec round trip.
        let snap = MetricsSnapshot::from_json(&a).unwrap();
        assert_eq!(snap.to_json(), a, "{alg}: metrics round trip");
    }
}

/// The cluster decomposition must not leak into the report: 1, 2 and 4
/// nodes all produce the same bytes for every parallel algorithm.
#[test]
fn node_count_does_not_change_the_report() {
    for alg in Algorithm::parallel_all() {
        let one = rendered_report(alg, 11, 1);
        assert!(
            one.lines().count() > 10,
            "{alg}: report suspiciously small:\n{one}"
        );
        for nodes in [2, 4] {
            let many = rendered_report(alg, 11, nodes);
            assert_eq!(
                one, many,
                "{alg}: report differs between 1 and {nodes} nodes"
            );
        }
    }
}

/// The on-disk GFP2 flat format must be invisible too: partitions
/// round-tripped through disk files produce the same bytes as the
/// in-memory build, at every node count, for every parallel algorithm.
#[test]
fn persisted_flat_partitions_do_not_change_the_report() {
    for alg in Algorithm::parallel_all() {
        let reference = rendered_report(alg, 11, 1);
        for nodes in [1, 2, 4] {
            let persisted = rendered_report_persisted(alg, 11, nodes);
            assert_eq!(
                reference, persisted,
                "{alg}: persisted GFP2 report differs at {nodes} nodes"
            );
        }
    }
}
