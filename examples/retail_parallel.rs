//! Parallel mining of a synthetic retail dataset on a simulated
//! 8-node shared-nothing cluster with H-HPGM-FGD (the paper's best
//! algorithm), compared against sequential Cumulate.
//!
//! Run with: `cargo run --release --example retail_parallel`

use gar::cluster::ClusterConfig;
use gar::datagen::presets;
use gar::datagen::TransactionGenerator;
use gar::mining::parallel::mine_parallel;
use gar::mining::rules::{derive_rules, top_rules};
use gar::mining::sequential::cumulate;
use gar::mining::{Algorithm, MiningParams};
use gar::storage::PartitionedDatabase;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const NODES: usize = 8;
    // The paper's R30F5 dataset at 1/50 scale: 64 000 transactions,
    // 600 items under 30 roots with fanout 5.
    let spec = presets::r30f5(7).scaled(0.02);
    println!(
        "dataset: {} ({} txns, {} items, {} roots, fanout {})",
        spec.name, spec.num_transactions, spec.num_items, spec.num_roots, spec.fanout
    );

    let mut generator = TransactionGenerator::new(&spec)?;
    let txns: Vec<_> = generator.by_ref().collect();
    let taxonomy = generator.into_taxonomy();

    // Hierarchy extension makes high-level itemsets combinatorially
    // frequent (every transaction touches several root categories), so
    // the large-itemset lattice keeps widening with k. The paper
    // evaluates per pass for the same reason; three passes show the full
    // pipeline without the lattice blow-up.
    let params = MiningParams::with_min_support(0.015).max_pass(3);

    // Sequential baseline.
    let seq_db = PartitionedDatabase::build_in_memory(1, txns.clone().into_iter())?;
    #[expect(
        clippy::disallowed_methods,
        reason = "a printed wall time, not an artifact"
    )]
    let t0 = Instant::now();
    let seq = cumulate(seq_db.partition(0), &taxonomy, &params)?;
    let seq_wall = t0.elapsed();

    // Parallel run: the transaction file spread over 8 node disks.
    let db = PartitionedDatabase::build_in_memory(NODES, txns.into_iter())?;
    // Scaled-down "256 MB": big enough that FGD has free space to copy
    // the hottest candidates into, small enough that most stay
    // hash-partitioned and real exchange traffic flows.
    let cluster = ClusterConfig::new(NODES, 1024 * 1024);
    let report = mine_parallel(Algorithm::HHpgmFgd, &db, &taxonomy, &params, &cluster)?;

    println!(
        "\nlarge itemsets found: {} (parallel) / {} (sequential)",
        report.output.num_large(),
        seq.num_large()
    );
    assert_eq!(
        report.output.num_large(),
        seq.num_large(),
        "parallel must match sequential"
    );

    println!("sequential wall time : {seq_wall:?}");
    println!(
        "parallel wall time   : {:?}  ({NODES} worker threads)",
        report.wall
    );
    println!(
        "modeled SP-2 time    : {:.2} s  (critical path over nodes)",
        report.modeled_seconds
    );

    println!("\nper-pass breakdown:");
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>12} {:>14}",
        "pass", "candidates", "duplicated", "large", "avg MB recv", "modeled (s)"
    );
    for p in &report.pass_reports {
        println!(
            "{:>4} {:>12} {:>12} {:>10} {:>12.3} {:>14.3}",
            p.k,
            p.num_candidates,
            p.num_duplicated,
            p.num_large,
            p.avg_mb_received(),
            p.modeled_seconds
        );
    }

    let rules = derive_rules(&report.output, 0.5, Some(&taxonomy));
    println!("\ntop rules at 50% confidence ({} total):", rules.len());
    for rule in top_rules(&rules, 10) {
        println!("  {rule}");
    }
    Ok(())
}
