//! The [SA95] R-interesting filter in action: mine a hierarchical
//! dataset, derive rules, and show how the interest measure strips the
//! rules that merely restate their generalizations.
//!
//! Run with: `cargo run --release --example interesting_rules`

use gar::datagen::presets;
use gar::datagen::TransactionGenerator;
use gar::mining::rules::{derive_rules, prune_uninteresting, top_rules};
use gar::mining::sequential::cumulate;
use gar::mining::MiningParams;
use gar::storage::PartitionedDatabase;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = presets::r30f3(21).scaled(0.005);
    println!(
        "dataset {}: {} txns, {} items, fanout {}",
        spec.name, spec.num_transactions, spec.num_items, spec.fanout
    );
    let mut generator = TransactionGenerator::new(&spec)?;
    let txns: Vec<_> = generator.by_ref().collect();
    let taxonomy = generator.into_taxonomy();
    let db = PartitionedDatabase::build_in_memory(1, txns.into_iter())?;

    let params = MiningParams::with_min_support(0.01).max_pass(2);
    let output = cumulate(db.partition(0), &taxonomy, &params)?;
    println!("{} large itemsets", output.num_large());

    let rules = derive_rules(&output, 0.6, Some(&taxonomy));
    println!("\n{} rules at 60% confidence", rules.len());

    for r_factor in [1.1, 1.5, 2.0] {
        let kept = prune_uninteresting(&rules, &output, &taxonomy, r_factor);
        println!(
            "R = {r_factor}: {} rules survive ({:.0}% filtered as restating an ancestor rule)",
            kept.len(),
            100.0 * (rules.len() - kept.len()) as f64 / rules.len().max(1) as f64
        );
    }

    let interesting = prune_uninteresting(&rules, &output, &taxonomy, 1.5);
    println!("\nmost confident R-interesting rules:");
    for rule in top_rules(&interesting, 8) {
        println!("  {rule}");
    }
    Ok(())
}
