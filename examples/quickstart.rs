//! Quickstart: mine generalized association rules from a hand-built
//! store taxonomy with the sequential Cumulate algorithm.
//!
//! Run with: `cargo run --release --example quickstart`

use gar::mining::rules::{derive_rules, top_rules};
use gar::mining::sequential::cumulate;
use gar::mining::MiningParams;
use gar::storage::PartitionedDatabase;
use gar::taxonomy::TaxonomyBuilder;
use gar::types::ItemId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The [SA95] running example taxonomy:
    //
    //   clothes(0) ─┬─ outerwear(1) ─┬─ jackets(3)
    //               │                └─ ski pants(4)
    //               └─ shirts(2)
    //   footwear(5) ─┬─ shoes(6)
    //                └─ hiking boots(7)
    let names = [
        "clothes",
        "outerwear",
        "shirts",
        "jackets",
        "ski pants",
        "footwear",
        "shoes",
        "hiking boots",
    ];
    let mut builder = TaxonomyBuilder::new(8);
    for (child, parent) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
        builder.edge(child, parent)?;
    }
    let taxonomy = builder.build()?;

    // Six purchase transactions over the leaf items.
    let item = |i: u32| ItemId(i);
    let transactions = vec![
        vec![item(2)],          // a shirt
        vec![item(3), item(7)], // jacket + hiking boots
        vec![item(4), item(7)], // ski pants + hiking boots
        vec![item(6)],          // shoes
        vec![item(6)],          // shoes
        vec![item(3)],          // a jacket
    ];
    let db = PartitionedDatabase::build_in_memory(1, transactions.into_iter())?;

    // Mine with 30% minimum support.
    let params = MiningParams::with_min_support(0.30);
    let output = cumulate(db.partition(0), &taxonomy, &params)?;

    println!(
        "Large itemsets (min support 30% of {} txns):",
        output.num_transactions
    );
    for (itemset, count) in output.all_large() {
        let labels: Vec<&str> = itemset.items().iter().map(|i| names[i.index()]).collect();
        println!("  {{{}}}  sup_cou = {count}", labels.join(", "));
    }

    // Derive rules at 60% confidence. Note the hierarchy at work: no raw
    // transaction contains "outerwear", yet rules about it emerge.
    println!("\nRules (min confidence 60%):");
    let rules = derive_rules(&output, 0.60, Some(&taxonomy));
    for rule in top_rules(&rules, rules.len()) {
        let fmt = |s: &gar::types::Itemset| {
            s.items()
                .iter()
                .map(|i| names[i.index()])
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "  {} => {}   (support {:.0}%, confidence {:.0}%)",
            fmt(&rule.antecedent),
            fmt(&rule.consequent),
            rule.support * 100.0,
            rule.confidence * 100.0
        );
    }
    Ok(())
}
