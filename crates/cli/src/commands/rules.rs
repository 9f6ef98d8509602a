//! `gar-cli rules` — derive association rules from a saved mining output,
//! optionally persisting them as a servable `GRUL` rule store.

use crate::args::Args;
use crate::commands::check_items;
use gar_mining::persist::load_output;
use gar_mining::rules::{derive_rules, prune_uninteresting, top_rules};
use gar_serve::RuleStore;
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::{Error, Result};

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let output_path = args.require("output")?;
    let min_confidence: f64 = args.require_parsed("min-confidence")?;
    let top: usize = args.get_or("top", 50)?;
    let taxonomy_path = args.get("taxonomy");
    let interest: Option<f64> = args.get_parsed("interest")?;
    let out_path = args.get("out");
    args.finish()?;
    // The library asserts both ranges; a flag out of range is the user's
    // error, so it is refused here, before any work.
    if !(0.0..=1.0).contains(&min_confidence) {
        return Err(Error::InvalidConfig(format!(
            "--min-confidence {min_confidence} must be in [0, 1]"
        )));
    }
    if let Some(r) = interest.filter(|r| !(r.is_finite() && *r >= 1.0)) {
        return Err(Error::InvalidConfig(format!(
            "--interest {r} must be finite and at least 1"
        )));
    }

    let output = load_output(output_path)?;
    let taxonomy: Option<Taxonomy> = match taxonomy_path {
        Some(p) => {
            let tax = gar_taxonomy::io::load(p)?;
            let items = output.all_large().flat_map(|(s, _)| s.items());
            check_items(output_path, items, &tax, p)?;
            Some(tax)
        }
        None => None,
    };

    let mut rules = derive_rules(&output, min_confidence, taxonomy.as_ref());
    let total = rules.len();
    if let Some(r) = interest {
        let tax = taxonomy.as_ref().ok_or_else(|| {
            Error::InvalidConfig(
                "--interest needs --taxonomy (ancestor rules define expectations)".into(),
            )
        })?;
        rules = prune_uninteresting(&rules, &output, tax, r);
        println!(
            "{total} rules at confidence >= {:.0}%; {} remain after the R={r} interest filter",
            min_confidence * 100.0,
            rules.len()
        );
    } else {
        println!(
            "{total} rules at confidence >= {:.0}%",
            min_confidence * 100.0
        );
    }

    for rule in top_rules(&rules, top) {
        println!("  {rule}");
    }
    if rules.len() > top {
        println!(
            "  ... ({} more; raise --top to see them)",
            rules.len() - top
        );
    }

    if let Some(out_path) = out_path {
        // The store embeds a hierarchy so the server can extend baskets.
        // Without --taxonomy, embed a flat one wide enough for every
        // item the rules mention (queries then match literally).
        let store_tax = match taxonomy {
            Some(t) => t,
            None => flat_taxonomy_over(&rules)?,
        };
        let store = RuleStore::new(rules, store_tax, output.num_transactions);
        store.save(out_path)?;
        println!(
            "wrote {out_path} ({} rules, canonical order)",
            store.rules.len()
        );
    }
    Ok(())
}

/// A hierarchy with no edges, covering every item the rules mention.
fn flat_taxonomy_over(rules: &[gar_mining::rules::Rule]) -> Result<Taxonomy> {
    let max_item = rules
        .iter()
        .flat_map(|r| {
            r.antecedent
                .items()
                .iter()
                .chain(r.consequent.items())
                .map(|&i| i.raw())
        })
        .max()
        .unwrap_or(0);
    TaxonomyBuilder::new(max_item + 1).build()
}
