//! `gar-cli info` — describe a dataset directory.

use crate::args::Args;
use crate::commands::{open_dataset, META_FILE};
use gar_types::Result;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let dir = Path::new(args.require("data")?);
    args.finish()?;
    let (parts, tax) = open_dataset(dir)?;

    println!("dataset: {}", dir.display());
    if let Ok(meta) = std::fs::read_to_string(dir.join(META_FILE)) {
        for line in meta.lines() {
            println!("  {line}");
        }
    }
    println!("partitions:");
    let mut total_txns = 0usize;
    let mut total_bytes = 0u64;
    for (i, p) in parts.iter().enumerate() {
        println!(
            "  part {i:>3}: {:>9} txns  {:>9.1} KiB",
            p.num_transactions(),
            p.size_bytes() as f64 / 1024.0
        );
        total_txns += p.num_transactions();
        total_bytes += p.size_bytes();
    }
    println!(
        "total: {total_txns} transactions, {:.1} MiB",
        total_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "taxonomy: {} items, {} roots, {} leaves, {} levels",
        tax.num_items(),
        tax.roots().len(),
        tax.leaves().len(),
        tax.max_depth() + 1
    );

    // A quick shape check: mean transaction size from the first partition.
    let mut scan = parts[0].scan()?;
    let (mut n, mut items) = (0usize, 0usize);
    while let Some(t) = scan.next_slice()?.filter(|_| n < 10_000) {
        n += 1;
        items += t.len();
    }
    if n > 0 {
        println!(
            "mean transaction size (first {n} of partition 0): {:.1}",
            items as f64 / n as f64
        );
    }
    Ok(())
}
