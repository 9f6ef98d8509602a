//! `gar-cli gen` — synthesize a dataset directory.

use crate::args::Args;
use crate::commands::{META_FILE, TAXONOMY_FILE};
use gar_datagen::{presets, TransactionGenerator};
use gar_storage::FlatPartition;
use gar_types::{Error, Result};
use std::io::Write;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let out = Path::new(args.require("out")?);
    let preset = args.get("preset").unwrap_or("R30F5");
    let scale: f64 = args.get_or("scale", 0.01)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let partitions: usize = args.get_or("partitions", 8)?;
    args.finish()?;
    if partitions == 0 {
        return Err(Error::InvalidConfig("--partitions must be >= 1".into()));
    }

    let spec = presets::by_name(preset, seed)
        .ok_or_else(|| {
            Error::InvalidConfig(format!(
                "unknown preset '{preset}' (expected R30F5, R30F3 or R30F10)"
            ))
        })?
        .scaled(scale);
    spec.validate()?;

    std::fs::create_dir_all(out)
        .map_err(|e| Error::io(format!("creating {}", out.display()), e))?;

    println!(
        "generating {} — {} transactions, {} items, {} roots, fanout {} -> {} partitions",
        spec.name, spec.num_transactions, spec.num_items, spec.num_roots, spec.fanout, partitions
    );

    let mut generator = TransactionGenerator::new(&spec)?;
    // Flat partitions: built in memory, then written as sealed `GFP2`
    // files that load without per-record decoding.
    let mut builders: Vec<FlatPartition> = (0..partitions).map(|_| FlatPartition::new()).collect();
    let mut count = 0usize;
    for t in generator.by_ref() {
        builders[count % partitions].push(&t);
        count += 1;
    }
    let mut total_bytes = 0;
    for (i, b) in builders.iter().enumerate() {
        b.write_to(out.join(format!("part-{i:04}.gfp")))?;
        total_bytes += b.size_bytes();
    }
    let taxonomy = generator.into_taxonomy();
    gar_taxonomy::io::save(&taxonomy, out.join(TAXONOMY_FILE))?;

    let meta = format!(
        "name: {}\ntransactions: {}\nitems: {}\nroots: {}\nfanout: {}\n\
         levels: {}\npatterns: {}\nseed: {}\npartitions: {}\n",
        spec.name,
        count,
        spec.num_items,
        spec.num_roots,
        spec.fanout,
        taxonomy.max_depth() + 1,
        spec.num_patterns,
        seed,
        partitions
    );
    let mut f = std::fs::File::create(out.join(META_FILE))
        .map_err(|e| Error::io("creating dataset.txt", e))?;
    f.write_all(meta.as_bytes())
        .map_err(|e| Error::io("writing dataset.txt", e))?;

    println!(
        "wrote {count} transactions ({:.1} MiB) + {TAXONOMY_FILE} + {META_FILE} to {}",
        total_bytes as f64 / (1024.0 * 1024.0),
        out.display()
    );
    Ok(())
}
