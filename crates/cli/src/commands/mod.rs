//! The CLI subcommands.

pub mod gen;
pub mod info;
pub mod mine;
pub mod query;
pub mod rules;
pub mod serve;

use gar_storage::FlatPartition;
use gar_taxonomy::Taxonomy;
use gar_types::{Error, ItemId, Result};
use std::path::{Path, PathBuf};

/// Name of the taxonomy file inside a dataset directory.
pub const TAXONOMY_FILE: &str = "taxonomy.gtax";
/// Name of the human-readable metadata file inside a dataset directory.
pub const META_FILE: &str = "dataset.txt";

/// Opens a dataset directory: every `part-NNNN.gfp` partition, sorted by
/// file name (= node id), then its taxonomy. Partitions load fully into
/// memory, so every scan pass lends borrowed slices. A partition holding
/// an item the taxonomy does not define is rejected by file name before
/// anything scans it.
pub fn open_dataset(dir: &Path) -> Result<(Vec<FlatPartition>, Taxonomy)> {
    let is_part = |p: &PathBuf, ext: &str| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("part-") && n.ends_with(ext))
    };
    let (mut paths, others): (Vec<PathBuf>, Vec<PathBuf>) = std::fs::read_dir(dir)
        .map_err(|e| Error::io(format!("reading dataset dir {}", dir.display()), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .partition(|p| is_part(p, ".gfp"));
    paths.sort();
    if paths.is_empty() {
        return Err(Error::InvalidConfig(
            if others.iter().any(|p| is_part(p, ".txn")) {
                format!(
                    "{} holds only part-*.txn partitions, a format this build no longer \
                 reads; re-run `gar-cli gen` to write part-*.gfp files",
                    dir.display()
                )
            } else {
                format!(
                    "{} contains no part-*.gfp partitions (not a dataset dir?)",
                    dir.display()
                )
            },
        ));
    }
    let parts = paths
        .iter()
        .map(FlatPartition::open)
        .collect::<Result<Vec<_>>>()?;
    let tax_path = dir.join(TAXONOMY_FILE);
    let tax = gar_taxonomy::io::load(&tax_path)?;
    for (part, path) in parts.iter().zip(&paths) {
        let items = (0..part.num_transactions()).flat_map(|i| part.get(i));
        check_items(path.display(), items, &tax, tax_path.display())?;
    }
    Ok((parts, tax))
}

/// Rejects `file` unless the taxonomy `tax`, loaded from `tax_file`,
/// defines every one of its `items`.
pub fn check_items<'a>(
    file: impl std::fmt::Display,
    items: impl Iterator<Item = &'a ItemId>,
    tax: &Taxonomy,
    tax_file: impl std::fmt::Display,
) -> Result<()> {
    match items.max() {
        Some(item) if item.raw() >= tax.num_items() => Err(Error::InvalidConfig(format!(
            "{file} holds item {item}, but {tax_file} defines only items 0..{}",
            tax.num_items()
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::TaxonomyBuilder;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn chained_source_concatenates() {
        let dir = std::env::temp_dir().join(format!("gar-cli-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, txns) in [vec![ids(&[1])], vec![ids(&[2]), ids(&[3])]]
            .iter()
            .enumerate()
        {
            FlatPartition::from_transactions(txns)
                .write_to(dir.join(format!("part-{i:04}.gfp")))
                .unwrap();
        }
        let tax = TaxonomyBuilder::new(4).build().unwrap();
        gar_taxonomy::io::save(&tax, dir.join(TAXONOMY_FILE)).unwrap();
        let (parts, _) = open_dataset(&dir).unwrap();
        // Checking the items against the taxonomy scanned nothing.
        assert!(parts.iter().all(|p| p.bytes_read() == 0));
        // What the sequential algorithms scan: the partitions back to
        // back, in file-name order.
        let chained = FlatPartition::concat(&parts);
        assert_eq!(chained.num_transactions(), 3);
        let mut scan = chained.scan().unwrap();
        let mut got = Vec::new();
        while let Some(t) = scan.next_slice().unwrap() {
            got.push(t.to_vec());
        }
        assert_eq!(got, vec![ids(&[1]), ids(&[2]), ids(&[3])]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_partitions_requires_dataset_dir() {
        let dir = std::env::temp_dir().join(format!("gar-cli-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(open_dataset(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
