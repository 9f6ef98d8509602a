//! Horizontally partitioned transaction databases.

use crate::flat::FlatPartition;
use gar_types::{Error, ItemId, Result};

/// A transaction database split across `N` node partitions — the paper's
/// "the transaction data is evenly spread over the local disks of all the
/// nodes". Partition `n` plays the role of `D^n`.
pub struct PartitionedDatabase {
    parts: Vec<FlatPartition>,
}

impl PartitionedDatabase {
    /// Splits the stream round-robin (an even spread for the synthetic
    /// data, whose transactions are i.i.d.) into `num_partitions`
    /// [`FlatPartition`]s held in memory.
    pub fn build_in_memory(
        num_partitions: usize,
        txns: impl Iterator<Item = Vec<ItemId>>,
    ) -> Result<PartitionedDatabase> {
        if num_partitions == 0 {
            return Err(Error::InvalidConfig("need at least one partition".into()));
        }
        let mut parts: Vec<FlatPartition> =
            (0..num_partitions).map(|_| FlatPartition::new()).collect();
        for (i, t) in txns.enumerate() {
            parts[i % num_partitions].push(&t);
        }
        Ok(PartitionedDatabase { parts })
    }

    /// Wraps already-opened partitions (e.g. re-opened from a dataset
    /// directory on disk).
    pub fn from_parts(parts: Vec<FlatPartition>) -> PartitionedDatabase {
        PartitionedDatabase { parts }
    }

    /// Number of partitions (= simulated nodes).
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The `n`-th node's local partition.
    pub fn partition(&self, n: usize) -> &FlatPartition {
        &self.parts[n]
    }

    /// All partitions (for handing one to each node thread).
    pub fn partitions(&self) -> &[FlatPartition] {
        &self.parts
    }

    /// Transactions across all partitions.
    pub fn total_transactions(&self) -> usize {
        self.parts.iter().map(|p| p.num_transactions()).sum()
    }

    /// Cumulative bytes read across all partitions and scans — the I/O
    /// ledger the NPGM experiments report against.
    pub fn total_bytes_read(&self) -> u64 {
        self.parts.iter().map(|p| p.bytes_read()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn drain(p: &FlatPartition) -> Vec<Vec<ItemId>> {
        let mut scan = p.scan().unwrap();
        let mut out = Vec::new();
        while let Some(t) = scan.next_slice().unwrap() {
            out.push(t.to_vec());
        }
        out
    }

    #[test]
    fn round_robin_split_in_memory() {
        let txns: Vec<Vec<ItemId>> = (0..10u32).map(|i| ids(&[i])).collect();
        let db = PartitionedDatabase::build_in_memory(3, txns.into_iter()).unwrap();
        assert_eq!(db.num_partitions(), 3);
        assert_eq!(db.total_transactions(), 10);
        assert_eq!(drain(db.partition(0)).len(), 4); // 0,3,6,9
        assert_eq!(drain(db.partition(1)).len(), 3);
        assert_eq!(drain(db.partition(2)).len(), 3);
        assert_eq!(drain(db.partition(0))[1], ids(&[3]));
    }

    #[test]
    fn round_robin_split_on_disk() {
        // What `gar-cli gen` and `mine` do: split, write one file per
        // node, re-open the files as the database.
        let dir = std::env::temp_dir().join(format!("gar-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let txns: Vec<Vec<ItemId>> = (0..7u32).map(|i| ids(&[i, i + 10])).collect();
        let split = PartitionedDatabase::build_in_memory(2, txns.clone().into_iter()).unwrap();
        let mut parts = Vec::new();
        for n in 0..split.num_partitions() {
            let path = dir.join(format!("part-{n:04}.gfp"));
            split.partition(n).write_to(&path).unwrap();
            parts.push(FlatPartition::open(&path).unwrap());
        }
        let db = PartitionedDatabase::from_parts(parts);
        assert_eq!(db.total_transactions(), 7);
        let p0 = drain(db.partition(0));
        let p1 = drain(db.partition(1));
        assert_eq!(p0.len(), 4);
        assert_eq!(p1.len(), 3);
        let mut all: Vec<_> = p0.into_iter().chain(p1).collect();
        all.sort();
        let mut want = txns;
        want.sort();
        assert_eq!(all, want);
        assert!(db.total_bytes_read() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(PartitionedDatabase::build_in_memory(0, std::iter::empty()).is_err());
    }
}
