//! The transaction database substrate.
//!
//! The paper's SP-2 nodes each own a 2 GB local disk holding their share of
//! the (horizontally partitioned) transaction file; "the transaction data is
//! evenly spread over the local disks of all the nodes", and a node only
//! ever scans its partition start to finish. This crate reproduces that
//! layout with one partition representation in three modules:
//!
//! * [`FlatPartition`] (`flat`) — one offsets array + one items array,
//!   the same struct in memory and (as a sealed `GFP2` file) on disk;
//!   scans lend borrowed slices, and cumulative read bytes are tallied
//!   because NPGM's defining cost is *re-scanning* a partition once per
//!   candidate fragment;
//! * [`MultiSource`] (`multi`) — several partitions scanned back to back
//!   as one (a survivor adopting an orphan, a sequential miner reading a
//!   whole dataset directory);
//! * [`PartitionedDatabase`] (`database`) — splits a transaction stream
//!   round-robin across `N` node partitions, as the evaluation section
//!   prescribes.

// A panic here must become a typed error, not a dead node or handler
// thread (DESIGN.md §11); test code is exempt via clippy.toml.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod database;
mod flat;
mod multi;

pub use database::PartitionedDatabase;
pub use flat::FlatPartition;
pub use multi::MultiSource;

use gar_types::{ItemId, Result};

/// A node-local slice of the transaction database (`D^n` in the paper's
/// notation): something that can be scanned start-to-finish, repeatedly.
pub trait TransactionSource: Send + Sync {
    /// Number of transactions in this partition.
    fn num_transactions(&self) -> usize;

    /// Starts a fresh scan. Each call rewinds to the first transaction.
    fn scan(&self) -> Result<Box<dyn TransactionScan + '_>>;

    /// Total bytes read from this partition so far, across all scans, in
    /// record-equivalent bytes (see [`FlatPartition`]) — NPGM's
    /// fragment-rescan cost shows up here.
    fn bytes_read(&self) -> u64;

    /// Record-equivalent size of the partition in bytes; one full scan
    /// reads exactly this.
    fn size_bytes(&self) -> u64;
}

/// A streaming pass over one partition.
///
/// The primary interface is the lending `next_slice`: a partition hands
/// out borrowed slices with zero copying, so the pass loop touches no
/// allocator. `next_into` is the copying convenience for callers that
/// need to keep the transaction across iterations.
pub trait TransactionScan {
    /// Borrows the next transaction; the slice is valid until the next
    /// call on this scan. Returns `Ok(None)` on a clean end-of-partition.
    fn next_slice(&mut self) -> Result<Option<&[ItemId]>>;

    /// Reads the next transaction into `buf` (cleared first). Returns
    /// `Ok(false)` on a clean end-of-partition.
    fn next_into(&mut self, buf: &mut Vec<ItemId>) -> Result<bool> {
        buf.clear();
        match self.next_slice()? {
            Some(t) => {
                buf.extend_from_slice(t);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod testutil {
    use crate::TransactionSource;
    use gar_types::ItemId;

    pub fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    pub fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gar-storage-test-{}-{name}", std::process::id()))
    }

    /// One full scan through the copying `next_into` interface.
    pub fn drain(p: &dyn TransactionSource) -> Vec<Vec<ItemId>> {
        let mut scan = p.scan().unwrap();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while scan.next_into(&mut buf).unwrap() {
            out.push(buf.clone());
        }
        out
    }
}

/// The byte-level contract of a partition: what the ledger charges and
/// what `GFP2` puts on disk.
#[cfg(test)]
mod codec {
    mod tests {
        use crate::flat::encoded_len;
        use crate::testutil::{drain, ids, tmp};
        use crate::{FlatPartition, TransactionSource};
        use gar_types::Error;

        #[test]
        fn encoded_len_matches_reality() {
            for n in [0usize, 1, 7, 100] {
                let txn = ids(&(0..n as u32).collect::<Vec<_>>());
                let p = FlatPartition::from_transactions([&txn, &txn]);
                assert_eq!(encoded_len(n), 4 + 4 * n as u64);
                assert_eq!(p.size_bytes(), 2 * encoded_len(n));
                drain(&p);
                assert_eq!(
                    p.bytes_read(),
                    2 * encoded_len(n),
                    "one scan reads the size"
                );
            }
        }

        #[test]
        fn round_trip_single_record() {
            // The GFP2 layout, byte for byte: magic, transaction count,
            // item count, offsets, items, then the 8-byte seal.
            let path = tmp("codec-single");
            let txn = ids(&[1, 5, 9, 200]);
            FlatPartition::from_transactions([&txn])
                .write_to(&path)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let mut want = b"GFP2".to_vec();
            for word in [1u32, 4, 0, 4, 1, 5, 9, 200] {
                want.extend_from_slice(&word.to_le_bytes());
            }
            assert_eq!(bytes[..bytes.len() - 8], want[..]);
            assert_eq!(drain(&FlatPartition::open(&path).unwrap()), vec![txn]);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn round_trip_many_records_including_empty() {
            let path = tmp("codec-many");
            let txns = vec![ids(&[3]), ids(&[]), ids(&[1, 2, 3, 4, 5])];
            FlatPartition::from_transactions(&txns)
                .write_to(&path)
                .unwrap();
            assert_eq!(drain(&FlatPartition::open(&path).unwrap()), txns);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn truncated_prefix_is_corrupt() {
            let path = tmp("codec-prefix");
            FlatPartition::from_transactions([ids(&[1, 2, 3])])
                .write_to(&path)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..6]).unwrap(); // mid-header
            let err = FlatPartition::open(&path).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn truncated_body_is_corrupt() {
            let path = tmp("codec-body");
            FlatPartition::from_transactions([ids(&[1, 2, 3])])
                .write_to(&path)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap(); // mid-items
            let err = FlatPartition::open(&path).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
            std::fs::remove_file(&path).ok();
        }
    }

    mod proptests {
        use crate::testutil::{drain, tmp};
        use crate::FlatPartition;
        use gar_types::ItemId;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_batches_round_trip(
                txns in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..10_000, 0..40), 0..50)
            ) {
                let txns: Vec<Vec<ItemId>> = txns.into_iter()
                    .map(|s| s.into_iter().map(ItemId).collect())
                    .collect();
                let path = tmp("codec-prop");
                FlatPartition::from_transactions(&txns).write_to(&path).unwrap();
                let got = drain(&FlatPartition::open(&path).unwrap());
                std::fs::remove_file(&path).ok();
                prop_assert_eq!(got, txns);
            }
        }
    }
}

/// The in-memory life of a partition: built by `push`, scanned in place.
#[cfg(test)]
mod memory {
    mod tests {
        use crate::testutil::{drain, ids, tmp};
        use crate::{FlatPartition, TransactionSource};

        #[test]
        fn scan_round_trips() {
            let txns = vec![ids(&[1, 2]), ids(&[5])];
            let p = FlatPartition::from_transactions(&txns);
            assert_eq!(p.num_transactions(), 2);
            assert_eq!(drain(&p), txns);
        }

        #[test]
        fn bytes_read_mirrors_disk_accounting() {
            let path = tmp("mem-ledger");
            let mem = FlatPartition::from_transactions([ids(&[1, 2, 3])]);
            assert_eq!(mem.bytes_read(), 0);
            drain(&mem);
            assert_eq!(mem.bytes_read(), mem.size_bytes());
            assert_eq!(mem.size_bytes(), 16, "length prefix + three items");
            mem.write_to(&path).unwrap();
            let disk = FlatPartition::open(&path).unwrap();
            drain(&disk);
            assert_eq!(disk.bytes_read(), mem.bytes_read());
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn empty_partition_scans_cleanly() {
            let path = tmp("mem-empty");
            let p = FlatPartition::new();
            assert!(drain(&p).is_empty());
            assert_eq!(p.size_bytes(), 0);
            p.write_to(&path).unwrap();
            let re = FlatPartition::open(&path).unwrap();
            assert_eq!(re.num_transactions(), 0);
            assert!(drain(&re).is_empty());
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The on-disk life of a partition: written once, re-opened, re-scanned.
#[cfg(test)]
mod partition {
    mod tests {
        use crate::testutil::{drain, ids, tmp};
        use crate::{FlatPartition, TransactionSource};
        use gar_types::bytes::seal;
        use gar_types::Error;

        fn reopened(name: &str, txns: &[Vec<gar_types::ItemId>]) -> FlatPartition {
            let path = tmp(name);
            FlatPartition::from_transactions(txns)
                .write_to(&path)
                .unwrap();
            let p = FlatPartition::open(&path).unwrap();
            std::fs::remove_file(&path).ok();
            p
        }

        #[test]
        fn write_then_scan_round_trips() {
            let txns = vec![ids(&[1, 2]), ids(&[7]), ids(&[3, 4, 5])];
            let p = reopened("disk-roundtrip", &txns);
            assert_eq!(p.num_transactions(), 3);
            assert_eq!(drain(&p), txns);
            assert_eq!(p.bytes_read(), p.size_bytes());
        }

        #[test]
        fn repeated_scans_accumulate_bytes_read() {
            let txns: Vec<_> = (0..10u32).map(|i| ids(&[i, i + 100])).collect();
            let p = reopened("disk-rescan", &txns);
            for _ in 0..3 {
                drain(&p);
            }
            assert_eq!(p.bytes_read(), 3 * p.size_bytes());
        }

        #[test]
        fn open_recounts_records() {
            let txns: Vec<_> = (0..5u32).map(|i| ids(&[i])).collect();
            let written = FlatPartition::from_transactions(&txns);
            let p = reopened("disk-open", &txns);
            assert_eq!(p.num_transactions(), 5);
            assert_eq!(p.size_bytes(), written.size_bytes());
        }

        #[test]
        fn open_missing_file_fails_with_context() {
            let err = FlatPartition::open("/nonexistent/gar-part").unwrap_err();
            assert!(matches!(err, Error::Io { .. }), "{err:?}");
            let msg = err.to_string();
            assert!(
                msg.contains("reading flat partition /nonexistent/gar-part"),
                "{msg}"
            );
        }

        #[test]
        fn corrupt_file_detected_on_open() {
            // A correctly sealed file whose header claims 5 items but
            // holds one: the counts are held against the body first.
            let path = tmp("disk-corrupt");
            let mut body = b"GFP2".to_vec();
            for word in [1u32, 5, 0, 5, 1] {
                body.extend_from_slice(&word.to_le_bytes());
            }
            std::fs::write(&path, seal(body)).unwrap();
            let err = FlatPartition::open(&path).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
            std::fs::remove_file(&path).ok();
        }
    }
}
