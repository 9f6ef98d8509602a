//! The transaction database substrate.
//!
//! The paper's SP-2 nodes each own a 2 GB local disk holding their share of
//! the (horizontally partitioned) transaction file; "the transaction data is
//! evenly spread over the local disks of all the nodes", and a node only
//! ever scans its partition start to finish. This crate reproduces that
//! layout with one partition type, [`FlatPartition`], the workspace's
//! only transaction source; no trait stands in front of it.
//!
//! * [`FlatPartition`] (`flat`) — one offsets array + one items array,
//!   the same struct in memory and (as a sealed `GFP2` file) on disk;
//!   a [`FlatScan`] lends borrowed slices, and cumulative read bytes are
//!   tallied because NPGM's defining cost is *re-scanning* a partition
//!   once per candidate fragment. [`FlatPartition::concat`] lays several
//!   partitions back to back as one (a survivor adopting an orphan, a
//!   sequential miner reading a whole dataset directory);
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

pub use database::PartitionedDatabase;
pub use flat::{FlatPartition, FlatScan};

#[cfg(test)]
mod testutil {
    use crate::FlatPartition;
    use gar_types::ItemId;

    pub fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    pub fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gar-storage-test-{}-{name}", std::process::id()))
    }

    /// One full scan, copied out.
    pub fn drain(p: &FlatPartition) -> Vec<Vec<ItemId>> {
        let mut scan = p.scan().unwrap();
        let mut out = Vec::new();
        while let Some(t) = scan.next_slice().unwrap() {
            out.push(t.to_vec());
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
        use crate::FlatPartition;

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
        use crate::testutil::{drain, tmp};
        use crate::FlatPartition;

        #[test]
        fn empty_partition_scans_cleanly() {
            let path = tmp("mem-empty");
            let p = FlatPartition::new();
            assert!(drain(&p).is_empty());
            assert_eq!(p.size_bytes(), 0);
            // `Default` is the same empty partition, not an offsets-less
            // one whose `num_transactions` underflows.
            assert!(drain(&FlatPartition::default()).is_empty());
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
        use crate::testutil::tmp;
        use crate::FlatPartition;
        use gar_types::bytes::seal;
        use gar_types::Error;

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
