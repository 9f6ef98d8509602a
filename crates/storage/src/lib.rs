//! The transaction database substrate.
//!
//! The paper's SP-2 nodes each own a 2 GB local disk holding their share of
//! the (horizontally partitioned) transaction file; "the transaction data is
//! evenly spread over the local disks of all the nodes". This crate
//! reproduces that layout:
//!
//! * [`codec`] — a compact length-prefixed binary record format;
//! * [`DiskPartition`] / [`PartitionWriter`] — one file per node, buffered,
//!   with cumulative read-byte accounting (NPGM's defining cost is
//!   *re-scanning* these files once per candidate fragment);
//! * [`MemoryPartition`] — an in-memory stand-in with the same interface
//!   for unit tests and allocation-free microbenches;
//! * [`FlatPartition`] — the flat representation: one offsets array +
//!   one items array, scans lend borrowed slices, with a bulk-loaded
//!   (copied into two `Vec`s, length-validated) `GFP1` serialized form;
//! * [`PartitionedDatabase`] — splits a transaction stream round-robin
//!   across `N` node partitions, as the evaluation section prescribes.
//!
//! Every scan path is infallible-fast: records stream through a reusable
//! buffer; corruption and truncation surface as [`gar_types::Error`].

pub mod codec;
mod database;
mod flat;
mod memory;
mod multi;
mod partition;

pub use database::PartitionedDatabase;
pub use flat::FlatPartition;
pub use memory::MemoryPartition;
pub use multi::MultiSource;
pub use partition::{DiskPartition, PartitionWriter, ScanIter};

use gar_types::{ItemId, Result};

/// A node-local slice of the transaction database (`D^n` in the paper's
/// notation): something that can be scanned start-to-finish, repeatedly.
pub trait TransactionSource: Send + Sync {
    /// Number of transactions in this partition.
    fn num_transactions(&self) -> usize;

    /// Starts a fresh scan. Each call rewinds to the first transaction.
    fn scan(&self) -> Result<Box<dyn TransactionScan + '_>>;

    /// Total bytes read from this partition so far, across all scans.
    /// Memory partitions report equivalent encoded bytes so NPGM's
    /// fragment-rescan cost stays visible in either mode.
    fn bytes_read(&self) -> u64;

    /// Encoded size of the partition in bytes (equivalent encoded size
    /// for in-memory representations — one full scan reads exactly this).
    fn size_bytes(&self) -> u64;
}

/// A streaming pass over one partition.
///
/// The primary interface is the lending `next_slice`: in-memory partitions
/// hand out borrowed slices with zero copying, and file-backed scans
/// borrow from one internal buffer — either way the pass loop touches no
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
