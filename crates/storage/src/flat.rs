//! Flat, bulk-loaded partitions: all transactions in two contiguous arrays.
//!
//! The record-stream formats ([`crate::DiskPartition`],
//! [`crate::MemoryPartition`]) pay per-transaction overhead on every scan:
//! a decode (disk) or a pointer chase into a separate heap allocation
//! (memory). A mining run scans each partition once *per pass per
//! fragment*, so that overhead multiplies. [`FlatPartition`] stores the
//! whole partition as one offsets array plus one items array — a scan is a
//! pure cursor walk handing out borrowed slices, no decoding, no copying,
//! no allocator traffic, and the items of consecutive transactions are
//! adjacent in cache.
//!
//! `bytes_read` reports *equivalent encoded* bytes (what the record codec
//! would have streamed), exactly like [`crate::MemoryPartition`], so the
//! simulated I/O ledger — and therefore every modeled cost — is identical
//! whichever representation backs the scan.
//!
//! The serialized form (`GFP1`) is the same two arrays prefixed with a
//! small header, so loading a partition is two bulk reads copied into
//! the arrays instead of a record-by-record decode. (Scans are
//! zero-copy; [`FlatPartition::open`] is not — it owns two `Vec`s.)

use crate::codec;
use crate::{TransactionScan, TransactionSource};
use gar_types::{Error, ItemId, Result};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic prefix of the serialized form: "GFP" + format version 1.
const MAGIC: [u8; 4] = *b"GFP1";

/// A node partition stored as flat offsets + items arrays. Scans lend
/// borrowed slices directly out of the items array.
#[derive(Debug, Default)]
pub struct FlatPartition {
    /// `num_transactions + 1` monotone offsets into `items`.
    offsets: Vec<u32>,
    items: Vec<ItemId>,
    /// Equivalent encoded size (see module docs).
    bytes: u64,
    bytes_read: AtomicU64,
}

impl FlatPartition {
    /// An empty partition, ready for [`FlatPartition::push`].
    pub fn new() -> FlatPartition {
        FlatPartition {
            offsets: vec![0],
            items: Vec::new(),
            bytes: 0,
            bytes_read: AtomicU64::new(0),
        }
    }

    /// Appends one transaction (must be sorted and de-duplicated).
    pub fn push(&mut self, t: &[ItemId]) {
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]));
        self.items.extend_from_slice(t);
        debug_assert!(
            u32::try_from(self.items.len()).is_ok(),
            "partition > 4G items"
        );
        self.offsets.push(self.items.len() as u32);
        self.bytes += codec::encoded_len(t.len()) as u64;
    }

    /// Builds a partition from pre-sorted transactions.
    pub fn from_transactions<T: AsRef<[ItemId]>>(
        txns: impl IntoIterator<Item = T>,
    ) -> FlatPartition {
        let mut p = FlatPartition::new();
        for t in txns {
            p.push(t.as_ref());
        }
        p
    }

    /// Copies any [`TransactionSource`] into flat form. The source's
    /// `bytes_read` tally advances by one full scan.
    pub fn from_source(src: &dyn TransactionSource) -> Result<FlatPartition> {
        let mut p = FlatPartition::new();
        let mut scan = src.scan()?;
        while let Some(t) = scan.next_slice()? {
            p.push(t);
        }
        Ok(p)
    }

    /// Equivalent encoded size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// The `i`-th transaction.
    pub fn get(&self, i: usize) -> &[ItemId] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Writes the `GFP1` serialized form: header (magic, transaction
    /// count, item count), then the offsets array, then the items array,
    /// all little-endian u32.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| Error::io(format!("creating flat partition {}", path.display()), e))?;
        let mut w = std::io::BufWriter::new(file);
        let ctx = || format!("writing flat partition {}", path.display());
        w.write_all(&MAGIC).map_err(|e| Error::io(ctx(), e))?;
        let ntx = (self.offsets.len() - 1) as u32;
        w.write_all(&ntx.to_le_bytes())
            .map_err(|e| Error::io(ctx(), e))?;
        w.write_all(&(self.items.len() as u32).to_le_bytes())
            .map_err(|e| Error::io(ctx(), e))?;
        for off in &self.offsets {
            w.write_all(&off.to_le_bytes())
                .map_err(|e| Error::io(ctx(), e))?;
        }
        for it in &self.items {
            w.write_all(&it.raw().to_le_bytes())
                .map_err(|e| Error::io(ctx(), e))?;
        }
        w.flush().map_err(|e| Error::io(ctx(), e))
    }

    /// Loads a `GFP1` file: two bulk reads into the flat arrays. The
    /// header's counts must account for the file's exact length before
    /// they size any allocation.
    pub fn open(path: impl AsRef<Path>) -> Result<FlatPartition> {
        let path = path.as_ref();
        let io = |e| Error::io(format!("reading flat partition {}", path.display()), e);
        let corrupt = |what: &str| Error::Corrupt(format!("{} {what}", path.display()));
        let mut file = File::open(path)
            .map_err(|e| Error::io(format!("opening flat partition {}", path.display()), e))?;
        let file_len = file.metadata().map_err(io)?.len();
        let mut header = [0u8; 12];
        if file_len < header.len() as u64 {
            return Err(corrupt("is too short for a GFP1 header"));
        }
        file.read_exact(&mut header).map_err(io)?;
        if header[..4] != MAGIC {
            return Err(corrupt("is not a GFP1 flat partition"));
        }
        // lint:allow(panic-path): header is a fixed 12-byte array, so
        // the 4-byte range slices cannot fail the conversion.
        let ntx = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        // lint:allow(panic-path): same fixed-width slice as above.
        let nitems = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        // Two u32 counts cannot overflow this u64 sum.
        let expected_len = (ntx as u64 + 1 + nitems as u64) * 4 + header.len() as u64;
        if expected_len != file_len {
            return Err(corrupt(&format!(
                "is {file_len} bytes but its header describes {expected_len}"
            )));
        }
        let offsets = read_u32_array(&mut file, ntx + 1).map_err(io)?;
        let items = read_u32_array(&mut file, nitems).map_err(io)?;
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&(nitems as u32))
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(corrupt("has a non-monotone offsets array"));
        }
        let bytes = (4 * ntx + 4 * nitems) as u64;
        Ok(FlatPartition {
            offsets,
            items: items.into_iter().map(ItemId).collect(),
            bytes,
            bytes_read: AtomicU64::new(0),
        })
    }
}

/// Bulk-reads `n` little-endian u32 words (`n` already bounded by the
/// file length).
fn read_u32_array(r: &mut impl Read, n: usize) -> std::io::Result<Vec<u32>> {
    let mut raw = vec![0u8; n * 4];
    r.read_exact(&mut raw)?;
    Ok(raw
        .chunks_exact(4)
        // lint:allow(panic-path): chunks_exact(4) yields only 4-byte
        // chunks, so the conversion cannot fail.
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

impl TransactionSource for FlatPartition {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }

    fn num_transactions(&self) -> usize {
        self.offsets.len() - 1
    }

    fn scan(&self) -> Result<Box<dyn TransactionScan + '_>> {
        Ok(Box::new(FlatScan {
            part: self,
            next: 0,
        }))
    }

    fn bytes_read(&self) -> u64 {
        // relaxed: monotonic I/O tally read for reporting only; scans
        // and readers are never ordered against each other.
        self.bytes_read.load(Ordering::Relaxed)
    }
}

struct FlatScan<'a> {
    part: &'a FlatPartition,
    next: usize,
}

impl TransactionScan for FlatScan<'_> {
    fn next_slice(&mut self) -> Result<Option<&[ItemId]>> {
        if self.next >= self.part.num_transactions() {
            return Ok(None);
        }
        let t = self.part.get(self.next);
        self.part
            .bytes_read
            // relaxed: monotonic I/O tally; see bytes_read().
            .fetch_add(codec::encoded_len(t.len()) as u64, Ordering::Relaxed);
        self.next += 1;
        Ok(Some(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryPartition;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gar-flat-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn scan_round_trips_borrowed() {
        let txns = vec![ids(&[1, 2]), ids(&[]), ids(&[5, 9, 11])];
        let p = FlatPartition::from_transactions(&txns);
        assert_eq!(p.num_transactions(), 3);
        let mut scan = p.scan().unwrap();
        let mut got = Vec::new();
        while let Some(t) = scan.next_slice().unwrap() {
            got.push(t.to_vec());
        }
        assert_eq!(got, txns);
    }

    #[test]
    fn bytes_read_matches_memory_partition() {
        let txns = vec![ids(&[1, 2, 3]), ids(&[7])];
        let flat = FlatPartition::from_transactions(&txns);
        let mem = MemoryPartition::new(txns);
        assert_eq!(flat.size_bytes(), mem.size_bytes());
        let mut buf = Vec::new();
        let mut fs = flat.scan().unwrap();
        let mut ms = mem.scan().unwrap();
        while fs.next_into(&mut buf).unwrap() {}
        while ms.next_into(&mut buf).unwrap() {}
        drop((fs, ms));
        assert_eq!(flat.bytes_read(), mem.bytes_read());
        assert_eq!(flat.bytes_read(), flat.size_bytes());
    }

    #[test]
    fn file_round_trip() {
        let path = tmp("roundtrip.gfp");
        let txns = vec![ids(&[1, 2]), ids(&[]), ids(&[3, 4, 5])];
        let p = FlatPartition::from_transactions(&txns);
        p.write_to(&path).unwrap();
        let re = FlatPartition::open(&path).unwrap();
        assert_eq!(re.num_transactions(), 3);
        assert_eq!(re.size_bytes(), p.size_bytes());
        for i in 0..3 {
            assert_eq!(re.get(i), p.get(i));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic.gfp");
        std::fs::write(&path, b"NOPE\x00\x00\x00\x00\x00\x00\x00\x00").unwrap();
        let err = FlatPartition::open(&path).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let path = tmp("trunc.gfp");
        let p = FlatPartition::from_transactions(&[ids(&[1, 2, 3]), ids(&[]), ids(&[7])]);
        p.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            let err = FlatPartition::open(&path).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "truncation at {len}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_counts_never_size_an_allocation_unchecked() {
        // 12 bytes claiming 4 G items: must be refused from the file
        // length alone, not after asking the allocator for 16 GiB.
        let path = tmp("hugeheader.gfp");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = FlatPartition::open(&path).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = FlatPartition::open(&path).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trailing.gfp");
        let p = FlatPartition::from_transactions(&[ids(&[4])]);
        p.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        let err = FlatPartition::open(&path).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_source_copies_any_partition() {
        let mem = MemoryPartition::new(vec![ids(&[1]), ids(&[2, 3])]);
        let flat = FlatPartition::from_source(&mem).unwrap();
        assert_eq!(flat.num_transactions(), 2);
        assert_eq!(flat.get(1), &ids(&[2, 3])[..]);
        assert_eq!(flat.size_bytes(), mem.size_bytes());
    }
}
