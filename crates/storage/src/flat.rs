//! Flat, bulk-loaded partitions: all transactions in two contiguous arrays.
//!
//! A mining run scans each partition once *per pass per fragment*, so
//! per-transaction overhead multiplies. [`FlatPartition`] stores the whole
//! partition as one offsets array plus one items array — a scan is a pure
//! cursor walk handing out borrowed slices: no decoding, no copying, no
//! allocator traffic, and the items of consecutive transactions are
//! adjacent in cache.
//!
//! `bytes_read` is priced in *record-equivalent* bytes — a `u32` length
//! prefix plus one `u32` per item, what a node streaming transaction
//! records off its local disk would read — so the simulated I/O ledger,
//! and with it every modeled cost, does not depend on the layout.
//!
//! The serialized form (`GFP2`) is the same two arrays behind a small
//! header, sealed by the workspace's trailing checksum and written through
//! a temp file + rename (`gar_types::bytes`). Loading verifies the seal
//! and checks the header's counts against the body's length before they
//! size anything. (Scans are zero-copy; [`FlatPartition::open`] is not —
//! it owns two `Vec`s.)

use gar_types::bytes::{read_sealed, seal, write_atomic, Cursor};
use gar_types::{Error, ItemId, Result};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one transaction of `len` items costs on the I/O ledger: a `u32`
/// length prefix plus one `u32` per item, the record a node would stream
/// off its local disk. Every `bytes_read`/`size_bytes` in the workspace
/// (and so every modeled second) is priced in it.
#[inline]
pub(crate) fn encoded_len(len: usize) -> u64 {
    4 + 4 * len as u64
}

/// Magic prefix of the serialized form: "GFP" + format version 2 (version
/// 1 was the same layout without the trailing checksum).
const MAGIC: [u8; 4] = *b"GFP2";
const WHAT: &str = "flat partition";

/// A node partition stored as flat offsets + items arrays. Scans lend
/// borrowed slices directly out of the items array.
#[derive(Debug)]
pub struct FlatPartition {
    /// `num_transactions + 1` monotone offsets into `items`.
    offsets: Vec<u32>,
    items: Vec<ItemId>,
    /// Equivalent encoded size (see module docs).
    bytes: u64,
    bytes_read: AtomicU64,
}

impl Default for FlatPartition {
    fn default() -> FlatPartition {
        FlatPartition {
            offsets: vec![0],
            items: Vec::new(),
            bytes: 0,
            bytes_read: AtomicU64::new(0),
        }
    }
}

impl FlatPartition {
    /// An empty partition, ready for [`FlatPartition::push`].
    pub fn new() -> FlatPartition {
        FlatPartition::default()
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
        self.bytes += encoded_len(t.len());
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

    /// The partitions `parts` back to back, in order, as one partition
    /// with a fresh `bytes_read` tally: what a node scans after adopting
    /// a failed peer's partitions, or a sequential miner reading a whole
    /// dataset. Each part's tally advances by one full scan.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a FlatPartition>) -> FlatPartition {
        let mut p = FlatPartition::new();
        for part in parts {
            (0..part.num_transactions()).for_each(|i| p.push(part.get(i)));
            // relaxed: monotonic I/O tally; see bytes_read().
            part.bytes_read.fetch_add(part.bytes, Ordering::Relaxed);
        }
        p
    }

    /// A copy of `src`: `concat([src])`. Never fails; the `Result` is kept
    /// for the `benchmark/` harness's call sites.
    pub fn from_source(src: &FlatPartition) -> Result<FlatPartition> {
        Ok(FlatPartition::concat([src]))
    }

    /// Number of transactions in this partition.
    pub fn num_transactions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Record-equivalent size of the partition in bytes (see module
    /// docs); one full scan reads exactly this.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total bytes read from this partition so far, across all scans, in
    /// record-equivalent bytes — NPGM's fragment-rescan cost shows up
    /// here.
    pub fn bytes_read(&self) -> u64 {
        // relaxed: monotonic I/O tally read for reporting only; scans
        // and readers are never ordered against each other.
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Starts a fresh scan from the first transaction. Never fails; the
    /// `Result` is kept for the `benchmark/` harness's call sites.
    pub fn scan(&self) -> Result<FlatScan<'_>> {
        Ok(FlatScan {
            part: self,
            next: 0,
        })
    }

    /// The `i`-th transaction.
    pub fn get(&self, i: usize) -> &[ItemId] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Writes the `GFP2` serialized form: header (magic, transaction
    /// count, item count), the offsets array, the items array — all
    /// little-endian `u32` — and the trailing checksum.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut body = Vec::with_capacity(12 + 4 * (self.offsets.len() + self.items.len()) + 8);
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&(self.num_transactions() as u32).to_le_bytes());
        body.extend_from_slice(&(self.items.len() as u32).to_le_bytes());
        for off in &self.offsets {
            body.extend_from_slice(&off.to_le_bytes());
        }
        for it in &self.items {
            body.extend_from_slice(&it.raw().to_le_bytes());
        }
        write_atomic(path.as_ref(), &seal(body), false)
    }

    /// Loads a `GFP2` file. The seal is verified first; each array's
    /// bytes are then claimed from the body before its count sizes an
    /// allocation, and nothing may be left over.
    pub fn open(path: impl AsRef<Path>) -> Result<FlatPartition> {
        let body = read_sealed(path.as_ref(), WHAT, b"GFP1")?;
        let mut c = Cursor::new(&body, WHAT, Error::Corrupt);
        if c.take(4)? != MAGIC {
            return Err(c.error("has a bad magic (not a GFP2 file)"));
        }
        let ntx = c.u32()? as usize;
        let nitems = c.u32()? as usize;
        let offsets: Vec<u32> = c.u32s(ntx + 1)?.collect();
        let items: Vec<ItemId> = c.u32s(nitems)?.map(ItemId).collect();
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&(nitems as u32))
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(c.error("has a non-monotone offsets array"));
        }
        c.finish()?;
        Ok(FlatPartition {
            offsets,
            items,
            bytes: (4 * ntx + 4 * nitems) as u64,
            bytes_read: AtomicU64::new(0),
        })
    }
}

/// One streaming pass over a [`FlatPartition`]: a cursor lending
/// borrowed slices straight out of the items array, so the pass loop
/// touches no allocator.
pub struct FlatScan<'a> {
    part: &'a FlatPartition,
    next: usize,
}

impl<'a> FlatScan<'a> {
    /// Borrows the next transaction and charges it to the partition's
    /// `bytes_read`. Returns `Ok(None)` at the end of the partition.
    /// Never fails; the `Result` is kept for the `benchmark/` harness's
    /// call sites.
    pub fn next_slice(&mut self) -> Result<Option<&'a [ItemId]>> {
        if self.next >= self.part.num_transactions() {
            return Ok(None);
        }
        let t = self.part.get(self.next);
        self.part
            .bytes_read
            // relaxed: monotonic I/O tally; see bytes_read().
            .fetch_add(encoded_len(t.len()), Ordering::Relaxed);
        self.next += 1;
        Ok(Some(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gar-flat-test-{}-{}", std::process::id(), name));
        p
    }

    /// Opens a hand-built body behind a *valid* seal, so the structural
    /// checks are what answers, not the checksum.
    fn open_sealed(name: &str, body: Vec<u8>) -> Result<FlatPartition> {
        let path = tmp(name);
        std::fs::write(&path, seal(body)).unwrap();
        let res = FlatPartition::open(&path);
        std::fs::remove_file(&path).ok();
        res
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
        // A partition re-opened from disk charges the I/O ledger exactly
        // what the in-memory partition it was written from charges: a
        // length prefix and four bytes per item, per scan.
        let path = tmp("ledger.gfp");
        let mem = FlatPartition::from_transactions([ids(&[1, 2, 3]), ids(&[7])]);
        assert_eq!(mem.size_bytes(), 16 + 8);
        mem.write_to(&path).unwrap();
        let disk = FlatPartition::open(&path).unwrap();
        assert_eq!(disk.size_bytes(), mem.size_bytes());
        assert_eq!((mem.bytes_read(), disk.bytes_read()), (0, 0));
        let mut ds = disk.scan().unwrap();
        let mut ms = mem.scan().unwrap();
        while ds.next_slice().unwrap().is_some() {}
        while ms.next_slice().unwrap().is_some() {}
        assert_eq!(disk.bytes_read(), mem.bytes_read());
        assert_eq!(disk.bytes_read(), disk.size_bytes());
        // Rescans of the re-opened partition accumulate.
        for _ in 0..2 {
            let mut scan = disk.scan().unwrap();
            while scan.next_slice().unwrap().is_some() {}
        }
        assert_eq!(disk.bytes_read(), 3 * disk.size_bytes());
        std::fs::remove_file(&path).ok();
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
        let mut scan = re.scan().unwrap();
        for t in &txns {
            assert_eq!(scan.next_slice().unwrap(), Some(&t[..]));
        }
        assert_eq!(scan.next_slice().unwrap(), None);
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(re.get(i), &t[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = open_sealed("badmagic.gfp", b"NOPE\0\0\0\0\0\0\0\0".to_vec()).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("bad magic")),
            "{err}"
        );
        // A version-1 file (same layout, no seal) is named as such.
        let path = tmp("gfp1.gfp");
        std::fs::write(&path, b"GFP1\0\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        let err = FlatPartition::open(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported flat partition version")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let path = tmp("trunc.gfp");
        let p = FlatPartition::from_transactions([ids(&[1, 2, 3]), ids(&[]), ids(&[7])]);
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
        // A correctly sealed 12-byte body claiming 4 G items: must be
        // refused from the body length alone, not after asking the
        // allocator for 16 GiB.
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = open_sealed("hugeitems.gfp", body.clone()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        body[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = open_sealed("hugetxns.gfp", body).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trailing.gfp");
        FlatPartition::from_transactions([ids(&[4])])
            .write_to(&path)
            .unwrap();
        let mut body = read_sealed(&path, WHAT, b"GFP1").unwrap();
        std::fs::remove_file(&path).ok();
        // One byte more than the header accounts for, inside a valid seal.
        body.push(0);
        let err = open_sealed("trailing2.gfp", body).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn from_source_copies_any_partition() {
        // `concat` lays its parts back to back, in order, skipping empty
        // ones; `from_source` is the one-part case.
        let a = FlatPartition::from_transactions([ids(&[1]), ids(&[2, 3])]);
        let empty = FlatPartition::new();
        let b = FlatPartition::from_transactions([ids(&[4])]);
        let both = FlatPartition::concat([&a, &empty, &b]);
        assert_eq!(both.num_transactions(), 3);
        assert_eq!(both.get(1), &ids(&[2, 3])[..]);
        assert_eq!(both.get(2), &ids(&[4])[..]);
        assert_eq!(both.size_bytes(), a.size_bytes() + b.size_bytes());
        // Each part's tally advances by one full scan; the copy's starts
        // fresh and rescans accumulate as on any partition.
        assert_eq!(a.bytes_read(), a.size_bytes());
        assert_eq!(both.bytes_read(), 0);
        for _ in 0..2 {
            let mut scan = both.scan().unwrap();
            while scan.next_slice().unwrap().is_some() {}
        }
        assert_eq!(both.bytes_read(), 2 * both.size_bytes());
        let copy = FlatPartition::from_source(&b).unwrap();
        assert_eq!(copy.get(0), b.get(0));
        assert_eq!(b.bytes_read(), 2 * b.size_bytes());
        assert_eq!(FlatPartition::concat([]).num_transactions(), 0);
    }
}
