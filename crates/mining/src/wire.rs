//! Message encodings for the parallel algorithms.
//!
//! Everything a node ships is `u32`/`u64` little-endian, mirroring the
//! storage codec. Three message bodies exist:
//!
//! * **item lists** — the H-HPGM family ships sub-transactions (lists of
//!   item codes); 4 bytes per item, so the Table-6 byte counts mean what
//!   the paper's do ("Node 2 sends 3 items");
//! * **flat k-itemset batches** — HPGM ships generated k-itemsets; the
//!   batch is a flat run of `k·n` item codes (`k` is pass context);
//! * **counted itemset lists** — `L_k^n` fragments flowing to the
//!   coordinator and `L_k` broadcasts coming back; and their mixed-size
//!   form ([`put_sized_counted`]), which FP-Growth's projection results
//!   and its checkpoint records share.

use gar_types::bytes::Cursor;
use gar_types::{Error, ItemId, Itemset, Result};
use std::sync::Arc;

/// Encodes a plain item list (a sub-transaction).
pub fn encode_items(items: &[ItemId]) -> Arc<[u8]> {
    let mut buf = Vec::with_capacity(4 * items.len());
    push_items(&mut buf, items);
    buf.into()
}

/// Appends each item's code, `u32` little-endian.
fn push_items(buf: &mut Vec<u8>, items: &[ItemId]) {
    for it in items {
        buf.extend_from_slice(&it.raw().to_le_bytes());
    }
}

/// Copies the filled bytes of a warm batch buffer into one exact-size
/// payload and clears the buffer, keeping its capacity for the next
/// fill.
fn take_warm(buf: &mut Vec<u8>) -> Arc<[u8]> {
    let payload = Arc::from(buf.as_slice());
    buf.clear();
    payload
}

/// Decodes a plain item list into `out` (cleared first).
pub fn decode_items(payload: &[u8], out: &mut Vec<ItemId>) -> Result<()> {
    if !payload.len().is_multiple_of(4) {
        return Err(Error::Corrupt(format!(
            "item list payload of {} bytes is not a multiple of 4",
            payload.len()
        )));
    }
    let mut c = Cursor::new(payload, "item list", Error::Corrupt);
    out.clear();
    out.extend(c.u32s(payload.len() / 4)?.map(ItemId));
    Ok(())
}

/// An append-only batch of length-prefixed item lists (sub-transactions),
/// flushed as one message. The H-HPGM family sends a handful of items per
/// transaction per owner; without batching, per-message latency would
/// dwarf the byte savings the algorithm exists for.
pub struct ItemListBatch {
    buf: Vec<u8>,
    lists: usize,
}

impl Default for ItemListBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl ItemListBatch {
    /// An empty batch, pre-sized for the standard flush threshold (the
    /// senders flush at 16 KiB, so the first fill never regrows).
    pub fn new() -> ItemListBatch {
        ItemListBatch {
            buf: Vec::with_capacity(17 * 1024),
            lists: 0,
        }
    }

    /// Appends one item list (framed with a `u32` count).
    pub fn push(&mut self, items: &[ItemId]) {
        self.buf
            .extend_from_slice(&(items.len() as u32).to_le_bytes());
        push_items(&mut self.buf, items);
        self.lists += 1;
    }

    /// Number of lists queued.
    pub fn len(&self) -> usize {
        self.lists
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lists == 0
    }

    /// Current payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Takes the queued payload, leaving the batch empty (and its
    /// buffer warm).
    pub fn take(&mut self) -> Arc<[u8]> {
        self.lists = 0;
        take_warm(&mut self.buf)
    }
}

/// Iterates the item lists of a framed batch payload. The scratch buffer
/// is reused across lists.
pub fn for_each_item_list(
    payload: &[u8],
    scratch: &mut Vec<ItemId>,
    mut f: impl FnMut(&[ItemId]) -> Result<()>,
) -> Result<()> {
    let mut c = Cursor::new(payload, "item-list batch", Error::Corrupt);
    while c.remaining() > 0 {
        let n = c.u32()? as usize;
        scratch.clear();
        scratch.extend(c.u32s(n)?.map(ItemId));
        f(scratch)?;
    }
    Ok(())
}

/// An append-only batch of k-itemsets, flushed as one message (HPGM ships
/// millions of tiny itemsets; batching is what makes per-message latency
/// survivable — the real SP-2 code did the same).
pub struct ItemsetBatch {
    k: usize,
    buf: Vec<u8>,
}

impl ItemsetBatch {
    /// An empty batch of k-itemsets, pre-sized for the standard flush
    /// threshold (the senders flush at 16 KiB, so the first fill never
    /// regrows).
    pub fn new(k: usize) -> ItemsetBatch {
        ItemsetBatch {
            k,
            buf: Vec::with_capacity(17 * 1024),
        }
    }

    /// Appends one sorted k-itemset.
    pub fn push(&mut self, itemset: &[ItemId]) {
        debug_assert_eq!(itemset.len(), self.k);
        push_items(&mut self.buf, itemset);
    }

    /// Number of itemsets queued.
    pub fn len(&self) -> usize {
        self.buf.len() / (4 * self.k)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Takes the queued payload, leaving the batch empty (and its
    /// buffer warm).
    pub fn take(&mut self) -> Arc<[u8]> {
        take_warm(&mut self.buf)
    }
}

/// Decodes a flat batch payload into `out` (cleared first): its
/// k-itemsets back to back, `k` items each. A payload that is not whole
/// k-itemsets, or `k = 0`, is `Error::Corrupt`.
pub fn decode_itemsets(payload: &[u8], k: usize, out: &mut Vec<ItemId>) -> Result<()> {
    let stride = 4 * k;
    if stride == 0 || !payload.len().is_multiple_of(stride) {
        return Err(Error::Corrupt(format!(
            "batch payload of {} bytes is not a multiple of {stride}",
            payload.len()
        )));
    }
    decode_items(payload, out)
}

/// Iterates the k-itemsets of a flat batch payload, passing each to `f`.
pub fn for_each_itemset(
    payload: &[u8],
    k: usize,
    mut f: impl FnMut(&[ItemId]) -> Result<()>,
) -> Result<()> {
    let mut items = Vec::new();
    decode_itemsets(payload, k, &mut items)?;
    items.chunks_exact(k).try_for_each(&mut f)
}

/// Encodes counted itemsets (an `L_k^n` fragment or the full `L_k`).
/// Layout: `u32 n, u32 k`, then `n` records of `k` item codes + `u64`
/// count. `k = 0` with item-count-prefixed records is not needed — all
/// itemsets in one message share their size.
pub fn encode_counted(k: usize, itemsets: &[(Itemset, u64)]) -> Arc<[u8]> {
    let mut buf = Vec::with_capacity(8 + itemsets.len() * (4 * k + 8));
    buf.extend_from_slice(&(itemsets.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(k as u32).to_le_bytes());
    for (set, count) in itemsets {
        debug_assert_eq!(set.len(), k);
        push_items(&mut buf, set.items());
        buf.extend_from_slice(&count.to_le_bytes());
    }
    buf.into()
}

/// Decodes a counted itemset list.
pub fn decode_counted(payload: &[u8]) -> Result<Vec<(Itemset, u64)>> {
    let mut c = Cursor::new(payload, "counted list", Error::Corrupt);
    let n = c.u32()? as usize;
    let k = c.u32()? as usize;
    // The body must be exactly `n` records, which also bounds `n` by
    // the bytes present before it sizes the output.
    if n.checked_mul(4 * k + 8) != Some(c.remaining()) {
        return Err(c.error(format_args!(
            "body is {} bytes, not {n} records of {k} items",
            c.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let items: Vec<ItemId> = c.u32s(k)?.map(ItemId).collect();
        // Validate the canonical-itemset invariant rather than trusting
        // the wire: a corrupted or adversarial payload must surface as an
        // error, never as a malformed Itemset.
        if !items.iter().zip(items.iter().skip(1)).all(|(a, b)| a < b) {
            return Err(c.error("record is not a strictly increasing itemset"));
        }
        out.push((Itemset::from_sorted(items), c.u64()?));
    }
    Ok(out)
}

/// Appends counted itemsets of mixed sizes: `u32 n`, then `n` records
/// of `u32` length, that many item codes and a `u64` count.
pub fn put_sized_counted(buf: &mut Vec<u8>, itemsets: &[(Itemset, u64)]) {
    buf.extend_from_slice(&(itemsets.len() as u32).to_le_bytes());
    for (set, count) in itemsets {
        buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
        push_items(buf, set.items());
        buf.extend_from_slice(&count.to_le_bytes());
    }
}

/// Reads a [`put_sized_counted`] list from the caller's cursor, so damage
/// is the error the caller's format raises (a frame's `Protocol`, a
/// file's `Corrupt`). A record that is empty or not strictly increasing
/// is damage too, never silently canonicalized.
pub fn read_sized_counted(c: &mut Cursor<'_>) -> Result<Vec<(Itemset, u64)>> {
    let n = c.u32()? as usize;
    if n > c.remaining() {
        return Err(c.error("has an implausible record count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32()? as usize;
        let items: Vec<ItemId> = c.u32s(len)?.map(ItemId).collect();
        if items.is_empty() || !items.iter().zip(items.iter().skip(1)).all(|(a, b)| a < b) {
            return Err(
                c.error("holds a record that is not a non-empty, strictly increasing itemset")
            );
        }
        out.push((Itemset::from_sorted(items), c.u64()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn items_round_trip() {
        let items = ids(&[5, 6, 10]);
        let b = encode_items(&items);
        assert_eq!(b.len(), 12); // "Node 2 sends 3 items" = 12 bytes
        let mut out = Vec::new();
        decode_items(&b, &mut out).unwrap();
        assert_eq!(out, items);
    }

    #[test]
    fn items_reject_ragged_payload() {
        let mut out = Vec::new();
        assert!(decode_items(&[1, 2, 3], &mut out).is_err());
    }

    #[test]
    fn item_list_batch_round_trip() {
        let mut b = ItemListBatch::new();
        assert!(b.is_empty());
        b.push(&ids(&[5, 6, 10]));
        b.push(&ids(&[]));
        b.push(&ids(&[7]));
        assert_eq!(b.len(), 3);
        assert_eq!(b.byte_len(), 28); // 3 u32 headers + 4 u32 items
        let payload = b.take();
        assert!(b.is_empty());
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        for_each_item_list(&payload, &mut scratch, |l| {
            got.push(l.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![ids(&[5, 6, 10]), ids(&[]), ids(&[7])]);
    }

    #[test]
    fn item_list_batch_rejects_truncation() {
        let mut b = ItemListBatch::new();
        b.push(&ids(&[1, 2]));
        let payload = b.take();
        let mut scratch = Vec::new();
        assert!(
            for_each_item_list(&payload[..payload.len() - 1], &mut scratch, |_| Ok(())).is_err()
        );
        assert!(for_each_item_list(&payload[..2], &mut scratch, |_| Ok(())).is_err());
    }

    #[test]
    fn batch_round_trip() {
        let mut b = ItemsetBatch::new(2);
        assert!(b.is_empty());
        b.push(&ids(&[1, 2]));
        b.push(&ids(&[3, 15]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.byte_len(), 16);
        let payload = b.take();
        assert!(b.is_empty());
        let mut got = Vec::new();
        for_each_itemset(&payload, 2, |s| {
            got.push(s.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![ids(&[1, 2]), ids(&[3, 15])]);
    }

    fn le_words(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn take_leaves_the_batch_empty_and_reusable() {
        // Each flush hands out only what was pushed since the last one.
        let mut sets = ItemsetBatch::new(2);
        sets.push(&ids(&[1, 2]));
        let first = sets.take();
        assert!(sets.is_empty());
        assert_eq!(sets.byte_len(), 0);
        sets.push(&ids(&[3, 15]));
        let second = sets.take();
        assert_eq!(&first[..], le_words(&[1, 2]));
        assert_eq!(&second[..], le_words(&[3, 15]));

        let mut lists = ItemListBatch::new();
        lists.push(&ids(&[5, 6]));
        let first = lists.take();
        assert!(lists.is_empty());
        assert_eq!(lists.byte_len(), 0);
        lists.push(&ids(&[7]));
        let second = lists.take();
        assert_eq!(&first[..], le_words(&[2, 5, 6]));
        assert_eq!(&second[..], le_words(&[1, 7]));
    }

    #[test]
    fn take_keeps_the_warm_buffer() {
        // A flush hands out exactly the pushed bytes and leaves the batch
        // empty with its capacity intact, so every fill after the first
        // writes into the same allocation.
        let mut sets = ItemsetBatch::new(2);
        sets.push(&ids(&[1, 2]));
        sets.push(&ids(&[3, 15]));
        let cap = sets.buf.capacity();
        let payload = sets.take();
        assert_eq!(&payload[..], le_words(&[1, 2, 3, 15]));
        assert!(sets.is_empty());
        assert_eq!(sets.buf.capacity(), cap);

        let mut lists = ItemListBatch::new();
        lists.push(&ids(&[5, 6]));
        lists.push(&ids(&[7]));
        let cap = lists.buf.capacity();
        let payload = lists.take();
        assert_eq!(&payload[..], le_words(&[2, 5, 6, 1, 7]));
        assert!(lists.is_empty());
        assert_eq!(lists.byte_len(), 0);
        assert_eq!(lists.buf.capacity(), cap);
    }

    #[test]
    fn batch_rejects_ragged_payload() {
        let res = for_each_itemset(&[0u8; 12], 2, |_| Ok(()));
        assert!(res.is_err());
    }

    #[test]
    fn decode_itemsets_is_the_batch_or_corrupt() {
        let mut b = ItemsetBatch::new(3);
        b.push(&ids(&[1, 2, 3]));
        b.push(&ids(&[1, 2, 9]));
        let payload = b.take();
        let mut out = ids(&[77]);
        decode_itemsets(&payload, 3, &mut out).unwrap();
        assert_eq!(out, ids(&[1, 2, 3, 1, 2, 9]));
        decode_itemsets(&[], 3, &mut out).unwrap();
        assert!(out.is_empty());
        // Ragged: whole items but not whole itemsets, and a torn item.
        for ragged in [&payload[..16], &payload[..23]] {
            let err = decode_itemsets(ragged, 3, &mut out).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        }
        // Empty stride: k = 0 frames nothing, even an empty payload.
        for payload in [&payload[..], &[][..]] {
            let err = decode_itemsets(payload, 0, &mut out).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn counted_round_trip() {
        let sets = vec![(iset![1, 2], 42u64), (iset![3, 15], 7)];
        let b = encode_counted(2, &sets);
        assert_eq!(decode_counted(&b).unwrap(), sets);
    }

    #[test]
    fn counted_empty_list() {
        let b = encode_counted(3, &[]);
        assert_eq!(decode_counted(&b).unwrap(), Vec::new());
    }

    #[test]
    fn counted_rejects_truncation() {
        let sets = vec![(iset![1, 2], 42u64)];
        let b = encode_counted(2, &sets);
        assert!(decode_counted(&b[..b.len() - 1]).is_err());
        assert!(decode_counted(&b[..4]).is_err());
    }
}
