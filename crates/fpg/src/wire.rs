//! Wire framing for the FP-Growth exchange phases.
//!
//! Everything travels as frequency *ranks* (`u32`), which both sides
//! derive identically from pass 1's all-reduced counts — no id remapping
//! on receive. Every decoder bounds-checks; malformed frames surface as
//! [`Error::Protocol`], never a panic.

use crate::grow::CondBase;
use gar_mining::persist::{put_passes, read_passes};
use gar_mining::report::LargePass;
use gar_mining::wire::{put_sized_counted, read_sized_counted};
use gar_types::bytes::Cursor;
use gar_types::{Error, Itemset, Result};
use std::sync::Arc;

/// Message tags of the FP-Growth phases. Distinct from the Apriori
/// family's tags so a cross-wired message is a loud protocol error.
pub(crate) mod tags {
    /// A batch of conditional-base paths flowing to a projection's owner.
    pub const PATHS: u32 = 11;
    /// One finished projection's itemsets flowing to the coordinator.
    pub const RESULT: u32 = 12;
}

/// A batch of `(projection rank, count, path)` records. Same flush
/// discipline as the Apriori family's `ItemListBatch`.
pub(crate) struct PathBatch {
    buf: Vec<u8>,
}

impl PathBatch {
    /// An empty batch, pre-sized for the 16 KiB flush threshold so the
    /// first fill never regrows (and `take()` keeps the warm buffer).
    pub fn new() -> PathBatch {
        PathBatch {
            buf: Vec::with_capacity(17 * 1024),
        }
    }

    pub fn push(&mut self, target: u32, count: u64, path: &[u32]) {
        self.buf.extend_from_slice(&target.to_le_bytes());
        self.buf.extend_from_slice(&count.to_le_bytes());
        self.buf
            .extend_from_slice(&(path.len() as u32).to_le_bytes());
        for &r in path {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
    }

    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Drains the batch into one exact-size payload, keeping the warm
    /// buffer.
    pub fn take(&mut self) -> Arc<[u8]> {
        let payload = Arc::from(self.buf.as_slice());
        self.buf.clear();
        payload
    }
}

/// A bounded cursor over an FP-Growth frame; damage is a protocol error.
fn frame(payload: &[u8]) -> Cursor<'_> {
    Cursor::new(payload, "FP-Growth frame", Error::Protocol)
}

/// Receives one [`PathBatch`] payload into the local conditional bases
/// (`bases[rank]` for every projection rank), each path decoded straight
/// into its base's arena. A sender ships only non-empty, strictly
/// ascending prefix paths of ranks below the target; growth indexes
/// per-rank tables with what a base holds, so a record that is anything
/// else is a protocol error here, before it is stored.
pub(crate) fn receive_paths(payload: &[u8], bases: &mut [CondBase]) -> Result<()> {
    let mut c = frame(payload);
    while c.remaining() > 0 {
        let target = c.u32()?;
        let count = c.u64()?;
        let len = c.u32()? as usize;
        let path = c.u32s(len)?;
        let base = bases.get_mut(target as usize).ok_or_else(|| {
            c.error(format_args!(
                "holds a path for unknown projection rank {target}"
            ))
        })?;
        if !base.push_received(path, target, count) {
            return Err(c.error(format_args!(
                "holds a path for projection rank {target} that is empty, \
                 not strictly ascending, or reaches rank {target}"
            )));
        }
    }
    Ok(())
}

/// Encodes one finished projection: its rank plus its itemsets (mixed
/// sizes, so records carry their own length).
pub(crate) fn encode_result(rank: u32, items: &[(Itemset, u64)]) -> Arc<[u8]> {
    let mut buf = rank.to_le_bytes().to_vec();
    put_sized_counted(&mut buf, items);
    buf.into()
}

/// Decodes a [`encode_result`] payload.
pub(crate) fn decode_result(payload: &[u8]) -> Result<(u32, Vec<(Itemset, u64)>)> {
    let mut c = frame(payload);
    let rank = c.u32()?;
    let items = read_sized_counted(&mut c)?;
    c.finish()?;
    Ok((rank, items))
}

/// Encodes the final pass chain for the coordinator's output broadcast
/// (`GOUT`'s pass chain, [`put_passes`]).
pub(crate) fn encode_passes(passes: &[LargePass]) -> Arc<[u8]> {
    let mut buf = Vec::new();
    put_passes(&mut buf, passes);
    buf.into()
}

/// Decodes an [`encode_passes`] payload.
pub(crate) fn decode_passes(payload: &[u8]) -> Result<Vec<LargePass>> {
    let mut c = frame(payload);
    let passes = read_passes(&mut c)?;
    c.finish()?;
    Ok(passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    #[test]
    fn path_batch_round_trips() {
        let mut b = PathBatch::new();
        b.push(7, 3, &[0, 2, 5]);
        b.push(9, 1, &[8]);
        b.push(7, 2, &[1]);
        assert!(b.byte_len() > 0);
        let payload = b.take();
        assert_eq!(b.byte_len(), 0);
        let mut got = vec![CondBase::new(); 10];
        receive_paths(&payload, &mut got).unwrap();
        assert_eq!(got[7].to_paths(), vec![(vec![0, 2, 5], 3), (vec![1], 2)]);
        assert_eq!(got[9].to_paths(), vec![(vec![8], 1)]);
        assert_eq!(got.iter().filter(|b| !b.is_empty()).count(), 2);
    }

    /// A PATHS frame is input from outside the process: a record growth
    /// could not index with is refused with the typed error, not stored.
    #[test]
    fn damaged_paths_are_a_protocol_error() {
        const NUM_LARGE: usize = 6;
        let cases: [(&str, u32, &[u32]); 6] = [
            ("target rank >= |L1|", 6, &[0]),
            ("rank >= |L1|", 5, &[0, 6]),
            ("descending ranks", 5, &[3, 1]),
            ("repeated rank", 5, &[2, 2]),
            ("rank >= target", 3, &[1, 3]),
            ("empty path", 4, &[]),
        ];
        for (what, target, path) in cases {
            let mut b = PathBatch::new();
            b.push(4, 1, &[0, 3]);
            b.push(target, 2, path);
            let mut bases = vec![CondBase::new(); NUM_LARGE];
            let err = receive_paths(&b.take(), &mut bases).unwrap_err();
            assert!(matches!(err, Error::Protocol(_)), "{what}: {err:?}");
        }
        // A frame cut inside a record is one too.
        let mut b = PathBatch::new();
        b.push(4, 1, &[0, 3]);
        let payload = b.take();
        for cut in 1..payload.len() {
            let mut bases = vec![CondBase::new(); NUM_LARGE];
            assert!(
                receive_paths(&payload[..cut], &mut bases).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn result_round_trips() {
        let items = vec![(iset![3, 1], 10), (iset![4, 1, 2], 6)];
        let (rank, back) = decode_result(&encode_result(5, &items)).unwrap();
        assert_eq!(rank, 5);
        assert_eq!(back, items);
    }

    /// A RESULT record is an itemset as sent: a record the sender could
    /// not have produced is refused, not canonicalized into another set.
    #[test]
    fn a_result_record_that_is_not_an_itemset_is_a_protocol_error() {
        for record in [&[3u32, 1][..], &[2, 2], &[]] {
            let mut payload = 5u32.to_le_bytes().to_vec();
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&(record.len() as u32).to_le_bytes());
            for r in record {
                payload.extend_from_slice(&r.to_le_bytes());
            }
            payload.extend_from_slice(&7u64.to_le_bytes());
            let err = decode_result(&payload).unwrap_err();
            assert!(matches!(err, Error::Protocol(_)), "{record:?}: {err:?}");
        }
    }

    #[test]
    fn passes_round_trip() {
        let passes = vec![
            LargePass {
                k: 1,
                itemsets: vec![(iset![0], 4), (iset![2], 3)],
            },
            LargePass {
                k: 2,
                itemsets: vec![(iset![0, 2], 3)],
            },
        ];
        let back = decode_passes(&encode_passes(&passes)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].itemsets, passes[0].itemsets);
        assert_eq!(back[1].itemsets, passes[1].itemsets);
    }

    #[test]
    fn truncation_is_a_protocol_error() {
        let payload = encode_result(1, &[(iset![1, 2], 5)]);
        for cut in 0..payload.len() {
            assert!(decode_result(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }
}
