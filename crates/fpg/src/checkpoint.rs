//! Projection-granularity checkpointing of a parallel FP-Growth run.
//!
//! The Apriori family checkpoints after each *pass*; FP-Growth has only
//! two passes but many independent projections, so its recovery unit is
//! the projection: after every finished projection reaches the
//! coordinator, the checkpoint records its itemsets, and a degraded-mode
//! rerun (or `mine --resume`) replays only the unfinished ones.
//!
//! Only the byte layout lives here; the sink, the `.prev` rotation and
//! the fallback on load are `gar_mining::checkpoint`'s, shared with the
//! Apriori family, over `gar_types::bytes`' seal and bounded cursor.
//!
//! Format (little-endian): magic `GFPC`, `u32` version, `u64` transaction
//! count, `u64` minimum-support count, the global item counts (`u32`
//! length + `u64`s), then the finished projections (`u32` count, each a
//! `u32` item id, `u32` record count, and per record a `u32` length, the
//! item ids, and a `u64` support). Projections are sorted by item id so
//! the encoding is canonical. The file name (`fpg.ckpt`) is distinct from
//! the Apriori family's `mining.ckpt`, so the two miners can share a
//! checkpoint directory without clobbering each other.

use gar_mining::checkpoint::{put_pass1_state, read_pass1_state, CheckpointFormat, WHAT};
use gar_mining::wire::{put_sized_counted, read_sized_counted};
use gar_types::bytes::Cursor;
use gar_types::{Error, ItemId, Itemset, Result};

const MAGIC: &[u8; 4] = b"GFPC";
const VERSION: u32 = 1;

/// Everything needed to resume an FP-Growth run: pass 1's global state
/// plus every projection whose result already reached the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpgCheckpoint {
    /// Global transaction count (pass 1's all-reduce).
    pub num_transactions: u64,
    /// Absolute minimum support count.
    pub min_support_count: u64,
    /// Global per-item support counts — the frequency order (and with it
    /// every rank on the wire) is a pure function of these.
    pub item_counts: Vec<u64>,
    /// Finished projections: `(projection item, its size-≥2 itemsets)`,
    /// sorted by item.
    pub completed: Vec<(ItemId, Vec<(Itemset, u64)>)>,
}

impl FpgCheckpoint {
    /// Whether `item`'s projection is already finished.
    pub fn has(&self, item: ItemId) -> bool {
        self.completed
            .binary_search_by_key(&item, |(it, _)| *it)
            .is_ok()
    }
}

impl CheckpointFormat for FpgCheckpoint {
    const FILE_NAME: &'static str = "fpg.ckpt";

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_pass1_state(
            &mut out,
            self.num_transactions,
            self.min_support_count,
            &self.item_counts,
        );
        out.extend_from_slice(&(self.completed.len() as u32).to_le_bytes());
        for (item, records) in &self.completed {
            out.extend_from_slice(&item.raw().to_le_bytes());
            put_sized_counted(&mut out, records);
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<FpgCheckpoint> {
        let mut c = Cursor::new(body, WHAT, Error::Corrupt);
        c.header(MAGIC, VERSION)?;
        let (num_transactions, min_support_count, item_counts) = read_pass1_state(&mut c)?;
        let num_completed = c.u32()? as usize;
        if num_completed > item_counts.len() {
            return Err(Error::Corrupt("implausible projection count".into()));
        }
        let mut completed = Vec::with_capacity(num_completed);
        for _ in 0..num_completed {
            let item = ItemId(c.u32()?);
            if item.index() >= item_counts.len() {
                return Err(Error::Corrupt("projection item out of range".into()));
            }
            if let Some((prev, _)) = completed.last() {
                if *prev >= item {
                    return Err(Error::Corrupt("projections are not sorted by item".into()));
                }
            }
            let records = read_sized_counted(&mut c)?;
            completed.push((item, records));
        }
        c.finish()?;
        Ok(FpgCheckpoint {
            num_transactions,
            min_support_count,
            item_counts,
            completed,
        })
    }

    fn progress(&self) -> String {
        format!(
            "with {} finished projections restored",
            self.completed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_mining::checkpoint::{
        checkpoint_path, decode, encode, load_checkpoint, load_latest, save_checkpoint,
        CheckpointSink,
    };
    use gar_types::bytes::seal;
    use gar_types::iset;
    use std::path::{Path, PathBuf};

    fn rotated(path: &Path) -> PathBuf {
        path.with_extension("ckpt.prev")
    }

    fn sample() -> FpgCheckpoint {
        FpgCheckpoint {
            num_transactions: 400,
            min_support_count: 8,
            item_counts: vec![100, 80, 60, 40],
            completed: vec![
                (ItemId(1), vec![(iset![0, 1], 30)]),
                (ItemId(3), vec![(iset![0, 3], 12), (iset![0, 1, 3], 9)]),
            ],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gar-fpgckpt-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        assert_eq!(decode::<FpgCheckpoint>(&encode(&cp)).unwrap(), cp);
        assert!(cp.has(ItemId(1)));
        assert!(cp.has(ItemId(3)));
        assert!(!cp.has(ItemId(0)));
    }

    #[test]
    fn gfpc_layout_is_frozen() {
        // `sample()` as the encoder wrote it before the sink and seal were
        // shared with the Apriori family: old files must keep loading.
        const GOLDEN: [u8; 152] = [
            71, 70, 80, 67, 1, 0, 0, 0, 144, 1, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0,
            0, 100, 0, 0, 0, 0, 0, 0, 0, 80, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0, 40, 0,
            0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
            0, 30, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
            12, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 0,
            0, 0, 0, 201, 139, 175, 150, 188, 182, 209, 239,
        ];
        assert_eq!(decode::<FpgCheckpoint>(&GOLDEN).unwrap(), sample());
        assert_eq!(encode(&sample()), GOLDEN);
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            let err = decode::<FpgCheckpoint>(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "truncation at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let err = decode::<FpgCheckpoint>(&bad).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "flip at {i}: {err:?}");
        }
    }

    #[test]
    fn a_record_that_is_not_an_itemset_is_corrupt() {
        let mut body = sample().encode_body();
        // Projection 1's one record, `[0, 1]`, becomes `[5, 5]`: header,
        // counts and the projection's id, record count and length first.
        let at = 4 + 4 + 8 + 8 + 4 + 4 * 8 + 4 + 4 + 4 + 4;
        assert_eq!(body[at..at + 8], [0, 0, 0, 0, 1, 0, 0, 0]);
        body[at..at + 8].copy_from_slice(&[5, 0, 0, 0, 5, 0, 0, 0]);
        let err = decode::<FpgCheckpoint>(&seal(body)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn unsorted_projections_rejected() {
        let mut cp = sample();
        cp.completed.swap(0, 1);
        let err = decode::<FpgCheckpoint>(&encode(&cp)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn save_load_rotation_and_fallback() {
        let dir = tmpdir("rotate");
        let path = checkpoint_path::<FpgCheckpoint>(&dir);
        let mut first = sample();
        first.completed.truncate(1);
        save_checkpoint(&first, &path).unwrap();
        let full = sample();
        save_checkpoint(&full, &path).unwrap();
        assert_eq!(load_checkpoint::<FpgCheckpoint>(&path).unwrap(), full);
        assert_eq!(
            load_checkpoint::<FpgCheckpoint>(rotated(&path)).unwrap(),
            first
        );

        // Corrupt the current file: load_latest falls back to .prev.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_latest::<FpgCheckpoint>(&dir).unwrap(), first);

        // Corrupt .prev too: cold start.
        std::fs::write(rotated(&path), b"GFPCgarbage").unwrap();
        assert!(load_latest::<FpgCheckpoint>(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_records_in_memory_and_on_disk() {
        let dir = tmpdir("sink");
        let sink = CheckpointSink::<FpgCheckpoint>::new(Some(dir.clone())).unwrap();
        assert!(sink.latest().is_none());
        let cp = sample();
        sink.store(cp.clone()).unwrap();
        assert_eq!(sink.latest().unwrap(), cp);
        assert_eq!(load_latest::<FpgCheckpoint>(&dir).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }
}
