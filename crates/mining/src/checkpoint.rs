//! Checkpointing of a parallel mining run: the sink, sealing and rotation
//! both miner families share, and the Apriori family's pass-level format.
//!
//! After every completed pass the coordinator persists the global `L_k`
//! chain plus the pass metadata the final report needs, so `mine
//! --resume` (and degraded-mode recovery after a node failure) restarts
//! from the last complete pass instead of from scratch. `gar-fpg` records
//! finished projections through the same [`CheckpointSink`] with its own
//! [`CheckpointFormat`].
//!
//! `GCKP` format (little-endian, style of [`crate::persist`]): magic
//! `GCKP`, `u32` version, algorithm name (`u32` length + UTF-8), `u64`
//! transaction count, `u64` minimum-support count, the global item
//! counts (`u32` length + `u64`s), `u32` pass count, then per pass a
//! `u32 k`, three `u64` metadata fields (candidates / duplicated /
//! fragments) and a length-prefixed [`crate::wire::encode_counted`]
//! block. Like every persisted format it is sealed and written through
//! `gar_types::bytes`; checkpoints additionally rotate the file they
//! replace to `.prev` — so a crash mid-write can never leave the only
//! copy torn, and a torn copy is detected, not mis-resumed.

use crate::params::Algorithm;
use crate::persist::{put_algorithm, put_counted_block, read_algorithm, read_counted_block};
use gar_types::bytes::{self, prev_path, seal, unseal, write_atomic, Cursor};
use gar_types::{Error, Itemset, Result};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

const MAGIC: &[u8; 4] = b"GCKP";
const VERSION: u32 = 1;
/// What every checkpoint cursor and seal error calls its input.
pub const WHAT: &str = "checkpoint";

/// A checkpoint type [`CheckpointSink`] can persist. The format owns its
/// byte layout; sealing, rotation and fallback are shared.
pub trait CheckpointFormat: Clone {
    /// File name inside the checkpoint directory — distinct per miner
    /// family, so both can share a directory without clobbering.
    const FILE_NAME: &'static str;
    /// The serialized payload, magic first, *without* the checksum.
    fn encode_body(&self) -> Vec<u8>;
    /// Decodes a checksum-verified payload; all damage is
    /// [`Error::Corrupt`].
    fn decode_body(body: &[u8]) -> Result<Self>;
    /// How far the run had got, phrased for the degraded-mode note.
    fn progress(&self) -> String;
}

/// One completed pass as recorded in a checkpoint: the global `L_k` and
/// the metadata the per-pass report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPass {
    /// Pass number (`k` = itemset size).
    pub k: usize,
    /// `|C_k|` generated in this pass.
    pub num_candidates: usize,
    /// `|C_k^D|` duplicated to every node (TGD/PGD/FGD).
    pub num_duplicated: usize,
    /// NPGM fragment count.
    pub num_fragments: usize,
    /// The global `L_k` with support counts.
    pub itemsets: Vec<(Itemset, u64)>,
}

/// Everything needed to restart mining after pass `k`: the thresholds
/// and item counts of pass 1 plus every completed `L_k` chain link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Algorithm that produced this checkpoint (resume refuses a
    /// mismatch rather than silently mixing algorithms).
    pub algorithm: Algorithm,
    /// Global transaction count (pass 1's all-reduce).
    pub num_transactions: u64,
    /// Absolute minimum support count.
    pub min_support_count: u64,
    /// Global per-item support counts (the duplicate-selection
    /// heuristics price candidates with these in later passes).
    pub item_counts: Vec<u64>,
    /// Completed passes, `k = 1..`, consecutive.
    pub passes: Vec<CheckpointPass>,
}

impl Checkpoint {
    /// The pass after which mining resumes (the last completed one).
    pub fn last_pass(&self) -> usize {
        self.passes.last().map_or(0, |p| p.k)
    }
}

/// Appends pass 1's global state, the block both formats carry after
/// their header: transaction count, support threshold, item counts.
pub fn put_pass1_state(out: &mut Vec<u8>, num_transactions: u64, min_support: u64, counts: &[u64]) {
    out.extend_from_slice(&num_transactions.to_le_bytes());
    out.extend_from_slice(&min_support.to_le_bytes());
    out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
    for &c in counts {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

impl CheckpointFormat for Checkpoint {
    const FILE_NAME: &'static str = "mining.ckpt";

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_algorithm(&mut out, self.algorithm);
        put_pass1_state(
            &mut out,
            self.num_transactions,
            self.min_support_count,
            &self.item_counts,
        );
        out.extend_from_slice(&(self.passes.len() as u32).to_le_bytes());
        for pass in &self.passes {
            out.extend_from_slice(&(pass.k as u32).to_le_bytes());
            out.extend_from_slice(&(pass.num_candidates as u64).to_le_bytes());
            out.extend_from_slice(&(pass.num_duplicated as u64).to_le_bytes());
            out.extend_from_slice(&(pass.num_fragments as u64).to_le_bytes());
            put_counted_block(&mut out, pass.k, &pass.itemsets);
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<Checkpoint> {
        let mut c = Cursor::new(body, WHAT, Error::Corrupt);
        c.header(MAGIC, VERSION)?;
        let algorithm = read_algorithm(&mut c)?;
        let (num_transactions, min_support_count, item_counts) = read_pass1_state(&mut c)?;
        let num_passes = c.u32()? as usize;
        if num_passes > 64 {
            return Err(Error::Corrupt("implausible pass count".into()));
        }
        let mut passes = Vec::with_capacity(num_passes);
        for i in 0..num_passes {
            let k = c.u32()? as usize;
            if k != i + 1 {
                return Err(Error::Corrupt(format!(
                    "checkpoint passes are not consecutive (slot {i} holds pass {k})"
                )));
            }
            let num_candidates = c.u64()? as usize;
            let num_duplicated = c.u64()? as usize;
            let num_fragments = c.u64()? as usize;
            let itemsets = read_counted_block(&mut c, k)?;
            passes.push(CheckpointPass {
                k,
                num_candidates,
                num_duplicated,
                num_fragments,
                itemsets,
            });
        }
        c.finish()?;
        Ok(Checkpoint {
            algorithm,
            num_transactions,
            min_support_count,
            item_counts,
            passes,
        })
    }

    fn progress(&self) -> String {
        format!("after pass {}", self.last_pass())
    }
}

/// Inverse of [`put_pass1_state`]: `(transactions, min support, counts)`.
pub fn read_pass1_state(c: &mut Cursor<'_>) -> Result<(u64, u64, Vec<u64>)> {
    let num_transactions = c.u64()?;
    let min_support_count = c.u64()?;
    let num_items = c.u32()? as usize;
    if num_items > c.remaining() / 8 {
        return Err(c.error("has an implausible item-count length"));
    }
    let mut item_counts = Vec::with_capacity(num_items);
    for _ in 0..num_items {
        item_counts.push(c.u64()?);
    }
    Ok((num_transactions, min_support_count, item_counts))
}

/// Serializes a checkpoint and seals it with the trailing checksum.
pub fn encode<T: CheckpointFormat>(cp: &T) -> Vec<u8> {
    seal(cp.encode_body())
}

/// Verifies the seal, then decodes; all damage is [`Error::Corrupt`].
pub fn decode<T: CheckpointFormat>(bytes: &[u8]) -> Result<T> {
    T::decode_body(unseal(bytes, WHAT)?)
}

/// `T`'s checkpoint file inside `dir`.
pub fn checkpoint_path<T: CheckpointFormat>(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(T::FILE_NAME)
}

/// Writes `cp` to `path` atomically, rotating the file it replaces to
/// `.prev`.
pub fn save_checkpoint<T: CheckpointFormat>(cp: &T, path: impl AsRef<Path>) -> Result<()> {
    write_atomic(path.as_ref(), &encode(cp), true)
}

/// Reads and validates the checkpoint at `path`.
pub fn load_checkpoint<T: CheckpointFormat>(path: impl AsRef<Path>) -> Result<T> {
    decode(&bytes::read(path.as_ref(), WHAT)?)
}

/// Loads the newest intact checkpoint in `dir`: the current file if it
/// verifies, else the rotated `.prev`, else `None` (cold start). A
/// corrupt or truncated file is *never* resumed from.
pub fn load_latest<T: CheckpointFormat>(dir: impl AsRef<Path>) -> Option<T> {
    let main = checkpoint_path::<T>(dir);
    load_checkpoint(&main)
        .ok()
        .or_else(|| load_checkpoint(prev_path(&main)).ok())
}

/// Where completed work is recorded during a run: always in memory (so
/// in-process recovery can restart from the last checkpoint even without
/// a checkpoint directory), and on disk when a directory is configured.
/// Shared by reference with every node thread; only the coordinator
/// writes.
pub struct CheckpointSink<T> {
    mem: Mutex<Option<T>>,
    dir: Option<PathBuf>,
}

impl<T: CheckpointFormat> CheckpointSink<T> {
    /// A sink writing to `dir` (created if missing), or memory-only.
    pub fn new(dir: Option<PathBuf>) -> Result<CheckpointSink<T>> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)
                .map_err(|e| Error::io(format!("creating checkpoint dir {}", d.display()), e))?;
        }
        Ok(CheckpointSink {
            mem: Mutex::new(None),
            dir,
        })
    }

    /// Seeds the in-memory copy (used when resuming from disk, so a
    /// later in-process recovery still has the restored state).
    pub fn seed(&self, cp: T) {
        *self.mem.lock().unwrap_or_else(PoisonError::into_inner) = Some(cp);
    }

    /// Records a checkpoint (memory always, disk if configured).
    pub fn store(&self, cp: T) -> Result<()> {
        if let Some(dir) = &self.dir {
            save_checkpoint(&cp, checkpoint_path::<T>(dir))?;
        }
        self.seed(cp);
        Ok(())
    }

    /// The most recent checkpoint recorded in this process.
    pub fn latest(&self) -> Option<T> {
        self.mem
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn sample() -> Checkpoint {
        Checkpoint {
            algorithm: Algorithm::HHpgm,
            num_transactions: 500,
            min_support_count: 25,
            item_counts: vec![100, 80, 60, 40, 20],
            passes: vec![
                CheckpointPass {
                    k: 1,
                    num_candidates: 5,
                    num_duplicated: 0,
                    num_fragments: 1,
                    itemsets: vec![(iset![0], 100), (iset![1], 80)],
                },
                CheckpointPass {
                    k: 2,
                    num_candidates: 4,
                    num_duplicated: 1,
                    num_fragments: 1,
                    itemsets: vec![(iset![0, 1], 30)],
                },
            ],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gar-ckpt-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        assert_eq!(decode::<Checkpoint>(&encode(&cp)).unwrap(), cp);
        assert_eq!(cp.last_pass(), 2);
    }

    #[test]
    fn gckp_layout_is_frozen() {
        // `sample()` as the pre-`CheckpointFormat` encoder wrote it: files
        // from older builds must keep loading, byte for byte.
        const GOLDEN: [u8; 210] = [
            71, 67, 75, 80, 1, 0, 0, 0, 6, 0, 0, 0, 72, 45, 72, 80, 71, 77, 244, 1, 0, 0, 0, 0, 0,
            0, 25, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 80, 0, 0, 0, 0, 0, 0,
            0, 60, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0,
            0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            32, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
            80, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
            0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 30,
            0, 0, 0, 0, 0, 0, 0, 138, 70, 171, 183, 53, 74, 247, 29,
        ];
        assert_eq!(decode::<Checkpoint>(&GOLDEN).unwrap(), sample());
        assert_eq!(encode(&sample()), GOLDEN);
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        // Cutting the file at *any* length — through the header, the item
        // counts, a pass block, or the checksum — must yield Corrupt.
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            let err = decode::<Checkpoint>(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "truncation at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The trailing checksum seals the whole payload: flipping any one
        // byte (including the checksum itself) must be detected.
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let err = decode::<Checkpoint>(&bad).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "flip at {i}: {err:?}");
        }
    }

    #[test]
    fn non_consecutive_passes_rejected() {
        let mut cp = sample();
        cp.passes[1].k = 3;
        cp.passes[1].itemsets = vec![(iset![0, 1, 2], 26)];
        let err = decode::<Checkpoint>(&encode(&cp)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn save_load_and_rotation() {
        let dir = tmpdir("rotate");
        let path = checkpoint_path::<Checkpoint>(&dir);
        let mut cp = sample();
        cp.passes.truncate(1);
        save_checkpoint(&cp, &path).unwrap();
        assert_eq!(load_checkpoint::<Checkpoint>(&path).unwrap(), cp);

        let full = sample();
        save_checkpoint(&full, &path).unwrap();
        assert_eq!(load_checkpoint::<Checkpoint>(&path).unwrap(), full);
        // The one-pass checkpoint rotated to .prev.
        assert_eq!(load_checkpoint::<Checkpoint>(prev_path(&path)).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_falls_back_to_prev_then_cold_start() {
        let dir = tmpdir("fallback");
        let path = checkpoint_path::<Checkpoint>(&dir);
        let cp = sample();
        save_checkpoint(&cp, &path).unwrap();
        save_checkpoint(&cp, &path).unwrap(); // .prev now also intact

        // Corrupt the current file: resume must fall back to .prev.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_latest::<Checkpoint>(&dir).unwrap(), cp);

        // Corrupt .prev too: cold start, never a panic or a mis-resume.
        std::fs::write(prev_path(&path), b"GCKPgarbage").unwrap();
        assert!(load_latest::<Checkpoint>(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_records_in_memory_and_on_disk() {
        let dir = tmpdir("sink");
        let sink = CheckpointSink::new(Some(dir.clone())).unwrap();
        assert!(sink.latest().is_none());
        let cp = sample();
        sink.store(cp.clone()).unwrap();
        assert_eq!(sink.latest().unwrap(), cp);
        assert_eq!(load_latest::<Checkpoint>(&dir).unwrap(), cp);
        std::fs::remove_dir_all(&dir).ok();

        let memory_only = CheckpointSink::new(None).unwrap();
        memory_only.store(cp.clone()).unwrap();
        assert_eq!(memory_only.latest().unwrap(), cp);
    }
}
