//! Persistence of mining outputs.
//!
//! `GOUT` format (little-endian): magic `GOUT`, `u32` version 2,
//! algorithm name (`u32` length + UTF-8), `u64` transaction count, `u64`
//! minimum-support count, then the pass chain of [`put_passes`];
//! sealed and written through `gar_types::bytes` like every other
//! persisted format (version 1 had no checksum). Used by the CLI so a
//! mine step and a rules step can run as separate processes.

use crate::params::Algorithm;
use crate::report::{LargePass, MiningOutput};
use crate::wire;
use gar_types::bytes::{read_sealed, seal, write_atomic, Cursor};
use gar_types::{Error, Itemset, Result};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GOUT";
const VERSION: u32 = 2;
const WHAT: &str = "mining-output file";

/// Writes a mining output to `path` (replacing it atomically).
pub fn save_output(output: &MiningOutput, path: impl AsRef<Path>) -> Result<()> {
    let mut body = MAGIC.to_vec();
    body.extend_from_slice(&VERSION.to_le_bytes());
    put_algorithm(&mut body, output.algorithm);
    body.extend_from_slice(&output.num_transactions.to_le_bytes());
    body.extend_from_slice(&output.min_support_count.to_le_bytes());
    put_passes(&mut body, &output.passes);
    write_atomic(path.as_ref(), &seal(body), false)
}

/// Reads a mining output from `path`.
pub fn load_output(path: impl AsRef<Path>) -> Result<MiningOutput> {
    let body = read_sealed(path.as_ref(), WHAT, b"GOUT\x01\0\0\0")?;
    let mut c = Cursor::new(&body, WHAT, Error::Corrupt);
    c.header(MAGIC, VERSION)?;
    let algorithm = read_algorithm(&mut c)?;
    let num_transactions = c.u64()?;
    let min_support_count = c.u64()?;
    let passes = read_passes(&mut c)?;
    c.finish()?;
    Ok(MiningOutput {
        algorithm,
        num_transactions,
        min_support_count,
        passes,
    })
}

/// Appends a pass chain: a `u32` pass count, then per pass a `u32 k` and
/// its [`put_counted_block`]. The body of `GOUT` after its header, and
/// FP-Growth's output broadcast.
pub fn put_passes(out: &mut Vec<u8>, passes: &[LargePass]) {
    out.extend_from_slice(&(passes.len() as u32).to_le_bytes());
    for pass in passes {
        out.extend_from_slice(&(pass.k as u32).to_le_bytes());
        put_counted_block(out, pass.k, &pass.itemsets);
    }
}

/// Inverse of [`put_passes`], reading from the caller's cursor so damage
/// is the error the caller's format raises (a file's `Corrupt`, a
/// frame's `Protocol`).
pub fn read_passes(c: &mut Cursor<'_>) -> Result<Vec<LargePass>> {
    let num_passes = c.u32()? as usize;
    if num_passes > 64 {
        return Err(c.error("has an implausible pass count"));
    }
    let mut passes = Vec::with_capacity(num_passes);
    for _ in 0..num_passes {
        let k = c.u32()? as usize;
        let itemsets = read_counted_block(c, k)?;
        passes.push(LargePass { k, itemsets });
    }
    Ok(passes)
}

/// Appends an algorithm as its length-prefixed paper name — how `GOUT`
/// and `GCKP` both record which miner wrote them.
pub(crate) fn put_algorithm(out: &mut Vec<u8>, algorithm: Algorithm) {
    let name = algorithm.name().as_bytes();
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
}

/// Inverse of [`put_algorithm`].
pub(crate) fn read_algorithm(c: &mut Cursor<'_>) -> Result<Algorithm> {
    let name_len = c.u32()? as usize;
    if name_len > 64 {
        return Err(c.error("has an implausible algorithm name length"));
    }
    let name = std::str::from_utf8(c.take(name_len)?)
        .map_err(|_| c.error("algorithm name is not UTF-8"))?;
    algorithm_by_name(name).map_err(|_| c.error(format_args!("names unknown algorithm '{name}'")))
}

/// Appends pass `k`'s `L_k` as a length-prefixed
/// [`wire::encode_counted`] block.
pub(crate) fn put_counted_block(out: &mut Vec<u8>, k: usize, itemsets: &[(Itemset, u64)]) {
    let block = wire::encode_counted(k, itemsets);
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(&block);
}

/// Inverse of [`put_counted_block`]; every itemset must have size `k`.
pub(crate) fn read_counted_block(c: &mut Cursor<'_>, k: usize) -> Result<Vec<(Itemset, u64)>> {
    let block_len = c.u32()? as usize;
    let itemsets = wire::decode_counted(c.take(block_len)?)?;
    if itemsets.iter().any(|(s, _)| s.len() != k) {
        return Err(c.error(format_args!("pass {k} holds non-{k}-itemsets")));
    }
    Ok(itemsets)
}

/// Resolves an algorithm from its paper name (case-insensitive).
pub fn algorithm_by_name(name: &str) -> Result<Algorithm> {
    let all = [
        Algorithm::Apriori,
        Algorithm::Cumulate,
        Algorithm::Npgm,
        Algorithm::Hpgm,
        Algorithm::HHpgm,
        Algorithm::HHpgmTgd,
        Algorithm::HHpgmPgd,
        Algorithm::HHpgmFgd,
        Algorithm::FpGrowth,
    ];
    all.into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            Error::InvalidConfig(format!(
                "unknown algorithm '{name}' (expected one of {})",
                all.map(|a| a.name()).join(", ")
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn sample() -> MiningOutput {
        MiningOutput {
            algorithm: Algorithm::HHpgmFgd,
            num_transactions: 1234,
            min_support_count: 12,
            passes: vec![
                LargePass {
                    k: 1,
                    itemsets: vec![(iset![1], 100), (iset![2], 50)],
                },
                LargePass {
                    k: 2,
                    itemsets: vec![(iset![1, 2], 30)],
                },
            ],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gar-persist-{}-{}", std::process::id(), name))
    }

    #[test]
    fn round_trip() {
        let out = sample();
        let path = tmp("roundtrip");
        save_output(&out, &path).unwrap();
        let loaded = load_output(&path).unwrap();
        assert_eq!(loaded.algorithm, out.algorithm);
        assert_eq!(loaded.num_transactions, 1234);
        assert_eq!(loaded.min_support_count, 12);
        assert_eq!(loaded.passes.len(), 2);
        for (a, b) in loaded.all_large().zip(out.all_large()) {
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_output_round_trips() {
        let out = MiningOutput {
            algorithm: Algorithm::Cumulate,
            num_transactions: 0,
            min_support_count: 1,
            passes: vec![],
        };
        let path = tmp("empty");
        save_output(&out, &path).unwrap();
        let loaded = load_output(&path).unwrap();
        assert_eq!(loaded.num_large(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, seal(b"XXXX\x02\x00\x00\x00".to_vec())).unwrap();
        let err = load_output(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("bad magic")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected() {
        let path = tmp("trunc");
        save_output(&sample(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(load_output(&path), Err(Error::Corrupt(_))));
        // A version-1 file (no checksum) is named, not called damaged.
        std::fs::write(&path, b"GOUT\x01\0\0\0\x08\0\0\0Cumulate").unwrap();
        let err = load_output(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported mining-output file version")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn algorithm_names_resolve() {
        assert_eq!(
            algorithm_by_name("h-hpgm-fgd").unwrap(),
            Algorithm::HHpgmFgd
        );
        assert_eq!(algorithm_by_name("NPGM").unwrap(), Algorithm::Npgm);
        assert_eq!(algorithm_by_name("Cumulate").unwrap(), Algorithm::Cumulate);
        assert!(algorithm_by_name("magic").is_err());
    }
}
