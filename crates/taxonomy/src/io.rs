//! Taxonomy persistence.
//!
//! The **parent array** is the taxonomy's complete definition: a `u32`
//! item count, then one `u32` per item — the parent's code, or `u32::MAX`
//! for a root. Everything else is derived on load (and re-validated, so a
//! damaged array cannot smuggle in a cycle). [`encode_parents`] /
//! [`decode_parents`] are the one codec for it; the `GTAX` file (magic,
//! `u32` version 2, parent array, trailing checksum — version 1 had no
//! checksum) and the taxonomy embedded in `gar-serve`'s `GRUL` store both
//! go through them.

use crate::builder::TaxonomyBuilder;
use crate::taxonomy::Taxonomy;
use gar_types::bytes::{read_sealed, seal, write_atomic, Cursor};
use gar_types::{Error, ItemId, Result};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GTAX";
const VERSION: u32 = 2;
const NO_PARENT: u32 = u32::MAX;
const WHAT: &str = "taxonomy file";
/// How a version-1 (unsealed) file begins.
const V1_PREFIX: &[u8; 8] = b"GTAX\x01\0\0\0";

/// Appends `tax`'s parent array to `out`.
pub fn encode_parents(tax: &Taxonomy, out: &mut Vec<u8>) {
    out.extend_from_slice(&tax.num_items().to_le_bytes());
    for i in 0..tax.num_items() {
        let code = tax.parent(ItemId(i)).map_or(NO_PARENT, |p| p.raw());
        out.extend_from_slice(&code.to_le_bytes());
    }
}

/// Reads a parent array and rebuilds the taxonomy, re-validating the
/// forest invariants; a violation is the cursor's kind of damage.
pub fn decode_parents(c: &mut Cursor<'_>) -> Result<Taxonomy> {
    let n = c.u32()?;
    // Claim the array's bytes before `n` sizes the builder.
    let parents = c.u32s(n as usize)?;
    let mut builder = TaxonomyBuilder::new(n);
    for (child, parent) in parents.enumerate() {
        if parent != NO_PARENT {
            builder
                .add_edge(ItemId(child as u32), ItemId(parent))
                .map_err(|e| c.error(format_args!("parent array: {e}")))?;
        }
    }
    builder
        .build()
        .map_err(|e| c.error(format_args!("parent array: {e}")))
}

/// Writes `tax` to `path` (replacing it atomically).
pub fn save(tax: &Taxonomy, path: impl AsRef<Path>) -> Result<()> {
    let mut body = MAGIC.to_vec();
    body.extend_from_slice(&VERSION.to_le_bytes());
    encode_parents(tax, &mut body);
    write_atomic(path.as_ref(), &seal(body), false)
}

/// Loads a taxonomy from `path`: seal, header, parent array, no trailing
/// bytes.
pub fn load(path: impl AsRef<Path>) -> Result<Taxonomy> {
    let body = read_sealed(path.as_ref(), WHAT, V1_PREFIX)?;
    let mut c = Cursor::new(&body, WHAT, Error::Corrupt);
    c.header(MAGIC, VERSION)?;
    let tax = decode_parents(&mut c)?;
    c.finish()?;
    Ok(tax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthTaxonomyConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gar-tax-io-{}-{}", std::process::id(), name))
    }

    #[test]
    fn round_trip_preserves_structure() {
        let tax = synthesize(&SynthTaxonomyConfig {
            num_items: 500,
            num_roots: 7,
            fanout: 4.0,
            seed: 3,
        });
        let path = tmp("roundtrip");
        save(&tax, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.num_items(), tax.num_items());
        for i in 0..tax.num_items() {
            assert_eq!(loaded.parent(ItemId(i)), tax.parent(ItemId(i)));
            assert_eq!(loaded.root_of(ItemId(i)), tax.root_of(ItemId(i)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(
            &path,
            seal(b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00".to_vec()),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let tax = synthesize(&SynthTaxonomyConfig {
            num_items: 50,
            num_roots: 2,
            fanout: 3.0,
            seed: 0,
        });
        let path = tmp("trunc");
        save(&tax, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(load(&path), Err(Error::Corrupt(_))));
        // A version-1 file (no checksum) is named, not called damaged.
        let mut v1 = V1_PREFIX.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, v1).unwrap();
        let err = load(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported taxonomy file version")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let tax = synthesize(&SynthTaxonomyConfig {
            num_items: 10,
            num_roots: 1,
            fanout: 3.0,
            seed: 0,
        });
        let path = tmp("trail");
        save(&tax, &path).unwrap();
        // One byte past the parent array, inside a valid seal.
        let mut body = read_sealed(&path, WHAT, V1_PREFIX).unwrap();
        body.push(0);
        std::fs::write(&path, seal(body)).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_cycle_rejected_on_load() {
        // Hand-craft a 2-item file where 0 -> 1 -> 0.
        let path = tmp("cycle");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GTAX");
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // parent(0) = 1
        bytes.extend_from_slice(&0u32.to_le_bytes()); // parent(1) = 0
        std::fs::write(&path, seal(bytes)).unwrap();
        let err = load(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("cycle")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_chain_past_the_ancestor_bound_is_corrupt_on_decode() {
        // 5,794 items, each the child of the one before: 23 KB of parent
        // array whose ancestor lists would hold 16,782,321 entries.
        let n = 5_794u32;
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend_from_slice(&NO_PARENT.to_le_bytes());
        for child in 1..n {
            bytes.extend_from_slice(&(child - 1).to_le_bytes());
        }
        let err = decode_parents(&mut Cursor::new(&bytes, WHAT, Error::Corrupt)).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("ancestor")),
            "{err}"
        );
    }
}
