//! The one way bytes reach disk and come back.
//!
//! Every persisted format in the workspace (`GFP`, `GTAX`, `GOUT`,
//! `GCKP`, `GFPC`, `GRUL`) is written as *encode body → [`seal`] →
//! [`write_atomic`]* and read as *[`read`] → [`unseal`] → [`Cursor`] →
//! [`Cursor::finish`]*; the wire codecs and the serve protocol decode
//! their frames through the same [`Cursor`]. Damage of any kind — a torn
//! write, a flipped bit, a truncated tail, a length field that points
//! past the end — is a typed [`Error`], never a panic, and no length read
//! from the input sizes an allocation before it has been checked against
//! the bytes actually present.

use crate::hash::checksum;
use crate::{Error, Result};
use std::path::{Path, PathBuf};

/// Bounded little-endian reader over a byte slice. Every short read is
/// the error variant picked at construction ([`Error::Corrupt`] for
/// files, [`Error::Protocol`] for frames), prefixed with `what`.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    what: &'static str,
    variant: fn(String) -> Error,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`. `variant` is the error
    /// constructor for damage (`Error::Corrupt` or `Error::Protocol`);
    /// `what` names the thing being decoded in every message.
    #[inline]
    pub fn new(bytes: &'a [u8], what: &'static str, variant: fn(String) -> Error) -> Cursor<'a> {
        Cursor {
            bytes,
            what,
            variant,
        }
    }

    /// An error of this cursor's variant, for the caller's own checks.
    #[cold]
    pub fn error(&self, msg: impl std::fmt::Display) -> Error {
        (self.variant)(format!("{} {msg}", self.what))
    }

    /// Bytes not yet consumed — what a count read from the input must be
    /// held against before it sizes an allocation.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.bytes.split_at_checked(n) {
            Some((head, tail)) => {
                self.bytes = tail;
                Ok(head)
            }
            None => Err(self.error("truncated")),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.bytes.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.bytes = tail;
                Ok(*head)
            }
            None => Err(self.error("truncated")),
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next `n` little-endian `u32`s. The `4·n` bytes are claimed
    /// up front, so collecting the iterator can never allocate more than
    /// the input holds.
    #[inline]
    pub fn u32s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u32> + 'a> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| self.error("length overflows"))?;
        Ok(self.take(len)?.chunks_exact(4).map(|c| {
            let mut word = [0u8; 4];
            word.copy_from_slice(c);
            u32::from_le_bytes(word)
        }))
    }

    /// Consumes and checks a 4-byte magic followed by a `u32` version.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> Result<()> {
        if self.take(4)? != magic {
            return Err(self.error("has a bad magic (not this kind of file)"));
        }
        let found = self.u32()?;
        if found != version {
            return Err((self.variant)(format!(
                "unsupported {} version {found} (this build reads {version})",
                self.what
            )));
        }
        Ok(())
    }

    /// Rejects bytes left over after the last field.
    #[inline]
    pub fn finish(self) -> Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.error("has trailing garbage"))
        }
    }
}

/// Appends the trailing [`checksum`] of `body` to it.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Verifies the trailing checksum and returns the body in front of it —
/// the workspace's one verify site, for files and frames alike.
pub fn unseal(sealed: &[u8], what: impl std::fmt::Display) -> Result<&[u8]> {
    let Some((body, tail)) = sealed.split_last_chunk::<8>() else {
        return Err(Error::Corrupt(format!("{what} too short for a checksum")));
    };
    if checksum(body) != u64::from_le_bytes(*tail) {
        return Err(Error::Corrupt(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Where [`write_atomic`] rotates the previous file to.
pub fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, ".prev")
}

/// Writes `bytes` to `path` through a temp file and a rename, so a crash
/// mid-write never leaves a torn file under the real name. With
/// `rotate_prev` the file being replaced is first renamed to
/// [`prev_path`], keeping one older intact copy to fall back to.
pub fn write_atomic(path: &Path, bytes: &[u8], rotate_prev: bool) -> Result<()> {
    let tmp = with_suffix(path, ".tmp");
    std::fs::write(&tmp, bytes).map_err(|e| Error::io(format!("writing {}", tmp.display()), e))?;
    if rotate_prev && path.exists() {
        std::fs::rename(path, prev_path(path))
            .map_err(|e| Error::io(format!("rotating {}", path.display()), e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| Error::io(format!("publishing {}", path.display()), e))
}

/// Reads the whole file at `path`.
pub fn read(path: &Path, what: &str) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| Error::io(format!("reading {what} {}", path.display()), e))
}

/// Reads the sealed file at `path` and returns its verified body. A file
/// that begins with `predecessor` — the first bytes of the format's
/// earlier, checksum-less version — is named as an unsupported version
/// instead of being reported as damaged.
pub fn read_sealed(path: &Path, what: &str, predecessor: &[u8]) -> Result<Vec<u8>> {
    let mut bytes = read(path, what)?;
    if bytes.starts_with(predecessor) {
        return Err(Error::Corrupt(format!(
            "unsupported {what} version: {} was written by an older build; regenerate it",
            path.display()
        )));
    }
    let body_len = unseal(&bytes, format_args!("{what} {}", path.display()))?.len();
    bytes.truncate(body_len);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_every_width_and_stops_at_the_end() {
        let bytes = [7u8, 1, 2, 3, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB];
        let mut c = Cursor::new(&bytes, "sample", Error::Corrupt);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0x0201);
        assert_eq!(c.u32().unwrap(), 3);
        assert_eq!(c.u64().unwrap(), 9);
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.take(2).unwrap(), &[0xAA, 0xBB]);
        c.finish().unwrap();
    }

    #[test]
    fn short_reads_carry_the_variant_chosen_at_construction() {
        let mut file = Cursor::new(&[1, 2, 3], "store", Error::Corrupt);
        let err = file.u32().unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m == "store truncated"),
            "{err:?}"
        );
        let mut frame = Cursor::new(&[1, 2, 3], "payload", Error::Protocol);
        assert!(matches!(frame.u64().unwrap_err(), Error::Protocol(_)));
        // A failed read consumes nothing.
        assert_eq!(frame.remaining(), 3);
        assert!(matches!(frame.finish().unwrap_err(), Error::Protocol(_)));
    }

    #[test]
    fn u32s_claims_its_bytes_before_anything_is_collected() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0];
        let mut c = Cursor::new(&bytes, "list", Error::Corrupt);
        assert!(c.u32s(3).is_err());
        assert!(c.u32s(usize::MAX).is_err());
        assert_eq!(c.u32s(2).unwrap().collect::<Vec<_>>(), vec![1, 2]);
        c.finish().unwrap();
    }

    #[test]
    fn header_rejects_foreign_magic_and_other_versions() {
        let mut bytes = b"GXYZ".to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        Cursor::new(&bytes, "thing", Error::Corrupt)
            .header(b"GXYZ", 2)
            .unwrap();
        let err = Cursor::new(&bytes, "thing", Error::Corrupt)
            .header(b"GXYZ", 3)
            .unwrap_err();
        assert!(err.to_string().contains("unsupported thing version 2"));
        let err = Cursor::new(&bytes, "thing", Error::Corrupt)
            .header(b"NOPE", 2)
            .unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn seal_round_trips_and_detects_every_flip_and_truncation() {
        let sealed = seal(b"the body, longer than one 8-byte word".to_vec());
        assert_eq!(
            unseal(&sealed, "blob").unwrap(),
            b"the body, longer than one 8-byte word"
        );
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0xFF;
            assert!(matches!(unseal(&bad, "blob"), Err(Error::Corrupt(_))));
            assert!(matches!(
                unseal(&sealed[..i], "blob"),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn write_atomic_publishes_rotates_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("gar-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, &seal(b"one".to_vec()), true).unwrap();
        assert!(!prev_path(&path).exists(), "nothing to rotate yet");
        write_atomic(&path, &seal(b"two".to_vec()), true).unwrap();
        assert_eq!(read_sealed(&path, "file", b"OLD1").unwrap(), b"two");
        assert_eq!(
            read_sealed(&prev_path(&path), "file", b"OLD1").unwrap(),
            b"one"
        );
        write_atomic(&path, &seal(b"three".to_vec()), false).unwrap();
        assert_eq!(
            read_sealed(&prev_path(&path), "file", b"OLD1").unwrap(),
            b"one"
        );
        assert!(!with_suffix(&path, ".tmp").exists());
        let err = read_sealed(&dir.join("missing"), "file", b"OLD1").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err:?}");
        // The unsealed predecessor is named, whatever follows its prefix.
        std::fs::write(&path, b"OLD1 and then anything").unwrap();
        let err = read_sealed(&path, "file", b"OLD1").unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported file version")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
