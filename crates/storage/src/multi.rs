//! A composite [`TransactionSource`] over several partitions.
//!
//! Degraded-mode recovery (see `gar-mining`) re-runs a failed cluster
//! pass over `N-1` survivors; each survivor that adopts an orphaned
//! partition scans its own partition *and* the orphan back-to-back.
//! [`MultiSource`] makes that adoption invisible to the mining code: it
//! presents the concatenation of its members as one partition, in member
//! order.

use crate::{TransactionScan, TransactionSource};
use gar_types::{ItemId, Result};

/// The concatenation of several borrowed partitions, scanned in order.
pub struct MultiSource<'a> {
    parts: Vec<&'a dyn TransactionSource>,
}

impl<'a> MultiSource<'a> {
    /// Wraps `parts`; scans yield every transaction of `parts[0]`, then
    /// `parts[1]`, and so on.
    pub fn new(parts: Vec<&'a dyn TransactionSource>) -> MultiSource<'a> {
        MultiSource { parts }
    }
}

impl TransactionSource for MultiSource<'_> {
    fn num_transactions(&self) -> usize {
        self.parts.iter().map(|p| p.num_transactions()).sum()
    }

    fn scan(&self) -> Result<Box<dyn TransactionScan + '_>> {
        Ok(Box::new(MultiScan {
            parts: &self.parts,
            current: None,
            next_part: 0,
            buf: Vec::new(),
        }))
    }

    fn bytes_read(&self) -> u64 {
        self.parts.iter().map(|p| p.bytes_read()).sum()
    }

    fn size_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.size_bytes()).sum()
    }
}

/// Chained scan over the members of a [`MultiSource`]. `next_slice` lends
/// from one internal buffer (the member scans' borrows cannot escape the
/// advance loop), `next_into` stays copy-free into the caller's buffer.
struct MultiScan<'a> {
    parts: &'a [&'a dyn TransactionSource],
    current: Option<Box<dyn TransactionScan + 'a>>,
    next_part: usize,
    buf: Vec<ItemId>,
}

impl TransactionScan for MultiScan<'_> {
    fn next_slice(&mut self) -> Result<Option<&[ItemId]>> {
        loop {
            if let Some(scan) = self.current.as_mut() {
                if scan.next_into(&mut self.buf)? {
                    return Ok(Some(&self.buf));
                }
                self.current = None;
            }
            if self.next_part >= self.parts.len() {
                return Ok(None);
            }
            self.current = Some(self.parts[self.next_part].scan()?);
            self.next_part += 1;
        }
    }

    fn next_into(&mut self, buf: &mut Vec<ItemId>) -> Result<bool> {
        loop {
            if let Some(scan) = self.current.as_mut() {
                if scan.next_into(buf)? {
                    return Ok(true);
                }
                self.current = None;
            }
            if self.next_part >= self.parts.len() {
                return Ok(false);
            }
            self.current = Some(self.parts[self.next_part].scan()?);
            self.next_part += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatPartition;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn drain(p: &dyn TransactionSource) -> Vec<Vec<ItemId>> {
        let mut scan = p.scan().unwrap();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while scan.next_into(&mut buf).unwrap() {
            out.push(buf.clone());
        }
        out
    }

    #[test]
    fn concatenates_members_in_order() {
        let a = FlatPartition::from_transactions([ids(&[1]), ids(&[2, 3])]);
        let b = FlatPartition::from_transactions([ids(&[4])]);
        let multi = MultiSource::new(vec![&a, &b]);
        assert_eq!(multi.num_transactions(), 3);
        assert_eq!(drain(&multi), vec![ids(&[1]), ids(&[2, 3]), ids(&[4])]);
    }

    #[test]
    fn rescans_restart_from_the_first_member() {
        let a = FlatPartition::from_transactions([ids(&[1])]);
        let b = FlatPartition::from_transactions([ids(&[2])]);
        let multi = MultiSource::new(vec![&a, &b]);
        assert_eq!(drain(&multi).len(), 2);
        assert_eq!(drain(&multi).len(), 2, "scan() must rewind");
        assert!(multi.bytes_read() > 0);
    }

    #[test]
    fn empty_members_are_skipped() {
        let a = FlatPartition::new();
        let b = FlatPartition::from_transactions([ids(&[7])]);
        let c = FlatPartition::new();
        let multi = MultiSource::new(vec![&a, &b, &c]);
        assert_eq!(drain(&multi), vec![ids(&[7])]);
        let none = MultiSource::new(vec![]);
        assert_eq!(none.num_transactions(), 0);
        assert!(drain(&none).is_empty());
    }
}
