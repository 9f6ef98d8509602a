//! Per-node counters: the raw material of every figure in the paper.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live, thread-safe counters for one simulated node. All increments are
/// relaxed — the counters are independent tallies, never used for
/// synchronization.
///
/// Each add is still an atomic read-modify-write, and only snapshots at
/// pass boundaries read the tallies. So a hot loop sums its ticks and
/// probes in locals and charges them once per transaction or received
/// payload, never once per itemset or combination (DESIGN.md §15).
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Point-to-point messages sent.
    pub messages_sent: AtomicU64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: AtomicU64,
    /// Point-to-point messages received.
    pub messages_received: AtomicU64,
    /// Point-to-point payload bytes received (Table 6's metric).
    pub bytes_received: AtomicU64,
    /// Candidate hash-table probes performed on this node (Figure 15's
    /// metric: "the number of hash table probes to increment sup_cou").
    pub hash_probes: AtomicU64,
    /// Abstract CPU work units (itemset generations, ancestor walks, ...).
    pub cpu_ticks: AtomicU64,
    /// Bytes read from the node's local disk partition.
    pub io_bytes: AtomicU64,
    /// Full passes over the local partition (NPGM fragments re-scan).
    pub scan_passes: AtomicU64,
    /// Faults injected on this node by the active [`crate::FaultPlan`]
    /// (drops, duplicates, corruptions, delays, scan errors, panics,
    /// hangs).
    pub faults_injected: AtomicU64,
}

impl NodeStats {
    /// Captures a consistent-enough snapshot (relaxed loads; callers take
    /// snapshots at phase boundaries where the node threads are quiesced).
    pub fn snapshot(&self) -> NodeStatsSnapshot {
        // relaxed: the counters are independent monotonic tallies and
        // snapshots are taken at phase boundaries after the worker
        // threads quiesce, so no inter-counter ordering is required.
        NodeStatsSnapshot {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            hash_probes: self.hash_probes.load(Ordering::Relaxed),
            cpu_ticks: self.cpu_ticks.load(Ordering::Relaxed),
            io_bytes: self.io_bytes.load(Ordering::Relaxed),
            scan_passes: self.scan_passes.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Adds `n` abstract CPU work units.
    #[inline]
    pub fn add_cpu(&self, n: u64) {
        // relaxed: independent monotonic counter; aggregated via snapshot()
        self.cpu_ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` successful hash-table probes (sup_cou increments — the
    /// unit of Figure 15). CPU work for counting is charged separately via
    /// [`NodeStats::add_cpu`] with the counter's `work` meter, which also
    /// covers unsuccessful probes.
    #[inline]
    pub fn add_probes(&self, n: u64) {
        // relaxed: independent monotonic counter; aggregated via snapshot()
        self.hash_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a sent message of `bytes` payload bytes.
    #[inline]
    pub fn record_send(&self, bytes: u64) {
        // relaxed: count/byte tallies are read together only in snapshot()
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a received message of `bytes` payload bytes.
    #[inline]
    pub fn record_recv(&self, bytes: u64) {
        // relaxed: count/byte tallies are read together only in snapshot()
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` of local-disk input.
    #[inline]
    pub fn record_io(&self, bytes: u64) {
        // relaxed: independent monotonic counter; aggregated via snapshot()
        self.io_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one complete pass over the local partition.
    #[inline]
    pub fn record_scan_pass(&self) {
        // relaxed: independent monotonic counter; aggregated via snapshot()
        self.scan_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` injected faults.
    #[inline]
    pub fn record_faults(&self, n: u64) {
        // relaxed: independent monotonic counter; aggregated via snapshot()
        self.faults_injected.fetch_add(n, Ordering::Relaxed);
    }
}

/// A frozen copy of one node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// See [`NodeStats::messages_sent`].
    pub messages_sent: u64,
    /// See [`NodeStats::bytes_sent`].
    pub bytes_sent: u64,
    /// See [`NodeStats::messages_received`].
    pub messages_received: u64,
    /// See [`NodeStats::bytes_received`].
    pub bytes_received: u64,
    /// See [`NodeStats::hash_probes`].
    pub hash_probes: u64,
    /// See [`NodeStats::cpu_ticks`].
    pub cpu_ticks: u64,
    /// See [`NodeStats::io_bytes`].
    pub io_bytes: u64,
    /// See [`NodeStats::scan_passes`].
    pub scan_passes: u64,
    /// See [`NodeStats::faults_injected`].
    pub faults_injected: u64,
}

impl NodeStatsSnapshot {
    /// Component-wise difference (`self - earlier`): the activity between
    /// two phase boundaries.
    pub fn delta_since(&self, earlier: &NodeStatsSnapshot) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            messages_sent: self.messages_sent - earlier.messages_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            messages_received: self.messages_received - earlier.messages_received,
            bytes_received: self.bytes_received - earlier.bytes_received,
            hash_probes: self.hash_probes - earlier.hash_probes,
            cpu_ticks: self.cpu_ticks - earlier.cpu_ticks,
            io_bytes: self.io_bytes - earlier.io_bytes,
            scan_passes: self.scan_passes - earlier.scan_passes,
            faults_injected: self.faults_injected - earlier.faults_injected,
        }
    }
}

/// Skew summary of a per-node series (used for the Figure-15 narrative:
/// how flat is the probe distribution?).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
    /// `max / mean` — 1.0 is perfectly flat.
    pub max_over_mean: f64,
    /// Coefficient of variation (stddev / mean).
    pub cv: f64,
}

/// Computes the [`SkewSummary`] of a series. Returns a flat summary for an
/// all-zero or empty series.
pub fn skew_summary(values: &[u64]) -> SkewSummary {
    if values.is_empty() {
        return SkewSummary {
            mean: 0.0,
            max: 0.0,
            max_over_mean: 1.0,
            cv: 0.0,
        };
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<u64>() as f64 / n;
    let max = values.iter().copied().max().unwrap_or(0) as f64;
    if mean == 0.0 {
        return SkewSummary {
            mean,
            max,
            max_over_mean: 1.0,
            cv: 0.0,
        };
    }
    let var = values
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    SkewSummary {
        mean,
        max,
        max_over_mean: max / mean,
        cv: var.sqrt() / mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = NodeStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(10);
        s.add_probes(7);
        s.add_cpu(3);
        s.record_io(4096);
        s.record_scan_pass();
        s.record_faults(2);
        let snap = s.snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.messages_received, 1);
        assert_eq!(snap.bytes_received, 10);
        assert_eq!(snap.hash_probes, 7);
        assert_eq!(snap.cpu_ticks, 3);
        assert_eq!(snap.io_bytes, 4096);
        assert_eq!(snap.scan_passes, 1);
        assert_eq!(snap.faults_injected, 2);
    }

    #[test]
    fn delta_isolates_a_phase() {
        let s = NodeStats::default();
        s.record_send(100);
        let before = s.snapshot();
        s.record_send(23);
        s.add_probes(5);
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.messages_sent, 1);
        assert_eq!(d.bytes_sent, 23);
        assert_eq!(d.hash_probes, 5);
    }

    #[test]
    fn skew_of_flat_series_is_one() {
        let s = skew_summary(&[10, 10, 10, 10]);
        assert_eq!(s.max_over_mean, 1.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn skew_of_spiky_series() {
        let s = skew_summary(&[0, 0, 0, 100]);
        assert_eq!(s.mean, 25.0);
        assert_eq!(s.max_over_mean, 4.0);
        assert!(s.cv > 1.5);
    }

    #[test]
    fn skew_handles_degenerate_input() {
        assert_eq!(skew_summary(&[]).max_over_mean, 1.0);
        assert_eq!(skew_summary(&[0, 0]).max_over_mean, 1.0);
    }
}
