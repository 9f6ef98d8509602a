//! The per-node ledger: the raw material of every figure in the paper.

/// One node's tallies. Each node owns its ledger: the node's
/// [`crate::NodeCtx`] charges it with one call per event (a link send or
/// receive, a collective, a partition scan, an injected fault, the CPU
/// ticks and probes a miner reports) and hands the final copy back to
/// [`crate::Cluster::run`] with the node's result. A snapshot is a plain
/// copy, so a phase is the [`NodeStatsSnapshot::delta_since`] of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub messages_received: u64,
    /// Point-to-point payload bytes received (Table 6's metric).
    pub bytes_received: u64,
    /// Candidate hash-table probes performed on this node (Figure 15's
    /// metric: "the number of hash table probes to increment sup_cou").
    pub hash_probes: u64,
    /// Abstract CPU work units (itemset generations, ancestor walks, ...).
    pub cpu_ticks: u64,
    /// Bytes read from the node's local disk partition.
    pub io_bytes: u64,
    /// Full passes over the local partition (NPGM fragments re-scan).
    pub scan_passes: u64,
    /// Faults injected on this node by the active [`crate::FaultPlan`]
    /// (drops, duplicates, corruptions, delays, scan errors, panics,
    /// hangs).
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
    fn delta_isolates_a_phase() {
        let before = NodeStatsSnapshot {
            messages_sent: 1,
            bytes_sent: 100,
            ..NodeStatsSnapshot::default()
        };
        let after = NodeStatsSnapshot {
            messages_sent: 2,
            bytes_sent: 123,
            hash_probes: 5,
            ..before
        };
        let d = after.delta_since(&before);
        assert_eq!(d.messages_sent, 1);
        assert_eq!(d.bytes_sent, 23);
        assert_eq!(d.hash_probes, 5);
        assert_eq!(d.cpu_ticks, 0);
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
