//! The SP-2-shaped analytic cost model.
//!
//! Real wall-clock of the threaded simulation measures *this machine*
//! (shared caches, one memory bus), not a 1998 shared-nothing cluster. To
//! report execution times with the paper's shape, node counters are priced
//! with constants resembling the SP-2 testbed: a slow scalar CPU, a
//! high-latency/moderate-bandwidth switch (HPS), and a slow local SCSI
//! disk. Only *ratios* between the constants matter for the curves; the
//! absolute values put the output in recognizable seconds.

use crate::stats::NodeStatsSnapshot;

/// Prices for one node's counted activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per abstract CPU work unit (subset enumeration step, tree
    /// walk step, ancestor push). POWER2-era: tens of nanoseconds of
    /// useful work per op.
    pub seconds_per_cpu_tick: f64,
    /// Seconds per successful candidate probe (a sup_cou increment): a
    /// random-access read-modify-write in a table far larger than cache —
    /// hundreds of nanoseconds on 1998 DRAM. Priced separately because
    /// the paper's own workload metric (Figure 15) is exactly this count,
    /// and its per-node concentration is what the skew-handling
    /// algorithms exist to flatten.
    pub seconds_per_probe: f64,
    /// Fixed per-message overhead in seconds (MPL software latency on the
    /// HPS was ~40 µs).
    pub seconds_per_message: f64,
    /// Seconds per byte moved through a node's link (HPS sustained
    /// ~35 MB/s per node).
    pub seconds_per_net_byte: f64,
    /// Seconds per byte read from local disk (~8 MB/s sequential in 1998).
    pub seconds_per_io_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_cpu_tick: 60e-9,
            seconds_per_probe: 300e-9,
            seconds_per_message: 40e-6,
            seconds_per_net_byte: 1.0 / (35.0 * 1024.0 * 1024.0),
            seconds_per_io_byte: 1.0 / (8.0 * 1024.0 * 1024.0),
        }
    }
}

impl CostModel {
    /// Modeled busy time of one node.
    ///
    /// CPU and disk overlap poorly on a single-threaded 1998 node, and a
    /// message is charged to both endpoints (send overhead + receive
    /// overhead), matching the MPL accounting the paper's numbers reflect.
    pub fn node_seconds(&self, s: &NodeStatsSnapshot) -> f64 {
        let cpu = s.cpu_ticks as f64 * self.seconds_per_cpu_tick
            + s.hash_probes as f64 * self.seconds_per_probe;
        let net = (s.messages_sent + s.messages_received) as f64 * self.seconds_per_message
            + (s.bytes_sent + s.bytes_received) as f64 * self.seconds_per_net_byte;
        let io = s.io_bytes as f64 * self.seconds_per_io_byte;
        cpu + net + io
    }

    /// Modeled execution time of a phase: the slowest node is the critical
    /// path (all algorithms in the paper end each pass with a barrier at
    /// the coordinator).
    pub fn execution_seconds(&self, nodes: &[NodeStatsSnapshot]) -> f64 {
        nodes
            .iter()
            .map(|s| self.node_seconds(s))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cpu: u64, msgs: u64, bytes: u64, io: u64) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            cpu_ticks: cpu,
            messages_sent: msgs,
            bytes_sent: bytes,
            io_bytes: io,
            ..Default::default()
        }
    }

    #[test]
    fn execution_time_is_max_over_nodes() {
        let m = CostModel::default();
        let a = snap(1_000_000, 0, 0, 0);
        let b = snap(4_000_000, 0, 0, 0);
        let exec = m.execution_seconds(&[a, b]);
        assert!((exec - m.node_seconds(&b)).abs() < 1e-12);
        assert!(exec > m.node_seconds(&a));
    }

    #[test]
    fn communication_dominates_when_bytes_are_huge() {
        let m = CostModel::default();
        let chatty = snap(0, 1_000, 100 * 1024 * 1024, 0);
        let quiet = snap(1_000_000, 0, 0, 0);
        assert!(m.node_seconds(&chatty) > m.node_seconds(&quiet));
    }

    #[test]
    fn io_priced_slower_than_net() {
        let m = CostModel::default();
        let io = snap(0, 0, 0, 1024 * 1024);
        let net = NodeStatsSnapshot {
            bytes_sent: 1024 * 1024,
            ..Default::default()
        };
        assert!(m.node_seconds(&io) > m.node_seconds(&net));
    }

    #[test]
    fn probes_priced_heavier_than_ticks() {
        let m = CostModel::default();
        let probing = NodeStatsSnapshot {
            hash_probes: 1_000,
            ..Default::default()
        };
        let ticking = snap(1_000, 0, 0, 0);
        assert!(m.node_seconds(&probing) > m.node_seconds(&ticking));
    }
}
