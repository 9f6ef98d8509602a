//! A shared-nothing parallel machine, simulated.
//!
//! The paper runs on a 16-node IBM SP-2: POWER2 processors, 256 MB local
//! memory and a 2 GB local disk per node, joined by the High-Performance
//! Switch, programmed in a message-passing style with a coordinator node.
//! This crate reproduces that execution model on one machine:
//!
//! * each simulated node is an OS thread with a private message inbox
//!   (crossbeam channels play the switch);
//! * every byte and message crossing a link is **counted per node** — the
//!   paper's Table 6 metric ("average amount of received messages") falls
//!   out of these counters directly;
//! * collective operations (barrier, all-reduce of support-count vectors,
//!   coordinator broadcast of `L_k`) are provided and *also* charged to the
//!   communication ledger as gather-to-coordinator + broadcast;
//! * a [`CostModel`] converts a node's counters (CPU ticks, bytes moved,
//!   I/O) into an SP-2-shaped execution time. Reported times are the
//!   critical path: `max` over nodes, per phase. Real wall-clock of the
//!   threaded run is reported alongside by the bench harness.
//!
//! Why a simulator instead of MPI: no SP-2 (or any multi-node machine)
//! exists in this environment, and Rust MPI bindings are thin. The paper's
//! claims are about *relative* communication volume, workload distribution
//! and speedup shape — all functions of the counted quantities, which this
//! substrate measures exactly (see DESIGN.md §2).

// A panic here must become a typed error, not a dead node or handler
// thread (DESIGN.md §11); test code is exempt via clippy.toml.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

// Under `--cfg gar_loom` (see `cargo xtask loom`) only the collectives
// compile: `gar_modelcheck::shim` replaces the std primitives,
// and the channel/thread machinery of the full simulator is out of the
// model's scope. `stats` stays: it is plain data over std atomics, and
// the sequential miner (which the serving layer links) reports in it.
mod collective;
#[cfg(not(gar_loom))]
mod cost;
#[cfg(not(gar_loom))]
mod fault;
#[cfg(not(gar_loom))]
mod node;
#[cfg(not(gar_loom))]
mod runner;
pub mod stats;

pub use collective::Collectives;
#[cfg(not(gar_loom))]
pub use cost::CostModel;
#[cfg(not(gar_loom))]
pub use fault::{FaultOp, FaultPlan, RetryPolicy, ScheduledFault, ServeFault, ServeFaultOp};
#[cfg(not(gar_loom))]
pub use node::{Envelope, Exchange, NodeCtx, CONTROL_TAG_EOS};
#[cfg(not(gar_loom))]
pub use runner::{Cluster, ClusterConfig, ClusterFailure, ClusterRun, RunOutcome};
pub use stats::{NodeStats, NodeStatsSnapshot};
