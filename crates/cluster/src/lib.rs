//! A shared-nothing parallel machine, simulated.
//!
//! The paper runs on a 16-node IBM SP-2: POWER2 processors, 256 MB local
//! memory and a 2 GB local disk per node, joined by the High-Performance
//! Switch, programmed in a message-passing style with a coordinator node.
//! This crate reproduces that execution model on one machine:
//!
//! * each simulated node is an OS thread with a private message inbox
//!   (`std::sync::mpsc` channels play the switch, and payloads are
//!   shared `Arc<[u8]>` buffers);
//! * every byte and message crossing a link is **counted per node** — the
//!   paper's Table 6 metric ("average amount of received messages") falls
//!   out of these counters directly;
//! * collective operations (barrier, all-reduce of support-count vectors,
//!   coordinator broadcast of `L_k`) are one generation-counted round
//!   ([`Collectives`]) that every node enters in the same order — a node
//!   entering another collective fails the run with a protocol error —
//!   and are *also* charged to the communication ledger as
//!   gather-to-coordinator + broadcast;
//! * a [`FaultPlan`] injects seeded faults; a scheduled one is a
//!   [`FaultOp`] at an address, one kind of point for mining nodes and
//!   for the serving tier (which consults the same plan);
//! * [`Cluster::run`] is the one way to run the machine: it returns every
//!   node's result and counters, or the root-cause error of a failed run;
//! * a [`CostModel`] converts a node's counters (CPU ticks, bytes moved,
//!   I/O) into an SP-2-shaped execution time. It is the one pricer, and
//!   the miners' report assembly (`assemble_report` in `gar-mining`) is
//!   where a parallel run is priced: a pass's time is its critical path,
//!   `max` over nodes of the pass's counter deltas. Real wall-clock of
//!   the threaded run is reported alongside.
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

mod collective;
mod cost;
mod fault;
mod node;
mod runner;
pub mod stats;

use gar_modelcheck::shim;

pub use collective::Collectives;
pub use cost::CostModel;
pub use fault::{FaultOp, FaultPlan, RetryPolicy, ScheduledFault};
pub use node::{Envelope, Exchange, NodeCtx, CONTROL_TAG_EOS};
pub use runner::{Cluster, ClusterConfig, ClusterRun};
pub use stats::NodeStatsSnapshot;
