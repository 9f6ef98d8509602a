//! The six parallel algorithms of the paper, on the shared-nothing
//! simulator.
//!
//! All algorithms share the pass skeleton (the paper's steps 1-4):
//!
//! 1. every node generates the identical candidate set `C_k` from
//!    `L_{k-1}` (deterministic — see [`crate::candidate`]);
//! 2. every node scans its local partition `D^n` once, exchanging data as
//!    the algorithm dictates;
//! 3. counts are assembled (all-reduce for replicated candidate sets,
//!    local decision + coordinator gather for partitioned ones);
//! 4. the coordinator's `L_k` goes everywhere; iterate until empty.
//!
//! That skeleton is written once, in [`common`]: the recovery loop, pass
//! 1, the partition scan and its I/O ledger, the pass loop with its
//! per-pass ledger and checkpoint writes, the batched exchange protocol
//! (per-owner batches, 16 KiB flush, periodic poll, final drain,
//! barrier), the gather, and report assembly — `gar-fpg`'s FP-Growth
//! driver runs through the same pieces. What an algorithm still owns is
//! the paper's whole subject, three policies per module:
//!
//! | module | placement key | transaction transform | shipped per transaction |
//! |---|---|---|---|
//! | [`npgm`] | none: replicated (fragmented when `\|C_k\| > M`) | ancestor-extend | nothing — but one full partition re-scan per fragment |
//! | [`hpgm`] | hash of the itemset | ancestor-extend | every k-subset of the extended transaction |
//! | [`hhpgm`] | hash of the *root* itemset | reduce to lowest large items | the sub-transaction, once per owner node; the owner re-extends |
//! | [`hhpgm`] + [`duplicate`] | H-HPGM minus the hottest candidates, which are replicated | same | same, minus traffic for fully-duplicated root groups |
//!
//! The flat baselines CD [AS96] and HPA [SK96] are NPGM and HPGM run over
//! the edge-less taxonomy, where extension is the identity.

pub mod common;
pub mod duplicate;
mod hhpgm;
mod hpgm;
mod npgm;

use crate::checkpoint::Checkpoint;
use crate::parallel::common::{mine_with_recovery, PassPersistence};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use gar_cluster::ClusterConfig;
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::Taxonomy;
use gar_types::{Error, Result};
use std::path::PathBuf;

pub use duplicate::{select_duplicates, DuplicateGrain, DuplicateSelection};

/// Fault-tolerance knobs for [`mine_parallel_with`]. The default is the
/// historical behavior: no checkpointing, no resume, fail on the first
/// node failure.
#[derive(Debug, Clone, Default)]
pub struct MineOptions {
    /// Directory for pass-level checkpoints; `None` keeps them in memory
    /// only (still enough for in-process degraded-mode recovery).
    pub checkpoint_dir: Option<PathBuf>,
    /// Restart from the newest intact checkpoint in `checkpoint_dir`
    /// (cold start if there is none).
    pub resume: bool,
    /// How many node failures to tolerate by re-running over the
    /// survivors (each failed node's partitions are redistributed and
    /// replayed). `0` propagates the first failure.
    pub max_node_failures: usize,
}

/// Dispatches to the algorithm implementation over explicit per-node
/// partitions.
fn dispatch(
    algorithm: Algorithm,
    sources: &[&FlatPartition],
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
    persist: &PassPersistence<'_, Checkpoint>,
) -> Result<ParallelReport> {
    if let Some(cp) = persist.resume_from.filter(|cp| cp.algorithm != algorithm) {
        return Err(Error::InvalidConfig(format!(
            "checkpoint was written by {} but {algorithm} was requested",
            cp.algorithm
        )));
    }
    let grain = match algorithm {
        Algorithm::Apriori | Algorithm::Cumulate => {
            return Err(Error::InvalidConfig(format!(
                "{algorithm} is a sequential algorithm; use gar_mining::sequential"
            )))
        }
        Algorithm::FpGrowth => {
            return Err(Error::InvalidConfig(
                "FP-Growth is a pattern-growth miner implemented by the gar-fpg crate; \
                 call gar_fpg::mine_parallel (or `gar-cli mine --algo fp-growth`)"
                    .into(),
            ))
        }
        Algorithm::Npgm => return npgm::mine(sources, tax, params, cluster, persist),
        Algorithm::Hpgm => return hpgm::mine(sources, tax, params, cluster, persist),
        Algorithm::HHpgm => None,
        Algorithm::HHpgmTgd => Some(DuplicateGrain::Tree),
        Algorithm::HHpgmPgd => Some(DuplicateGrain::Path),
        Algorithm::HHpgmFgd => Some(DuplicateGrain::Fine),
    };
    hhpgm::mine(algorithm, grain, sources, tax, params, cluster, persist)
}

/// Runs `algorithm` over `db` (one partition per node) with hierarchy
/// `tax` on a simulated cluster of `cluster.num_nodes` nodes:
/// [`mine_parallel_with`] with default [`MineOptions`].
///
/// # Errors
/// Rejects sequential algorithm identifiers, a node/partition mismatch,
/// and invalid parameters; propagates node failures.
pub fn mine_parallel(
    algorithm: Algorithm,
    db: &PartitionedDatabase,
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
) -> Result<ParallelReport> {
    mine_parallel_with(algorithm, db, tax, params, cluster, &MineOptions::default())
}

/// [`mine_parallel`] with the fault-tolerant runtime: pass-level
/// checkpointing, `--resume`, and degraded-mode recovery (see
/// [`common::mine_with_recovery`]).
pub fn mine_parallel_with(
    algorithm: Algorithm,
    db: &PartitionedDatabase,
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
    opts: &MineOptions,
) -> Result<ParallelReport> {
    mine_with_recovery(db, params, cluster, opts, |sources, cluster, persist| {
        dispatch(algorithm, sources, tax, params, cluster, persist)
    })
}
