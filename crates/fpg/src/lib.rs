//! Hierarchy-aware parallel FP-Growth — the repository's second miner
//! family, next to the Apriori-style candidate-generation algorithms of
//! `gar-mining`.
//!
//! # Algorithm
//!
//! Pattern growth replaces the generate-count-prune pass loop with two
//! database scans and a tree walk:
//!
//! 1. **Count** (identical to the Apriori family's pass 1): every item of
//!    every taxonomy level is counted over ancestor-extended transactions
//!    (`t' = t ∪ ancestors(t)`), yielding `L_1` and the global frequency
//!    order.
//! 2. **Build**: a second scan inserts each extended transaction — filtered
//!    to large items and sorted by the global order — into an FP-tree.
//! 3. **Grow**: for every large item, the tree's conditional pattern base
//!    (the prefix paths above that item's nodes) is mined recursively.
//!    Items hierarchy-related to the projection item are dropped from its
//!    base, which is where Cumulate's "no itemset contains both an item
//!    and its ancestor" rule lives in a pattern-growth world: an ancestor
//!    appears in its descendant's base with the descendant's full count
//!    (every extended transaction holding the child holds the parent), and
//!    filtering it there removes exactly the redundant combinations.
//!
//! The output is **byte-identical** to the sequential Cumulate oracle: the
//! same itemsets, the same support counts, the same canonical order. See
//! [`sequential::mine_sequential`] for the single-threaded miner and
//! [`parallel::mine_parallel`] for the cluster driver.
//!
//! # Parallelization
//!
//! The cluster version carries the H-HPGM placement idea (partition by the
//! *root* of the classification hierarchy, so generalization chains stay
//! node-local) to projections: each large item's conditional base is owned
//! by `hash(root_of(item)) % N`. Every node builds an FP-tree over its own
//! partition, ships each projection's paths to the owner through one
//! non-barrier exchange, and then mines its owned projections as
//! independent tasks — there is no per-pass synchronization after the
//! exchange. Finished projections stream to the coordinator, which
//! checkpoints at projection granularity and broadcasts the assembled
//! output, so degraded-mode recovery after a node failure replays only the
//! unfinished projections.

// A panic here must become a typed error, not a dead node or handler
// thread (DESIGN.md §11); test code is exempt via clippy.toml.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod checkpoint;
pub mod grow;
pub mod order;
pub mod parallel;
pub mod sequential;
pub mod tree;
mod wire;

pub use checkpoint::FpgCheckpoint;
pub use order::ItemOrder;
pub use parallel::{mine_parallel, mine_parallel_with, owner_of, MineOptions};
pub use sequential::mine_sequential;
pub use tree::FpTree;
