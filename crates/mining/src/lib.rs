//! Generalized association rule mining with classification hierarchy —
//! sequential baselines and the six parallel algorithms of
//! Shintani & Kitsuregawa (SIGMOD '98).
//!
//! # Layout
//!
//! * [`params`] — mining parameters (minimum support/confidence, counter
//!   choice, pass limits).
//! * [`candidate`] — Apriori candidate generation `L_{k-1} ⋈ L_{k-1}` with
//!   the subset prune and Cumulate's taxonomy-aware pass-2 pruning.
//! * [`counter`] — candidate support counters: a flat Fx hash map and a
//!   classic Apriori hash tree, both probe-counted.
//! * [`sequential`] — Cumulate ([SA95], the algorithm every parallel
//!   variant distributes) and Apriori ([RR94], the hierarchy-blind
//!   baseline: Cumulate over the edge-less taxonomy).
//! * [`parallel`] — NPGM, HPGM, H-HPGM and the skew-handling duplication
//!   variants H-HPGM-TGD / -PGD / -FGD, all running on the
//!   [`gar_cluster`] shared-nothing simulator.
//! * [`rules`] — rule derivation from large itemsets (min-confidence,
//!   redundant ancestor-rule removal, and the [SA95] R-interesting filter).
//! * [`report`] — per-pass, per-node measurement reports the bench harness
//!   turns into the paper's tables and figures.
//!
//! # Quick start
//!
//! ```
//! use gar_mining::{params::MiningParams, sequential::cumulate};
//! use gar_storage::PartitionedDatabase;
//! use gar_taxonomy::TaxonomyBuilder;
//! use gar_types::ItemId;
//!
//! // Tiny taxonomy: 0 is the parent of 1 and 2.
//! let mut b = TaxonomyBuilder::new(3);
//! b.edge(1, 0).unwrap();
//! b.edge(2, 0).unwrap();
//! let tax = b.build().unwrap();
//!
//! // Four transactions over the leaves.
//! let txns = vec![
//!     vec![ItemId(1)],
//!     vec![ItemId(2)],
//!     vec![ItemId(1), ItemId(2)],
//!     vec![ItemId(1)],
//! ];
//! let db = PartitionedDatabase::build_in_memory(1, txns.into_iter()).unwrap();
//!
//! let params = MiningParams::with_min_support(0.9);
//! let out = cumulate(db.partition(0), &tax, &params).unwrap();
//! // Every transaction contains a descendant of 0, so {0} is large even
//! // though 0 never appears in a raw transaction.
//! assert_eq!(out.support_of(&[ItemId(0)]), Some(4));
//! ```

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

pub mod candidate;
pub mod checkpoint;
pub mod counter;
pub mod oracle;
pub mod parallel;
pub mod params;
pub mod persist;
pub mod report;
pub mod rules;
pub mod sequential;
pub mod wire;

pub use params::{Algorithm, CounterKind, MiningParams};
pub use report::{MiningOutput, ParallelReport, PassReport};
