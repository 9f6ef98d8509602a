//! The classification hierarchy (taxonomy) over items.
//!
//! The paper (following Srikant & Agrawal's *Mining Generalized Association
//! Rules*, VLDB '95) organizes items into a forest of *is-a* trees: an edge
//! from `x` to `y` means `x` is a parent (generalization) of `y`. A
//! transaction *contains* an itemset `X` when every member of `X` is in the
//! transaction **or is an ancestor of some item in it** — so support
//! counting constantly walks ancestor chains. This crate precomputes
//! everything those walks need:
//!
//! * the full proper-ancestor closure of every item (flattened, cache-dense);
//! * the root of every item (the unit H-HPGM partitions candidates by);
//! * depth/level bookkeeping, leaf/interior classification;
//! * transaction *extension* (add all ancestors — Cumulate/NPGM/HPGM) and
//!   transaction *reduction* (replace each item with its closest-to-bottom
//!   large ancestor — the H-HPGM family);
//! * the Cumulate optimization of pruning ancestors that occur in no
//!   candidate ([`Taxonomy::pruned_view`]).
//!
//! [`synth`] grows the random forests used by the synthetic datasets of
//! Table 5 (number of roots, mean fanout).

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

mod builder;
pub mod io;
pub mod synth;
mod taxonomy;
mod view;

pub use builder::TaxonomyBuilder;
pub use taxonomy::{AncestorClosure, Taxonomy};
pub use view::PrunedView;
