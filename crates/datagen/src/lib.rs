//! Synthetic retail-transaction generator with classification hierarchy.
//!
//! Reimplementation of the generator the paper uses ("The generation
//! procedure is based on the method described in [SA95]"), which in turn
//! extends the IBM Quest generator of Agrawal & Srikant (VLDB '94) with a
//! taxonomy:
//!
//! 1. A forest of `R` trees with mean fanout `F` is grown over `N` items
//!    ([`gar_taxonomy::synth`]).
//! 2. A pool of *maximal potentially large itemsets* ("patterns") is drawn.
//!    Pattern sizes are Poisson with mean `|I|`; a fraction of each
//!    pattern's items is inherited from the previous pattern (correlation);
//!    fresh items are picked by a taxonomy walk, so patterns mix levels —
//!    associations planted at interior nodes are exactly what generalized
//!    rules recover. Each pattern carries an Exp(1) weight (normalized) and
//!    a clipped-Normal(0.5, 0.1) corruption level.
//! 3. Transactions draw Poisson(`|T|`)-many slots and fill them from
//!    weight-sampled patterns; corruption drops items stochastically;
//!    **interior items are replaced by a uniformly random leaf descendant**
//!    before emission, so raw transactions contain only leaves while their
//!    generalizations remain frequent.
//!
//! The exponential pattern weights are the source of the *data skew* the
//! paper's load-balancing algorithms (TGD/PGD/FGD) are designed to absorb.
//!
//! [`presets`] carries the Table-5 parameterizations (`R30F5`, `R30F3`,
//! `R30F10`) plus a `scale` knob, since the paper's 3.2 M-transaction,
//! 30 000-item datasets are shrunk proportionally for laptop-scale runs.

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

pub mod dist;
mod generator;
mod pattern;
pub mod presets;

pub use generator::{DatasetSpec, TransactionGenerator};
pub use pattern::{Pattern, PatternPool};
