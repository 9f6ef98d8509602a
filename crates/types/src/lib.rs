//! Core value types shared by every crate in the `gar` workspace.
//!
//! This crate is deliberately dependency-free. It provides:
//!
//! * [`ItemId`] — a dense `u32` identifier for an item in the universe
//!   `I = {i_1, ..., i_m}` of the paper;
//! * [`Itemset`] — a canonical (sorted, duplicate-free) set of items, the
//!   unit the Apriori family counts support for;
//! * [`FxHashMap`] / [`FxHashSet`] — hash containers using a fast
//!   FxHash-style integer hasher (the candidate tables sit on the hottest
//!   path of every algorithm, and the default SipHash is measurably slower
//!   for short integer keys);
//! * [`Error`] — the shared error type;
//! * [`bytes`] — the one bounded [`bytes::Cursor`], checksum seal and
//!   temp-file + rename writer behind every persisted format and frame.

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

pub mod bytes;
pub mod error;
pub mod hash;
pub mod item;
pub mod itemset;

pub use error::{Error, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use item::ItemId;
pub use itemset::Itemset;
