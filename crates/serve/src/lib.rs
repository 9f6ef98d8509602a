//! `gar-serve` — the serving layer: everything between a mined rule set
//! and a production query answer.
//!
//! * [`store`] — the persisted `GRUL` rule store (canonical order,
//!   embedded taxonomy, trailing checksum, atomic writes).
//! * [`index`] — the prefix tree over rule antecedents, with each
//!   rule's consequent beside its terminal, walked along a basket's
//!   extended transaction to the rules it matches.
//! * [`engine`] — basket scoring: top-k consequents by
//!   confidence×support with serve-time ancestor-redundancy
//!   suppression, matches as ranks into one sorted table of 16-byte
//!   keys, sharded by the same root-item hash as H-HPGM.
//! * [`protocol`] — the length-prefixed, checksummed wire protocol
//!   (every frame is parsed by [`protocol::FrameBuffer::next_frame`],
//!   which checks its length against [`protocol::MAX_FRAME_BYTES`]).
//! * [`server`] — the sharded concurrent TCP server: a single
//!   non-blocking readiness event loop (see [`netpoll`]) multiplexing
//!   every connection, pipelined + batched query frames, shard-affinity
//!   routing, supervised shard workers (panic isolation + bounded
//!   restarts), epoch hot-swap of the rule store
//!   ([`epoch::EpochCell`]), bounded queues with overload shedding,
//!   per-shard observability, deadline-bounded shard collection, and
//!   deterministic serve-side fault injection.
//! * [`netpoll`] — the hand-rolled `poll(2)` readiness shim the event
//!   loop blocks in (offline-deps: no `libc`/`mio`).
//! * [`epoch`] — the epoch-versioned hot-swap cell (model-checked by
//!   `tests/loom_epoch.rs`, which includes its source file).
//! * [`client`] — the blocking client (connect retries via
//!   `gar-cluster`'s `RetryPolicy`, optional read deadline,
//!   transparent reconnect-and-retry-once for idempotent queries),
//!   plus the in-process path [`engine::Catalog::query`] for
//!   embedders.

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

pub mod client;
pub mod engine;
pub mod epoch;
pub mod index;
pub mod netpoll;
pub mod protocol;
pub mod server;
pub mod store;

use gar_modelcheck::shim;

pub use client::{BatchReply, Client, QueryReply};
pub use engine::{Catalog, Recommendation, Route};
pub use epoch::{Epoch, EpochCell};
pub use server::{serve, ReloadHandle, Server, ServerConfig};
pub use store::RuleStore;

/// Shared fixtures for the unit tests of this crate.
#[cfg(test)]
pub(crate) mod testutil {
    use gar_mining::rules::Rule;
    use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
    use gar_types::Itemset;

    /// The [SA95] example hierarchy:
    /// clothes(0) -> outerwear(1) -> {jackets(3), ski pants(4)};
    /// clothes(0) -> shirts(2); footwear(5) -> {shoes(6), boots(7)}.
    pub fn sa95_taxonomy() -> Taxonomy {
        let mut b = TaxonomyBuilder::new(8);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (6, 5), (7, 5)] {
            b.edge(c, p).unwrap();
        }
        b.build().unwrap()
    }

    /// A rule over a 6-transaction database.
    pub fn rule(a: Itemset, c: Itemset, sup: u64, conf: f64) -> Rule {
        Rule {
            antecedent: a,
            consequent: c,
            support_count: sup,
            support: sup as f64 / 6.0,
            confidence: conf,
        }
    }
}
