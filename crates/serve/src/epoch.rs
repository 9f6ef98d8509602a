//! Epoch-versioned hot-swap cell for the rule catalog.
//!
//! The server holds exactly one [`EpochCell`]; every query handler
//! takes a snapshot ([`EpochCell::load`]) before dispatching shard
//! work, and every shard job carries that same snapshot. A reload
//! builds the replacement catalog *outside* the lock and then swaps the
//! `Arc` in one critical section, so:
//!
//! * a query observes exactly one epoch end to end — the snapshot it
//!   loaded — never a mix of old and new rules (atomicity by
//!   construction: the catalog behind an `Arc<Epoch<T>>` is immutable);
//! * in-flight queries drain on the old epoch, which is freed when the
//!   last snapshot `Arc` drops;
//! * epoch numbers increase monotonically (`swap` computes
//!   `current + 1` under the same lock that publishes it).
//!
//! The cell takes its primitives from `crate::shim`, so
//! `tests/loom_epoch.rs` can include this file on the model checker's
//! primitives and explore the swap/load race.

use crate::shim::{Arc, Mutex};

/// One immutable, epoch-stamped value (the rule catalog in production).
#[derive(Debug)]
pub struct Epoch<T> {
    number: u64,
    value: T,
}

impl<T> Epoch<T> {
    /// The epoch number this value was published under (first is 1).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The value itself.
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// A slot holding the current `Arc<Epoch<T>>`, swappable while readers
/// hold snapshots of earlier epochs.
pub struct EpochCell<T> {
    slot: Mutex<Arc<Epoch<T>>>,
}

impl<T> EpochCell<T> {
    /// Publishes `value` as epoch 1.
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell {
            slot: Mutex::new(Arc::new(Epoch { number: 1, value })),
        }
    }

    /// Snapshot of the current epoch. The critical section is a single
    /// `Arc::clone`; the returned snapshot stays valid (and keeps its
    /// epoch's value alive) across any number of subsequent swaps.
    pub fn load(&self) -> Arc<Epoch<T>> {
        Arc::clone(&self.slot.lock())
    }

    /// Atomically publishes `value` as the next epoch and returns its
    /// number. The number is read and the new `Arc` stored under one
    /// lock, so concurrent swappers serialize and numbers never repeat
    /// or regress.
    pub fn swap(&self, value: T) -> u64 {
        let mut slot = self.slot.lock();
        let number = slot.number + 1;
        *slot = Arc::new(Epoch { number, value });
        number
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.slot.lock().number
    }
}
