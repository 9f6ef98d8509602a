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
//! The cell is built on `gar_modelcheck::shim` so `cargo xtask loom` can model
//! check the swap/load race (`tests/loom_epoch.rs`).

use gar_modelcheck::shim::{Arc, Mutex};

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

#[cfg(test)]
#[cfg(not(gar_loom))]
mod tests {
    use super::*;

    #[test]
    fn swap_bumps_epoch_and_old_snapshots_survive() {
        let cell = EpochCell::new("a");
        let before = cell.load();
        assert_eq!((before.number(), *before.value()), (1, "a"));
        assert_eq!(cell.swap("b"), 2);
        assert_eq!(cell.epoch(), 2);
        // The old snapshot still reads the old value.
        assert_eq!((before.number(), *before.value()), (1, "a"));
        let after = cell.load();
        assert_eq!((after.number(), *after.value()), (2, "b"));
    }

    #[test]
    fn epochs_are_monotonic_under_concurrent_swaps() {
        let cell = std::sync::Arc::new(EpochCell::new(0usize));
        let mut handles = Vec::new();
        for t in 0..4 {
            let cell = std::sync::Arc::clone(&cell);
            handles.push(std::thread::spawn(move || {
                (0..64).map(|_| cell.swap(t)).collect::<Vec<u64>>()
            }));
        }
        let mut seen: Vec<u64> = Vec::new();
        for h in handles {
            let numbers = h.join().expect("swapper panicked");
            assert!(
                numbers.windows(2).all(|w| w[0] < w[1]),
                "per-thread monotone"
            );
            seen.extend(numbers);
        }
        seen.sort_unstable();
        let expected: Vec<u64> = (2..2 + 4 * 64).collect();
        assert_eq!(seen, expected, "every epoch number issued exactly once");
    }
}
