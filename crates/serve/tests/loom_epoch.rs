//! Model checking of the epoch hot-swap cell.
//!
//! This suite includes `src/epoch.rs` itself, built on the
//! `gar-modelcheck` virtual mutex through the `shim` below: every
//! schedule of every scenario is explored, so a passing suite means no
//! interleaving of a query racing a swap can observe a torn store (a mix
//! of epochs), regress the epoch number, or deadlock against the
//! supervisor's slot-clearing restart path.

/// What `epoch.rs` imports as `crate::shim`: the model primitives.
mod shim {
    pub use gar_modelcheck::sync::*;
}

#[path = "../src/epoch.rs"]
mod epoch;

use epoch::EpochCell;
use gar_modelcheck::sync::Mutex;
use gar_modelcheck::{model_with, thread, Config};
use std::sync::Arc;

fn exhaustive() -> Config {
    Config {
        fail_on_truncation: true,
        ..Config::default()
    }
}

fn bounded(preemptions: usize) -> Config {
    Config {
        preemption_bound: Some(preemptions),
        fail_on_truncation: true,
        ..Config::default()
    }
}

/// A query racing one swap observes exactly the old or the new epoch —
/// `(1, "old")` or `(2, "new")` — never a mix, and the snapshot stays
/// coherent after the swap lands.
#[test]
fn query_racing_a_swap_sees_exactly_one_epoch() {
    let schedules = model_with(exhaustive(), || {
        let cell = Arc::new(EpochCell::new("old"));
        let swapper = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                assert_eq!(cell.swap("new"), 2);
            })
        };
        // The "query": one snapshot, read twice (dispatch + merge in
        // the real server both go through the same snapshot).
        let snapshot = cell.load();
        let seen = (snapshot.number(), *snapshot.value());
        assert!(
            seen == (1, "old") || seen == (2, "new"),
            "torn epoch observed: {seen:?}"
        );
        swapper.join().unwrap();
        // After the swap joined, the old snapshot still reads its own
        // epoch (drained queries finish on the store they started on)…
        assert_eq!((snapshot.number(), *snapshot.value()), seen);
        // …and a fresh load sees the new epoch.
        let fresh = cell.load();
        assert_eq!((fresh.number(), *fresh.value()), (2, "new"));
    });
    assert!(schedules > 1);
}

/// Two concurrent swappers serialize: epoch numbers never repeat or
/// regress, and both land.
#[test]
fn concurrent_swaps_stay_monotonic() {
    model_with(exhaustive(), || {
        let cell = Arc::new(EpochCell::new(0u32));
        let a = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.swap(1))
        };
        let b = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.swap(2))
        };
        let (ea, eb) = (a.join().unwrap(), b.join().unwrap());
        assert!(
            (ea == 2 && eb == 3) || (ea == 3 && eb == 2),
            "epochs {ea},{eb} must be 2 and 3 in some order"
        );
        assert_eq!(cell.epoch(), 3);
    });
}

/// The drain-then-drop shape of the server cannot deadlock with the
/// supervisor restart path: a reader holding an old snapshot, a
/// supervisor clearing and republishing a shard slot, and a swapper
/// publishing a new epoch all run to completion under every schedule.
#[test]
fn drain_and_restart_cannot_deadlock() {
    model_with(bounded(2), || {
        let cell = Arc::new(EpochCell::new("old"));
        // The shard slot: `Some(sender)` stands in for the published
        // queue endpoint; the supervisor's restart clears then
        // republishes it — the same two-lock structure as server.rs
        // (slot lock and epoch lock are never held together).
        let slot = Arc::new(Mutex::new(Some(1u32)));
        let reader = {
            let cell = Arc::clone(&cell);
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                // Handler order: snapshot first, then the slot (dispatch).
                let snapshot = cell.load();
                let endpoint = *slot.lock();
                // Merge happens on the snapshot regardless of the slot
                // state (a cleared slot is a degraded answer).
                let _ = (snapshot.number(), *snapshot.value(), endpoint);
            })
        };
        let supervisor = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                // Crash: clear the slot…
                slot.lock().take();
                // …and restart: publish the next incarnation.
                *slot.lock() = Some(2);
            })
        };
        let swapper = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.swap("new");
            })
        };
        reader.join().unwrap();
        supervisor.join().unwrap();
        swapper.join().unwrap();
        assert_eq!(cell.epoch(), 2);
        assert_eq!(*slot.lock(), Some(2));
    });
}
