//! The epoch cell on real threads: numbering, and snapshots that
//! outlive a swap. The model checker explores the same code's schedules
//! in `loom_epoch.rs`.

use gar_serve::EpochCell;

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
