//! The `std` primitives behind `gar-cluster`'s collectives and
//! `gar-serve`'s epoch cell and shard sender slots.
//!
//! Each of those crates imports this module at its root (`use
//! gar_modelcheck::shim;`) and its modules take their primitives from
//! `crate::shim`. A model-checking suite includes the same source file
//! with `#[path]` next to a `mod shim` of its own that re-exports
//! [`crate::sync`] and a clock that never advances, so the exact code
//! that runs in production is the code the checker explores. Both
//! present one API:
//!
//! * `Mutex::lock` returns the guard directly. Here a poisoned lock is
//!   recovered with `into_inner`: every user keeps its protected state
//!   valid at each step (a collective never leaves a half-updated
//!   generation behind, the epoch slot holds one `Arc` replaced
//!   atomically, a shard's sender slot is only republished from its
//!   supervisor's restart loop), and a panicking node already poisons
//!   the collectives at a higher level.
//! * `Condvar::wait` consumes and returns the guard (`std` style);
//!   callers must loop on their predicate either way.
//! * `Instant` is the monotonic clock for deadline accounting. Virtual
//!   time stands still under the model checker: deadlines never expire
//!   by clock — expiry is a nondeterministic scheduler branch inside the
//!   model `Condvar::wait_timeout` instead.

use std::sync::PoisonError;
use std::time::Duration;

pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
pub use std::sync::Arc;

/// `std::sync::Mutex` with panic-poisoning flattened away.
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard type, nameable like the model checker's `sync::MutexGuard`.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::Condvar` with panic-poisoning flattened away.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Condvar {
        Condvar::default()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "raw std passthrough; the predicate re-check loop lives at every call site"
    )]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits with a deadline; the bool reports expiry.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, result) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (guard, result.timed_out())
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// `std::time::Instant`, read only for a collective's wait deadline.
#[derive(Clone, Copy, Debug)]
pub struct Instant(std::time::Instant);

impl Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline, not a measurement; the model clock in its place must stay \
                  swappable, so this read cannot go through gar-obs"
    )]
    pub fn now() -> Instant {
        Instant(std::time::Instant::now())
    }

    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}
