//! The one `std` / model-checker switch: `std::sync` in normal builds,
//! this crate's virtual primitives under `--cfg gar_loom`.
//!
//! `gar-cluster`'s collectives and `gar-serve`'s epoch cell and shard
//! sender slots import their primitives from here, so the exact code that
//! runs in production is the code `cargo xtask loom` explores. The shim
//! presents one API over both backends:
//!
//! * `Mutex::lock` returns the guard directly. On the `std` backend a
//!   poisoned lock is recovered with `into_inner`: every user keeps its
//!   protected state valid at each step (a collective never leaves a
//!   half-updated generation behind, the epoch slot holds one `Arc`
//!   replaced atomically, a shard's sender slot is only republished from
//!   its supervisor's restart loop), and a panicking node already poisons
//!   the collectives at a higher level.
//! * `Condvar::wait` consumes and returns the guard (`std` style);
//!   callers must loop on their predicate either way.
//! * `Instant` is the monotonic clock for deadline accounting. Virtual
//!   time stands still under the model checker: deadlines never expire
//!   by clock — expiry is a nondeterministic scheduler branch inside the
//!   model `Condvar::wait_timeout` instead.

#[cfg(not(gar_loom))]
mod backend {
    use std::sync::PoisonError;

    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    pub use std::sync::Arc;
    pub use std::time::Instant;

    /// `std::sync::Mutex` with panic-poisoning flattened away.
    pub struct Mutex<T>(std::sync::Mutex<T>);

    /// Guard type, nameable under both backends.
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

        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            // lint:allow(wait-loop): raw std passthrough — the predicate
            // re-check loop lives at every call site.
            self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        /// Waits with a deadline; the bool reports expiry.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: std::time::Duration,
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
}

#[cfg(gar_loom)]
mod backend {
    pub use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    pub use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// The clock that never advances (see the module docs).
    #[derive(Clone, Copy, Debug)]
    pub struct Instant;

    impl Instant {
        pub fn now() -> Instant {
            Instant
        }

        pub fn elapsed(&self) -> std::time::Duration {
            std::time::Duration::ZERO
        }
    }
}

pub use backend::{Arc, AtomicBool, AtomicUsize, Condvar, Instant, Mutex, MutexGuard, Ordering};
