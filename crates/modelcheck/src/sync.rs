//! Virtual synchronization primitives mirroring the `std::sync` APIs.
//!
//! Safety model: the scheduler in the crate root guarantees that exactly
//! one virtual thread executes between yield points, and every method
//! here that touches primitive state either runs at a yield point or
//! holds the execution's state lock. The `UnsafeCell`s below are
//! therefore never accessed concurrently, which is what justifies the
//! `unsafe impl Sync` blocks.

use crate::{block_current, current_context, schedule_point, Status, WaitQueue};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion (`std::sync::Mutex` subset, panic-free `lock`).
pub struct Mutex<T> {
    data: UnsafeCell<T>,
    state: UnsafeCell<MutexState>,
}

struct MutexState {
    locked: bool,
    waiters: WaitQueue,
}

// SAFETY: all access to the UnsafeCells is serialized by the model
// scheduler (one runnable virtual thread at a time; state mutations
// happen with the execution lock held).
unsafe impl<T: Send> Sync for Mutex<T> {}
// SAFETY: as for `Sync` above; moving the cells moves no shared access.
unsafe impl<T: Send> Send for Mutex<T> {}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            data: UnsafeCell::new(value),
            state: UnsafeCell::new(MutexState {
                locked: false,
                waiters: WaitQueue::new(),
            }),
        }
    }

    /// Acquires the lock, parking the virtual thread while contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        crate::trace_op("mutex.lock");
        schedule_point();
        self.acquire_after_yield();
        MutexGuard { mutex: self }
    }

    /// Lock acquisition without a fresh yield point — used on the
    /// re-acquire path of `Condvar::wait`, where waking from the wait
    /// queue already was the scheduling event.
    fn acquire_after_yield(&self) {
        loop {
            let (exec, me) = current_context();
            let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
            crate::check_abort(&st);
            // SAFETY: serialized by the scheduler; see module header.
            let ms = unsafe { &mut *self.state.get() };
            if !ms.locked {
                ms.locked = true;
                return;
            }
            ms.waiters.push_back(me);
            st.statuses[me] = Status::Blocked;
            block_current(&exec, st, me);
        }
    }

    fn unlock(&self) {
        crate::trace_op("mutex.unlock");
        let (exec, _me) = current_context();
        let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: serialized by the scheduler; see module header.
        let ms = unsafe { &mut *self.state.get() };
        debug_assert!(ms.locked, "unlock of an unlocked model Mutex");
        ms.locked = false;
        // Wake every waiter; they re-contend in acquire_after_yield, so
        // the scheduler (not queue order) decides who wins the lock.
        while let Some(t) = ms.waiters.pop_front() {
            st.statuses[t] = Status::Runnable;
        }
        exec.cv.notify_all();
    }
}

/// RAII guard; unlocking is a scheduler-visible event on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the virtual lock, and execution is
        // serialized, so no aliasing access exists.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
        // Give freshly woken contenders a chance to win the lock before
        // this thread's next operation.
        if !std::thread::panicking() {
            schedule_point();
        }
    }
}

/// Condition variable (`std::sync::Condvar` subset with guard-passing
/// `wait`, no poisoning, no timeouts).
pub struct Condvar {
    waiters: UnsafeCell<WaitQueue>,
}

// SAFETY: serialized by the model scheduler; see module header.
unsafe impl Sync for Condvar {}
// SAFETY: serialized by the model scheduler, as for `Sync` above.
unsafe impl Send for Condvar {}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar {
            waiters: UnsafeCell::new(WaitQueue::new()),
        }
    }

    /// Atomically releases the guard's mutex and parks until notified,
    /// then re-acquires the mutex. Like the real primitive, waking is
    /// not synchronous with `notify_*` — the woken thread re-contends
    /// the lock, so callers must re-check their predicate in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        // Yield point *before* the release-and-park: this is the window
        // where a notifier that does not hold the mutex can fire before
        // the waiter is on the wait queue — the lost-wakeup interleaving.
        // (The release-and-park itself is atomic, as in the real
        // primitive.) Without this yield the model would treat
        // predicate-check → park as one indivisible step and miss such
        // bugs entirely.
        crate::trace_op("condvar.wait enter");
        schedule_point();
        let mutex = guard.mutex;
        // Manual release: skip the guard's Drop (which would add an
        // extra yield point between unlock and park, breaking the
        // release-and-wait atomicity condvars guarantee).
        std::mem::forget(guard);
        {
            let (exec, me) = current_context();
            let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
            crate::check_abort(&st);
            // SAFETY: serialized by the scheduler; see module header.
            let ms = unsafe { &mut *mutex.state.get() };
            debug_assert!(ms.locked, "Condvar::wait with unlocked mutex");
            ms.locked = false;
            while let Some(t) = ms.waiters.pop_front() {
                st.statuses[t] = Status::Runnable;
            }
            // SAFETY: serialized by the scheduler; see module header.
            let cw = unsafe { &mut *self.waiters.get() };
            cw.push_back(me);
            st.statuses[me] = Status::Blocked;
            block_current(&exec, st, me);
        }
        mutex.acquire_after_yield();
        MutexGuard { mutex }
    }

    /// Like [`Condvar::wait`], but the wait may also end because the
    /// deadline expired; the second tuple element reports expiry. The
    /// timer is external to the program, so expiry is modeled as a
    /// nondeterministic branch: either the deadline fires before any
    /// notification, or the thread parks as a *timed* waiter that the
    /// scheduler may wake with `timed_out = true` when the whole system
    /// stops making progress (instead of declaring deadlock). As with
    /// the real primitive, a timeout may race a notification — callers
    /// must re-check their predicate either way.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        crate::trace_op("condvar.wait_timeout enter");
        schedule_point();
        let mutex = guard.mutex;
        // Manual release, as in `wait`: skip the guard's Drop.
        std::mem::forget(guard);
        if crate::choice(2) == 1 {
            // The deadline fires before this thread is ever notified:
            // release the mutex, let others run, re-acquire, report
            // expiry.
            crate::trace_op("condvar.wait_timeout expires");
            mutex.unlock();
            schedule_point();
            mutex.acquire_after_yield();
            return (MutexGuard { mutex }, true);
        }
        let timed_out;
        {
            let (exec, me) = current_context();
            let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
            crate::check_abort(&st);
            // SAFETY: serialized by the scheduler; see module header.
            let ms = unsafe { &mut *mutex.state.get() };
            debug_assert!(ms.locked, "Condvar::wait_timeout with unlocked mutex");
            ms.locked = false;
            while let Some(t) = ms.waiters.pop_front() {
                st.statuses[t] = Status::Runnable;
            }
            // SAFETY: serialized by the scheduler; see module header.
            let cw = unsafe { &mut *self.waiters.get() };
            cw.push_back(me);
            st.statuses[me] = Status::Blocked;
            st.timed[me] = true;
            block_current(&exec, st, me);
            let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
            crate::check_abort(&st);
            st.timed[me] = false;
            timed_out = std::mem::replace(&mut st.rescued[me], false);
            if timed_out {
                // A rescued thread is still queued on the condvar; a
                // later notify must not double-wake it.
                // SAFETY: serialized by the scheduler; see module header.
                let cw = unsafe { &mut *self.waiters.get() };
                cw.retain(|t| *t != me);
            }
        }
        mutex.acquire_after_yield();
        (MutexGuard { mutex }, timed_out)
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        crate::trace_op("condvar.notify_all");
        schedule_point();
        let (exec, _me) = current_context();
        let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: serialized by the scheduler; see module header.
        let cw = unsafe { &mut *self.waiters.get() };
        let mut woke = false;
        while let Some(t) = cw.pop_front() {
            st.statuses[t] = Status::Runnable;
            st.timed[t] = false;
            woke = true;
        }
        if woke {
            exec.cv.notify_all();
        }
    }
}

pub use std::sync::Arc;

pub mod atomic {
    //! Model atomics. Every operation is a yield point followed by a
    //! serialized read/modify/write of a single global value, i.e. the
    //! model explores sequentially consistent interleavings only — the
    //! `Ordering` argument is accepted for API compatibility but does
    //! not weaken anything (see the crate-level caveats).

    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $ty:ty) => {
            pub struct $name {
                value: super::UnsafeCell<$ty>,
            }

            // SAFETY: serialized by the model scheduler; every access
            // below happens at a yield point with the execution lock
            // held implicitly through single-thread-at-a-time execution.
            unsafe impl Sync for $name {}
            // SAFETY: serialized by the model scheduler, as for `Sync`.
            unsafe impl Send for $name {}

            impl $name {
                pub const fn new(value: $ty) -> $name {
                    $name {
                        value: super::UnsafeCell::new(value),
                    }
                }

                fn with<R>(&self, f: impl FnOnce(&mut $ty) -> R) -> R {
                    crate::trace_op("atomic op");
                    crate::schedule_point();
                    // SAFETY: execution is serialized; no concurrent
                    // access to the cell can exist.
                    f(unsafe { &mut *self.value.get() })
                }

                pub fn load(&self, _order: Ordering) -> $ty {
                    self.with(|v| *v)
                }

                pub fn store(&self, new: $ty, _order: Ordering) {
                    self.with(|v| *v = new);
                }

                pub fn swap(&self, new: $ty, _order: Ordering) -> $ty {
                    self.with(|v| std::mem::replace(v, new))
                }

                pub fn compare_exchange(
                    &self,
                    expected: $ty,
                    new: $ty,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.with(|v| {
                        if *v == expected {
                            *v = new;
                            Ok(expected)
                        } else {
                            Err(*v)
                        }
                    })
                }
            }
        };
    }

    model_atomic!(AtomicBool, bool);
    model_atomic!(AtomicUsize, usize);
    model_atomic!(AtomicU64, u64);

    macro_rules! model_atomic_arith {
        ($name:ident, $ty:ty) => {
            impl $name {
                pub fn fetch_add(&self, delta: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let old = *v;
                        *v = old.wrapping_add(delta);
                        old
                    })
                }
            }
        };
    }

    model_atomic_arith!(AtomicUsize, usize);
    model_atomic_arith!(AtomicU64, u64);
}
