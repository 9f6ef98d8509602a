//! Collective operations: barrier, all-reduce, broadcast.
//!
//! Every algorithm in the paper ends a pass the same way: support counts
//! (or locally decided `L_k^n` fragments) flow to the coordinator, the
//! coordinator assembles `L_k` and broadcasts it. These primitives provide
//! the synchronization; the *communication charging* happens in
//! [`crate::NodeCtx`], which knows the per-node ledgers.
//!
//! All operations are generation-counted so they can be reused pass after
//! pass, and they are poisoned when any node fails so the surviving nodes
//! error out instead of deadlocking. Poisoning records the *first*
//! failing node's id, which every subsequent error carries
//! ([`gar_types::Error::Poisoned`]) so a cascade of secondary failures
//! still points at its root cause.
//!
//! Concurrency discipline (model-checked by `cargo xtask loom`; clippy's
//! `disallowed_methods` flags every deadline-free wait):
//!
//! * every `Condvar` wait sits in a loop re-checking the generation
//!   counter, so spurious or stale wakeups (a notify from a *previous*
//!   generation's completion) re-park instead of returning early;
//! * a node leaves a collective only when the generation has advanced
//!   exactly once past the value it saw on entry, or the run is
//!   poisoned — asserted in debug builds.

use bytes::Bytes;
use gar_modelcheck::shim::{Arc, AtomicUsize, Condvar, Instant, Mutex, MutexGuard, Ordering};
use gar_types::{Error, Result};
use std::time::Duration;

/// Sentinel for "no node has poisoned the run".
const NOT_POISONED: usize = usize::MAX;

#[derive(Default)]
struct ReduceState {
    gen: u64,
    pending: usize,
    acc: Vec<u64>,
    result: Arc<Vec<u64>>,
}

#[derive(Default)]
struct BcastState {
    gen: u64,
    pending: usize,
    slot: Option<Bytes>,
    result: Bytes,
}

#[derive(Default)]
struct BarrierState {
    gen: u64,
    pending: usize,
}

/// Shared synchronization core for one cluster run.
pub struct Collectives {
    num_nodes: usize,
    /// Deadline for any single collective wait; `None` waits forever.
    deadline: Option<Duration>,
    /// Id of the first node that poisoned the run, or [`NOT_POISONED`].
    poisoned_by: AtomicUsize,
    reduce: Mutex<ReduceState>,
    reduce_cv: Condvar,
    bcast: Mutex<BcastState>,
    bcast_cv: Condvar,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
}

impl Collectives {
    /// Creates the collectives for `num_nodes` participants with no
    /// deadline (waits forever, like a real interconnect without a
    /// failure detector).
    pub fn new(num_nodes: usize) -> Collectives {
        Collectives::with_deadline(num_nodes, None)
    }

    /// Creates the collectives with a per-wait deadline. A node whose
    /// wait outlives the deadline poisons the run on its own behalf and
    /// returns [`Error::Timeout`], so a silently hung peer is detected
    /// instead of parking the cluster forever.
    pub fn with_deadline(num_nodes: usize, deadline: Option<Duration>) -> Collectives {
        assert!(num_nodes >= 1);
        Collectives {
            num_nodes,
            deadline,
            poisoned_by: AtomicUsize::new(NOT_POISONED),
            reduce: Mutex::new(ReduceState::default()),
            reduce_cv: Condvar::new(),
            bcast: Mutex::new(BcastState::default()),
            bcast_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState::default()),
            barrier_cv: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The configured per-wait deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Deadline-aware wait shared by every collective: parks while
    /// `waiting` holds and nobody has poisoned the run. On deadline
    /// expiry the predicate and poison state are re-checked *under the
    /// lock* (a wakeup that raced the timer must win — never lost, never
    /// double-reported); only a still-stalled wait poisons the run and
    /// returns [`Error::Timeout`]. If the poison CAS loses to a
    /// concurrent poisoner, that node's [`Error::Poisoned`] is returned
    /// instead so a run always reports exactly one root cause.
    fn wait_collective<'a, T>(
        &self,
        node: usize,
        op: &'static str,
        cv: &Condvar,
        mut s: MutexGuard<'a, T>,
        mut waiting: impl FnMut(&T) -> bool,
    ) -> Result<MutexGuard<'a, T>> {
        let Some(limit) = self.deadline else {
            #[expect(
                clippy::disallowed_methods,
                reason = "the no-deadline configuration of the deadline-aware wrapper itself"
            )]
            while waiting(&s) && !self.is_poisoned() {
                s = cv.wait(s);
            }
            return Ok(s);
        };
        #[cfg_attr(
            not(gar_loom),
            expect(
                clippy::disallowed_methods,
                reason = "the shim's Instant, which --cfg gar_loom swaps for the model checker's \
                          virtual clock; routing it through gar-obs would break schedule \
                          enumeration"
            )
        )]
        let start = Instant::now();
        loop {
            if !waiting(&s) || self.is_poisoned() {
                return Ok(s);
            }
            let remaining = limit.saturating_sub(start.elapsed());
            let (guard, timed_out) = cv.wait_timeout(s, remaining);
            s = guard;
            if timed_out && waiting(&s) && !self.is_poisoned() {
                // Drop the state lock before poisoning: poison() takes
                // every collective's lock to close the lost-wakeup
                // window, so holding ours here would self-deadlock.
                drop(s);
                self.poison(node);
                return match self.poisoned_by.load(Ordering::SeqCst) {
                    n if n == node => Err(Error::Timeout {
                        node,
                        op: op.into(),
                    }),
                    n => Err(Error::Poisoned { node: n }),
                };
            }
        }
    }

    /// Marks the run failed on behalf of `node` and wakes every waiter.
    /// Called when a node panics or errors so its peers fail fast instead
    /// of deadlocking. The first caller wins: later poisons keep the
    /// original culprit.
    pub fn poison(&self, node: usize) {
        let _ = self.poisoned_by.compare_exchange(
            NOT_POISONED,
            node,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        // Take each state lock before notifying: a waiter that has
        // checked `is_poisoned` but not yet parked would otherwise miss
        // this wakeup forever (the classic lost-wakeup race; the loom
        // suite's poison_vs_wait scenarios check exactly this).
        drop(self.reduce.lock());
        self.reduce_cv.notify_all();
        drop(self.bcast.lock());
        self.bcast_cv.notify_all();
        drop(self.barrier.lock());
        self.barrier_cv.notify_all();
    }

    /// True once any participant has failed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned_by.load(Ordering::SeqCst) != NOT_POISONED
    }

    /// The node that poisoned the run first, if any did.
    pub fn poisoned_by(&self) -> Option<usize> {
        match self.poisoned_by.load(Ordering::SeqCst) {
            NOT_POISONED => None,
            node => Some(node),
        }
    }

    pub(crate) fn check_poison(&self) -> Result<()> {
        match self.poisoned_by.load(Ordering::SeqCst) {
            NOT_POISONED => Ok(()),
            node => Err(Error::Poisoned { node }),
        }
    }

    /// Element-wise sum of every node's `contribution`. All participants
    /// must pass slices of the same length; all receive the same result.
    /// `node` identifies the caller (for poison attribution).
    pub fn all_reduce_u64(&self, node: usize, contribution: &[u64]) -> Result<Arc<Vec<u64>>> {
        self.check_poison()?;
        let mut s = self.reduce.lock();
        let my_gen = s.gen;
        debug_assert!(
            s.pending < self.num_nodes,
            "all_reduce: {} arrivals before generation {} closed",
            s.pending + 1,
            my_gen
        );
        if s.pending == 0 {
            s.acc.clear();
            s.acc.resize(contribution.len(), 0);
        } else if s.acc.len() != contribution.len() {
            drop(s);
            self.poison(node);
            return Err(Error::Protocol(format!(
                "all_reduce length mismatch at node {node}: expected {} elements",
                contribution.len()
            )));
        }
        for (a, &c) in s.acc.iter_mut().zip(contribution) {
            *a += c;
        }
        s.pending += 1;
        if s.pending == self.num_nodes {
            s.result = Arc::new(std::mem::take(&mut s.acc));
            s.pending = 0;
            s.gen += 1;
            debug_assert_eq!(s.gen, my_gen + 1, "all_reduce generation must be monotonic");
            self.reduce_cv.notify_all();
            Ok(s.result.clone())
        } else {
            s =
                self.wait_collective(node, "all_reduce", &self.reduce_cv, s, |s| s.gen == my_gen)?;
            // A generation that completed delivers its result even if a
            // peer has failed since (the failure surfaces at the next
            // collective): whether the coordinator gets to checkpoint a
            // finished pass must not depend on which waiter woke first.
            if s.gen == my_gen {
                self.check_poison()?;
            }
            debug_assert_eq!(
                s.gen,
                my_gen + 1,
                "all_reduce waiter woke {} generations late",
                s.gen.wrapping_sub(my_gen)
            );
            Ok(s.result.clone())
        }
    }

    /// One-to-all broadcast: exactly one participant passes `Some(data)`,
    /// all receive that data. `node` identifies the caller.
    pub fn broadcast(&self, node: usize, data: Option<Bytes>) -> Result<Bytes> {
        self.check_poison()?;
        let mut s = self.bcast.lock();
        let my_gen = s.gen;
        debug_assert!(
            s.pending < self.num_nodes,
            "broadcast: {} arrivals before generation {} closed",
            s.pending + 1,
            my_gen
        );
        if let Some(d) = data {
            if s.slot.is_some() {
                drop(s);
                self.poison(node);
                return Err(Error::Protocol(format!(
                    "node {node} tried to broadcast into an occupied round"
                )));
            }
            s.slot = Some(d);
        }
        s.pending += 1;
        if s.pending == self.num_nodes {
            let Some(d) = s.slot.take() else {
                drop(s);
                self.poison(node);
                return Err(Error::Protocol("broadcast round with no root".into()));
            };
            s.result = d;
            s.pending = 0;
            s.gen += 1;
            debug_assert_eq!(s.gen, my_gen + 1, "broadcast generation must be monotonic");
            self.bcast_cv.notify_all();
            Ok(s.result.clone())
        } else {
            s = self.wait_collective(node, "broadcast", &self.bcast_cv, s, |s| s.gen == my_gen)?;
            if s.gen == my_gen {
                self.check_poison()?; // see all_reduce_u64
            }
            debug_assert_eq!(
                s.gen,
                my_gen + 1,
                "broadcast waiter woke {} generations late",
                s.gen.wrapping_sub(my_gen)
            );
            Ok(s.result.clone())
        }
    }

    /// Rendezvous of all participants. `node` identifies the caller.
    pub fn barrier(&self, node: usize) -> Result<()> {
        self.check_poison()?;
        let mut s = self.barrier.lock();
        let my_gen = s.gen;
        debug_assert!(
            s.pending < self.num_nodes,
            "barrier: {} arrivals before generation {} closed",
            s.pending + 1,
            my_gen
        );
        s.pending += 1;
        if s.pending == self.num_nodes {
            s.pending = 0;
            s.gen += 1;
            debug_assert_eq!(s.gen, my_gen + 1, "barrier generation must be monotonic");
            self.barrier_cv.notify_all();
        } else {
            s = self.wait_collective(node, "barrier", &self.barrier_cv, s, |s| s.gen == my_gen)?;
            if s.gen == my_gen {
                self.check_poison()?; // see all_reduce_u64
            }
            debug_assert_eq!(
                s.gen,
                my_gen + 1,
                "barrier waiter woke {} generations late",
                s.gen.wrapping_sub(my_gen)
            );
        }
        Ok(())
    }
}

#[cfg(test)]
#[cfg(not(gar_loom))]
mod tests {
    use super::*;

    fn run_nodes<T: Send>(n: usize, f: impl Fn(usize, &Collectives) -> T + Sync) -> Vec<T> {
        let c = Collectives::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let c = &c;
                    let f = &f;
                    s.spawn(move || f(id, c))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_reduce_sums_elementwise() {
        let results = run_nodes(4, |id, c| {
            c.all_reduce_u64(id, &[id as u64, 1, 10 * id as u64])
                .unwrap()
        });
        for r in results {
            assert_eq!(&*r, &[6, 4, 60]);
        }
    }

    #[test]
    fn all_reduce_is_reusable_across_generations() {
        let results = run_nodes(3, |id, c| {
            let a = c.all_reduce_u64(id, &[1]).unwrap()[0];
            let b = c.all_reduce_u64(id, &[2]).unwrap()[0];
            (a, b)
        });
        for (a, b) in results {
            assert_eq!((a, b), (3, 6));
        }
    }

    #[test]
    fn all_reduce_length_mismatch_poisons() {
        let c = Collectives::new(2);
        let outcome = std::thread::scope(|s| {
            let h0 = s.spawn(|| c.all_reduce_u64(0, &[1, 2]));
            let h1 = s.spawn(|| c.all_reduce_u64(1, &[1]));
            (h0.join().unwrap(), h1.join().unwrap())
        });
        assert!(outcome.0.is_err() || outcome.1.is_err());
        assert!(c.is_poisoned());
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let results = run_nodes(4, |id, c| {
            let data = (id == 2).then(|| Bytes::from_static(b"Lk"));
            c.broadcast(id, data).unwrap()
        });
        for r in results {
            assert_eq!(&r[..], b"Lk");
        }
    }

    #[test]
    fn broadcast_with_two_roots_poisons() {
        let c = Collectives::new(2);
        let outcome = std::thread::scope(|s| {
            let h0 = s.spawn(|| c.broadcast(0, Some(Bytes::from_static(b"a"))));
            let h1 = s.spawn(|| c.broadcast(1, Some(Bytes::from_static(b"b"))));
            (h0.join().unwrap(), h1.join().unwrap())
        });
        assert!(outcome.0.is_err() || outcome.1.is_err());
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        run_nodes(8, |id, c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier(id).unwrap();
            // After the barrier every node must observe all 8 arrivals.
            assert_eq!(before.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn poison_wakes_waiters_and_names_culprit() {
        let c = Collectives::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| c.barrier(0));
            #[expect(
                clippy::disallowed_methods,
                reason = "not a synchronisation: the assertion holds whether the poison lands \
                          before or after the waiter parks (loom_collectives enumerates both); \
                          the pause only makes the parked-waiter order the likely one"
            )]
            std::thread::sleep(std::time::Duration::from_millis(20));
            c.poison(1);
            let err = waiter.join().unwrap().unwrap_err();
            assert!(
                matches!(err, Error::Poisoned { node: 1 }),
                "expected Poisoned{{node: 1}}, got {err}"
            );
        });
    }

    #[test]
    fn first_poisoner_wins() {
        let c = Collectives::new(3);
        c.poison(2);
        c.poison(0);
        let err = c.barrier(1).unwrap_err();
        assert!(matches!(err, Error::Poisoned { node: 2 }), "{err}");
    }

    #[test]
    fn deadline_expiry_reports_timeout_and_poisons() {
        let c = Collectives::with_deadline(2, Some(Duration::from_millis(30)));
        let start = gar_obs::Stopwatch::start();
        // The peer never arrives: the wait must end with Timeout, not hang.
        let err = c.barrier(0).unwrap_err();
        assert!(
            matches!(err, Error::Timeout { node: 0, ref op } if op == "barrier"),
            "{err}"
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(c.is_poisoned());
        // A late peer sees the run poisoned by the timed-out node.
        let err = c.barrier(1).unwrap_err();
        assert!(matches!(err, Error::Poisoned { node: 0 }), "{err}");
    }

    #[test]
    fn deadline_does_not_fire_on_healthy_runs() {
        let c = Collectives::with_deadline(3, Some(Duration::from_secs(30)));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|id| {
                    let c = &c;
                    s.spawn(move || {
                        for round in 0..5u64 {
                            c.barrier(id)?;
                            let sum = c.all_reduce_u64(id, &[round])?[0];
                            assert_eq!(sum, 3 * round);
                        }
                        Ok::<(), Error>(())
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        assert!(!c.is_poisoned());
    }

    #[test]
    fn single_node_collectives_are_trivial() {
        let c = Collectives::new(1);
        assert_eq!(&*c.all_reduce_u64(0, &[5]).unwrap(), &[5]);
        assert_eq!(
            c.broadcast(0, Some(Bytes::from_static(b"x"))).unwrap(),
            Bytes::from_static(b"x")
        );
        c.barrier(0).unwrap();
    }
}
