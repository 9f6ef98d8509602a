//! Collective operations: barrier, all-reduce, broadcast.
//!
//! Every algorithm in the paper ends a pass the same way: support counts
//! (or locally decided `L_k^n` fragments) flow to the coordinator, the
//! coordinator assembles `L_k` and broadcasts it. These primitives provide
//! the synchronization; the *communication charging* happens in
//! [`crate::NodeCtx`], which knows the per-node ledgers.
//!
//! All three are one generation-counted rendezvous, a *round*, behind
//! one lock and one condition variable: each node adds its contribution,
//! the last arrival closes the round and bumps the generation, and every
//! node reads the closed round's result. Like MPI collectives, every
//! node must enter the same collectives in the same order; the round
//! records its op at the first arrival, and a node that arrives with a
//! different op poisons the run with an [`Error::Protocol`] naming both
//! ops instead of parking. Rounds are poisoned when any node fails so
//! the surviving nodes error out instead of deadlocking. Poisoning
//! records the *first* failing node's id, which every subsequent error
//! carries ([`gar_types::Error::Poisoned`]) so a cascade of secondary
//! failures still points at its root cause.
//!
//! The primitives come from `crate::shim`: `std::sync` here, and the
//! model checker's virtual ones in `tests/loom_collectives.rs`, which
//! includes this file as it is. Concurrency discipline (model-checked by
//! that suite; clippy's `disallowed_methods` flags every deadline-free
//! wait):
//!
//! * every `Condvar` wait sits in a loop re-checking the generation
//!   counter, so spurious or stale wakeups (a notify from a *previous*
//!   generation's completion) re-park instead of returning early;
//! * a node leaves a collective only when the generation has advanced
//!   exactly once past the value it saw on entry, or the run is
//!   poisoned — asserted in debug builds.

use crate::shim::{Arc, AtomicUsize, Condvar, Instant, Mutex, MutexGuard, Ordering};
use gar_types::{Error, Result};
use std::time::Duration;

/// Sentinel for "no node has poisoned the run".
const NOT_POISONED: usize = usize::MAX;

/// The one rendezvous every collective runs through. A closed round's
/// results stay readable while the next round fills: `acc` and `slot`
/// collect arrivals, `sums` and `data` hold what the last close produced.
#[derive(Default)]
struct Round {
    gen: u64,
    pending: usize,
    /// The collective the open round runs, set by its first arrival.
    op: &'static str,
    acc: Vec<u64>,
    slot: Option<Arc<[u8]>>,
    sums: Arc<Vec<u64>>,
    data: Arc<[u8]>,
}

/// Shared synchronization core for one cluster run.
pub struct Collectives {
    num_nodes: usize,
    /// Deadline for any single collective wait; `None` waits forever.
    deadline: Option<Duration>,
    /// Id of the first node that poisoned the run, or [`NOT_POISONED`].
    poisoned_by: AtomicUsize,
    round: Mutex<Round>,
    closed: Condvar,
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
            round: Mutex::new(Round::default()),
            closed: Condvar::new(),
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

    /// Deadline-aware wait for the round of generation `my_gen` to close:
    /// parks while it is open and nobody has poisoned the run. On
    /// deadline expiry the generation and poison state are re-checked
    /// *under the lock* (a wakeup that raced the timer must win — never
    /// lost, never double-reported); only a still-stalled wait poisons
    /// the run and returns [`Error::Timeout`]. If the poison CAS loses to
    /// a concurrent poisoner, that node's [`Error::Poisoned`] is returned
    /// instead so a run always reports exactly one root cause.
    fn wait_round<'a>(
        &self,
        node: usize,
        op: &'static str,
        mut s: MutexGuard<'a, Round>,
        my_gen: u64,
    ) -> Result<MutexGuard<'a, Round>> {
        let Some(limit) = self.deadline else {
            #[expect(
                clippy::disallowed_methods,
                reason = "the no-deadline configuration of the deadline-aware wrapper itself"
            )]
            while s.gen == my_gen && !self.is_poisoned() {
                s = self.closed.wait(s);
            }
            return Ok(s);
        };
        let start = Instant::now();
        loop {
            if s.gen != my_gen || self.is_poisoned() {
                return Ok(s);
            }
            let remaining = limit.saturating_sub(start.elapsed());
            let (guard, timed_out) = self.closed.wait_timeout(s, remaining);
            s = guard;
            if timed_out && s.gen == my_gen && !self.is_poisoned() {
                // Drop the round lock before poisoning: poison() takes
                // it to close the lost-wakeup window, so holding it here
                // would self-deadlock.
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
        // Take the round lock before notifying: a waiter that has
        // checked `is_poisoned` but not yet parked would otherwise miss
        // this wakeup forever (the classic lost-wakeup race; the loom
        // suite's poison_vs_wait scenarios check exactly this).
        drop(self.round.lock());
        self.closed.notify_all();
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

    /// Runs one collective for `node`: `arrive` adds its contribution to
    /// the open round, the last arrival's `close` produces the result,
    /// and every node returns `read` of the closed round. An error from
    /// `arrive` or `close`, or an arrival whose `op` differs from the
    /// open round's, poisons the run on `node`'s behalf.
    fn round<T>(
        &self,
        node: usize,
        op: &'static str,
        arrive: impl FnOnce(&mut Round) -> Result<()>,
        close: impl FnOnce(&mut Round) -> Result<()>,
        read: impl FnOnce(&Round) -> T,
    ) -> Result<T> {
        self.check_poison()?;
        let mut s = self.round.lock();
        let my_gen = s.gen;
        debug_assert!(
            s.pending < self.num_nodes,
            "{op}: {} arrivals before generation {my_gen} closed",
            s.pending + 1
        );
        if s.pending == 0 {
            s.op = op;
        }
        let closing = s.pending + 1 == self.num_nodes;
        let arrived = if s.op == op {
            arrive(&mut s).and_then(|()| if closing { close(&mut s) } else { Ok(()) })
        } else {
            Err(Error::Protocol(format!(
                "node {node} entered {op} while its peers are in {}",
                s.op
            )))
        };
        if let Err(e) = arrived {
            drop(s);
            self.poison(node);
            return Err(e);
        }
        if closing {
            s.pending = 0;
            s.gen += 1;
            self.closed.notify_all();
        } else {
            s.pending += 1;
            s = self.wait_round(node, op, s, my_gen)?;
            // A generation that completed delivers its result even if a
            // peer has failed since (the failure surfaces at the next
            // collective): whether the coordinator gets to checkpoint a
            // finished pass must not depend on which waiter woke first.
            if s.gen == my_gen {
                self.check_poison()?;
            }
        }
        debug_assert_eq!(
            s.gen,
            my_gen + 1,
            "{op} left generation {my_gen} at {}",
            s.gen
        );
        Ok(read(&s))
    }

    /// Element-wise sum of every node's `contribution`. All participants
    /// must pass slices of the same length; all receive the same result.
    /// `node` identifies the caller (for poison attribution).
    pub fn all_reduce_u64(&self, node: usize, contribution: &[u64]) -> Result<Arc<Vec<u64>>> {
        let arrive = |s: &mut Round| {
            if s.pending == 0 {
                s.acc.clear();
                s.acc.resize(contribution.len(), 0);
            } else if s.acc.len() != contribution.len() {
                return Err(Error::Protocol(format!(
                    "all_reduce length mismatch at node {node}: expected {} elements",
                    contribution.len()
                )));
            }
            for (a, &c) in s.acc.iter_mut().zip(contribution) {
                *a += c;
            }
            Ok(())
        };
        let close = |s: &mut Round| {
            s.sums = Arc::new(std::mem::take(&mut s.acc));
            Ok(())
        };
        self.round(node, "all_reduce", arrive, close, |s| s.sums.clone())
    }

    /// One-to-all broadcast: exactly one participant passes `Some(data)`,
    /// all receive that data. `node` identifies the caller.
    pub fn broadcast(&self, node: usize, data: Option<Arc<[u8]>>) -> Result<Arc<[u8]>> {
        let arrive = |s: &mut Round| match data {
            Some(_) if s.slot.is_some() => Err(Error::Protocol(format!(
                "node {node} tried to broadcast into an occupied round"
            ))),
            Some(d) => {
                s.slot = Some(d);
                Ok(())
            }
            None => Ok(()),
        };
        let close = |s: &mut Round| {
            s.data = s
                .slot
                .take()
                .ok_or_else(|| Error::Protocol("broadcast round with no root".into()))?;
            Ok(())
        };
        self.round(node, "broadcast", arrive, close, |s| s.data.clone())
    }

    /// Rendezvous of all participants. `node` identifies the caller.
    pub fn barrier(&self, node: usize) -> Result<()> {
        self.round(node, "barrier", |_| Ok(()), |_| Ok(()), |_| ())
    }
}
