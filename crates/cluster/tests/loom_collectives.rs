//! Model checking of the generation-counted collectives.
//!
//! This suite includes `src/collective.rs` itself, built on the
//! `gar-modelcheck` virtual primitives through the `shim` below: every
//! schedule of every scenario is explored (up to the stated bounds), so
//! a passing suite means no interleaving of these operations can
//! deadlock, lose a wakeup, return a stale generation's result, or
//! mis-accumulate.
//!
//! Scenario sizes are chosen so the unbounded searches complete
//! exhaustively in seconds; the 3-node and poison scenarios use a
//! preemption bound (iterative context bounding: almost all concurrency
//! bugs need very few forced preemptions) to keep the suite fast while
//! still covering every 2-preemption schedule.

/// What `collective.rs` imports as `crate::shim`: the model primitives,
/// and a clock that never advances (a deadline expires only through the
/// model `Condvar::wait_timeout`'s scheduler branch).
mod shim {
    pub use gar_modelcheck::sync::{atomic::*, *};

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

#[expect(dead_code, reason = "the suite never reads the configuration getters")]
#[path = "../src/collective.rs"]
mod collective;

use collective::Collectives;
use gar_modelcheck::{model_with, thread, Config};
use gar_types::Error;
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

/// Runs `f(node, collectives)` on `n` virtual threads and joins them.
fn spawn_nodes(n: usize, f: impl Fn(usize, &Collectives) + Send + Sync + Copy + 'static) {
    let c = Arc::new(Collectives::new(n));
    let handles: Vec<_> = (1..n)
        .map(|id| {
            let c = Arc::clone(&c);
            thread::spawn(move || f(id, &c))
        })
        .collect();
    f(0, &c);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn barrier_two_nodes_reused_across_generations() {
    let schedules = model_with(exhaustive(), || {
        spawn_nodes(2, |id, c| {
            // Two back-to-back barriers: generation reuse is exactly
            // where a waiter released by generation g must not consume
            // generation g+1's arrival accounting.
            c.barrier(id).unwrap();
            c.barrier(id).unwrap();
        });
    });
    assert!(schedules > 1);
}

#[test]
fn barrier_three_nodes() {
    model_with(bounded(2), || {
        spawn_nodes(3, |id, c| {
            c.barrier(id).unwrap();
            c.barrier(id).unwrap();
        });
    });
}

#[test]
fn all_reduce_two_nodes_accumulates_once_per_node() {
    model_with(exhaustive(), || {
        spawn_nodes(2, |id, c| {
            // Distinct powers of two: any double-count or dropped
            // contribution changes the sum.
            let r = c.all_reduce_u64(id, &[1 << id]).unwrap();
            assert_eq!(r[0], 0b11);
        });
    });
}

#[test]
fn all_reduce_generations_do_not_bleed() {
    model_with(bounded(3), || {
        spawn_nodes(2, |id, c| {
            // Round 1 sums to 3, round 2 to 30: a waiter handed the
            // wrong generation's result (or an accumulator not reset
            // between rounds) fails one of the asserts.
            let a = c.all_reduce_u64(id, &[1 + id as u64]).unwrap();
            assert_eq!(a[0], 3);
            let b = c.all_reduce_u64(id, &[10 * (1 + id as u64)]).unwrap();
            assert_eq!(b[0], 30);
        });
    });
}

#[test]
fn all_reduce_three_nodes() {
    model_with(bounded(2), || {
        spawn_nodes(3, |id, c| {
            let r = c.all_reduce_u64(id, &[1 << id]).unwrap();
            assert_eq!(r[0], 0b111);
        });
    });
}

#[test]
fn broadcast_slot_handoff_across_generations() {
    model_with(bounded(3), || {
        spawn_nodes(2, |id, c| {
            // Round 1 rooted at node 0, round 2 at node 1: the slot must
            // be taken by the closing node of round 1 before any arrival
            // of round 2 stores into it.
            let d = (id == 0).then(|| Arc::from(&b"first"[..]));
            let r = c.broadcast(id, d).unwrap();
            assert_eq!(&r[..], b"first");
            let d = (id == 1).then(|| Arc::from(&b"second"[..]));
            let r = c.broadcast(id, d).unwrap();
            assert_eq!(&r[..], b"second");
        });
    });
}

#[test]
fn broadcast_two_roots_is_rejected_in_every_schedule() {
    model_with(exhaustive(), || {
        let c = Arc::new(Collectives::new(2));
        let peer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.broadcast(1, Some(Arc::from(&b"b"[..]))))
        };
        let mine = c.broadcast(0, Some(Arc::from(&b"a"[..])));
        let theirs = peer.join().unwrap();
        // Whoever arrives second errors; the run is poisoned either way
        // and at most one root can have "won".
        assert!(mine.is_err() || theirs.is_err());
        assert!(c.is_poisoned());
    });
}

#[test]
fn mismatched_collectives_fail_typed_in_every_schedule() {
    // Node 0 enters a barrier while node 1 enters an all-reduce, with no
    // deadline to rescue either. Whoever arrives second finds the round
    // open under the other op: it must poison the run with a Protocol
    // error naming both ops, and the node parked in the round must wake
    // with Poisoned naming it — never park forever.
    model_with(exhaustive(), || {
        let c = Arc::new(Collectives::new(2));
        let peer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.all_reduce_u64(1, &[1]).map(|_| ()))
        };
        let mine = c.barrier(0);
        let theirs = peer.join().unwrap();
        let culprit = c.poisoned_by().expect("a mismatch poisons the run");
        for (me, r) in [(0usize, mine), (1usize, theirs)] {
            match r {
                Err(Error::Protocol(m)) => {
                    assert_eq!(me, culprit, "only the poisoner reports the mismatch");
                    assert!(m.contains("barrier") && m.contains("all_reduce"), "{m}");
                }
                Err(Error::Poisoned { node }) => assert_eq!(node, culprit),
                r => panic!("node {me}: expected a typed failure, got {r:?}"),
            }
        }
    });
}

#[test]
fn poison_races_barrier_wait_without_lost_wakeup() {
    // THE regression test for the lost-wakeup bug this suite found in
    // the original implementation: `poison` used to set the flag and
    // notify *without* taking the barrier mutex, so a poison landing
    // between a waiter's predicate check and its park was never
    // delivered and the waiter slept forever. The model checker explores
    // that exact window; with the unlocked notify this test deadlocks.
    model_with(exhaustive(), || {
        let c = Arc::new(Collectives::new(2));
        let poisoner = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison(1))
        };
        // Node 0 heads into a barrier that node 1 will never join: only
        // the poison can release it.
        let err = c.barrier(0).unwrap_err();
        assert!(matches!(err, Error::Poisoned { node: 1 }));
        poisoner.join().unwrap();
    });
}

#[test]
fn poison_races_all_reduce_wait() {
    model_with(exhaustive(), || {
        let c = Arc::new(Collectives::new(2));
        let poisoner = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison(1))
        };
        let err = c.all_reduce_u64(0, &[7]).unwrap_err();
        assert!(matches!(err, Error::Poisoned { node: 1 }));
        poisoner.join().unwrap();
    });
}

#[test]
fn poison_races_broadcast_wait() {
    model_with(exhaustive(), || {
        let c = Arc::new(Collectives::new(2));
        let poisoner = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison(1))
        };
        let err = c.broadcast(0, None).unwrap_err();
        assert!(matches!(err, Error::Poisoned { node: 1 }));
        poisoner.join().unwrap();
    });
}

#[test]
fn deadline_expiry_races_poison_single_root_cause() {
    // A deadline expiring while another node is poisoning the run: the
    // waiter must report exactly one root cause — its own Timeout if its
    // poison CAS won, the foreign Poisoned{1} if it lost — and never
    // hang. Under the model the timer branch is explored at every park,
    // so both orders of the CAS race are covered. (Preemption-bounded:
    // every re-park re-offers the timer choice, so the unbounded
    // frontier does not terminate.)
    model_with(bounded(2), || {
        let c = Arc::new(Collectives::with_deadline(
            2,
            Some(std::time::Duration::from_millis(10)),
        ));
        let poisoner = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison(1))
        };
        let err = c.barrier(0).unwrap_err();
        match err {
            Error::Timeout { node: 0, ref op } => {
                assert_eq!(op, "barrier");
                assert_eq!(
                    c.poisoned_by(),
                    Some(0),
                    "a reported Timeout means this node's poison CAS won"
                );
            }
            Error::Poisoned { node: 1 } => {}
            e => panic!("unexpected error: {e}"),
        }
        poisoner.join().unwrap();
        assert!(c.is_poisoned());
    });
}

#[test]
fn deadline_expiry_races_normal_completion() {
    // A deadline expiring while the barrier is legitimately completing:
    // a wakeup that raced the timer must win (the waiter re-checks the
    // generation under the lock — a timeout may never eat a completed
    // round), and if the timer does win, exactly one node reports
    // Timeout and every other error names that same culprit.
    model_with(bounded(3), || {
        let c = Arc::new(Collectives::with_deadline(
            2,
            Some(std::time::Duration::from_millis(10)),
        ));
        let peer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.barrier(1))
        };
        let mine = c.barrier(0);
        let theirs = peer.join().unwrap();
        if mine.is_ok() && theirs.is_ok() {
            assert!(!c.is_poisoned(), "healthy completion must not poison");
        } else {
            let culprit = c.poisoned_by().expect("an error implies poison");
            for (me, r) in [(0usize, &mine), (1usize, &theirs)] {
                match r {
                    Ok(()) => {}
                    Err(Error::Timeout { node, op }) => {
                        assert_eq!((*node, op.as_str()), (me, "barrier"));
                        assert_eq!(
                            culprit, me,
                            "timeout double-reported against a foreign poison"
                        );
                    }
                    Err(Error::Poisoned { node }) => assert_eq!(*node, culprit),
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    });
}

#[test]
fn poison_vs_completing_barrier() {
    // Poison racing a barrier that *can* complete: each node must either
    // pass the barrier or observe Poisoned{node: 2} — never hang, never
    // report a different culprit.
    model_with(bounded(3), || {
        let c = Arc::new(Collectives::new(2));
        let poisoner = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison(2))
        };
        let other = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.barrier(1))
        };
        let mine = c.barrier(0);
        let theirs = other.join().unwrap();
        for r in [mine, theirs] {
            match r {
                Ok(()) => {}
                Err(Error::Poisoned { node }) => assert_eq!(node, 2),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        poisoner.join().unwrap();
    });
}
