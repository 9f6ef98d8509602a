//! The collectives on real threads: results, generation re-use,
//! poisoning and deadlines through the public API. The model checker
//! explores the same code's schedules in `loom_collectives.rs`.

use gar_cluster::Collectives;
use gar_types::Error;
use std::sync::Arc;
use std::time::Duration;

fn payload(bytes: &[u8]) -> Arc<[u8]> {
    bytes.into()
}

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
        let data = (id == 2).then(|| payload(b"Lk"));
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
        let h0 = s.spawn(|| c.broadcast(0, Some(payload(b"a"))));
        let h1 = s.spawn(|| c.broadcast(1, Some(payload(b"b"))));
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
    assert_eq!(&c.broadcast(0, Some(payload(b"x"))).unwrap()[..], b"x");
    c.barrier(0).unwrap();
}
