//! Regression tests for the checker's treatment of the check-then-park
//! window: a notifier that takes the mutex between flag-store and notify
//! must be safe in every schedule, while an unlocked notify must be
//! caught as a lost wakeup (the `detects_lost_wakeup` unit test covers
//! the latter; this file pins the former, which once falsely deadlocked
//! while the `Condvar::wait` entry yield point was being added).

use gar_modelcheck::sync::atomic::{AtomicUsize, Ordering};
use gar_modelcheck::sync::{Condvar, Mutex};
use gar_modelcheck::{model_with, thread, Config};
use std::sync::Arc;

#[test]
fn locked_notify_is_never_lost() {
    model_with(
        Config {
            fail_on_truncation: true,
            ..Config::default()
        },
        || {
            let flag = Arc::new(AtomicUsize::new(0));
            let pair = Arc::new((Mutex::new(()), Condvar::new()));
            let t = {
                let flag = Arc::clone(&flag);
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    flag.store(1, Ordering::SeqCst);
                    // Taking and releasing the mutex orders this notify
                    // after any in-flight predicate check: the waiter is
                    // either not yet parked (and will see the flag) or
                    // already on the wait queue (and receives the wake).
                    drop(pair.0.lock());
                    pair.1.notify_all();
                })
            };
            let mut g = pair.0.lock();
            #[expect(
                clippy::disallowed_methods,
                reason = "a model-checked wait in its loop"
            )]
            while flag.load(Ordering::SeqCst) == 0 {
                g = pair.1.wait(g);
            }
            drop(g);
            t.join().unwrap();
        },
    );
}
