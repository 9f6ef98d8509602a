//! Home-grown loom-style model checker for the cluster collectives.
//!
//! crates.io is unreachable in this build environment, so instead of the
//! real `loom` crate this module implements the same *testing discipline*
//! from scratch:
//!
//! * Test bodies run under [`model`], which executes the closure many
//!   times, each time forcing a different thread interleaving.
//! * Virtual [`sync::Mutex`], [`sync::Condvar`], [`sync::atomic`]
//!   types and [`thread::spawn`] mirror the `std::sync` APIs but route
//!   every visible operation through a cooperative scheduler: exactly one
//!   virtual thread runs at a time, and at every synchronization
//!   operation the scheduler consults a decision trace to pick which
//!   thread runs next.
//! * Schedules are enumerated depth-first: each execution records the
//!   `(chosen, options)` branch points it hit; the explorer then advances
//!   the last non-exhausted branch point (odometer style) and replays the
//!   prefix, exploring every reachable interleaving up to the configured
//!   bounds.
//! * Deadlocks — including *lost wakeups*, where every thread is parked
//!   in a `Condvar` with nobody left to signal — are detected the moment
//!   no thread is runnable, and reported with the schedule trace.
//!
//! Differences from loom, so nobody over-trusts a green run:
//!
//! * Only sequentially-consistent interleavings are explored. loom also
//!   explores the weaker C11 orderings (an `Ordering::Relaxed` load may
//!   observe stale values); here every atomic op acts on a single global
//!   value. Code whose correctness depends on *which* memory ordering is
//!   used still needs review — the `relaxed` scan in `xtask`'s tests
//!   exists exactly because this checker cannot see those bugs.
//! * Exploration is bounded by [`Config::max_schedules`],
//!   [`Config::max_steps`] per execution, and optionally a preemption
//!   bound (`Config::preemption_bound`, as in iterative context
//!   bounding: most concurrency bugs manifest with very few forced
//!   preemptions). Small models (2–3 threads, short critical sections)
//!   complete exhaustively; a truncated search prints a warning unless
//!   [`Config::fail_on_truncation`] is set.

// A panic here must become a typed error, not a dead node or handler
// thread (DESIGN.md §11); test code is exempt via clippy.toml.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsGuard};

pub mod shim;
pub mod sync;
pub mod thread;

/// Exploration bounds for one [`model_with`] run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Stop after this many executed schedules even if the DFS frontier
    /// is not exhausted.
    pub max_schedules: usize,
    /// Per-execution cap on scheduler decisions; hitting it fails the
    /// execution (it almost always means a livelock such as a spin loop
    /// that never blocks).
    pub max_steps: usize,
    /// If `Some(k)`, only schedules with at most `k` preemptions (forced
    /// switches away from a runnable thread) are explored. `None`
    /// explores all interleavings.
    pub preemption_bound: Option<usize>,
    /// Treat hitting `max_schedules` before DFS exhaustion as a failure
    /// instead of a warning.
    pub fail_on_truncation: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_schedules: 100_000,
            max_steps: 50_000,
            preemption_bound: None,
            fail_on_truncation: false,
        }
    }
}

/// Runs `f` under the model checker with default bounds, panicking on
/// the first schedule that deadlocks or panics.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    model_with(Config::default(), f);
}

/// Runs `f` under the model checker with explicit bounds. Returns the
/// number of distinct schedules executed.
#[expect(
    clippy::panic,
    reason = "a failed or truncated search fails the calling test; that is the checker's report"
)]
pub fn model_with(config: Config, f: impl Fn() + Send + Sync + 'static) -> usize {
    let f = Arc::new(f);
    let mut replay: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    loop {
        let exec = Execution::new(&config, replay.clone());
        let outcome = exec.run(Arc::clone(&f));
        schedules += 1;
        if let Some(failure) = outcome.failure {
            panic!(
                "model checking failed on schedule #{schedules}: {failure}\n\
                 decision trace (thread chosen at each point): {:?}",
                outcome.trace.iter().map(|d| d.chosen).collect::<Vec<_>>()
            );
        }
        // Odometer advance: bump the deepest decision that still has an
        // unexplored sibling, drop everything after it.
        let mut next = outcome.trace;
        let mut advanced = false;
        while let Some(d) = next.pop() {
            if d.index + 1 < d.options {
                replay = next.iter().map(|p| p.index).collect();
                replay.push(d.index + 1);
                advanced = true;
                break;
            }
        }
        if !advanced {
            return schedules; // DFS frontier exhausted: every schedule visited.
        }
        if schedules >= config.max_schedules {
            let msg = format!(
                "model search truncated after {schedules} schedules \
                 (frontier not exhausted; raise Config::max_schedules)"
            );
            if config.fail_on_truncation {
                panic!("{msg}");
            }
            eprintln!("warning: {msg}");
            return schedules;
        }
    }
}

/// One branch point in a schedule: which runnable-set index was taken,
/// out of how many options.
#[derive(Clone, Copy, Debug)]
struct Decision {
    /// Index into the options list that was chosen.
    index: usize,
    /// Number of options that were available.
    options: usize,
    /// Thread id actually chosen (for failure traces).
    chosen: usize,
}

struct Outcome {
    trace: Vec<Decision>,
    failure: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

/// Shared state of one execution, guarded by `Execution::state`.
struct ExecState {
    statuses: Vec<Status>,
    /// Virtual thread currently allowed to run.
    current: usize,
    /// Decisions made so far this execution.
    trace: Vec<Decision>,
    /// Prefix of option indices to replay before free exploration.
    replay: Vec<usize>,
    preemptions: usize,
    failure: Option<String>,
    /// Real OS handles for spawned virtual threads, joined by the
    /// controller at execution end.
    os_handles: Vec<std::thread::JoinHandle<()>>,
    /// Per-thread list of joiner thread ids to wake on finish.
    joiners: Vec<Vec<usize>>,
    /// Per-thread flag: blocked in a *timed* wait, so if the whole
    /// system stops making progress the scheduler may wake it with a
    /// timeout instead of declaring deadlock.
    timed: Vec<bool>,
    /// Per-thread flag set when the deadlock path woke a timed waiter;
    /// its wait returns `timed_out = true`.
    rescued: Vec<bool>,
}

struct Execution {
    state: OsMutex<ExecState>,
    cv: OsCondvar,
    max_steps: usize,
    preemption_bound: Option<usize>,
}

std::thread_local! {
    static CONTEXT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// Payload used to unwind virtual threads when the execution is being
/// torn down (deadlock or a panic elsewhere); distinguishable from user
/// panics.
struct ExecAbort;

fn current_context() -> (Arc<Execution>, usize) {
    CONTEXT.with(|c| {
        #[expect(
            clippy::expect_used,
            reason = "the virtual primitives only exist inside model(); using one outside is \
                      a harness misuse, and panicking in a gar_loom test build is the intended \
                      failure mode, not a production path"
        )]
        c.borrow()
            .clone()
            .expect("modelcheck primitive used outside model() closure")
    })
}

impl Execution {
    fn new(config: &Config, replay: Vec<usize>) -> Arc<Execution> {
        Arc::new(Execution {
            state: OsMutex::new(ExecState {
                statuses: vec![Status::Runnable],
                current: 0,
                trace: Vec::new(),
                replay,
                preemptions: 0,
                failure: None,
                os_handles: Vec::new(),
                joiners: vec![Vec::new()],
                timed: vec![false],
                rescued: vec![false],
            }),
            cv: OsCondvar::new(),
            max_steps: config.max_steps,
            preemption_bound: config.preemption_bound,
        })
    }

    fn run(self: Arc<Execution>, f: Arc<impl Fn() + Send + Sync + 'static>) -> Outcome {
        let exec = Arc::clone(&self);
        let root = std::thread::spawn(move || {
            CONTEXT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
            // Thread 0 starts as `current`; no need to wait for a turn.
            let result = panic::catch_unwind(AssertUnwindSafe(|| f()));
            finish_thread(&exec, 0, result);
        });
        // Wait until every virtual thread finished or a failure tore the
        // execution down.
        let handles;
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            #[expect(
                clippy::disallowed_methods,
                reason = "the harness parks until its execution ends; the loop re-checks"
            )]
            loop {
                let done =
                    st.failure.is_some() || st.statuses.iter().all(|s| *s == Status::Finished);
                if done {
                    break;
                }
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            self.cv.notify_all();
            handles = std::mem::take(&mut st.os_handles);
        }
        let _ = root.join();
        for h in handles {
            let _ = h.join();
        }
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Outcome {
            trace: st.trace.clone(),
            failure: st.failure.clone(),
        }
    }

    /// Picks the next thread to run, recording the branch point. Caller
    /// holds the state lock; `me` is the thread giving up control.
    /// Returns the chosen thread, or `None` if nothing is runnable.
    fn pick_next(&self, st: &mut ExecState, me: usize) -> Option<usize> {
        let me_runnable = st.statuses[me] == Status::Runnable;
        let mut options: Vec<usize> = Vec::new();
        if me_runnable {
            options.push(me); // index 0 = keep running: never a preemption.
        }
        let bound_hit = me_runnable && self.preemption_bound.is_some_and(|b| st.preemptions >= b);
        if !bound_hit {
            let more = st
                .statuses
                .iter()
                .enumerate()
                .filter(|(t, s)| *t != me && **s == Status::Runnable)
                .map(|(t, _)| t);
            options.extend(more);
        }
        if options.is_empty() {
            return None;
        }
        let depth = st.trace.len();
        let index = if depth < st.replay.len() {
            st.replay[depth].min(options.len() - 1)
        } else {
            0
        };
        let chosen = options[index];
        if trace_enabled() {
            eprintln!(
                "[mc] d{} me=t{me} statuses={:?} options={options:?} -> t{chosen}",
                st.trace.len(),
                st.statuses
            );
        }
        st.trace.push(Decision {
            index,
            options: options.len(),
            chosen,
        });
        if me_runnable && chosen != me {
            st.preemptions += 1;
        }
        st.current = chosen;
        Some(chosen)
    }

    /// Fails the execution: records the message, wakes everything so
    /// parked virtual threads can unwind.
    fn fail(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        self.cv.notify_all();
    }
}

/// Yield point: gives every other runnable thread a chance to run before
/// the caller's next visible operation. Called (directly or indirectly)
/// by every virtual synchronization primitive.
pub fn schedule_point() {
    let (exec, me) = current_context();
    let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
    check_abort(&st);
    if st.trace.len() >= exec.max_steps {
        exec.fail(
            &mut st,
            format!(
                "execution exceeded {} scheduler steps (livelock? spin loop \
                 without blocking?)",
                exec.max_steps
            ),
        );
        drop(st);
        #[expect(
            clippy::panic,
            reason = "ExecAbort unwinds a virtual thread of a failed execution"
        )]
        panic::panic_any(ExecAbort);
    }
    // `me` is runnable, so pick_next cannot return None here.
    exec.pick_next(&mut st, me);
    exec.cv.notify_all();
    wait_for_turn(&exec, st, me);
}

/// Parks the calling thread after the caller (holding the lock via the
/// returned closure pattern) marked it blocked in some primitive's wait
/// list. Wakes when rescheduled as runnable.
fn block_current(exec: &Arc<Execution>, mut st: OsGuard<'_, ExecState>, me: usize) {
    debug_assert_eq!(st.statuses[me], Status::Blocked);
    match exec.pick_next(&mut st, me) {
        Some(_) => exec.cv.notify_all(),
        None => {
            // Nobody can run. In real time a stalled system makes every
            // pending timeout expire, so timed waiters are woken with
            // `timed_out = true` rather than reported as a deadlock.
            if rescue_timed_waiters(&mut st) {
                exec.pick_next(&mut st, me);
                exec.cv.notify_all();
            } else {
                let snapshot: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(t, s)| format!("t{t}:{s:?}"))
                    .collect();
                exec.fail(
                    &mut st,
                    format!(
                        "deadlock: no runnable thread (lost wakeup?) — {}",
                        snapshot.join(" ")
                    ),
                );
                drop(st);
                #[expect(
                    clippy::panic,
                    reason = "ExecAbort unwinds a virtual thread of a failed execution"
                )]
                panic::panic_any(ExecAbort);
            }
        }
    }
    wait_for_turn(exec, st, me);
}

/// Wakes every thread parked in a timed wait, marking it rescued (its
/// wait returns with `timed_out = true`). Returns whether any thread
/// was woken. Called only when no thread is runnable.
fn rescue_timed_waiters(st: &mut ExecState) -> bool {
    let mut woke = false;
    for t in 0..st.statuses.len() {
        if st.statuses[t] == Status::Blocked && st.timed[t] {
            st.statuses[t] = Status::Runnable;
            st.timed[t] = false;
            st.rescued[t] = true;
            woke = true;
        }
    }
    woke
}

/// Nondeterministic choice point: returns a value in `0..options`,
/// exploring every branch across schedules. Models events whose timing
/// is outside the program, such as timer expiry. Does not switch
/// threads.
pub fn choice(options: usize) -> usize {
    assert!(options > 0, "choice() needs at least one option");
    let (exec, me) = current_context();
    let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
    check_abort(&st);
    let depth = st.trace.len();
    let index = if depth < st.replay.len() {
        st.replay[depth].min(options - 1)
    } else {
        0
    };
    if trace_enabled() {
        eprintln!("[mc] d{depth} t{me} choice({options}) -> {index}");
    }
    st.trace.push(Decision {
        index,
        options,
        chosen: me,
    });
    index
}

#[expect(
    clippy::disallowed_methods,
    reason = "a virtual thread parks until scheduled; the loop re-checks its turn"
)]
fn wait_for_turn(exec: &Arc<Execution>, mut st: OsGuard<'_, ExecState>, me: usize) {
    loop {
        check_abort(&st);
        if st.current == me && st.statuses[me] == Status::Runnable {
            return;
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

#[expect(
    clippy::panic,
    reason = "ExecAbort unwinds a virtual thread of a failed execution"
)]
fn check_abort(st: &ExecState) {
    if st.failure.is_some() {
        panic::panic_any(ExecAbort);
    }
}

fn finish_thread(
    exec: &Arc<Execution>,
    me: usize,
    result: Result<(), Box<dyn std::any::Any + Send>>,
) {
    let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
    match result {
        Ok(()) => {}
        Err(payload) => {
            if payload.downcast_ref::<ExecAbort>().is_some() {
                // Tear-down unwind: the failure is already recorded.
                exec.cv.notify_all();
                return;
            }
            let msg = panic_message(&payload);
            exec.fail(&mut st, format!("virtual thread {me} panicked: {msg}"));
        }
    }
    st.statuses[me] = Status::Finished;
    let joiners = std::mem::take(&mut st.joiners[me]);
    for j in joiners {
        st.statuses[j] = Status::Runnable;
    }
    if st.failure.is_none() && !st.statuses.iter().all(|s| *s == Status::Finished) {
        // Hand control to someone else; detect deadlock if nobody can run.
        if exec.pick_next(&mut st, me).is_none() {
            if rescue_timed_waiters(&mut st) {
                exec.pick_next(&mut st, me);
            } else {
                let snapshot: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(t, s)| format!("t{t}:{s:?}"))
                    .collect();
                exec.fail(
                    &mut st,
                    format!(
                        "deadlock after thread {me} finished: no runnable thread — {}",
                        snapshot.join(" ")
                    ),
                );
            }
        }
    }
    exec.cv.notify_all();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Queue of thread ids, FIFO to keep schedules deterministic.
type WaitQueue = VecDeque<usize>;

/// True when `GAR_MODELCHECK_TRACE` is set: the scheduler and the sync
/// primitives narrate every decision and operation to stderr. For
/// debugging failing schedules; output is enormous.
fn trace_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("GAR_MODELCHECK_TRACE").is_some())
}

/// Narrates one primitive operation when tracing is on.
pub(crate) fn trace_op(op: &str) {
    if trace_enabled() {
        let (_, me) = current_context();
        eprintln!("[mc] t{me} {op}");
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Condvar, Mutex};
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn explores_both_orders_of_two_increments() {
        // Two threads doing read-modify-write through a mutex: every
        // schedule must observe the final value 2.
        let schedules = model_with(Config::default(), || {
            let m = StdArc::new(Mutex::new(0u32));
            let t = {
                let m = StdArc::clone(&m);
                thread::spawn(move || {
                    let mut g = m.lock();
                    *g += 1;
                })
            };
            {
                let mut g = m.lock();
                *g += 1;
            }
            t.join().unwrap();
            assert_eq!(*m.lock(), 2);
        });
        assert!(
            schedules > 1,
            "expected multiple interleavings, got {schedules}"
        );
    }

    #[test]
    fn finds_unsynchronized_interleaving() {
        // A non-atomic check-then-act through an atomic: at least one
        // schedule lets both threads read 0 before either writes, so the
        // final count is 1, not 2. The model checker must find it.
        let saw_lost_update = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = StdArc::clone(&saw_lost_update);
        model_with(Config::default(), move || {
            let v = StdArc::new(AtomicUsize::new(0));
            let t = {
                let v = StdArc::clone(&v);
                thread::spawn(move || {
                    let old = v.load(Ordering::SeqCst);
                    v.store(old + 1, Ordering::SeqCst);
                })
            };
            let old = v.load(Ordering::SeqCst);
            v.store(old + 1, Ordering::SeqCst);
            t.join().unwrap();
            if v.load(Ordering::SeqCst) == 1 {
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        });
        assert!(
            saw_lost_update.load(std::sync::atomic::Ordering::SeqCst),
            "DFS failed to reach the racy interleaving"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn detects_lost_wakeup() {
        // Classic lost wakeup: the waiter checks the flag, the notifier
        // sets it and signals *before* the waiter parks — modeled here by
        // an unconditional wait with a notify that can fire first. Some
        // schedule parks the waiter forever; the checker must flag it.
        model(|| {
            let pair = StdArc::new((Mutex::new(false), Condvar::new()));
            let t = {
                let pair = StdArc::clone(&pair);
                thread::spawn(move || {
                    let (m, cv) = &*pair;
                    let mut started = m.lock();
                    *started = true;
                    cv.notify_all();
                    drop(started);
                })
            };
            let (m, cv) = &*pair;
            let started = m.lock();
            // BUG under test: no `while !*started` loop around the wait.
            #[cfg_attr(
                gar_loom,
                expect(
                    clippy::disallowed_methods,
                    reason = "the missing loop is the bug under test"
                )
            )]
            let _g = cv.wait(started);
            drop(_g);
            t.join().unwrap();
        });
    }

    #[test]
    fn generation_loop_survives_all_schedules() {
        // The fixed version of the pattern above: waiting in a condition
        // loop. No schedule may deadlock.
        model(|| {
            let pair = StdArc::new((Mutex::new(false), Condvar::new()));
            let t = {
                let pair = StdArc::clone(&pair);
                thread::spawn(move || {
                    let (m, cv) = &*pair;
                    *m.lock() = true;
                    cv.notify_all();
                })
            };
            let (m, cv) = &*pair;
            let mut started = m.lock();
            #[cfg_attr(
                gar_loom,
                expect(
                    clippy::disallowed_methods,
                    reason = "a model-checked wait in its loop"
                )
            )]
            while !*started {
                started = cv.wait(started);
            }
            drop(started);
            t.join().unwrap();
        });
    }

    #[test]
    fn preemption_bound_shrinks_search() {
        let body = || {
            let v = StdArc::new(AtomicUsize::new(0));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let v = StdArc::clone(&v);
                    thread::spawn(move || {
                        v.fetch_add(1, Ordering::SeqCst);
                        v.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(v.load(Ordering::SeqCst), 4);
        };
        let full = model_with(Config::default(), body);
        let bounded = model_with(
            Config {
                preemption_bound: Some(1),
                ..Config::default()
            },
            body,
        );
        assert!(
            bounded < full,
            "bound {bounded} should cut schedules below {full}"
        );
    }

    #[test]
    fn choice_explores_every_branch() {
        let seen = StdArc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let sink = StdArc::clone(&seen);
        model(move || {
            let v = choice(3);
            sink.lock().unwrap().insert(v);
        });
        assert_eq!(seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn timed_wait_is_rescued_instead_of_deadlocking() {
        // Nobody ever notifies: an untimed wait here would be a deadlock
        // (see `detects_lost_wakeup`), but a timed wait must return with
        // `timed_out = true` on every schedule.
        model(|| {
            let pair = StdArc::new((Mutex::new(false), Condvar::new()));
            let (m, cv) = &*pair;
            let g = m.lock();
            let (g, timed_out) = cv.wait_timeout(g, std::time::Duration::from_millis(1));
            assert!(timed_out, "wait with no notifier must report expiry");
            drop(g);
        });
    }

    #[test]
    fn timed_wait_races_notify_without_losing_either() {
        // A notifier sets the flag; the timer may expire first. Every
        // schedule must end with the flag observed or a reported
        // timeout — never a deadlock, never a wait that returns with
        // neither.
        let saw_timeout = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let saw_flag = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let (t_flag, f_flag) = (StdArc::clone(&saw_timeout), StdArc::clone(&saw_flag));
        model(move || {
            let pair = StdArc::new((Mutex::new(false), Condvar::new()));
            let t = {
                let pair = StdArc::clone(&pair);
                thread::spawn(move || {
                    let (m, cv) = &*pair;
                    *m.lock() = true;
                    cv.notify_all();
                })
            };
            let (m, cv) = &*pair;
            let mut ready = m.lock();
            let mut timed_out = false;
            while !*ready && !timed_out {
                let (g, expired) = cv.wait_timeout(ready, std::time::Duration::from_millis(1));
                ready = g;
                timed_out = expired;
            }
            assert!(*ready || timed_out);
            if timed_out {
                t_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            if *ready {
                f_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            drop(ready);
            t.join().unwrap();
        });
        // Both outcomes must be reachable, or the model is not actually
        // exploring the race.
        assert!(saw_timeout.load(std::sync::atomic::Ordering::SeqCst));
        assert!(saw_flag.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "scheduler steps")]
    fn livelock_hits_step_budget() {
        model_with(
            Config {
                max_steps: 200,
                ..Config::default()
            },
            || {
                let v = AtomicUsize::new(0);
                // Spin forever without blocking: must trip max_steps.
                while v.load(Ordering::SeqCst) == 0 {}
            },
        );
    }
}
