//! Virtual threads (`std::thread` subset: `spawn` + `JoinHandle`).
//!
//! Each virtual thread is backed by a real OS thread, but the scheduler
//! in the crate root only ever lets one of them run between yield
//! points, so execution is fully serialized and replayable.

use crate::{current_context, finish_thread, schedule_point, wait_for_turn, Status, CONTEXT};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex as OsMutex};

/// Result type matching `std::thread::Result`.
pub type Result<T> = std::result::Result<T, Box<dyn std::any::Any + Send + 'static>>;

/// Handle to a spawned virtual thread.
pub struct JoinHandle<T> {
    id: usize,
    slot: Arc<OsMutex<Option<Result<T>>>>,
}

/// Spawns a virtual thread running `f`. Must be called from inside a
/// [`crate::model`] closure.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    schedule_point();
    let (exec, _me) = current_context();
    let slot: Arc<OsMutex<Option<Result<T>>>> = Arc::new(OsMutex::new(None));
    let id;
    {
        let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
        id = st.statuses.len();
        st.statuses.push(Status::Runnable);
        st.joiners.push(Vec::new());
        st.timed.push(false);
        st.rescued.push(false);
    }
    let child_exec = Arc::clone(&exec);
    let child_slot = Arc::clone(&slot);
    let os_handle = std::thread::spawn(move || {
        CONTEXT.with(|c| *c.borrow_mut() = Some((Arc::clone(&child_exec), id)));
        // Wait to be scheduled for the first time.
        {
            let st = child_exec.state.lock().unwrap_or_else(|e| e.into_inner());
            let waited = panic::catch_unwind(AssertUnwindSafe(|| {
                wait_for_turn(&child_exec, st, id);
            }));
            if waited.is_err() {
                // Execution tore down before this thread ever ran.
                child_exec.cv.notify_all();
                return;
            }
        }
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        match result {
            Ok(value) => {
                *child_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(value));
                finish_thread(&child_exec, id, Ok(()));
            }
            Err(payload) => {
                // Propagate the panic to the scheduler (which records it
                // as a model failure) and to any joiner.
                let msg = crate::panic_message(&*payload);
                *child_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Err(Box::new(msg)));
                finish_thread(&child_exec, id, Err(payload));
            }
        }
    });
    {
        let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
        st.os_handles.push(os_handle);
    }
    JoinHandle { id, slot }
}

impl<T> JoinHandle<T> {
    /// Blocks the calling virtual thread until the target finishes.
    pub fn join(self) -> Result<T> {
        loop {
            let (exec, me) = current_context();
            let mut st = exec.state.lock().unwrap_or_else(|e| e.into_inner());
            crate::check_abort(&st);
            if st.statuses[self.id] == Status::Finished {
                drop(st);
                let taken = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take();
                return match taken {
                    Some(r) => r,
                    // Finished with an empty slot only happens during
                    // tear-down unwinds; surface it as a join error.
                    None => Err(Box::new("virtual thread aborted".to_string())),
                };
            }
            st.joiners[self.id].push(me);
            st.statuses[me] = Status::Blocked;
            crate::block_current(&exec, st, me);
        }
    }
}
