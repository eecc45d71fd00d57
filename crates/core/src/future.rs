//! App futures: single-assignment result cells (§3.1.2).
//!
//! "Futures are the only synchronization primitive offered by Parsl." A
//! future is created by an app invocation, assigned exactly once by the
//! DataFlowKernel, and observed through `result()` (blocking) and `done()`
//! (non-blocking), mirroring the paper's API.

use crate::error::{ParslError, TaskError};
use crate::types::TaskId;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

type Callback = Box<dyn FnOnce(&Result<Bytes, TaskError>) + Send>;

/// Type-erased shared state behind an [`AppFuture`].
///
/// Holds the wire-encoded result so it can be spliced directly into
/// dependent tasks' argument buffers without a decode/encode round trip.
pub struct FutureState {
    task_id: TaskId,
    cell: Mutex<Inner>,
    cond: Condvar,
}

struct Inner {
    value: Option<Result<Bytes, TaskError>>,
    callbacks: Vec<Callback>,
}

impl FutureState {
    /// New unset future for `task_id`.
    pub fn new(task_id: TaskId) -> Arc<Self> {
        Arc::new(FutureState {
            task_id,
            cell: Mutex::new(Inner {
                value: None,
                callbacks: Vec::new(),
            }),
            cond: Condvar::new(),
        })
    }

    /// The task that will assign this future.
    pub fn task_id(&self) -> TaskId {
        self.task_id
    }

    /// Assign the result. Panics if assigned twice — futures are
    /// single-update variables by design (§3.1.2).
    ///
    /// Each callback runs under `catch_unwind`: one that panics loses
    /// only itself. The value stays assigned, the callbacks after it
    /// still run, and the thread that assigns (the kernel's collector)
    /// lives on.
    pub fn set(&self, value: Result<Bytes, TaskError>) {
        let callbacks = {
            let mut inner = self.cell.lock();
            assert!(
                inner.value.is_none(),
                "future for {} assigned twice",
                self.task_id
            );
            inner.value = Some(value.clone());
            std::mem::take(&mut inner.callbacks)
        };
        self.cond.notify_all();
        for cb in callbacks {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| cb(&value)));
        }
    }

    /// Non-blocking: has the result been assigned?
    pub fn done(&self) -> bool {
        self.cell.lock().value.is_some()
    }

    /// Non-blocking peek at the result.
    pub fn peek(&self) -> Option<Result<Bytes, TaskError>> {
        self.cell.lock().value.clone()
    }

    /// Block until assigned and return the raw result.
    pub fn wait(&self) -> Result<Bytes, TaskError> {
        let mut inner = self.cell.lock();
        while inner.value.is_none() {
            self.cond.wait(&mut inner);
        }
        inner.value.clone().expect("checked above")
    }

    /// Block up to `timeout`; `None` if still unassigned at the deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Bytes, TaskError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.cell.lock();
        while inner.value.is_none() {
            if self.cond.wait_until(&mut inner, deadline).timed_out() {
                return inner.value.clone();
            }
        }
        inner.value.clone()
    }

    /// Run `cb` when the result is assigned (immediately if it already is).
    ///
    /// This is the mechanism behind dependency edges: "edges in the task
    /// graph are encoded as asynchronous callbacks on a dependent future"
    /// (§4.1).
    pub fn on_done(&self, cb: impl FnOnce(&Result<Bytes, TaskError>) + Send + 'static) {
        let mut cb = Some(cb);
        let ready = {
            let mut inner = self.cell.lock();
            match &inner.value {
                Some(v) => Some(v.clone()),
                None => {
                    inner.callbacks.push(Box::new(cb.take().expect("present")));
                    None
                }
            }
        };
        if let Some(v) = ready {
            (cb.take().expect("not consumed by the pending branch"))(&v);
        }
    }
}

/// Typed handle to an asynchronously computed value of type `T`.
///
/// Clones share the same underlying state; `result()` can be called from
/// any thread, any number of times.
pub struct AppFuture<T> {
    state: Arc<FutureState>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for AppFuture<T> {
    fn clone(&self) -> Self {
        AppFuture {
            state: Arc::clone(&self.state),
            _marker: PhantomData,
        }
    }
}

impl<T> AppFuture<T> {
    /// Wrap type-erased state. Internal: the type parameter is chosen by
    /// the `App` that created the task.
    pub(crate) fn from_state(state: Arc<FutureState>) -> Self {
        AppFuture {
            state,
            _marker: PhantomData,
        }
    }

    /// Wrap an externally created [`FutureState`] cell. The caller vouches
    /// that whatever assigns the cell encodes a `T` — this is how layers
    /// outside the kernel (e.g. the staging cache's single-flight slots)
    /// mint futures that several waiters share.
    pub fn from_shared_state(state: Arc<FutureState>) -> Self {
        AppFuture {
            state,
            _marker: PhantomData,
        }
    }

    /// Run `cb` when the result is assigned (immediately if it already
    /// is), with the raw wire-encoded result. The callback mechanism
    /// behind dependency edges, exposed so non-kernel layers can chain
    /// completions without spawning a waiter thread.
    pub fn on_done(&self, cb: impl FnOnce(&Result<Bytes, TaskError>) + Send + 'static) {
        self.state.on_done(cb);
    }

    /// The task backing this future.
    pub fn task_id(&self) -> TaskId {
        self.state.task_id()
    }

    /// Non-blocking status check, like Python's `future.done()`.
    pub fn done(&self) -> bool {
        self.state.done()
    }

    /// The task's failure, if it failed. `None` while pending or on
    /// success.
    pub fn exception(&self) -> Option<TaskError> {
        match self.state.peek() {
            Some(Err(e)) => Some(e),
            _ => None,
        }
    }

    /// Access the shared state (used by `App::call` to wire dependencies).
    pub(crate) fn state(&self) -> &Arc<FutureState> {
        &self.state
    }
}

impl<T: wire::Encode> AppFuture<T> {
    /// An already-resolved future holding `value` — for paths that
    /// satisfy a request without running a task (e.g. a staging-cache
    /// hit). A wire-encoding failure becomes the future's exception, so
    /// the call site stays infallible like every other invocation path.
    pub fn ready(value: &T) -> Self {
        let state = FutureState::new(TaskId(0));
        state.set(wire::to_bytes(value).map(Bytes::from).map_err(|e| {
            TaskError::App(crate::error::AppError::Serialization(format!(
                "encode ready value: {e}"
            )))
        }));
        AppFuture {
            state,
            _marker: PhantomData,
        }
    }
}

impl<T: wire::Decode> AppFuture<T> {
    /// Block until the task completes and decode its result, like Python's
    /// `future.result()`.
    pub fn result(&self) -> Result<T, ParslError> {
        let bytes = self.state.wait().map_err(ParslError::Task)?;
        wire::from_bytes(&bytes).map_err(ParslError::Decode)
    }

    /// [`AppFuture::result`] with a deadline; `Err(ParslError::Timeout)` if
    /// the task is still running at the deadline.
    pub fn result_timeout(&self, timeout: Duration) -> Result<T, ParslError> {
        match self.state.wait_timeout(timeout) {
            None => Err(ParslError::Timeout),
            Some(Ok(bytes)) => wire::from_bytes(&bytes).map_err(ParslError::Decode),
            Some(Err(e)) => Err(ParslError::Task(e)),
        }
    }
}

impl<T> std::fmt::Debug for AppFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppFuture")
            .field("task", &self.state.task_id())
            .field("done", &self.done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_bytes<T: wire::Encode>(v: &T) -> Result<Bytes, TaskError> {
        Ok(Bytes::from(wire::to_bytes(v).unwrap()))
    }

    #[test]
    fn set_then_wait() {
        let st = FutureState::new(TaskId(1));
        st.set(ok_bytes(&42u32));
        assert!(st.done());
        let fut: AppFuture<u32> = AppFuture::from_state(st);
        assert_eq!(fut.result().unwrap(), 42);
        // result() is repeatable.
        assert_eq!(fut.result().unwrap(), 42);
    }

    #[test]
    fn wait_blocks_until_set() {
        let st = FutureState::new(TaskId(2));
        let st2 = Arc::clone(&st);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            st2.set(ok_bytes(&"late".to_string()));
        });
        let fut: AppFuture<String> = AppFuture::from_state(st);
        assert_eq!(fut.result().unwrap(), "late");
        h.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_set_panics() {
        let st = FutureState::new(TaskId(3));
        st.set(ok_bytes(&1u8));
        st.set(ok_bytes(&2u8));
    }

    #[test]
    fn timeout_expires() {
        let st = FutureState::new(TaskId(4));
        let fut: AppFuture<u32> = AppFuture::from_state(st);
        assert!(matches!(
            fut.result_timeout(Duration::from_millis(10)),
            Err(ParslError::Timeout)
        ));
    }

    #[test]
    fn exception_surfaces_failure() {
        let st = FutureState::new(TaskId(5));
        st.set(Err(TaskError::WalltimeExceeded));
        let fut: AppFuture<u32> = AppFuture::from_state(st);
        assert!(matches!(fut.exception(), Some(TaskError::WalltimeExceeded)));
        assert!(matches!(
            fut.result(),
            Err(ParslError::Task(TaskError::WalltimeExceeded))
        ));
    }

    #[test]
    fn callback_fires_on_set() {
        let st = FutureState::new(TaskId(6));
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.on_done(move |r| {
            tx.send(r.is_ok()).unwrap();
        });
        st.set(ok_bytes(&1u8));
        assert!(rx.recv_timeout(Duration::from_secs(1)).unwrap());
    }

    /// A panicking callback loses only itself: the value stays, and the
    /// callbacks after it still run.
    #[test]
    fn a_panicking_callback_spares_the_rest() {
        let st = FutureState::new(TaskId(9));
        st.on_done(|_| panic!("a user callback panics"));
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.on_done(move |r| tx.send(r.is_ok()).unwrap());
        st.set(ok_bytes(&1u8));
        assert!(rx.recv_timeout(Duration::from_secs(1)).unwrap());
        assert!(st.done());
    }

    #[test]
    fn callback_fires_immediately_if_already_done() {
        let st = FutureState::new(TaskId(7));
        st.set(ok_bytes(&1u8));
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.on_done(move |r| {
            tx.send(r.is_ok()).unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_secs(1)).unwrap());
    }

    #[test]
    fn decode_error_is_reported() {
        let st = FutureState::new(TaskId(8));
        st.set(ok_bytes(&"text".to_string()));
        let fut: AppFuture<u64> = AppFuture::from_state(st);
        assert!(matches!(fut.result(), Err(ParslError::Decode(_))));
    }
}
