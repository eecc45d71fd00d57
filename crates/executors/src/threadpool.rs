//! Local thread-pool executor.
//!
//! Parsl extends `concurrent.futures` and inherits its ThreadPoolExecutor
//! for single-node runs; Figure 3 uses it as the latency baseline
//! (tasks never leave the process). This version still routes arguments
//! and results through the wire codec so behaviour (immutability through
//! serialization) matches the distributed executors.
//!
//! The pool is a manager's threads fan-out ([`crate::worker`]) with no
//! manager and no interchange: the same `Runner` checks the cancel marks
//! at pick-up and runs the kernel, and its funnel sends each outcome
//! straight to the DFK.

use crate::proto::{WireResult, WireTask};
use crate::worker::{Fanout, Funnel, Marks, Runner, Workers};
use nexus::Addr;
use parking_lot::Mutex;
use parsl_core::error::TaskError;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::types::TaskId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fixed pool of in-process worker threads.
pub struct ThreadPoolExecutor {
    label: String,
    workers: usize,
    state: Mutex<Option<Workers>>,
    outstanding: Arc<AtomicUsize>,
    /// Cancel marks. The pool clears them whenever it falls idle: nothing
    /// is left to skip then, so a mark for an attempt that had already
    /// finished does not outlive the busy spell it was set in.
    cancelled: Marks,
}

impl ThreadPoolExecutor {
    /// Pool with `workers` threads, labelled `"threads"`.
    pub fn new(workers: usize) -> Self {
        Self::with_label("threads", workers)
    }

    /// Pool with a custom label.
    pub fn with_label(label: &str, workers: usize) -> Self {
        assert!(workers > 0, "thread pool needs at least one worker");
        ThreadPoolExecutor {
            label: label.to_string(),
            workers,
            state: Mutex::new(None),
            outstanding: Arc::new(AtomicUsize::new(0)),
            cancelled: Arc::default(),
        }
    }

    /// Hand `tasks` to the running fan-out in one push.
    fn dispatch(&self, workers: &mut Workers, tasks: &[TaskSpec]) -> Result<(), ExecutorError> {
        self.outstanding.fetch_add(tasks.len(), Ordering::Relaxed);
        if workers.dispatch(tasks.iter().map(WireTask::from_spec)) {
            Ok(())
        } else {
            self.outstanding.fetch_sub(tasks.len(), Ordering::Relaxed);
            Err(ExecutorError::NotRunning)
        }
    }
}

impl Executor for ThreadPoolExecutor {
    fn label(&self) -> &str {
        &self.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let mut state = self.state.lock();
        if state.is_some() {
            return Err(ExecutorError::Rejected("already started".into()));
        }
        let (completions, outstanding) = (ctx.completions, Arc::clone(&self.outstanding));
        let cancelled = Arc::clone(&self.cancelled);
        let funnel: Funnel = Arc::new(move |result: WireResult, started: Instant, _| {
            let outcome = TaskOutcome {
                id: TaskId(result.id),
                attempt: result.attempt,
                result: result
                    .outcome
                    .map(bytes::Bytes::from)
                    .map_err(TaskError::App),
                worker: Some(result.worker),
                started: Some(started),
                finished: Some(Instant::now()),
            };
            if outstanding.fetch_sub(1, Ordering::Relaxed) == 1 {
                // Idle: no mark can match an attempt still to come. A
                // cancel racing this clear is lost, which cancel allows.
                cancelled.lock().clear();
            }
            // Each outcome ships the moment it exists. A worker must never
            // hold a finished result while it executes further tasks: the
            // DFK's walltime clock keeps running on the withheld outcome,
            // so buffering here could spuriously expire (and re-run) a task
            // that succeeded in time. The DFK's collector greedily drains
            // the channel instead, coalescing a burst from all workers into
            // one completion-plane pass without ever delaying delivery.
            completions.send(vec![outcome]).is_ok()
        });
        let runner = Runner {
            registry: ctx.registry,
            cancelled: Arc::clone(&self.cancelled),
            funnel,
        };
        let node = Addr::new(self.label.as_str());
        *state = Some(Workers::spawn(
            Fanout::Threads,
            self.workers,
            &runner,
            &node,
        ));
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        let mut state = self.state.lock();
        let workers = state.as_mut().ok_or(ExecutorError::NotRunning)?;
        self.dispatch(workers, std::slice::from_ref(&task))
    }

    /// Native batching: one state-lock acquisition and one push for the
    /// whole batch.
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let mut state = self.state.lock();
        let workers = state.as_mut().ok_or(ExecutorError::NotRunning)?;
        self.dispatch(workers, &tasks)
    }

    /// Best-effort, as on HTEX: a queued attempt is skipped at pick-up and
    /// answered "cancelled"; one already running finishes. An idle pool
    /// holds nothing to cancel, so it records nothing.
    fn cancel(&self, id: TaskId, attempt: u32) {
        if self.outstanding() > 0 {
            self.cancelled.lock().insert((id.0, attempt));
        }
    }

    fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Pool size, without taking the state lock: the dispatcher reads
    /// this on the routing hot path.
    fn capacity(&self) -> usize {
        self.workers
    }

    fn connected_workers(&self) -> usize {
        self.state.lock().as_ref().map_or(0, |_| self.workers)
    }

    /// Workers finish the queue, then exit and are joined.
    fn shutdown(&self) {
        let workers = self.state.lock().take();
        if let Some(workers) = workers {
            workers.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_core::registry::AppRegistry;
    use parsl_core::types::AppKind;

    #[test]
    fn pool_executes_parallel_tasks() {
        use parsl_core::prelude::*;
        let dfk = DataFlowKernel::builder()
            .executor(ThreadPoolExecutor::new(4))
            .build()
            .unwrap();
        let square = dfk.python_app("square", |x: u64| x * x);
        let futs: Vec<_> = (0..100u64).map(|i| parsl_core::call!(square, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), (i * i) as u64);
        }
        dfk.shutdown();
    }

    /// Eight tasks on eight threads meet at a barrier, so none finishes
    /// unless all of them run at once.
    #[test]
    fn pool_actually_runs_concurrently() {
        use parsl_core::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let dfk = DataFlowKernel::builder()
            .executor(ThreadPoolExecutor::new(8))
            .build()
            .unwrap();
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static NOW: AtomicUsize = AtomicUsize::new(0);
        PEAK.store(0, Ordering::SeqCst);
        NOW.store(0, Ordering::SeqCst);
        let all_in = Arc::new(std::sync::Barrier::new(8));
        let busy = dfk.python_app("busy", move |_i: u64| {
            let n = NOW.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(n, Ordering::SeqCst);
            all_in.wait();
            NOW.fetch_sub(1, Ordering::SeqCst);
            0u8
        });
        let futs: Vec<_> = (0..8u64).map(|i| parsl_core::call!(busy, i)).collect();
        for f in &futs {
            f.result_timeout(Duration::from_secs(10)).unwrap();
        }
        assert!(
            PEAK.load(Ordering::SeqCst) >= 4,
            "expected real concurrency, peak was {}",
            PEAK.load(Ordering::SeqCst)
        );
        dfk.shutdown();
    }

    /// Cancels aimed at 1,000 attempts that already finished, sent while a
    /// blocker keeps the pool busy, are recorded, and gone once the pool
    /// is idle again.
    #[test]
    fn cancel_marks_do_not_outlive_the_busy_spell() {
        let registry = AppRegistry::new();
        let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
        let gate_rx = Mutex::new(gate_rx);
        let app = registry.register(
            "gated",
            AppKind::Native,
            "(bool)->()",
            Arc::new(move |args| {
                let (hold,): (bool,) = wire::from_bytes(args).unwrap();
                if hold {
                    let _ = gate_rx.lock().recv(); // returns once the gate drops
                }
                Ok(Vec::new())
            }),
            Default::default(),
        );
        let spec = |id: u64, hold: bool| TaskSpec {
            id: TaskId(id),
            app: Arc::clone(&app),
            args: bytes::Bytes::from(wire::to_bytes(&(hold,)).unwrap()),
            resources: Default::default(),
            tenant: Default::default(),
            attempt: 0,
            items: 1,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = ThreadPoolExecutor::new(2);
        pool.start(ExecutorContext {
            completions: tx,
            registry: Arc::clone(&registry),
        })
        .unwrap();
        let settle = |n: usize| {
            let mut got = 0;
            while got < n {
                got += rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap()
                    .len();
            }
            assert_eq!(pool.outstanding(), 0);
        };

        pool.submit_batch((0..1000).map(|id| spec(id, false)).collect())
            .unwrap();
        settle(1000);
        pool.submit(spec(1000, true)).unwrap();
        for id in 0..1000 {
            pool.cancel(TaskId(id), 0);
        }
        assert_eq!(pool.cancelled.lock().len(), 1000);
        drop(gate);
        settle(1);
        assert!(
            pool.cancelled.lock().is_empty(),
            "marks outlived the pool's busy spell"
        );
        pool.shutdown();
    }
}
