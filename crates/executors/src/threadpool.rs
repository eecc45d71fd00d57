//! Local thread-pool executor.
//!
//! Parsl extends `concurrent.futures` and inherits its ThreadPoolExecutor
//! for single-node runs; Figure 3 uses it as the latency baseline
//! (tasks never leave the process). This version still routes arguments
//! and results through the wire codec so behaviour (immutability through
//! serialization) matches the distributed executors.

use crate::kernel;
use crate::proto::WireTask;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use parsl_core::error::TaskError;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fixed pool of in-process worker threads.
pub struct ThreadPoolExecutor {
    label: String,
    workers: usize,
    state: Mutex<Option<Running>>,
    outstanding: Arc<AtomicUsize>,
}

struct Running {
    tx: Sender<WireTask>,
    handles: Vec<std::thread::JoinHandle<()>>,
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
        }
    }
}

fn worker_thread(
    label: String,
    index: usize,
    rx: Receiver<WireTask>,
    ctx: ExecutorContext,
    outstanding: Arc<AtomicUsize>,
) {
    let worker_name = format!("{label}-worker-{index}");
    while let Ok(task) = rx.recv() {
        let started = Instant::now();
        let result = kernel::execute(&ctx.registry, &task, &worker_name);
        outstanding.fetch_sub(1, Ordering::Relaxed);
        let outcome = TaskOutcome {
            id: parsl_core::types::TaskId(result.id),
            attempt: result.attempt,
            result: result
                .outcome
                .map(bytes::Bytes::from)
                .map_err(TaskError::App),
            worker: Some(result.worker),
            started: Some(started),
            finished: Some(Instant::now()),
        };
        // Each outcome ships the moment it exists. A worker must never
        // hold a finished result while it executes further tasks: the
        // DFK's walltime clock keeps running on the withheld outcome, so
        // buffering here could spuriously expire (and re-run) a task that
        // succeeded in time. Completion batching for the pool happens at
        // the right layer instead — the DFK's collector greedily drains
        // the channel, coalescing a burst from all workers into one
        // completion-plane pass without ever delaying delivery.
        if ctx.completions.send(vec![outcome]).is_err() {
            return; // DFK is gone
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
        let (tx, rx) = unbounded::<WireTask>();
        let mut handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let rx = rx.clone();
            let ctx = ctx.clone();
            let label = self.label.clone();
            let outstanding = Arc::clone(&self.outstanding);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{label}-w{i}"))
                    .spawn(move || worker_thread(label, i, rx, ctx, outstanding))
                    .map_err(|e| ExecutorError::Comm(format!("spawn worker: {e}")))?,
            );
        }
        *state = Some(Running { tx, handles });
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        let state = self.state.lock();
        let running = state.as_ref().ok_or(ExecutorError::NotRunning)?;
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        let wire_task = WireTask::from_spec(&task);
        running.tx.send(wire_task).map_err(|_| {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
            ExecutorError::NotRunning
        })
    }

    /// Native batching: one state-lock acquisition for the whole batch;
    /// the tasks stream into the shared MPMC worker queue back to back.
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let state = self.state.lock();
        let running = state.as_ref().ok_or(ExecutorError::NotRunning)?;
        for task in &tasks {
            self.outstanding.fetch_add(1, Ordering::Relaxed);
            running.tx.send(WireTask::from_spec(task)).map_err(|_| {
                self.outstanding.fetch_sub(1, Ordering::Relaxed);
                ExecutorError::NotRunning
            })?;
        }
        Ok(())
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
        if self.state.lock().is_some() {
            self.workers
        } else {
            0
        }
    }

    fn shutdown(&self) {
        if let Some(running) = self.state.lock().take() {
            drop(running.tx); // workers drain and exit
            for h in running.handles {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_core::prelude::*;

    #[test]
    fn pool_executes_parallel_tasks() {
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

    #[test]
    fn pool_actually_runs_concurrently() {
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
        let busy = dfk.python_app("busy", |_i: u64| {
            let n = NOW.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(n, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            NOW.fetch_sub(1, Ordering::SeqCst);
            0u8
        });
        let futs: Vec<_> = (0..8u64).map(|i| parsl_core::call!(busy, i)).collect();
        for f in &futs {
            f.result().unwrap();
        }
        assert!(
            PEAK.load(Ordering::SeqCst) >= 4,
            "expected real concurrency, peak was {}",
            PEAK.load(Ordering::SeqCst)
        );
        dfk.shutdown();
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let pool = ThreadPoolExecutor::new(2);
        let (tx, _rx) = crossbeam::channel::unbounded();
        pool.start(ExecutorContext {
            completions: tx,
            registry: parsl_core::registry::AppRegistry::new(),
        })
        .unwrap();
        assert_eq!(pool.connected_workers(), 2);
        pool.shutdown();
        assert_eq!(pool.connected_workers(), 0);
        pool.shutdown(); // second call is a no-op
        let spec_err = pool.submit(TaskSpec {
            id: TaskId(1),
            app: parsl_core::registry::AppRegistry::new().register(
                "x",
                parsl_core::types::AppKind::Native,
                "()",
                Arc::new(|_| Ok(vec![])),
                Default::default(),
            ),
            args: bytes::Bytes::new(),
            resources: Default::default(),
            tenant: Default::default(),
            attempt: 0,
            items: 1,
        });
        assert!(matches!(spec_err, Err(ExecutorError::NotRunning)));
    }
}
