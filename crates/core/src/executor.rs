//! The modular executor interface (§3.6, §4.3).
//!
//! Executors "control the process by which the task is transported to
//! configured resources, executed on that resource, and results are
//! communicated back". The DataFlowKernel treats them uniformly through
//! this trait; concrete implementations (thread pool, HTEX, EXEX, LLEX)
//! live in the `parsl-executors` crate, and comparison systems in
//! `baselines` (its Dask and IPP models are HTEX shapes too).

use crate::error::TaskError;
use crate::registry::{AppRegistry, RegisteredApp};
use crate::types::{ResourceSpec, TaskId, TenantId};
use bytes::Bytes;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// A launchable task: the app reference plus wire-encoded arguments.
#[derive(Clone)]
pub struct TaskSpec {
    /// DFK task id; echoed back in the outcome.
    pub id: TaskId,
    /// The app to run (resolved again by registry id on the worker side).
    pub app: Arc<RegisteredApp>,
    /// Wire-encoded argument tuple.
    pub args: Bytes,
    /// Resource request.
    pub resources: ResourceSpec,
    /// 0 for the first try; incremented by DFK retries.
    pub attempt: u32,
    /// Logical workflow this task belongs to (stamped at submission;
    /// travels through the executor wire protocol for per-tenant
    /// accounting beyond the kernel boundary).
    pub tenant: TenantId,
    /// Logical items fused into this task (1 for ordinary tasks, the
    /// chunk length for `app.map` fused chunks). Per-task budgets that
    /// scale with work — walltime, hedge thresholds, service-time
    /// samples — multiply or divide by this so a 1000-item chunk is not
    /// mistaken for one slow task.
    pub items: u32,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("id", &self.id)
            .field("app", &self.app.name)
            .field("args_len", &self.args.len())
            .field("attempt", &self.attempt)
            .field("tenant", &self.tenant)
            .field("items", &self.items)
            .finish()
    }
}

/// What an executor reports back for a finished (or lost) task.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The task this outcome belongs to.
    pub id: TaskId,
    /// Attempt number echoed from the [`TaskSpec`]; lets the DFK discard
    /// stale outcomes that race with retries or walltime expiry.
    pub attempt: u32,
    /// Wire-encoded result bytes, or the failure.
    pub result: Result<Bytes, TaskError>,
    /// Identity of the worker that ran the task, when known.
    pub worker: Option<String>,
    /// When the worker started executing, when known.
    pub started: Option<Instant>,
    /// When execution finished, when known.
    pub finished: Option<Instant>,
}

impl TaskOutcome {
    /// Minimal outcome with no execution metadata.
    pub fn new(id: TaskId, attempt: u32, result: Result<Bytes, TaskError>) -> Self {
        TaskOutcome {
            id,
            attempt,
            result,
            worker: None,
            started: None,
            finished: None,
        }
    }
}

/// Everything an executor needs from the DFK at start time.
#[derive(Clone)]
pub struct ExecutorContext {
    /// Where to deliver [`TaskOutcome`]s (shared by all executors).
    ///
    /// The channel carries *batches*: an executor that receives a whole
    /// result frame (HTEX/EXEX/LLEX) forwards it as one `Vec` so the
    /// DFK's collector handles it in one completion-plane pass — one
    /// shard lock per shard, one checkpoint append, one monitor batch —
    /// instead of paying the full cycle per task. Single results ship as
    /// one-element vectors; the collector's greedy drain coalesces those
    /// too. Never *withhold* a finished outcome to grow a batch: the
    /// DFK's walltime clock keeps running until the outcome is accepted.
    pub completions: Sender<Vec<TaskOutcome>>,
    /// App lookup table for worker-side resolution.
    pub registry: Arc<AppRegistry>,
}

/// Executor failures surfaced to the DFK.
#[derive(Debug, Clone)]
pub enum ExecutorError {
    /// The executor has not been started or was shut down.
    NotRunning,
    /// The executor cannot accept the task (queue full, no capacity
    /// policy, unknown resource shape).
    Rejected(String),
    /// Internal communication failure.
    Comm(String),
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::NotRunning => write!(f, "executor not running"),
            ExecutorError::Rejected(m) => write!(f, "task rejected: {m}"),
            ExecutorError::Comm(m) => write!(f, "executor communication failure: {m}"),
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Block-based scaling interface, implemented by executors that can grow
/// and shrink through a provider (§4.2.3, §4.4). The strategy engine drives
/// this.
pub trait BlockScaling: Send + Sync {
    /// Blocks currently provisioned (requested or running).
    fn block_count(&self) -> usize;
    /// Worker slots one block contributes when fully up.
    fn workers_per_block(&self) -> usize;
    /// Request `n` more blocks; returns how many were actually requested
    /// (the provider may refuse some).
    fn scale_out(&self, n: usize) -> usize;
    /// Release up to `n` blocks (idle first); returns how many were
    /// released.
    fn scale_in(&self, n: usize) -> usize;
    /// Gracefully retire up to `n` blocks: stop feeding them work, let
    /// held tasks finish, then release the resources. Returns how many
    /// retirements began. The provided implementation falls back to the
    /// abrupt [`BlockScaling::scale_in`]; pools that can drain override
    /// it (see `parsl-providers`' `BlockPool`).
    fn drain(&self, n: usize) -> usize {
        self.scale_in(n)
    }
    /// Blocks currently draining (counted in [`BlockScaling::block_count`]
    /// until their release completes). Zero for pools without drain
    /// support.
    fn draining_blocks(&self) -> usize {
        0
    }
    /// Floor on provisioned blocks.
    fn min_blocks(&self) -> usize {
        0
    }
    /// Ceiling on provisioned blocks.
    fn max_blocks(&self) -> usize {
        usize::MAX
    }
}

/// The executor abstraction. See module docs.
pub trait Executor: Send + Sync {
    /// Label used in configs, execution hints, and monitoring.
    fn label(&self) -> &str;

    /// Bring the executor up (spawn interchange/manager/worker machinery).
    /// Called exactly once by the DFK before any submit.
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError>;

    /// Hand a ready task to the executor. Completion arrives on the
    /// context's channel; this call must not block on task execution.
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError>;

    /// Hand a batch of ready tasks to the executor in one call (§4.3.1:
    /// "configurable batching ... of tasks to minimize communication
    /// overheads"). The DataFlowKernel drains all tasks made ready by one
    /// event through this path, so a wide fan-out arrives as a handful of
    /// large batches rather than thousands of per-task calls.
    ///
    /// The provided implementation loops over [`Executor::submit`];
    /// executors with a wire protocol override it to ship one frame per
    /// batch. On error the whole batch is considered failed — the DFK
    /// synthesizes a lost-task outcome for every task in it, so an
    /// implementation that partially submitted must tolerate late
    /// duplicate outcomes (the DFK discards stale attempts).
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        for task in tasks {
            self.submit(task)?;
        }
        Ok(())
    }

    /// Best-effort cancellation of one in-flight attempt, used by the
    /// straggler-hedging plane to stop the losing attempt of a hedged
    /// pair and by walltime expiry to stop the attempt it expired.
    /// Semantics are advisory: an executor may ignore the request, and a
    /// cancelled attempt may still deliver an outcome (the DFK's attempt
    /// stamping filters it). The provided implementation does nothing.
    ///
    /// Honoured by `parsl-executors`' `HtexExecutor` in every shape (HTEX,
    /// LLEX, EXEX, and the `baselines` crate's Dask and IPP; in-proc or
    /// over TCP) and its `ThreadPoolExecutor`: an attempt not yet running
    /// is skipped and answered with a "cancelled" failure, one already
    /// running finishes. Ignored by [`ImmediateExecutor`], which holds
    /// nothing in flight, and by the `baselines` FireWorks model.
    fn cancel(&self, id: TaskId, attempt: u32) {
        let _ = (id, attempt);
    }

    /// Tasks submitted whose outcomes have not yet been delivered.
    fn outstanding(&self) -> usize;

    /// Worker slots currently provisioned, offered to schedulers as
    /// [`crate::scheduler::ExecutorSnapshot::capacity`]. For scalable
    /// executors this tracks the block pool, so a capacity-aware custom
    /// policy sees elastic scale-out at once. Must be cheap: the
    /// dispatcher reads it once per batch.
    fn capacity(&self) -> usize {
        match self.scaling() {
            Some(s) => s.block_count() * s.workers_per_block(),
            None => self.connected_workers(),
        }
    }

    /// Workers currently connected/ready (0 before start).
    fn connected_workers(&self) -> usize;

    /// Stop all machinery. Outstanding tasks may be dropped; the DFK fails
    /// them as [`TaskError::Shutdown`].
    fn shutdown(&self);

    /// The scaling interface, for executors wired to a provider.
    fn scaling(&self) -> Option<&dyn BlockScaling> {
        None
    }
}

/// Test/inline executor: runs each task synchronously on the submitting
/// thread (through the full serialize → execute → serialize path) and
/// reports through the completion channel like any other executor.
///
/// Useful in unit tests and as the degenerate executor for pure dataflow
/// programs; the paper's ThreadPoolExecutor equivalent with real worker
/// threads lives in `parsl-executors`.
pub struct ImmediateExecutor {
    label: String,
    ctx: parking_lot::Mutex<Option<ExecutorContext>>,
    outstanding: Arc<std::sync::atomic::AtomicUsize>,
}

impl ImmediateExecutor {
    /// Create with the conventional label `"immediate"`.
    pub fn new() -> Self {
        Self::with_label("immediate")
    }

    /// Create with a custom label.
    pub fn with_label(label: &str) -> Self {
        ImmediateExecutor {
            label: label.to_string(),
            ctx: parking_lot::Mutex::new(None),
            outstanding: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
        }
    }
}

impl Default for ImmediateExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor for ImmediateExecutor {
    fn label(&self) -> &str {
        &self.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        let ctx = self.ctx.lock().clone().ok_or(ExecutorError::NotRunning)?;
        self.outstanding
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let started = Instant::now();
        let result = (task.app.func)(&task.args)
            .map(Bytes::from)
            .map_err(TaskError::App);
        let outcome = TaskOutcome {
            id: task.id,
            attempt: task.attempt,
            result,
            worker: Some(format!("{}-inline", self.label)),
            started: Some(started),
            finished: Some(Instant::now()),
        };
        self.outstanding
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        ctx.completions
            .send(vec![outcome])
            .map_err(|_| ExecutorError::Comm("completion channel closed".into()))
    }

    fn outstanding(&self) -> usize {
        self.outstanding.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One inline "worker" while started.
    fn connected_workers(&self) -> usize {
        usize::from(self.ctx.lock().is_some())
    }

    fn shutdown(&self) {
        self.ctx.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AppOptions, AppRegistry};
    use crate::types::AppKind;

    fn spec(app: Arc<RegisteredApp>, args: Bytes) -> TaskSpec {
        TaskSpec {
            id: TaskId(1),
            app,
            args,
            resources: ResourceSpec::default(),
            attempt: 0,
            tenant: TenantId::DEFAULT,
            items: 1,
        }
    }

    #[test]
    fn immediate_executor_roundtrip() {
        let registry = AppRegistry::new();
        let app = registry.register(
            "double",
            AppKind::Native,
            "(u32)->u32",
            Arc::new(|args| {
                let (x,): (u32,) = wire::from_bytes(args)
                    .map_err(|e| crate::error::AppError::Serialization(e.to_string()))?;
                wire::to_bytes(&(x * 2))
                    .map_err(|e| crate::error::AppError::Serialization(e.to_string()))
            }),
            AppOptions::default(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let ex = ImmediateExecutor::new();
        ex.start(ExecutorContext {
            completions: tx,
            registry,
        })
        .unwrap();
        ex.submit(spec(app, Bytes::from(wire::to_bytes(&(21u32,)).unwrap())))
            .unwrap();
        let batch = rx.recv().unwrap();
        assert_eq!(batch.len(), 1);
        let outcome = batch.into_iter().next().unwrap();
        let v: u32 = wire::from_bytes(&outcome.result.unwrap()).unwrap();
        assert_eq!(v, 42);
        assert!(outcome.worker.unwrap().contains("inline"));
    }
}
