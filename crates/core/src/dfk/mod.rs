//! The DataFlowKernel (§4.1): Parsl's execution management engine.
//!
//! The DFK "is responsible for constructing and orchestrating the execution
//! of the task graph":
//!
//! - tasks enter via app invocation; dependencies are implicit in the
//!   futures passed as arguments;
//! - edges are "encoded as asynchronous callbacks on a dependent future",
//!   making the whole engine event driven — launching a task and firing an
//!   edge are O(1), so executing a graph of *n* tasks and *e* edges costs
//!   O(n + e);
//! - when a task's dependencies resolve, the DFK consults the memoization
//!   table/checkpoints, picks an executor (the per-app hint, or a random
//!   choice across configured executors), and submits;
//! - failures are retried up to the configured budget; exhausted retries
//!   wrap the error into the task's future; dependent tasks fail with
//!   dependency errors without running;
//! - a strategy thread grows and shrinks provider blocks (§4.4), and a
//!   walltime watcher enforces per-task time limits.
//!
//! # Layout
//!
//! One module per plane, all `impl DataFlowKernel` blocks over the one
//! struct defined here:
//!
//! | module | holds |
//! |---|---|
//! | this one | the struct, app registration, `submit` and the dependency edges, introspection |
//! | `record` | `TaskRecord`, the sharded `TaskTable` of the tasks still going on, the counts of those that ended |
//! | `launch` | the ready queue and its single drainer, `launch_batch`, `dispatch`, `submit_group` |
//! | `routing` | load snapshots, `route` / `route_retry` |
//! | `tenancy` | `TenantState`, `charge` / `release_charges`, the parked list and `unpark_ready`, [`TenantHandle`] |
//! | `commit` | `Event`, `transition`, `Effects`, `apply`, `settle` — the one path by which a task ends |
//! | `hedge` | `run_hedge_once` |
//! | `stats` | `ServiceStats`: arrival rate and service-time quantiles |
//! | `service` | `new`, the service threads, walltime deadlines, `wait_for_all`, `shutdown` |
//!
//! # Hot-path concurrency
//!
//! The task table is split into [`TABLE_SHARDS`] lock shards keyed by
//! `TaskId`, so the dependency-edge callback path only ever locks the
//! *child's* shard and unrelated tasks never contend. Cross-shard
//! completion fan-out stays lock-free: a finished task's result travels
//! through its `FutureState` and the shared completion channel, never by
//! holding two shards at once. Counters (`live`, the executor-choice
//! sequence) are atomics.
//!
//! Dispatch is batched: every event that makes tasks ready (a parent
//! completing, a root submission) deposits them on a ready queue, and a
//! single drainer collects them into per-executor batches handed to
//! [`Executor::submit_batch`] — one wire frame for a thousand-child
//! fan-out instead of a thousand sends (§4.3.1's "configurable batching").
//!
//! **Collection is batched symmetrically.** Executors deliver whole result
//! frames (`Vec<TaskOutcome>`) on the completion channel; the collector
//! greedily drains everything queued and hands it to `settle`, which
//! groups the events by table shard (one lock acquisition per touched
//! shard), records all checkpoint frames through one
//! [`Memoizer::record_batch`] append, emits one
//! [`MonitorSink::on_batch`] call, fires all resolved futures while
//! holding the dispatch flag, and finishes with a single
//! `unpark_ready` + drain — so a wide fan-in's downstream tasks ship as
//! one submit batch instead of paying a full dispatch cycle per parent.
//! Everything else that ends a task — memo hits, failed dependencies,
//! failed submissions, the shutdown sweep — enters the same `settle`.
//!
//! # Task routing and backpressure
//!
//! Each unpinned ready task is placed by the configured [`Scheduler`]
//! (see [`crate::scheduler::SchedulerPolicy`]); the batch
//! dispatcher consults it per task against a load snapshot it updates as
//! it assigns, so one wide batch is split across executors by policy.
//! With `max_inflight_per_executor` set, tasks that would push an
//! executor over its cap park instead and re-enter the ready queue as
//! completions free capacity.
//!
//! # Multi-tenancy
//!
//! One kernel can serve many logical workflows (tenants) over one
//! executor pool. Every task carries a [`TenantId`] (stamped by
//! [`DataFlowKernel::tenant`] / `app.invoke().tenant(t)`; plain `call`
//! uses [`TenantId::DEFAULT`]), and the kernel keeps per-tenant in-flight
//! counts — total and per executor — next to the per-executor ones.
//! Tenants may be given a `max_inflight` quota and a fairness weight
//! ([`crate::config::TenantConfig`]): an over-quota tenant's ready tasks
//! park exactly like over-cap ones, *without* blocking other tenants,
//! and freed capacity is granted back across parked tenants in
//! weighted-deficit order — the tenant with the smallest
//! in-flight/weight share wakes first (`unpark_ready`). The
//! [`crate::scheduler::WeightedFair`] policy adds tenant-aware placement
//! on top.

mod commit;
mod hedge;
mod launch;
mod record;
mod routing;
mod service;
mod stats;
mod tenancy;

pub use record::TABLE_SHARDS;
pub use tenancy::TenantHandle;

use crate::app::{App, AppArgs, AppFn, ArgSlot, TaskValue};
use crate::bash::{run_bash, BashOptions};
use crate::combinators::CombinatorKey;
use crate::config::{Config, ConfigBuilder, TenantConfig};
use crate::datamap::{DataHints, DataMap, TransferModel};
use crate::error::{AppError, TaskError};
use crate::executor::{Executor, TaskOutcome};
use crate::future::FutureState;
use crate::memo::Memoizer;
use crate::monitor::{MonitorEvent, MonitorSink};
use crate::registry::{AppOptions, AppRegistry, ErasedAppFn, RegisteredApp};
use crate::scheduler::Scheduler;
use crate::strategy::StrategyConfig;
use crate::types::{AppKind, TaskId, TaskState, TenantId};
use bytes::Bytes;
use commit::{Event, PassScratch};
use crossbeam::channel::Sender;
use launch::LaunchScratch;
use parking_lot::{Condvar, Mutex, RwLock};
use record::{TaskRecord, TaskTable};
use service::DeadlineHeap;
use stats::ServiceStats;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tenancy::TenantState;

/// Most outcomes the collector folds into one commit-plane pass.
/// Bounds the per-pass allocation (futures, monitor events, checkpoint
/// frames) under a sustained completion storm; the channel is drained
/// again immediately, so the cap costs at most an extra pass.
pub const COLLECT_BATCH_CAP: usize = 4096;

/// The execution engine. Create one per program via
/// [`DataFlowKernel::builder`]; register apps on it; call them; wait on
/// futures. See the crate docs for a tour.
pub struct DataFlowKernel {
    registry: Arc<AppRegistry>,
    executors: Vec<Arc<dyn Executor>>,
    label_index: HashMap<String, usize>,
    table: TaskTable,
    /// Non-terminal task count; guards `wait_for_all`.
    live: AtomicUsize,
    /// Paired with `all_done`: `live` is atomic, so waiters re-check it
    /// under this mutex to close the wakeup race.
    done_lock: Mutex<()>,
    all_done: Condvar,
    memo: Memoizer,
    default_retries: u32,
    monitor: Option<Arc<dyn MonitorSink>>,
    /// Placement policy for unpinned tasks.
    scheduler: Arc<dyn Scheduler>,
    /// Which executor holds which staged file / declared output — the
    /// placement registry behind `DataAware` routing.
    data_map: DataMap,
    /// Converts a task's non-resident input bytes into estimated seconds
    /// for the per-candidate `transfer_cost` snapshot field.
    transfer_model: TransferModel,
    /// Assignment sequence feeding the scheduler's per-task entropy.
    exec_seq: AtomicU64,
    /// Per-executor attempts dispatched and not yet resolved. This is the
    /// dispatcher's own view (incremented at assignment, decremented when
    /// an outcome is accepted), so it is coherent with routing decisions
    /// even when an executor's `outstanding()` lags its wire queue.
    inflight: Vec<AtomicUsize>,
    /// Backpressure cap per executor; `None` = unbounded.
    max_inflight: Option<usize>,
    /// Per-tenant accounting, created lazily at first submission.
    tenants: RwLock<HashMap<TenantId, Arc<TenantState>>>,
    /// Configured per-tenant settings, applied when a tenant's state is
    /// first created.
    tenant_cfg: HashMap<TenantId, TenantConfig>,
    /// True when any configured tenant has an in-flight quota — without
    /// one (and without an executor cap) nothing can ever park.
    has_tenant_quotas: bool,
    /// Ready tasks parked by backpressure — an executor cap or a tenant
    /// quota — with the executor they are pinned to (`None` = any) and
    /// their tenant (drives the weighted-deficit unparking order).
    parked: Mutex<Vec<(TaskId, Option<usize>, TenantId)>>,
    /// Tasks whose dependencies are all met, awaiting dispatch.
    ready: Mutex<Vec<TaskId>>,
    /// Single-drainer flag for the ready queue: whoever wins the CAS
    /// collects everything deposited (by any thread) into batches.
    dispatching: AtomicBool,
    /// The drainer's working buffers; locked only by the holder of
    /// `dispatching`, for as long as it drains.
    launch_scratch: Mutex<LaunchScratch>,
    /// Dependency failures awaiting their commit (see `settle_deferred`).
    deferred: Mutex<Vec<Event>>,
    /// Single-drainer flag for `deferred`.
    settling: AtomicBool,
    /// Spare working buffers of the commit plane's passes. Boxed: every
    /// pass pops one and pushes it back, a pointer rather than ~600 bytes.
    #[allow(clippy::vec_box)]
    pass_scratch: Mutex<Vec<Box<PassScratch>>>,
    started_at: Instant,
    stop: AtomicBool,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    completions: Mutex<Option<Sender<Vec<TaskOutcome>>>>,
    /// (deadline, task, attempt) walltime heap, shared with the watcher.
    deadlines: Arc<Mutex<DeadlineHeap>>,
    /// Wakes the walltime watcher when a new earliest deadline is armed
    /// (or at shutdown); with nothing pending the watcher sleeps
    /// indefinitely instead of polling.
    deadline_cv: Arc<Condvar>,
    /// Times the walltime watcher woke up (deadline expiry or re-arm).
    /// Introspection for tests: an idle kernel with no walltimes must not
    /// tick.
    walltime_wakeups: AtomicU64,
    /// Apps the combinators registered, by what their bodies depend on
    /// (see `combinator_app`).
    combinator_apps: Mutex<HashMap<CombinatorKey, Arc<RegisteredApp>>>,
    strategy_cfg: StrategyConfig,
    /// Arrival-rate and service-time observations feeding the predictive
    /// strategy's [`crate::strategy::LoadSignal`] and the hedge watcher's
    /// p99 threshold.
    stats: ServiceStats,
    /// Placeholder app backing `failed_submission` records.
    invalid_app: Arc<RegisteredApp>,
}

/// Per-call options for [`DataFlowKernel::submit`] — everything beyond
/// the app and its argument slots. `Default` is a plain submission:
/// default tenant, no data hints. The typed spelling is
/// [`crate::app::App::invoke`].
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Logical workflow the task runs under (quota + fairness
    /// accounting); [`TenantId::DEFAULT`] when unset.
    pub tenant: TenantId,
    /// Declared data inputs/output steering the `DataAware` router.
    pub hints: DataHints,
    /// Logical items this submission represents (1 for ordinary tasks;
    /// the chunk length for fused `app.map` chunks). Values below 1 are
    /// treated as 1.
    pub items: u32,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            tenant: TenantId::DEFAULT,
            hints: DataHints::default(),
            items: 1,
        }
    }
}

impl DataFlowKernel {
    /// Start building a kernel: [`ConfigBuilder::build`] validates the
    /// settings and returns the running kernel.
    pub fn builder() -> ConfigBuilder {
        Config::builder()
    }

    fn emit(&self, event: impl FnOnce() -> MonitorEvent) {
        if let Some(m) = &self.monitor {
            m.on_event(&event());
        }
    }

    /// The monitor event for `rec` entering `state`; `None` when nothing
    /// is listening.
    fn task_event(&self, rec: &TaskRecord, state: TaskState) -> Option<MonitorEvent> {
        self.monitor.as_ref()?;
        Some(MonitorEvent::Task {
            task: rec.id(),
            app: rec.app.name.clone(),
            state,
            executor: rec
                .executor_idx
                .map(|i| self.executors[usize::from(i)].label().to_string()),
            attempt: rec.attempt,
            tenant: rec.tenant,
            items: rec.items,
            at: self.started_at.elapsed(),
        })
    }

    // ------------------------------------------------------------------
    // App registration
    // ------------------------------------------------------------------

    /// Register an infallible native app (Parsl `@python_app`). Closures of
    /// up to eight arguments work directly:
    /// `dfk.python_app("add", |a: i64, b: i64| a + b)`.
    pub fn python_app<A, R, F>(self: &Arc<Self>, name: &str, f: F) -> App<A, R>
    where
        A: AppArgs,
        R: TaskValue,
        F: AppFn<A, R>,
    {
        self.register_native(name, AppOptions::default(), move |a: A| Ok(f.invoke(a)))
    }

    /// Register a fallible native app: the body may fail, like a Python
    /// function raising an exception.
    pub fn python_app_fallible<A, R, F>(self: &Arc<Self>, name: &str, f: F) -> App<A, R>
    where
        A: AppArgs,
        R: TaskValue,
        F: AppFn<A, Result<R, AppError>>,
    {
        self.register_native(name, AppOptions::default(), move |a: A| f.invoke(a))
    }

    /// Register a fallible native app with per-app options (memoization,
    /// retries, executor pinning, walltime).
    ///
    /// # Panics
    /// If `options.executor` names a label not in this kernel's config —
    /// that is a programming error caught at registration.
    pub fn python_app_cfg<A, R, F>(
        self: &Arc<Self>,
        name: &str,
        options: AppOptions,
        f: F,
    ) -> App<A, R>
    where
        A: AppArgs,
        R: TaskValue,
        F: AppFn<A, Result<R, AppError>>,
    {
        self.register_native(name, options, move |a: A| f.invoke(a))
    }

    /// Tuple-level registration shared by the `python_app*` entry points.
    fn register_native<A, R>(
        self: &Arc<Self>,
        name: &str,
        options: AppOptions,
        body: impl Fn(A) -> Result<R, AppError> + Send + Sync + 'static,
    ) -> App<A, R>
    where
        A: AppArgs,
        R: TaskValue,
    {
        self.validate_options(&options);
        let erased: ErasedAppFn = Arc::new(move |bytes: &[u8]| {
            let args = A::decode(bytes)?;
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| body(args)))
                .map_err(|p| AppError::Panic(panic_message(p)))??;
            wire::to_bytes(&out).map_err(|e| AppError::Serialization(e.to_string()))
        });
        let signature = format!("{}->{}", A::signature(), std::any::type_name::<R>());
        let registered = self
            .registry
            .register(name, AppKind::Native, &signature, erased, options);
        App::new(Arc::clone(self), registered)
    }

    /// Register a bash app (Parsl `@bash_app`): the body renders a shell
    /// command from the arguments; the task's value is the exit code (0).
    /// Nonzero exits fail the task.
    pub fn bash_app<A, F>(self: &Arc<Self>, name: &str, f: F) -> App<A, i32>
    where
        A: AppArgs,
        F: AppFn<A, String>,
    {
        self.bash_app_cfg(name, AppOptions::default(), BashOptions::default(), f)
    }

    /// [`DataFlowKernel::bash_app`] with app options and stdio redirection.
    pub fn bash_app_cfg<A, F>(
        self: &Arc<Self>,
        name: &str,
        options: AppOptions,
        bash: BashOptions,
        f: F,
    ) -> App<A, i32>
    where
        A: AppArgs,
        F: AppFn<A, String>,
    {
        self.validate_options(&options);
        let erased: ErasedAppFn = Arc::new(move |bytes: &[u8]| {
            let args = A::decode(bytes)?;
            let command = std::panic::catch_unwind(AssertUnwindSafe(|| f.invoke(args)))
                .map_err(|p| AppError::Panic(panic_message(p)))?;
            let code = run_bash(&command, &bash)?;
            wire::to_bytes(&code).map_err(|e| AppError::Serialization(e.to_string()))
        });
        let signature = format!("{}->bash", A::signature());
        let registered = self
            .registry
            .register(name, AppKind::Bash, &signature, erased, options);
        App::new(Arc::clone(self), registered)
    }

    /// Register a pre-erased app (used by the data-staging layer and other
    /// substrates that build tasks dynamically).
    pub fn register_erased(
        self: &Arc<Self>,
        name: &str,
        kind: AppKind,
        signature: &str,
        func: ErasedAppFn,
        options: AppOptions,
    ) -> Arc<RegisteredApp> {
        self.validate_options(&options);
        self.registry.register(name, kind, signature, func, options)
    }

    /// The app a combinator registers for `key`, made by `register` the
    /// first time it is asked for. A combinator body is a pure function
    /// of its key, so one registration serves every later call: the
    /// registry, which never removes an entry, and the app tables sent to
    /// remote workers stay as small as the set of distinct keys.
    pub(crate) fn combinator_app(
        &self,
        key: CombinatorKey,
        register: impl FnOnce() -> Arc<RegisteredApp>,
    ) -> Arc<RegisteredApp> {
        let mut apps = self.combinator_apps.lock();
        Arc::clone(apps.entry(key).or_insert_with(register))
    }

    fn validate_options(&self, options: &AppOptions) {
        if let Some(label) = &options.executor {
            assert!(
                self.label_index.contains_key(label),
                "executor hint {label:?} does not match any configured executor \
                 (have: {:?})",
                self.label_index.keys().collect::<Vec<_>>()
            );
        }
    }

    // ------------------------------------------------------------------
    // Submission and the dependency machinery
    // ------------------------------------------------------------------

    /// Submit a task from pre-built argument slots — the one untyped
    /// entry point behind every app invocation. Per-call variation
    /// (tenant, data hints) rides in [`SubmitOptions`]; the typed
    /// spelling is [`App::invoke`]'s builder:
    ///
    /// ```
    /// use parsl_core::prelude::*;
    ///
    /// let dfk = DataFlowKernel::builder()
    ///     .executor(ImmediateExecutor::new())
    ///     .build()
    ///     .unwrap();
    /// let double = dfk.python_app("double", |x: i64| x * 2);
    /// let f = double.invoke().tenant(TenantId(3)).call((Dep::value(5i64),));
    /// assert_eq!(f.result().unwrap(), 10);
    /// dfk.shutdown();
    /// ```
    ///
    /// Returns the future's state; typed wrapping happens in the `App`
    /// layer. Declared input hints feed the `DataAware` router's
    /// per-candidate transfer cost; the declared output is recorded as
    /// resident on the executor that runs the task.
    pub fn submit(
        self: &Arc<Self>,
        app: Arc<RegisteredApp>,
        slots: Vec<ArgSlot>,
        opts: SubmitOptions,
    ) -> Arc<FutureState> {
        let id = self.table.alloc_id();
        let future = FutureState::new(id);
        let parents: Vec<(usize, Arc<FutureState>)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ArgSlot::Pending(st) => Some((i, Arc::clone(st))),
                ArgSlot::Ready(_) => None,
            })
            .collect();
        let retries_left = app.options.retries.unwrap_or(self.default_retries);
        let rec = TaskRecord::new(app, slots, retries_left, opts, Arc::clone(&future));
        // Arrival accounting is per logical item: a 1000-item fused chunk
        // is 1000 arrivals, keeping Little's-law sizing self-consistent
        // with the per-item service samples.
        self.stats
            .arrivals
            .fetch_add(u64::from(rec.items), Ordering::Relaxed);
        if let Some(event) = self.task_event(&rec, TaskState::Pending) {
            self.emit(|| event);
        }
        self.admit(rec);

        if self.stop.load(Ordering::Acquire) {
            self.settle([Event::Settle {
                id,
                state: TaskState::Failed,
                result: Err(TaskError::Shutdown),
            }]);
            return future;
        }

        // Wire the dependency edges: asynchronous callbacks on the parent
        // futures (§4.1). Registered outside any shard lock — a parent that
        // is already done fires the callback synchronously right here.
        if parents.is_empty() {
            self.schedule_launch(id);
        }
        for (idx, parent_state) in parents {
            let weak = Arc::downgrade(self);
            let parent_id = parent_state.task_id();
            parent_state.on_done(move |result| {
                if let Some(dfk) = weak.upgrade() {
                    dfk.dependency_resolved(id, idx, parent_id, result);
                }
            });
        }
        future
    }

    /// Make a new record visible in its shard, where it stays until the
    /// commit plane retires it. The task is counted live *before* that: a
    /// concurrent shutdown sweep may settle (and decrement for) the record
    /// the moment it is inserted.
    fn admit(&self, rec: TaskRecord) {
        let id = rec.id();
        self.live.fetch_add(1, Ordering::AcqRel);
        self.table.shard(id).lock().insert(id, rec);
    }

    /// Produce an immediately failed future for submissions that cannot
    /// even be encoded (argument serialization failures).
    pub fn failed_submission(self: &Arc<Self>, error: AppError) -> Arc<FutureState> {
        let id = self.table.alloc_id();
        let future = FutureState::new(id);
        self.admit(TaskRecord::new(
            Arc::clone(&self.invalid_app),
            Vec::new(),
            0,
            SubmitOptions::default(),
            Arc::clone(&future),
        ));
        self.settle([Event::Settle {
            id,
            state: TaskState::Failed,
            result: Err(TaskError::App(error)),
        }]);
        future
    }

    /// A parent future resolved; update the waiting child. Locks only the
    /// child's shard — parent state arrives by value on the callback.
    fn dependency_resolved(
        self: &Arc<Self>,
        child: TaskId,
        slot_idx: usize,
        parent: TaskId,
        result: &Result<Bytes, TaskError>,
    ) {
        let ready = {
            let mut shard = self.table.shard(child).lock();
            // No record: the child already ended (another parent failed
            // it, or the shutdown sweep did).
            let Some(rec) = shard.get_mut(&child) else {
                return;
            };
            match result {
                Ok(bytes) => {
                    debug_assert!(matches!(rec.slots[slot_idx], ArgSlot::Pending(_)));
                    rec.slots[slot_idx] = ArgSlot::Ready(bytes.clone());
                    rec.unresolved -= 1;
                    rec.unresolved == 0
                }
                Err(e) => {
                    // The child never runs. Its commit is deferred to the
                    // `settle` loop rather than made from inside this
                    // callback, so a failure cascading down a deep graph
                    // does not recurse. The reason is the *root* failure,
                    // shared by reference: rendering the parent's whole
                    // chain into every descendant would cost O(depth²).
                    let reason = match e {
                        TaskError::DependencyFailed { reason, .. } => Arc::clone(reason),
                        root => root.to_string().into(),
                    };
                    drop(shard);
                    self.deferred.lock().push(Event::Settle {
                        id: child,
                        state: TaskState::DepFail,
                        result: Err(TaskError::DependencyFailed {
                            failed_task: parent,
                            reason,
                        }),
                    });
                    self.settle_deferred();
                    return;
                }
            }
        };
        if ready {
            self.schedule_launch(child);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The app registry shared with executors.
    pub fn registry(&self) -> &Arc<AppRegistry> {
        &self.registry
    }

    /// Number of tasks ever submitted.
    pub fn task_count(&self) -> usize {
        self.table.len()
    }

    /// Tasks not yet in a terminal state.
    pub fn live_tasks(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Histogram of task states (for monitoring and tests).
    pub fn state_counts(&self) -> HashMap<TaskState, usize> {
        self.table.state_counts()
    }

    /// Labels of the configured executors, in configuration order.
    pub fn executor_labels(&self) -> Vec<String> {
        self.executors
            .iter()
            .map(|e| e.label().to_string())
            .collect()
    }

    /// Access a configured executor by label.
    pub fn executor(&self, label: &str) -> Option<&Arc<dyn Executor>> {
        self.label_index.get(label).map(|&i| &self.executors[i])
    }

    /// Memoization (hits, misses).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.stats()
    }

    /// Name of the active task-routing policy.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The data-placement registry (which executor holds which staged
    /// file / declared output). Read-mostly introspection; the data
    /// manager and executors feed it through task hints.
    pub fn data_map(&self) -> &DataMap {
        &self.data_map
    }

    /// Total declared input bytes the router has had to move — placements
    /// of tasks whose inputs were not yet resident on the chosen
    /// executor. The bytes-not-moved half of the locality win
    /// (`fig_locality`); the makespan half is measured by the benchmark.
    pub fn data_bytes_moved(&self) -> u64 {
        self.data_map.bytes_moved()
    }

    /// Per-executor `(label, in-flight)` counts as tracked by the
    /// dispatcher (attempts dispatched and not yet resolved).
    pub fn inflight_counts(&self) -> Vec<(String, usize)> {
        self.executors
            .iter()
            .zip(&self.inflight)
            .map(|(e, n)| (e.label().to_string(), n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Times the walltime watcher has woken up. Stays at zero on a kernel
    /// that never arms a walltime — the watcher is deadline driven, not a
    /// periodic poll.
    pub fn walltime_wakeups(&self) -> u64 {
        self.walltime_wakeups.load(Ordering::Relaxed)
    }
}

/// The message of a caught panic, for [`AppError::Panic`].
pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    // Taking the Box by value avoids the &Box<dyn Any> coercion trap where
    // the *box* (not the payload) would be downcast.
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl std::fmt::Debug for DataFlowKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataFlowKernel")
            .field("executors", &self.executor_labels())
            .field("tasks", &self.task_count())
            .field("live", &self.live_tasks())
            .finish()
    }
}
