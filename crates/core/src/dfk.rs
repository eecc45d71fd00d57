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
//! greedily drains everything queued and hands it to
//! `handle_outcome_batch`, which groups outcomes by table shard (one lock
//! acquisition per touched shard), records all checkpoint frames through
//! one [`Memoizer::record_batch`] append, emits one
//! [`MonitorSink::on_batch`] call, fires all resolved futures while
//! holding the dispatch flag, and finishes with a single
//! `unpark_ready` + drain — so a wide fan-in's downstream tasks ship as
//! one submit batch instead of paying a full dispatch cycle per parent.
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

use crate::app::{App, AppArgs, AppFn, ArgSlot, TaskValue};
use crate::bash::{run_bash, BashOptions};
use crate::config::{Config, ConfigBuilder, TenantConfig};
use crate::datamap::{DataHints, DataMap, DataRef, TransferModel};
use crate::error::{AppError, ParslError, TaskError};
use crate::executor::{Executor, ExecutorContext, TaskOutcome, TaskSpec};
use crate::future::{AppFuture, FutureState};
use crate::memo::{memo_key, Memoizer};
use crate::monitor::{MonitorEvent, MonitorSink};
use crate::registry::{AppId, AppOptions, AppRegistry, ErasedAppFn, RegisteredApp};
use crate::scheduler::{ExecutorSnapshot, Scheduler};
use crate::strategy::{LoadSignal, ScalingDecision, Strategy, StrategyConfig};
use crate::types::{AppKind, ResourceSpec, TaskId, TaskState, TenantId};
use bytes::Bytes;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of lock shards in the task table. A power of two so the shard of
/// a task is a mask of its id; 16 shards keep contention negligible well
/// past the thread counts a single client drives.
pub const TABLE_SHARDS: usize = 16;

/// Most outcomes the collector folds into one completion-plane pass.
/// Bounds the per-pass allocation (futures, monitor events, checkpoint
/// frames) under a sustained completion storm; the channel is drained
/// again immediately, so the cap costs at most an extra pass.
pub const COLLECT_BATCH_CAP: usize = 4096;

/// One task's bookkeeping in the dynamic task graph.
struct TaskRecord {
    app: Arc<RegisteredApp>,
    /// Argument slots; `Pending` entries flip to `Ready` as parents finish.
    slots: Vec<ArgSlot>,
    /// Count of still-pending argument slots.
    unresolved: usize,
    state: TaskState,
    /// Concatenated argument buffer, built at first launch.
    args_bytes: Option<Bytes>,
    attempt: u32,
    retries_left: u32,
    /// Executor the task was last dispatched to (monitor labeling).
    executor_idx: Option<usize>,
    /// Executor whose in-flight slot (and the tenant's) this task
    /// currently holds; `Some` from routing until the charge is released
    /// by `release_charge` — exactly once per dispatched attempt, on any
    /// accepted outcome or terminal commit.
    charged: Option<usize>,
    /// Attempt number of an in-flight speculative duplicate (straggler
    /// hedge), if one was launched. Whichever of the primary and the
    /// hedge finishes first wins; the other is cancelled and its late
    /// outcome discarded by the attempt filter.
    hedge_attempt: Option<u32>,
    /// Executor in-flight slot the hedge holds (executor counter only —
    /// hedges are accounting-invisible to tenant quotas). Released
    /// exactly once via `release_hedge_charge`.
    hedge_charged: Option<usize>,
    /// When the current attempt was dispatched; feeds the hedge
    /// watcher's age check and the service-time fallback when an
    /// executor does not stamp `started`/`finished`.
    launched_at: Option<Instant>,
    /// Logical workflow the task belongs to.
    tenant: TenantId,
    /// Logical items fused into this task (1 normally; the chunk length
    /// for `app.map` fused chunks). Scales walltime budgets and hedge
    /// thresholds, divides service-time samples, and expands monitor
    /// counts back to logical items.
    items: u32,
    /// True while an entry for this task sits in the kernel's parked
    /// list (may be stale-true after an unpark requeue; removal is by
    /// id, so a stale flag is harmless).
    parked: bool,
    /// Attempt number a walltime deadline is armed for; parking and
    /// dispatch both arm, this dedups so one attempt arms at most once.
    deadline_attempt: Option<u32>,
    memo_key: Option<u64>,
    /// Declared data inputs/output (`Invocation::hints`); inputs steer the
    /// `DataAware` router toward executors already holding the bytes, the
    /// output is recorded in the kernel's `DataMap` on completion.
    hints: DataHints,
    future: Arc<FutureState>,
    /// Terminal result, stored before the future is assigned.
    result: Option<Result<Bytes, TaskError>>,
}

/// Per-tenant in-flight accounting and fairness settings. Counters are
/// atomics behind a shared `Arc`, so the dispatcher and the collector
/// update them without serializing on one lock.
struct TenantState {
    /// Fairness weight (config; default 1).
    weight: u32,
    /// In-flight quota across all executors (config; `None` unbounded).
    max_inflight: Option<usize>,
    /// Attempts of this tenant dispatched and not yet resolved.
    inflight: AtomicUsize,
    /// The same, split per executor (configuration order) — feeds
    /// `ExecutorSnapshot::tenant_outstanding`.
    per_exec: Vec<AtomicUsize>,
}

/// Cap on service-time samples retained per app: a bounded ring so a
/// long run's quantiles track recent behaviour instead of averaging
/// over its whole history.
const SERVICE_RING: usize = 512;

/// EWMA smoothing for the arrival-rate estimate, applied once per
/// strategy tick.
const ARRIVAL_EWMA_ALPHA: f64 = 0.3;

/// Workload observations feeding the predictive strategy and the hedge
/// watcher: a submission counter (arrival rate), and per-app rings of
/// observed service times (quantiles).
struct ServiceStats {
    /// Tasks ever submitted (bumped in `submit`).
    arrivals: AtomicU64,
    /// EWMA arrival-rate state, updated once per strategy tick.
    rate: Mutex<RateState>,
    /// Per-app service-time sample rings, seconds.
    samples: RwLock<HashMap<AppId, Mutex<SampleRing>>>,
}

struct RateState {
    last_count: u64,
    last_at: Instant,
    rate: f64,
}

#[derive(Default)]
struct SampleRing {
    buf: Vec<f64>,
    next: usize,
}

impl SampleRing {
    fn push(&mut self, secs: f64) {
        if self.buf.len() < SERVICE_RING {
            self.buf.push(secs);
        } else {
            self.buf[self.next] = secs;
            self.next = (self.next + 1) % SERVICE_RING;
        }
    }
}

impl ServiceStats {
    fn new() -> Self {
        ServiceStats {
            arrivals: AtomicU64::new(0),
            rate: Mutex::new(RateState {
                last_count: 0,
                last_at: Instant::now(),
                rate: 0.0,
            }),
            samples: RwLock::new(HashMap::new()),
        }
    }

    fn record(&self, app: AppId, d: Duration) {
        let secs = d.as_secs_f64();
        if let Some(ring) = self.samples.read().get(&app) {
            ring.lock().push(secs);
            return;
        }
        self.samples
            .write()
            .entry(app)
            .or_default()
            .get_mut()
            .push(secs);
    }

    /// Advance the EWMA arrival rate by one tick and return it (tasks/s).
    fn tick_rate(&self) -> f64 {
        let count = self.arrivals.load(Ordering::Relaxed);
        let mut st = self.rate.lock();
        let now = Instant::now();
        let dt = now.duration_since(st.last_at).as_secs_f64();
        if dt > 1e-6 {
            let inst = (count.saturating_sub(st.last_count)) as f64 / dt;
            st.rate = ARRIVAL_EWMA_ALPHA * inst + (1.0 - ARRIVAL_EWMA_ALPHA) * st.rate;
            st.last_count = count;
            st.last_at = now;
        }
        st.rate
    }

    /// Quantile over one app's ring; `None` below `min_samples`.
    fn quantile_for(&self, app: AppId, q: f64, min_samples: usize) -> Option<Duration> {
        let map = self.samples.read();
        let ring = map.get(&app)?;
        let mut buf = ring.lock().buf.clone();
        drop(map);
        if buf.len() < min_samples.max(1) {
            return None;
        }
        buf.sort_by(|a, b| a.partial_cmp(b).expect("no NaN service times"));
        let idx = ((buf.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_secs_f64(buf[idx]))
    }

    /// Quantile pooled across every app's ring; `None` with no samples.
    fn quantile_global(&self, q: f64) -> Option<Duration> {
        let map = self.samples.read();
        let mut buf: Vec<f64> = map
            .values()
            .flat_map(|ring| ring.lock().buf.clone())
            .collect();
        drop(map);
        if buf.is_empty() {
            return None;
        }
        buf.sort_by(|a, b| a.partial_cmp(b).expect("no NaN service times"));
        let idx = ((buf.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_secs_f64(buf[idx]))
    }
}

/// The sharded task table. Ids are allocated from an atomic counter;
/// records live in the shard their id hashes to, so two tasks contend only
/// when they share a shard.
struct TaskTable {
    shards: Vec<Mutex<HashMap<TaskId, TaskRecord>>>,
    next_id: AtomicU64,
}

impl TaskTable {
    fn new() -> Self {
        TaskTable {
            shards: (0..TABLE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_id: AtomicU64::new(0),
        }
    }

    fn alloc_id(&self) -> TaskId {
        TaskId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The shard holding `id`'s record.
    fn shard(&self, id: TaskId) -> &Mutex<HashMap<TaskId, TaskRecord>> {
        &self.shards[id.shard(TABLE_SHARDS)]
    }

    /// Tasks ever submitted (ids are never reused or removed).
    fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed) as usize
    }
}

/// The walltime heap: `Reverse<(deadline, task id, attempt)>` entries
/// popped in deadline order by the watcher thread.
type DeadlineHeap = BinaryHeap<Reverse<(Instant, u64, u32)>>;

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
    /// Batched result collection (see module docs); `false` re-enables
    /// the per-task baseline.
    completion_batching: bool,
    strategy_cfg: StrategyConfig,
    /// Arrival-rate and service-time observations feeding the predictive
    /// strategy's [`LoadSignal`] and the hedge watcher's p99 threshold.
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

/// Builder producing a started [`DataFlowKernel`]. Accepts everything
/// [`ConfigBuilder`] does.
pub struct DfkBuilder {
    inner: ConfigBuilder,
}

impl DfkBuilder {
    /// Add an executor.
    pub fn executor(mut self, e: impl Executor + 'static) -> Self {
        self.inner = self.inner.executor(e);
        self
    }

    /// Add an already-shared executor.
    pub fn executor_arc(mut self, e: Arc<dyn Executor>) -> Self {
        self.inner = self.inner.executor_arc(e);
        self
    }

    /// Default retry budget.
    pub fn retries(mut self, r: u32) -> Self {
        self.inner = self.inner.retries(r);
        self
    }

    /// Default memoization switch.
    pub fn memoize(mut self, on: bool) -> Self {
        self.inner = self.inner.memoize(on);
        self
    }

    /// Write-through checkpoint file.
    pub fn checkpoint_file(mut self, p: impl Into<std::path::PathBuf>) -> Self {
        self.inner = self.inner.checkpoint_file(p);
        self
    }

    /// Pre-load a checkpoint from a previous run.
    pub fn load_checkpoint(mut self, p: impl Into<std::path::PathBuf>) -> Self {
        self.inner = self.inner.load_checkpoint(p);
        self
    }

    /// Elasticity settings.
    pub fn strategy(mut self, s: StrategyConfig) -> Self {
        self.inner = self.inner.strategy(s);
        self
    }

    /// Monitoring sink.
    pub fn monitor(mut self, m: Arc<dyn MonitorSink>) -> Self {
        self.inner = self.inner.monitor(m);
        self
    }

    /// Random seed for the hashing schedulers.
    pub fn seed(mut self, s: u64) -> Self {
        self.inner = self.inner.seed(s);
        self
    }

    /// Task-routing policy (default: the paper's random placement).
    pub fn scheduler(mut self, policy: crate::scheduler::SchedulerPolicy) -> Self {
        self.inner = self.inner.scheduler(policy);
        self
    }

    /// Per-executor in-flight cap (backpressure).
    pub fn max_inflight_per_executor(mut self, cap: usize) -> Self {
        self.inner = self.inner.max_inflight_per_executor(cap);
        self
    }

    /// Per-tenant fairness settings (weight, in-flight quota).
    pub fn tenant(mut self, id: TenantId, cfg: TenantConfig) -> Self {
        self.inner = self.inner.tenant(id, cfg);
        self
    }

    /// Transfer-cost model for `DataAware` routing.
    pub fn transfer_model(mut self, model: TransferModel) -> Self {
        self.inner = self.inner.transfer_model(model);
        self
    }

    /// Toggle batched result collection (default on; `false` is the
    /// per-task baseline used by benchmarks and equivalence tests).
    pub fn completion_batching(mut self, on: bool) -> Self {
        self.inner = self.inner.completion_batching(on);
        self
    }

    /// Validate, start executors and service threads, and return the
    /// running kernel.
    pub fn build(self) -> Result<Arc<DataFlowKernel>, ParslError> {
        DataFlowKernel::new(self.inner.build()?)
    }
}

impl DataFlowKernel {
    /// Start building a kernel.
    pub fn builder() -> DfkBuilder {
        DfkBuilder {
            inner: Config::builder(),
        }
    }

    /// Construct from a finished [`Config`] and start all machinery.
    pub fn new(config: Config) -> Result<Arc<Self>, ParslError> {
        let memo = Memoizer::new(config.memoize);
        for p in &config.load_checkpoints {
            memo.load_checkpoint(p)?;
        }
        if let Some(p) = &config.checkpoint_file {
            memo.set_checkpoint_file(p)?;
        }

        let label_index = config
            .executors
            .iter()
            .enumerate()
            .map(|(i, e)| (e.label().to_string(), i))
            .collect();

        let (tx, rx) = unbounded::<Vec<TaskOutcome>>();
        let registry = AppRegistry::new();
        let invalid_app = registry.register(
            "__failed_submission__",
            AppKind::Native,
            "()",
            Arc::new(|_: &[u8]| Ok(Vec::new())),
            AppOptions::default(),
        );

        let n_executors = config.executors.len();
        let dfk = Arc::new(DataFlowKernel {
            registry: Arc::clone(&registry),
            executors: config.executors,
            label_index,
            table: TaskTable::new(),
            live: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            all_done: Condvar::new(),
            memo,
            default_retries: config.retries,
            monitor: config.monitor,
            scheduler: config.scheduler.build(config.seed),
            data_map: DataMap::new(),
            transfer_model: config.transfer_model,
            exec_seq: AtomicU64::new(0),
            inflight: (0..n_executors).map(|_| AtomicUsize::new(0)).collect(),
            max_inflight: config.max_inflight_per_executor,
            tenants: RwLock::new(HashMap::new()),
            has_tenant_quotas: config
                .tenants
                .iter()
                .any(|(_, cfg)| cfg.max_inflight.is_some()),
            tenant_cfg: config.tenants.into_iter().collect(),
            parked: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            dispatching: AtomicBool::new(false),
            started_at: Instant::now(),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            completions: Mutex::new(Some(tx.clone())),
            deadlines: Arc::new(Mutex::new(BinaryHeap::new())),
            deadline_cv: Arc::new(Condvar::new()),
            walltime_wakeups: AtomicU64::new(0),
            completion_batching: config.completion_batching,
            strategy_cfg: config.strategy,
            stats: ServiceStats::new(),
            invalid_app,
        });

        // Bring executors up.
        for e in &dfk.executors {
            e.start(ExecutorContext {
                completions: tx.clone(),
                registry: Arc::clone(&registry),
            })
            .map_err(|err| ParslError::Config(format!("executor {}: {err}", e.label())))?;
        }

        // Collector: routes executor outcomes back into the graph. Frames
        // arrive as batches; the collector greedily drains everything the
        // channel holds (up to a cap bounding per-pass memory) so a
        // completion storm is absorbed in a handful of completion-plane
        // passes instead of one per task.
        {
            let weak = Arc::downgrade(&dfk);
            let handle = std::thread::Builder::new()
                .name("parsl-collector".into())
                .spawn(move || loop {
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(mut outcomes) => {
                            let Some(dfk) = weak.upgrade() else { return };
                            if dfk.completion_batching {
                                while outcomes.len() < COLLECT_BATCH_CAP {
                                    match rx.try_recv() {
                                        Ok(mut more) => outcomes.append(&mut more),
                                        Err(_) => break,
                                    }
                                }
                                dfk.handle_outcome_batch(outcomes);
                            } else {
                                // Per-task baseline: every outcome pays the
                                // full completion cycle on its own.
                                for outcome in outcomes {
                                    dfk.handle_outcome_batch(vec![outcome]);
                                }
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            let Some(dfk) = weak.upgrade() else { return };
                            if dfk.stop.load(Ordering::Acquire) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                })
                .expect("spawn collector");
            dfk.threads.lock().push(handle);
        }

        // Walltime watcher: synthesizes failure outcomes for expired task
        // attempts, as one batch per expiry wave through the same
        // completion channel as executor results. Event driven: it sleeps
        // until the earliest armed deadline (`arm_deadline` re-arms it
        // when a new earliest appears) and parks indefinitely when no
        // walltimes are pending — an idle kernel burns no wakeups.
        {
            let weak = Arc::downgrade(&dfk);
            let deadlines = Arc::clone(&dfk.deadlines);
            let deadline_cv = Arc::clone(&dfk.deadline_cv);
            let tx_watch = tx.clone();
            let handle = std::thread::Builder::new()
                .name("parsl-walltime".into())
                .spawn(move || loop {
                    let mut due: Vec<TaskOutcome> = Vec::new();
                    {
                        let mut heap = deadlines.lock();
                        loop {
                            {
                                let Some(dfk) = weak.upgrade() else { return };
                                if dfk.stop.load(Ordering::Acquire) {
                                    return;
                                }
                            }
                            let now = Instant::now();
                            while let Some(&Reverse((at, id, attempt))) = heap.peek() {
                                if at > now {
                                    break;
                                }
                                heap.pop();
                                due.push(TaskOutcome::new(
                                    TaskId(id),
                                    attempt,
                                    Err(TaskError::WalltimeExceeded),
                                ));
                            }
                            if !due.is_empty() {
                                break;
                            }
                            // Sleep until the earliest pending deadline, or
                            // until arm_deadline/shutdown wakes us.
                            match heap.peek() {
                                Some(&Reverse((at, _, _))) => {
                                    deadline_cv.wait_until(&mut heap, at);
                                }
                                None => deadline_cv.wait(&mut heap),
                            }
                            if let Some(dfk) = weak.upgrade() {
                                dfk.walltime_wakeups.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if tx_watch.send(due).is_err() {
                        return;
                    }
                })
                .expect("spawn walltime watcher");
            dfk.threads.lock().push(handle);
        }

        // Strategy loop: block-based elasticity (§4.4). The controller
        // itself is whatever the configured mode materializes — simple
        // threshold, the predictive Little's-law sizer, or a user-supplied
        // `Strategy` — driven on the configured interval.
        if let Some(strategy) = dfk.strategy_cfg.mode.build() {
            let weak = Arc::downgrade(&dfk);
            let interval = dfk.strategy_cfg.interval;
            let handle = std::thread::Builder::new()
                .name("parsl-strategy".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    let Some(dfk) = weak.upgrade() else { return };
                    if dfk.stop.load(Ordering::Acquire) {
                        return;
                    }
                    dfk.run_strategy_once(strategy.as_ref());
                })
                .expect("spawn strategy");
            dfk.threads.lock().push(handle);
        }

        // Hedge watcher: straggler mitigation. Periodically scans for
        // launched attempts whose age exceeds `multiplier ×` their app's
        // observed p99 service time and launches a speculative duplicate
        // on another executor; first terminal outcome wins.
        if let Some(hedge) = dfk.strategy_cfg.hedge.clone() {
            let weak = Arc::downgrade(&dfk);
            let handle = std::thread::Builder::new()
                .name("parsl-hedge".into())
                .spawn(move || loop {
                    std::thread::sleep(hedge.check_interval);
                    let Some(dfk) = weak.upgrade() else { return };
                    if dfk.stop.load(Ordering::Acquire) {
                        return;
                    }
                    dfk.run_hedge_once();
                })
                .expect("spawn hedge watcher");
            dfk.threads.lock().push(handle);
        }

        Ok(dfk)
    }

    /// One strategy evaluation across all scalable executors. Public so
    /// tests and simulations can drive the strategy synchronously.
    ///
    /// Builds one [`LoadSignal`] per executor — the dispatcher's own
    /// in-flight view, the executor's wire-level outstanding count, the
    /// EWMA arrival rate, observed service-time quantiles, and the
    /// parked depth — and applies whatever the controller decides.
    pub fn run_strategy_once(&self, strategy: &dyn Strategy) {
        let arrival_rate = self.stats.tick_rate();
        let service_p50 = self.stats.quantile_global(0.50);
        let service_p99 = self.stats.quantile_global(0.99);
        let parked = self.parked.lock().len();
        for (idx, e) in self.executors.iter().enumerate() {
            let Some(scaling) = e.scaling() else { continue };
            let outstanding = self.inflight[idx].load(Ordering::Relaxed);
            let running = e.outstanding();
            let signal = LoadSignal {
                executor: idx,
                outstanding,
                running,
                arrival_rate,
                service_p50,
                service_p99,
                parked,
            };
            match strategy.decide(&signal, scaling) {
                ScalingDecision::Hold => {}
                ScalingDecision::Out { blocks } => {
                    scaling.scale_out(blocks);
                }
                ScalingDecision::In { blocks } => {
                    scaling.scale_in(blocks);
                    // Scaled-in blocks take their staged files with them.
                    // Scale-in is block-granular while residency is
                    // executor-granular, so drop the whole executor's
                    // claims — conservatively correct: a stale "resident"
                    // entry would mis-route readers, a dropped one only
                    // costs a re-stage.
                    self.data_map.forget_executor(idx);
                }
                ScalingDecision::Drain { blocks } => {
                    // Graceful scale-in: victims stop receiving work,
                    // finish what they hold, then release — no attempt is
                    // killed, so no scale-in-race retries. Residency is
                    // still dropped eagerly: the block *will* go away.
                    scaling.drain(blocks);
                    self.data_map.forget_executor(idx);
                }
            }
            self.emit(|| MonitorEvent::Workers {
                executor: e.label().to_string(),
                connected: e.connected_workers(),
                outstanding: running,
                at: self.started_at.elapsed(),
            });
        }
    }

    /// One hedge-watcher pass: launch speculative duplicates for launched
    /// attempts older than `multiplier ×` their app's observed p99.
    /// Returns the number of hedges launched. Public so tests can drive
    /// the watcher synchronously.
    pub fn run_hedge_once(self: &Arc<Self>) -> usize {
        let Some(hedge) = self.strategy_cfg.hedge.clone() else {
            return 0;
        };
        let now = Instant::now();
        // Pass 1: find candidates under each shard lock, no submission.
        let mut candidates: Vec<(TaskId, Duration)> = Vec::new();
        for shard in &self.table.shards {
            let shard = shard.lock();
            for (&id, rec) in shard.iter() {
                if rec.state != TaskState::Launched
                    || rec.hedge_attempt.is_some()
                    || rec.charged.is_none()
                    || rec.args_bytes.is_none()
                {
                    continue;
                }
                let Some(launched) = rec.launched_at else {
                    continue;
                };
                let age = now.saturating_duration_since(launched);
                if age < hedge.min_age {
                    continue;
                }
                let Some(p99) = self.stats.quantile_for(rec.app.id, 0.99, hedge.min_samples) else {
                    continue;
                };
                // Service samples are per logical item, so a fused chunk
                // is a straggler only past `multiplier × p99 × items`.
                let threshold = hedge.multiplier * p99.as_secs_f64() * rec.items.max(1) as f64;
                if age.as_secs_f64() > threshold {
                    candidates.push((id, age));
                }
            }
        }
        // Pass 2: per candidate, stamp the hedge under the shard lock,
        // then submit outside it.
        let mut launched = 0;
        for (id, age) in candidates {
            let prepared = {
                let mut shard = self.table.shard(id).lock();
                let Some(rec) = shard.get_mut(&id) else {
                    continue;
                };
                // Re-check: the primary may have finished (or hedged)
                // since pass 1.
                if rec.state != TaskState::Launched || rec.hedge_attempt.is_some() {
                    continue;
                }
                let (Some(primary_idx), Some(args)) = (rec.charged, rec.args_bytes.clone()) else {
                    continue;
                };
                // Prefer a different executor (least loaded); fall back
                // to the primary's when it is the only one.
                let idx = self
                    .inflight
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != primary_idx)
                    .min_by_key(|(_, n)| n.load(Ordering::Relaxed))
                    .map(|(i, _)| i)
                    .unwrap_or(primary_idx);
                let attempt = rec.attempt + 1;
                rec.hedge_attempt = Some(attempt);
                rec.hedge_charged = Some(idx);
                self.inflight[idx].fetch_add(1, Ordering::Relaxed);
                let spec = TaskSpec {
                    id,
                    app: Arc::clone(&rec.app),
                    args,
                    resources: ResourceSpec {
                        walltime: scale_walltime(rec.app.options.walltime, rec.items),
                        ..ResourceSpec::default()
                    },
                    attempt,
                    tenant: rec.tenant,
                    items: rec.items,
                };
                Some((spec, idx))
            };
            let Some((spec, idx)) = prepared else {
                continue;
            };
            let attempt = spec.attempt;
            if self.executors[idx].submit(spec).is_ok() {
                launched += 1;
                self.emit(|| MonitorEvent::Hedge {
                    task: id,
                    attempt,
                    executor: Some(self.executors[idx].label().to_string()),
                    age,
                    at: self.started_at.elapsed(),
                });
            } else {
                // Roll the hedge back: the primary is still in flight and
                // will resolve the task on its own.
                let mut shard = self.table.shard(id).lock();
                if let Some(rec) = shard.get_mut(&id) {
                    if rec.hedge_attempt == Some(attempt) {
                        rec.hedge_attempt = None;
                        if let Some(i) = rec.hedge_charged.take() {
                            self.inflight[i].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        launched
    }

    /// Smoothed task arrival rate (tasks/second), as fed to the
    /// predictive strategy. Advances the estimator.
    pub fn arrival_rate(&self) -> f64 {
        self.stats.tick_rate()
    }

    /// Observed (p50, p99) service time across all apps, `None` before
    /// any completion carries timing.
    pub fn service_quantiles(&self) -> (Option<Duration>, Option<Duration>) {
        (
            self.stats.quantile_global(0.50),
            self.stats.quantile_global(0.99),
        )
    }

    /// Observed service-time quantile for one app (per logical item —
    /// fused chunks record their duration divided by chunk length), or
    /// `None` below `min_samples` observations. Feeds `app.map`'s
    /// auto chunk sizing.
    pub fn service_quantile_for(&self, app: AppId, q: f64, min_samples: usize) -> Option<Duration> {
        self.stats.quantile_for(app, q, min_samples)
    }

    fn emit(&self, event: impl FnOnce() -> MonitorEvent) {
        if let Some(m) = &self.monitor {
            m.on_event(&event());
        }
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
        let SubmitOptions {
            tenant,
            hints,
            items,
        } = opts;
        let items = items.max(1);
        let id = self.table.alloc_id();
        // Arrival accounting is per logical item: a 1000-item fused chunk
        // is 1000 arrivals, keeping Little's-law sizing self-consistent
        // with the per-item service samples.
        self.stats
            .arrivals
            .fetch_add(items as u64, Ordering::Relaxed);
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
        // Count the task live *before* it becomes visible in its shard: a
        // concurrent shutdown sweep may finalize (and decrement for) the
        // record the moment it is inserted.
        self.live.fetch_add(1, Ordering::AcqRel);
        self.table.shard(id).lock().insert(
            id,
            TaskRecord {
                app: Arc::clone(&app),
                unresolved: parents.len(),
                slots,
                state: TaskState::Pending,
                args_bytes: None,
                attempt: 0,
                retries_left,
                executor_idx: None,
                charged: None,
                hedge_attempt: None,
                hedge_charged: None,
                launched_at: None,
                tenant,
                items,
                parked: false,
                deadline_attempt: None,
                memo_key: None,
                hints,
                future: Arc::clone(&future),
                result: None,
            },
        );

        self.emit(|| MonitorEvent::Task {
            task: id,
            app: app.name.clone(),
            state: TaskState::Pending,
            executor: None,
            attempt: 0,
            tenant,
            items,
            at: self.started_at.elapsed(),
        });

        if self.stop.load(Ordering::Acquire) {
            self.finalize(id, Err(TaskError::Shutdown), TaskState::Failed);
            return future;
        }

        // Wire the dependency edges: asynchronous callbacks on the parent
        // futures (§4.1). Registered outside any shard lock — a parent that
        // is already done fires the callback synchronously right here.
        let n_parents = parents.len();
        for (idx, parent_state) in parents {
            let weak = Arc::downgrade(self);
            let parent_id = parent_state.task_id();
            parent_state.on_done(move |result| {
                if let Some(dfk) = weak.upgrade() {
                    dfk.dependency_resolved(id, idx, parent_id, result);
                }
            });
        }
        if n_parents == 0 {
            self.schedule_launch(id);
        }
        future
    }

    /// Produce an immediately failed future for submissions that cannot
    /// even be encoded (argument serialization failures).
    pub fn failed_submission(self: &Arc<Self>, error: AppError) -> Arc<FutureState> {
        let id = self.table.alloc_id();
        let future = FutureState::new(id);
        // As in `submit`: live first, then visible.
        self.live.fetch_add(1, Ordering::AcqRel);
        self.table.shard(id).lock().insert(
            id,
            TaskRecord {
                app: Arc::clone(&self.invalid_app),
                unresolved: 0,
                slots: Vec::new(),
                state: TaskState::Pending,
                args_bytes: None,
                attempt: 0,
                retries_left: 0,
                executor_idx: None,
                charged: None,
                hedge_attempt: None,
                hedge_charged: None,
                launched_at: None,
                tenant: TenantId::DEFAULT,
                items: 1,
                parked: false,
                deadline_attempt: None,
                memo_key: None,
                hints: DataHints::default(),
                future: Arc::clone(&future),
                result: None,
            },
        );
        self.finalize(id, Err(TaskError::App(error)), TaskState::Failed);
        future
    }

    /// A handle that submits every call under one tenant id — the
    /// "many logical workflows over one kernel" entry point:
    ///
    /// ```
    /// use parsl_core::prelude::*;
    ///
    /// let dfk = DataFlowKernel::builder()
    ///     .executor(ImmediateExecutor::new())
    ///     .build()
    ///     .unwrap();
    /// let double = dfk.python_app("double", |x: i64| x * 2);
    /// let alice = dfk.tenant(TenantId(1));
    /// let f = alice.call(&double, (Dep::value(21i64),));
    /// assert_eq!(f.result().unwrap(), 42);
    /// dfk.shutdown();
    /// ```
    pub fn tenant(self: &Arc<Self>, id: TenantId) -> TenantHandle {
        TenantHandle {
            dfk: Arc::clone(self),
            id,
        }
    }

    /// The [`TenantState`] for `id`, created on first use from the
    /// configured settings (or the defaults). Hot paths take the shared
    /// read lock; the write lock is hit once per tenant lifetime.
    fn tenant_state(&self, id: TenantId) -> Arc<TenantState> {
        if let Some(st) = self.tenants.read().get(&id) {
            return Arc::clone(st);
        }
        let mut map = self.tenants.write();
        Arc::clone(map.entry(id).or_insert_with(|| {
            let cfg = self.tenant_cfg.get(&id).cloned().unwrap_or_default();
            Arc::new(TenantState {
                weight: cfg.weight,
                max_inflight: cfg.max_inflight,
                inflight: AtomicUsize::new(0),
                per_exec: (0..self.executors.len())
                    .map(|_| AtomicUsize::new(0))
                    .collect(),
            })
        }))
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
        enum Next {
            Launch,
            DepFail(TaskError),
            Wait,
        }
        let next = {
            let mut shard = self.table.shard(child).lock();
            let Some(rec) = shard.get_mut(&child) else {
                return;
            };
            if rec.state.is_terminal() {
                return;
            }
            match result {
                Ok(bytes) => {
                    debug_assert!(matches!(rec.slots[slot_idx], ArgSlot::Pending(_)));
                    rec.slots[slot_idx] = ArgSlot::Ready(bytes.to_vec());
                    rec.unresolved -= 1;
                    if rec.unresolved == 0 {
                        Next::Launch
                    } else {
                        Next::Wait
                    }
                }
                Err(e) => Next::DepFail(TaskError::DependencyFailed {
                    failed_task: parent,
                    reason: e.to_string().into(),
                }),
            }
        };
        match next {
            Next::Launch => self.schedule_launch(child),
            Next::DepFail(e) => self.finalize(child, Err(e), TaskState::DepFail),
            Next::Wait => {}
        }
    }

    /// A task's dependencies are all met: deposit it on the ready queue and
    /// make sure a drainer is running. If another thread currently holds
    /// the dispatch slot (e.g. a completing parent fanning out to many
    /// children), the deposit simply rides along in its batch.
    fn schedule_launch(self: &Arc<Self>, id: TaskId) {
        self.ready.lock().push(id);
        self.drain_ready();
    }

    /// Become the dispatcher if nobody is, and drain the ready queue into
    /// per-executor batches until it stays empty.
    fn drain_ready(self: &Arc<Self>) {
        loop {
            if self.ready.lock().is_empty() {
                return;
            }
            if self
                .dispatching
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // The current holder re-checks the queue after releasing
                // the flag, so our deposit cannot be stranded.
                return;
            }
            self.drain_holding_flag();
        }
    }

    /// Drain with the dispatch flag held; releases the flag on exit.
    fn drain_holding_flag(self: &Arc<Self>) {
        loop {
            let batch: Vec<TaskId> = std::mem::take(&mut *self.ready.lock());
            if batch.is_empty() {
                break;
            }
            self.launch_batch(batch);
        }
        self.dispatching.store(false, Ordering::SeqCst);
    }

    /// Build specs for a batch of ready tasks, route them per the
    /// configured scheduler (parking over-cap tasks), group them per
    /// executor, and submit each group through one
    /// [`Executor::submit_batch`] call.
    fn launch_batch(self: &Arc<Self>, ids: Vec<TaskId>) {
        let mut memoized: Vec<(TaskId, Bytes)> = Vec::new();
        let mut parked: Vec<(TaskId, Option<usize>, TenantId)> = Vec::new();
        // Walltimes to arm for tasks that parked: the clock must keep
        // running while a task waits out backpressure, or a parked task
        // could outlive its walltime unbounded (armed after the shard
        // locks drop).
        let mut park_deadlines: Vec<(TaskId, u32, Duration)> = Vec::new();
        let mut per_exec: Vec<Vec<TaskSpec>> = vec![Vec::new(); self.executors.len()];
        // One load snapshot per batch, updated as tasks are assigned, so
        // the scheduler sees the load its own picks create and a wide
        // batch is split rather than routed wholesale.
        let mut snapshots = self.snapshot_executors();

        for id in ids {
            let prepared = {
                let mut shard = self.table.shard(id).lock();
                let Some(rec) = shard.get_mut(&id) else {
                    continue;
                };
                if rec.state.is_terminal() {
                    continue;
                }
                debug_assert_eq!(rec.unresolved, 0, "launch with unresolved deps");

                if rec.args_bytes.is_none() {
                    let total: usize = rec
                        .slots
                        .iter()
                        .map(|s| match s {
                            ArgSlot::Ready(b) => b.len(),
                            ArgSlot::Pending(_) => 0,
                        })
                        .sum();
                    let mut buf = Vec::with_capacity(total);
                    for slot in &rec.slots {
                        match slot {
                            ArgSlot::Ready(b) => buf.extend_from_slice(b),
                            ArgSlot::Pending(_) => unreachable!("unresolved slot at launch"),
                        }
                    }
                    rec.args_bytes = Some(Bytes::from(buf));
                    rec.slots = Vec::new(); // free per-arg buffers
                }
                let args = rec.args_bytes.clone().expect("just built");

                let hit = if self.memo.enabled_for(&rec.app) {
                    let key = memo_key(&rec.app, &args);
                    rec.memo_key = Some(key);
                    self.memo.lookup(key)
                } else {
                    None
                };
                match hit {
                    Some(bytes) => {
                        memoized.push((id, bytes));
                        None
                    }
                    None => {
                        let pinned = self.pinned_index(&rec.app);
                        let tenant = self.tenant_state(rec.tenant);
                        match self.route(&mut snapshots, pinned, &tenant, &rec.hints.inputs) {
                            Some(idx) => Some(self.prepare_submit(rec, id, args, idx)),
                            None => {
                                // Backpressure: every eligible executor is
                                // at its cap, or the tenant is over its
                                // quota. The task stays Pending and parks
                                // until completions free capacity; its
                                // walltime (if any) starts now, not at
                                // dispatch, so it can expire while parked.
                                if let Some(w) = rec.app.options.walltime {
                                    if rec.deadline_attempt != Some(rec.attempt) {
                                        rec.deadline_attempt = Some(rec.attempt);
                                        // Per-item walltime scales with the
                                        // fused chunk length.
                                        park_deadlines.push((
                                            id,
                                            rec.attempt,
                                            w * rec.items.max(1),
                                        ));
                                    }
                                }
                                rec.parked = true;
                                parked.push((id, pinned, rec.tenant));
                                None
                            }
                        }
                    }
                }
            };
            if let Some((spec, exec_idx, walltime)) = prepared {
                self.emit(|| MonitorEvent::Task {
                    task: id,
                    app: spec.app.name.clone(),
                    state: TaskState::Launched,
                    executor: Some(self.executors[exec_idx].label().to_string()),
                    attempt: spec.attempt,
                    tenant: spec.tenant,
                    items: spec.items,
                    at: self.started_at.elapsed(),
                });
                if let Some(w) = walltime {
                    self.arm_deadline(Instant::now() + w, id, spec.attempt);
                }
                per_exec[exec_idx].push(spec);
            }
        }

        // Memo hits finalize outside all shard locks: set() fires dependent
        // edges, whose newly ready children join the queue we are draining.
        for (id, bytes) in memoized {
            self.finalize(id, Ok(bytes), TaskState::Memoized);
        }

        for (id, attempt, w) in park_deadlines {
            self.arm_deadline(Instant::now() + w, id, attempt);
        }

        if !parked.is_empty() {
            self.parked.lock().extend(parked);
            // Close the race with a completion that freed capacity between
            // our route() check and the park: re-offer whatever fits now.
            // (The drain loop that called us re-checks the ready queue.)
            self.unpark_ready();
        }

        for (idx, batch) in per_exec.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // A rejected group synthesizes lost-task outcomes that flow
            // back through the batched completion plane.
            self.submit_group(idx, batch);
        }
    }

    /// The configured executor index an app is pinned to, if any.
    fn pinned_index(&self, app: &RegisteredApp) -> Option<usize> {
        app.options.executor.as_ref().map(|label| {
            *self
                .label_index
                .get(label)
                .expect("validated at registration")
        })
    }

    /// Current per-executor load and capacity, in configuration order.
    /// `tenant_outstanding` starts zeroed; tenant-aware callers fill it
    /// per task (`fill_tenant_outstanding`).
    fn snapshot_executors(&self) -> Vec<ExecutorSnapshot> {
        self.executors
            .iter()
            .enumerate()
            .map(|(index, e)| ExecutorSnapshot {
                index,
                outstanding: self.inflight[index].load(Ordering::Relaxed),
                capacity: e.capacity(),
                tenant_outstanding: 0,
                resident_bytes: 0,
                transfer_cost: 0.0,
                draining: e.scaling().is_some_and(|s| s.draining_blocks() > 0),
            })
            .collect()
    }

    /// Stamp the routing task's tenant's per-executor in-flight counts
    /// onto the snapshots the scheduler is about to see.
    fn fill_tenant_outstanding(snapshots: &mut [ExecutorSnapshot], tenant: &TenantState) {
        for s in snapshots.iter_mut() {
            s.tenant_outstanding = tenant.per_exec[s.index].load(Ordering::Relaxed);
        }
    }

    /// Stamp the routing task's data-locality view onto the snapshots:
    /// how many declared input bytes each executor already holds, and
    /// what moving the rest there would cost. Always overwrites both
    /// fields — snapshots persist across a batch's tasks, so a stale
    /// value from the previous task would corrupt the next decision (in
    /// particular, the zero-input JSQ fallback relies on every
    /// `transfer_cost` being exactly zero).
    fn fill_data_locality(&self, snapshots: &mut [ExecutorSnapshot], inputs: &[DataRef]) {
        if inputs.is_empty() {
            for s in snapshots.iter_mut() {
                s.resident_bytes = 0;
                s.transfer_cost = 0.0;
            }
            return;
        }
        let total: u64 = inputs.iter().map(|d| d.bytes).sum();
        for s in snapshots.iter_mut() {
            let resident = self.data_map.resident_bytes(inputs, s.index);
            s.resident_bytes = resident;
            s.transfer_cost = self
                .transfer_model
                .cost_secs(total.saturating_sub(resident));
        }
    }

    /// Route one ready task: honor the pin if present, otherwise ask the
    /// scheduler, offering only executors under the backpressure cap.
    /// Returns `None` when the task's tenant is over its in-flight quota
    /// or no eligible executor has capacity — the caller parks the task.
    /// On success the snapshot, the shared in-flight counter, and the
    /// tenant's counters are charged for the assignment.
    fn route(
        &self,
        snapshots: &mut [ExecutorSnapshot],
        pinned: Option<usize>,
        tenant: &TenantState,
        inputs: &[DataRef],
    ) -> Option<usize> {
        if tenant
            .max_inflight
            .is_some_and(|q| tenant.inflight.load(Ordering::Relaxed) >= q)
        {
            return None;
        }
        let cap = self.max_inflight;
        let over = |s: &ExecutorSnapshot| cap.is_some_and(|c| s.outstanding >= c);
        // Withhold draining executors only while a non-draining
        // alternative exists — a fully draining pool still takes work
        // (the drain completes when its held tasks finish, and new work
        // routed there simply extends it; better than parking forever).
        let any_draining = snapshots.iter().any(|s| s.draining);
        let all_draining = any_draining && snapshots.iter().all(|s| s.draining);
        let avoid = |s: &ExecutorSnapshot| over(s) || (s.draining && !all_draining);
        let idx = match pinned {
            Some(i) => {
                // Pins override drain avoidance: the app must run there.
                if over(&snapshots[i]) {
                    return None;
                }
                i
            }
            None if cap.is_none() && self.executors.len() == 1 => 0,
            None => {
                let seq = self.exec_seq.fetch_add(1, Ordering::Relaxed);
                Self::fill_tenant_outstanding(snapshots, tenant);
                self.fill_data_locality(snapshots, inputs);
                if snapshots.iter().any(&avoid) {
                    // Slow path: some executor is saturated or draining,
                    // so offer the scheduler only the eligible subset.
                    let candidates: Vec<ExecutorSnapshot> =
                        snapshots.iter().filter(|s| !avoid(s)).copied().collect();
                    if candidates.is_empty() {
                        return None;
                    }
                    let pos = self.scheduler.assign(&candidates, seq);
                    candidates[pos].index
                } else {
                    // Fast path (also the no-cap case): nothing is over
                    // cap or draining, so no filtered copy is needed.
                    let pos = self.scheduler.assign(snapshots, seq);
                    snapshots[pos].index
                }
            }
        };
        snapshots[idx].outstanding += 1;
        self.inflight[idx].fetch_add(1, Ordering::Relaxed);
        tenant.inflight.fetch_add(1, Ordering::Relaxed);
        tenant.per_exec[idx].fetch_add(1, Ordering::Relaxed);
        // Commit the placement in the data map: the non-resident inputs
        // are now in flight toward `idx` (the staging cache will hold
        // them after the first read), so later tasks in this very batch
        // already see them as resident — a fan-out converges on one
        // executor instead of paying the transfer N times. The charged
        // bytes are the kernel's bytes-moved metric.
        if !inputs.is_empty() {
            self.data_map.charge(inputs, idx);
        }
        Some(idx)
    }

    /// Route a failed task's next attempt. Retries deliberately bypass
    /// the backpressure cap and the tenant quota — the attempt already
    /// holds graph-level resources and parking it would stall retry
    /// semantics — but unpinned retries still follow the scheduler, so a
    /// saturated executor is not retried into by default.
    fn route_retry(
        &self,
        pinned: Option<usize>,
        tenant: &TenantState,
        inputs: &[DataRef],
    ) -> usize {
        let idx = match pinned {
            Some(i) => i,
            None => {
                let mut snapshots = self.snapshot_executors();
                Self::fill_tenant_outstanding(&mut snapshots, tenant);
                self.fill_data_locality(&mut snapshots, inputs);
                let seq = self.exec_seq.fetch_add(1, Ordering::Relaxed);
                // Retries bypass caps but still avoid draining executors
                // when a non-draining one exists.
                let candidates: Vec<ExecutorSnapshot> =
                    snapshots.iter().filter(|s| !s.draining).copied().collect();
                if candidates.is_empty() {
                    let pos = self.scheduler.assign(&snapshots, seq);
                    snapshots[pos].index
                } else {
                    let pos = self.scheduler.assign(&candidates, seq);
                    candidates[pos].index
                }
            }
        };
        self.inflight[idx].fetch_add(1, Ordering::Relaxed);
        tenant.inflight.fetch_add(1, Ordering::Relaxed);
        tenant.per_exec[idx].fetch_add(1, Ordering::Relaxed);
        if !inputs.is_empty() {
            self.data_map.charge(inputs, idx);
        }
        idx
    }

    /// Release the executor and tenant in-flight slots a dispatched
    /// attempt holds. Exactly-once: the charge travels in `rec.charged`
    /// and is taken here, so every terminal path (outcome, memo hit,
    /// dependency failure, walltime expiry, shutdown sweep) releases it
    /// precisely once no matter which path runs first.
    fn release_charge(&self, rec: &mut TaskRecord) {
        if let Some(idx) = rec.charged.take() {
            self.inflight[idx].fetch_sub(1, Ordering::Relaxed);
            let tenant = self.tenant_state(rec.tenant);
            tenant.inflight.fetch_sub(1, Ordering::Relaxed);
            tenant.per_exec[idx].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Release the executor slot a speculative hedge holds, if any.
    /// Hedges charge only the executor counter (never tenant quotas), so
    /// this is the mirror of the bump in `run_hedge_once`. Exactly-once
    /// via `take()`, same as `release_charge`.
    fn release_hedge_charge(&self, rec: &mut TaskRecord) {
        if let Some(idx) = rec.hedge_charged.take() {
            self.inflight[idx].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Re-queue parked tasks whose backpressure requirement is satisfiable
    /// again, at most as many as there are free in-flight slots (and free
    /// tenant quota) — waking the whole parking lot on every completion
    /// would make each freed slot re-process (memo-check, route, re-park)
    /// every parked task.
    ///
    /// Grants follow a **weighted-deficit order** across tenants: each
    /// round wakes the oldest parked task of the eligible tenant with the
    /// smallest in-flight/weight share (shares compared by integer
    /// cross-multiplication), so freed capacity flows to the tenant
    /// furthest below its weighted fair share and a backlogged heavy
    /// tenant cannot monopolize the wakeups. FIFO order is preserved
    /// within each tenant. Returns true when any task went back on the
    /// ready queue (the caller decides whether a drain is needed).
    fn unpark_ready(&self) -> bool {
        if self.max_inflight.is_none() && !self.has_tenant_quotas {
            return false; // nothing can ever park
        }
        let mut requeue: Vec<TaskId> = Vec::new();
        {
            let mut parked = self.parked.lock();
            if parked.is_empty() {
                return false;
            }
            // Free-slot budget per executor, decremented as tasks are
            // woken. A woken task may still re-park if a concurrent
            // dispatch takes the slot first; the budget only bounds churn.
            let mut budget: Vec<usize> = match self.max_inflight {
                Some(cap) => self
                    .inflight
                    .iter()
                    .map(|n| cap.saturating_sub(n.load(Ordering::Relaxed)))
                    .collect(),
                None => vec![usize::MAX; self.executors.len()],
            };
            // Per-tenant virtual shares: in-flight count (bumped per
            // grant so one pass stays fair) and remaining quota.
            struct Share {
                inflight: u64,
                weight: u64,
                quota: usize,
            }
            let mut shares: HashMap<TenantId, Share> = HashMap::new();
            for &(_, _, t) in parked.iter() {
                shares.entry(t).or_insert_with(|| {
                    let st = self.tenant_state(t);
                    let inflight = st.inflight.load(Ordering::Relaxed);
                    Share {
                        inflight: inflight as u64,
                        weight: u64::from(st.weight),
                        quota: st
                            .max_inflight
                            .map_or(usize::MAX, |q| q.saturating_sub(inflight)),
                    }
                });
            }
            let mut woken = vec![false; parked.len()];
            let mut considered: HashSet<TenantId> = HashSet::new();
            loop {
                // One candidate per tenant (its oldest unwoken task with
                // a satisfiable pin); among them, the smallest weighted
                // share wins the next freed slot.
                considered.clear();
                let mut best: Option<(usize, usize)> = None; // (pos, slot)
                for (pos, &(_, pin, t)) in parked.iter().enumerate() {
                    if woken[pos] || !considered.insert(t) {
                        continue;
                    }
                    let share = &shares[&t];
                    if share.quota == 0 {
                        continue;
                    }
                    let slot = match pin {
                        Some(i) => (budget[i] > 0).then_some(i),
                        None => budget.iter().position(|&b| b > 0),
                    };
                    let Some(slot) = slot else { continue };
                    let beats_best = best.is_none_or(|(bpos, _)| {
                        let b = &shares[&parked[bpos].2];
                        share.inflight * b.weight < b.inflight * share.weight
                    });
                    if beats_best {
                        best = Some((pos, slot));
                    }
                }
                let Some((pos, slot)) = best else { break };
                woken[pos] = true;
                budget[slot] -= 1;
                let share = shares.get_mut(&parked[pos].2).expect("seeded above");
                share.inflight += 1;
                share.quota -= 1;
                requeue.push(parked[pos].0);
            }
            let mut woken = woken.iter();
            parked.retain(|_| !*woken.next().expect("one flag per entry"));
        }
        if requeue.is_empty() {
            return false;
        }
        self.ready.lock().extend(requeue);
        true
    }

    /// Build the TaskSpec for launch on the chosen executor (called with
    /// the task's shard lock held; returns what the dispatcher needs after
    /// unlocking). The routing already charged the in-flight slots; this
    /// records the charge on the task. The returned walltime is `None`
    /// when this attempt's deadline is already armed (it armed at park
    /// time) — the caller arms whatever comes back.
    fn prepare_submit(
        &self,
        rec: &mut TaskRecord,
        id: TaskId,
        args: Bytes,
        idx: usize,
    ) -> (TaskSpec, usize, Option<Duration>) {
        rec.executor_idx = Some(idx);
        rec.charged = Some(idx);
        rec.state = TaskState::Launched;
        rec.launched_at = Some(Instant::now());
        let spec = TaskSpec {
            id,
            app: Arc::clone(&rec.app),
            args,
            resources: ResourceSpec {
                // Per-item walltime: a fused chunk's budget scales with
                // its length so 1000 fused items are not held to one
                // item's deadline.
                walltime: scale_walltime(rec.app.options.walltime, rec.items),
                ..ResourceSpec::default()
            },
            attempt: rec.attempt,
            tenant: rec.tenant,
            items: rec.items,
        };
        let walltime = match rec.app.options.walltime {
            Some(w) if rec.deadline_attempt != Some(rec.attempt) => {
                rec.deadline_attempt = Some(rec.attempt);
                Some(w * rec.items.max(1))
            }
            _ => None,
        };
        (spec, idx, walltime)
    }

    /// A batch of outcomes arrived from the executors (or was synthesized
    /// by the walltime watcher / a failed submit call). This is the
    /// batched completion plane, the mirror image of `launch_batch`:
    ///
    /// 1. group outcomes by table shard and take each touched shard's lock
    ///    exactly once, resolving every member's retry/finalize decision
    ///    and committing terminal state under that single acquisition;
    /// 2. append all checkpoint frames through one
    ///    [`Memoizer::record_batch`] (one writer lock);
    /// 3. decrement the live counter once for the whole batch;
    /// 4. emit every monitor event through one [`MonitorSink::on_batch`];
    /// 5. re-submit all retries grouped per executor (one
    ///    [`Executor::submit_batch`] each);
    /// 6. fire all resolved futures while holding the dispatch flag, then
    ///    perform a single `unpark_ready` + drain — a wide fan-in's
    ///    downstream tasks ship as one submit batch.
    fn handle_outcome_batch(self: &Arc<Self>, outcomes: Vec<TaskOutcome>) {
        if outcomes.is_empty() {
            return;
        }
        // (1) shard grouping, preserving arrival order within a shard so a
        // stale duplicate behind an accepted outcome still sees the
        // terminal state it must be discarded against.
        let mut by_shard: Vec<Vec<TaskOutcome>> = vec![Vec::new(); TABLE_SHARDS];
        for outcome in outcomes {
            by_shard[outcome.id.shard(TABLE_SHARDS)].push(outcome);
        }

        let monitoring = self.monitor.is_some();
        let mut events: Vec<MonitorEvent> = Vec::new();
        let mut checkpoints: Vec<(u64, Bytes)> = Vec::new();
        let mut fire: Vec<(Arc<FutureState>, Result<Bytes, TaskError>)> = Vec::new();
        // Retries: (spec, executor index, walltime) — armed and grouped
        // per executor after the shard pass.
        let mut retries: Vec<(TaskSpec, usize, Option<Duration>)> = Vec::new();
        // Tasks leaving a parked state through this batch (walltime
        // expiry while parked): their park entries are dropped after the
        // shard pass so nothing re-queues them.
        let mut drop_parked: Vec<TaskId> = Vec::new();
        // Losing attempts of settled hedge races: (executor, task,
        // attempt), cancelled best-effort after the shard locks drop.
        let mut cancels: Vec<(usize, TaskId, u32)> = Vec::new();
        // Observed service times, recorded into the stats rings after
        // the shard locks drop.
        let mut samples: Vec<(AppId, Duration)> = Vec::new();

        for group in by_shard {
            let Some(first) = group.first() else { continue };
            let mut shard = self.table.shard(first.id).lock();
            for outcome in group {
                let Some(rec) = shard.get_mut(&outcome.id) else {
                    continue;
                };
                let is_primary = rec.attempt == outcome.attempt;
                let is_hedge = rec.hedge_attempt == Some(outcome.attempt);
                if rec.state.is_terminal() || (!is_primary && !is_hedge) {
                    // Stale: a retry, walltime expiry, a cancelled hedge,
                    // or an earlier member of this very batch already
                    // superseded it.
                    continue;
                }
                if is_hedge && outcome.result.is_err() {
                    // A failed hedge never settles the task — the primary
                    // is still in flight and resolves it on its own.
                    // Drop the speculation (a later pass may re-hedge).
                    rec.hedge_attempt = None;
                    self.release_hedge_charge(rec);
                    continue;
                }
                // Settle the hedge race before anything else: this
                // outcome's attempt wins, the other (if in flight) is
                // cancelled and its late outcome will fail the attempt
                // filter above.
                let hedge = rec.hedge_attempt.take();
                if let Some(h) = hedge {
                    if is_hedge {
                        if let Some(i) = rec.charged {
                            cancels.push((i, outcome.id, rec.attempt));
                        }
                        // Adopt the winning attempt: the terminal record,
                        // monitor event, and future all speak for it.
                        rec.attempt = h;
                        rec.executor_idx = rec.hedge_charged.or(rec.executor_idx);
                    } else if let Some(i) = rec.hedge_charged {
                        cancels.push((i, outcome.id, h));
                    }
                }
                // The accepted outcome resolves exactly one dispatched
                // attempt: release its in-flight slots (retries charge a
                // fresh one via route_retry). A task that was parked when
                // the outcome arrived (walltime expiry under
                // backpressure) holds no charge — release_charge is a
                // no-op — but its park entry must go, or a later unpark
                // would re-launch a task this batch settles.
                self.release_charge(rec);
                self.release_hedge_charge(rec);
                if rec.parked {
                    rec.parked = false;
                    drop_parked.push(outcome.id);
                }
                match outcome.result {
                    Ok(bytes) => {
                        // Feed the service-time observation planes:
                        // worker-stamped execution time when the
                        // executor reports it, dispatch-to-completion
                        // wall time otherwise.
                        let service = match (outcome.started, outcome.finished) {
                            (Some(s), Some(f)) if f >= s => Some(f - s),
                            _ => rec.launched_at.map(|l| l.elapsed()),
                        };
                        if let Some(d) = service {
                            // Record per logical item: a fused chunk's
                            // duration divided by its length, so the ring
                            // reflects one item's cost for sizing and
                            // hedging regardless of fusion.
                            samples.push((rec.app.id, d / rec.items.max(1)));
                        }
                        let (future, result, event, checkpoint) = self.commit_terminal(
                            rec,
                            outcome.id,
                            TaskState::Done,
                            Ok(bytes),
                            monitoring,
                        );
                        checkpoints.extend(checkpoint);
                        events.extend(event);
                        fire.push((future, result));
                    }
                    Err(e) => {
                        // A lost manager takes its staged files down with
                        // it: drop every residency claim for the executor
                        // so readers stop being attracted to copies that
                        // no longer exist. Coarse (the whole executor, not
                        // one manager's share) but conservatively correct
                        // — the penalty is a re-stage, not a mis-route.
                        if matches!(e, TaskError::ExecutorLost(_)) {
                            if let Some(idx) = rec.executor_idx {
                                self.data_map.forget_executor(idx);
                            }
                        }
                        if rec.retries_left > 0 {
                            rec.retries_left -= 1;
                            // The next attempt must outnumber a hedge
                            // this outcome just cancelled (hedge =
                            // primary + 1), or its late result would
                            // impersonate the retry.
                            rec.attempt = rec.attempt.max(hedge.unwrap_or(0)) + 1;
                            let args = rec.args_bytes.clone().expect("launched tasks have args");
                            let tenant = self.tenant_state(rec.tenant);
                            let idx = self.route_retry(
                                self.pinned_index(&rec.app),
                                &tenant,
                                &rec.hints.inputs,
                            );
                            let (spec, idx, walltime) =
                                self.prepare_submit(rec, outcome.id, args, idx);
                            if monitoring {
                                events.push(MonitorEvent::Retry {
                                    task: outcome.id,
                                    attempt: spec.attempt,
                                    reason: e.to_string(),
                                    at: self.started_at.elapsed(),
                                });
                            }
                            retries.push((spec, idx, walltime));
                        } else {
                            let (future, result, event, checkpoint) = self.commit_terminal(
                                rec,
                                outcome.id,
                                TaskState::Failed,
                                Err(e),
                                monitoring,
                            );
                            checkpoints.extend(checkpoint);
                            events.extend(event);
                            fire.push((future, result));
                        }
                    }
                }
            }
        }

        // Drop park entries for tasks this batch settled while parked
        // (after the shard locks, before futures fire new work).
        if !drop_parked.is_empty() {
            self.parked
                .lock()
                .retain(|(id, _, _)| !drop_parked.contains(id));
        }

        // Cancel the losing halves of settled hedge races. Advisory:
        // an executor that cannot cancel simply runs the loser to
        // completion and its outcome is discarded by the attempt filter.
        for (idx, id, attempt) in cancels {
            self.executors[idx].cancel(id, attempt);
        }

        // Record observed service times (feeds hedging thresholds and
        // the predictive strategy's Little's-law estimate).
        for (app, d) in samples {
            self.stats.record(app, d);
        }

        // (2) one writer-locked checkpoint append for the whole batch.
        if !checkpoints.is_empty() {
            self.memo.record_batch(&checkpoints);
        }

        // (3) one live-counter update; wake wait_for_all at zero.
        let finished = fire.len();
        if finished > 0 && self.live.fetch_sub(finished, Ordering::AcqRel) == finished {
            // Last live tasks: take the lock so a waiter between its
            // atomic check and its wait cannot miss the notification.
            let _guard = self.done_lock.lock();
            self.all_done.notify_all();
        }

        // (4) one monitor call for everything this batch produced.
        if let Some(m) = &self.monitor {
            if !events.is_empty() {
                m.on_batch(&events);
            }
        }

        // (5) retries: arm walltimes and re-submit per executor as one
        // batch. A failed submit synthesizes lost-task outcomes that
        // recurse through this same path (bounded by the retry budget).
        if !retries.is_empty() {
            let mut per_exec: Vec<Vec<TaskSpec>> = vec![Vec::new(); self.executors.len()];
            for (spec, idx, walltime) in retries {
                if let Some(w) = walltime {
                    self.arm_deadline(Instant::now() + w, spec.id, spec.attempt);
                }
                per_exec[idx].push(spec);
            }
            for (idx, batch) in per_exec.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                self.submit_group(idx, batch);
            }
        }

        // (6) fire all futures under one dispatch-flag hold: every child
        // the whole batch unblocks lands in a single ready-queue drain.
        let gated = self
            .dispatching
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        for (future, result) in fire {
            future.set(result);
        }
        // The freed in-flight slots may satisfy parked tasks; one check
        // for the whole batch.
        self.unpark_ready();
        if gated {
            self.drain_holding_flag();
        }
        self.drain_ready();
    }

    /// Submit one per-executor group, synthesizing lost-task outcomes for
    /// the whole group if the executor refuses it.
    fn submit_group(self: &Arc<Self>, idx: usize, batch: Vec<TaskSpec>) {
        let executor = &self.executors[idx];
        let manifest: Vec<(TaskId, u32)> = batch.iter().map(|s| (s.id, s.attempt)).collect();
        let outcome = if batch.len() == 1 {
            let mut batch = batch;
            executor.submit(batch.pop().expect("len checked"))
        } else {
            executor.submit_batch(batch)
        };
        if let Err(e) = outcome {
            let reason: Arc<str> = e.to_string().into();
            self.handle_outcome_batch(
                manifest
                    .into_iter()
                    .map(|(id, attempt)| {
                        TaskOutcome::new(
                            id,
                            attempt,
                            Err(TaskError::ExecutorLost(Arc::clone(&reason))),
                        )
                    })
                    .collect(),
            );
        }
    }

    /// Arm a walltime deadline, waking the watcher if it became the
    /// earliest pending one (otherwise the watcher's current sleep
    /// already covers it).
    fn arm_deadline(&self, at: Instant, id: TaskId, attempt: u32) {
        let mut heap = self.deadlines.lock();
        let new_earliest = heap
            .peek()
            .is_none_or(|&Reverse((current, _, _))| at < current);
        heap.push(Reverse((at, id.0, attempt)));
        if new_earliest {
            self.deadline_cv.notify_all();
        }
    }

    /// Commit a terminal state on a record whose shard lock the caller
    /// holds, returning everything the post-lock half of finalization
    /// needs: the future to fire, the result to fire it with, the
    /// monitor event (when monitoring), and the checkpoint entry (for a
    /// memoizable `Done`). Shared by `finalize` (single task) and
    /// `handle_outcome_batch` (the batched plane) so the two paths
    /// cannot diverge.
    #[allow(clippy::type_complexity)]
    fn commit_terminal(
        &self,
        rec: &mut TaskRecord,
        id: TaskId,
        state: TaskState,
        result: Result<Bytes, TaskError>,
        monitoring: bool,
    ) -> (
        Arc<FutureState>,
        Result<Bytes, TaskError>,
        Option<MonitorEvent>,
        Option<(u64, Bytes)>,
    ) {
        debug_assert!(state.is_terminal());
        // Whatever path got us here, a dispatched attempt's in-flight
        // slots must come back (no-op if already released or never
        // charged — e.g. memo hits and dependency failures). Ditto a
        // speculative hedge's executor slot.
        self.release_charge(rec);
        self.release_hedge_charge(rec);
        rec.state = state;
        // A completed task's declared output now lives where it ran:
        // stage-in completions are what populate the placement registry
        // (memo hits skip this — they produced nothing anywhere new).
        if state == TaskState::Done {
            if let (Some(output), Some(idx)) = (rec.hints.output, rec.executor_idx) {
                self.data_map.record(output, idx);
            }
        }
        let checkpoint = if state == TaskState::Done {
            match (rec.memo_key, &result) {
                (Some(key), Ok(bytes)) => Some((key, bytes.clone())),
                _ => None,
            }
        } else {
            None
        };
        rec.result = Some(result.clone());
        let event = if monitoring {
            Some(MonitorEvent::Task {
                task: id,
                app: rec.app.name.clone(),
                state,
                executor: rec
                    .executor_idx
                    .map(|i| self.executors[i].label().to_string()),
                attempt: rec.attempt,
                tenant: rec.tenant,
                items: rec.items,
                at: self.started_at.elapsed(),
            })
        } else {
            None
        };
        (Arc::clone(&rec.future), result, event, checkpoint)
    }

    /// Commit a terminal state: store the result, memoize, notify the
    /// future (which fires dependent-edge callbacks), update counters.
    /// The single-task specialization of the batched completion plane,
    /// used by paths that do not originate from an executor outcome
    /// (memo hits, dependency failures, failed submissions, shutdown).
    fn finalize(self: &Arc<Self>, id: TaskId, result: Result<Bytes, TaskError>, state: TaskState) {
        let monitoring = self.monitor.is_some();
        let (future, result, event, checkpoint, was_parked) = {
            let mut shard = self.table.shard(id).lock();
            let Some(rec) = shard.get_mut(&id) else {
                return;
            };
            if rec.state.is_terminal() {
                return; // already finalized (e.g. racing DepFail)
            }
            let was_parked = std::mem::take(&mut rec.parked);
            let (future, result, event, checkpoint) =
                self.commit_terminal(rec, id, state, result, monitoring);
            (future, result, event, checkpoint, was_parked)
        };

        // A task finalized while (possibly) parked must leave the parked
        // list, or a later unpark would re-queue a terminal task.
        if was_parked {
            self.parked.lock().retain(|&(pid, _, _)| pid != id);
        }

        if let Some((key, bytes)) = checkpoint {
            self.memo.record(key, &bytes);
        }

        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last live task: take the lock so a waiter between its atomic
            // check and its wait cannot miss the notification.
            let _guard = self.done_lock.lock();
            self.all_done.notify_all();
        }

        if let (Some(m), Some(event)) = (&self.monitor, event) {
            m.on_event(&event);
        }

        // Assign the future last: this fires the dependent tasks' edge
        // callbacks and wakes user threads blocked in result(). Holding the
        // dispatch slot across the cascade collects every child this
        // completion unblocks into one batch — the fan-out batching point.
        let gated = self
            .dispatching
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        future.set(result);
        // A task settled here may have freed capacity other parked tasks
        // were waiting on: a released charge, freed tenant quota, or — the
        // subtle case — a parked task that was woken into a memo hit and
        // so never consumed the slot its wakeup was granted for. Without
        // this re-offer that slot stays free while its siblings stay
        // parked forever (cheap no-op when nothing is parked).
        self.unpark_ready();
        if gated {
            self.drain_holding_flag();
        }
        self.drain_ready();
    }

    // ------------------------------------------------------------------
    // Introspection & lifecycle
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
        let mut counts = HashMap::new();
        for shard in &self.table.shards {
            let shard = shard.lock();
            for rec in shard.values() {
                *counts.entry(rec.state).or_insert(0) += 1;
            }
        }
        counts
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

    /// Ready tasks currently parked by the backpressure cap or a tenant
    /// quota.
    pub fn parked_tasks(&self) -> usize {
        self.parked.lock().len()
    }

    /// Attempts of `tenant` currently dispatched and unresolved, as
    /// tracked by the dispatcher. Zero for tenants that never submitted.
    pub fn tenant_inflight(&self, tenant: TenantId) -> usize {
        self.tenants
            .read()
            .get(&tenant)
            .map_or(0, |st| st.inflight.load(Ordering::Relaxed))
    }

    /// Tenants that have submitted work, in no particular order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.read().keys().copied().collect()
    }

    /// Times the walltime watcher has woken up. Stays at zero on a kernel
    /// that never arms a walltime — the watcher is deadline driven, not a
    /// periodic poll.
    pub fn walltime_wakeups(&self) -> u64 {
        self.walltime_wakeups.load(Ordering::Relaxed)
    }

    /// Block until every submitted task reaches a terminal state
    /// (Parsl's `wait_for_current_tasks`).
    pub fn wait_for_all(&self) {
        let mut guard = self.done_lock.lock();
        while self.live.load(Ordering::Acquire) > 0 {
            self.all_done.wait(&mut guard);
        }
    }

    /// [`DataFlowKernel::wait_for_all`] with a deadline; false on timeout.
    pub fn wait_for_all_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.done_lock.lock();
        while self.live.load(Ordering::Acquire) > 0 {
            if self.all_done.wait_until(&mut guard, deadline).timed_out() {
                return self.live.load(Ordering::Acquire) == 0;
            }
        }
        true
    }

    /// Flush the checkpoint file; returns the number of memo entries.
    pub fn checkpoint(&self) -> Result<usize, ParslError> {
        self.memo.flush()
    }

    /// Stop everything: executors, service threads; fail still-live tasks
    /// with [`TaskError::Shutdown`]. Idempotent.
    pub fn shutdown(self: &Arc<Self>) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The walltime watcher may be parked with no deadline; wake it so
        // it can observe `stop` and exit. Notify *under* the deadlines
        // lock: the watcher checks `stop` while holding it, so an
        // unlocked notify could land in the window between its check and
        // its wait and be lost — parking it (and this join) forever.
        {
            let _heap = self.deadlines.lock();
            self.deadline_cv.notify_all();
        }
        for e in &self.executors {
            e.shutdown();
        }
        // Drop our completion sender so the collector can disconnect once
        // executors drop theirs.
        self.completions.lock().take();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Parked tasks are among the unfinished sweep below; drop their
        // park entries so nothing re-queues them.
        self.parked.lock().clear();
        // Fail whatever never finished.
        let mut unfinished: Vec<TaskId> = Vec::new();
        for shard in &self.table.shards {
            let shard = shard.lock();
            unfinished.extend(
                shard
                    .iter()
                    .filter(|(_, r)| !r.state.is_terminal())
                    .map(|(&id, _)| id),
            );
        }
        for id in unfinished {
            self.finalize(id, Err(TaskError::Shutdown), TaskState::Failed);
        }
        let _ = self.memo.flush();
    }
}

/// A submission handle bound to one tenant: every call through it is
/// stamped with that tenant's id and accounted against its quota and
/// weight. Create via [`DataFlowKernel::tenant`]; clones share the
/// identity. Apps themselves stay tenant-neutral — one registered app
/// can be called by any number of tenants.
#[derive(Clone)]
pub struct TenantHandle {
    dfk: Arc<DataFlowKernel>,
    id: TenantId,
}

impl TenantHandle {
    /// The tenant this handle submits as.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The kernel this handle submits to.
    pub fn dfk(&self) -> &Arc<DataFlowKernel> {
        &self.dfk
    }

    /// Invoke an app as this tenant (the handle-based spelling of
    /// `app.invoke().tenant(id).call(deps)`).
    pub fn call<A: AppArgs, R: TaskValue>(&self, app: &App<A, R>, deps: A::Deps) -> AppFuture<R> {
        app.invoke().tenant(self.id).call(deps)
    }

    /// This tenant's dispatched-and-unresolved attempt count.
    pub fn inflight(&self) -> usize {
        self.dfk.tenant_inflight(self.id)
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TenantHandle({})", self.id)
    }
}

impl Drop for DataFlowKernel {
    fn drop(&mut self) {
        // Threads hold Weak refs, so reaching Drop means they can't block
        // us; stop flags let them exit promptly. As in shutdown(), the
        // watcher wakeup must be published under the deadlines lock.
        self.stop.store(true, Ordering::Release);
        {
            let _heap = self.deadlines.lock();
            self.deadline_cv.notify_all();
        }
        self.completions.lock().take();
        for e in &self.executors {
            e.shutdown();
        }
    }
}

/// Scale a per-item walltime to a fused chunk's budget.
fn scale_walltime(walltime: Option<Duration>, items: u32) -> Option<Duration> {
    walltime.map(|w| w * items.max(1))
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
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
