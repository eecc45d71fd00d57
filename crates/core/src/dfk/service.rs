//! Kernel lifecycle: construction, the service threads (collector,
//! walltime watcher, strategy and hedge timers), waiting, and shutdown.

use super::commit::Event;
use super::record::{TaskRecord, TaskTable};
use super::stats::ServiceStats;
use super::{DataFlowKernel, COLLECT_BATCH_CAP};
use crate::config::Config;
use crate::datamap::DataMap;
use crate::error::{ParslError, TaskError};
use crate::executor::{ExecutorContext, TaskOutcome};
use crate::memo::Memoizer;
use crate::monitor::MonitorEvent;
use crate::registry::{AppOptions, AppRegistry};
use crate::strategy::{LoadSignal, ScalingDecision, Strategy};
use crate::types::{AppKind, TaskId, TaskState};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The walltime heap: `Reverse<(deadline, task id, attempt)>` entries
/// popped in deadline order by the watcher thread.
pub(super) type DeadlineHeap = BinaryHeap<Reverse<(Instant, u64, u32)>>;

impl DataFlowKernel {
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

        let (tx, rx) = channel::<Vec<TaskOutcome>>();
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
            launch_scratch: Mutex::default(),
            deferred: Mutex::new(Vec::new()),
            settling: AtomicBool::new(false),
            pass_scratch: Mutex::default(),
            started_at: Instant::now(),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            completions: Mutex::new(Some(tx.clone())),
            deadlines: Arc::new(Mutex::new(BinaryHeap::new())),
            deadline_cv: Arc::new(Condvar::new()),
            timers_stopped: Arc::default(),
            walltime_wakeups: AtomicU64::new(0),
            combinator_apps: Mutex::default(),
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

        dfk.spawn_collector(rx);
        dfk.spawn_walltime_watcher(tx);

        // Strategy loop: block-based elasticity (§4.4). The controller
        // itself is whatever the configured mode materializes — simple
        // threshold, the predictive Little's-law sizer, or a user-supplied
        // `Strategy` — driven on the configured interval.
        if let Some(strategy) = dfk.strategy_cfg.mode.build() {
            dfk.spawn_timer("parsl-strategy", dfk.strategy_cfg.interval, move |dfk| {
                dfk.run_strategy_once(strategy.as_ref())
            });
        }

        // Hedge watcher: straggler mitigation. Periodically scans for
        // launched attempts whose age exceeds `multiplier ×` their app's
        // observed p99 service time and launches a speculative duplicate
        // on another executor; first terminal outcome wins.
        if let Some(hedge) = &dfk.strategy_cfg.hedge {
            dfk.spawn_timer("parsl-hedge", hedge.check_interval, |dfk| {
                dfk.run_hedge_once();
            });
        }

        Ok(dfk)
    }

    /// Start a named service thread, joined at `shutdown`. Service
    /// threads hold only a `Weak` kernel reference between iterations, so
    /// they never keep a dropped kernel alive.
    fn spawn(&self, name: &str, body: impl FnOnce() + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(body)
            .expect("spawn kernel service thread");
        self.threads.lock().push(handle);
    }

    /// A service thread that runs `tick` every `interval` until the
    /// kernel stops or is dropped. It waits out the interval on
    /// `timers_stopped`, which `stop_services` raises and notifies.
    fn spawn_timer(
        self: &Arc<Self>,
        name: &str,
        interval: Duration,
        tick: impl Fn(&Arc<Self>) + Send + 'static,
    ) {
        let weak = Arc::downgrade(self);
        let timers_stopped = Arc::clone(&self.timers_stopped);
        self.spawn(name, move || loop {
            let deadline = Instant::now() + interval;
            {
                let (stopped, cv) = &*timers_stopped;
                let mut stopped = stopped.lock();
                while !*stopped {
                    if cv.wait_until(&mut stopped, deadline).timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
            }
            let Some(dfk) = weak.upgrade() else { return };
            if dfk.stop.load(Ordering::Acquire) {
                return;
            }
            tick(&dfk);
        });
    }

    /// Collector: routes executor outcomes back into the graph. Frames
    /// arrive as batches; the collector greedily drains everything the
    /// channel holds (up to a cap bounding per-pass memory) so a
    /// completion storm is absorbed in a handful of commit-plane passes
    /// instead of one per task.
    fn spawn_collector(self: &Arc<Self>, rx: Receiver<Vec<TaskOutcome>>) {
        let weak = Arc::downgrade(self);
        self.spawn("parsl-collector", move || loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(mut outcomes) => {
                    let Some(dfk) = weak.upgrade() else { return };
                    while outcomes.len() < COLLECT_BATCH_CAP {
                        match rx.try_recv() {
                            Ok(mut more) => outcomes.append(&mut more),
                            Err(_) => break,
                        }
                    }
                    dfk.settle(outcomes.into_iter().map(Event::Outcome));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let Some(dfk) = weak.upgrade() else { return };
                    if dfk.stop.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        });
    }

    /// Walltime watcher: synthesizes failure outcomes for expired task
    /// attempts, as one batch per expiry wave through the same
    /// completion channel as executor results. Event driven: it sleeps
    /// until the earliest armed deadline (`arm_deadline` re-arms it
    /// when a new earliest appears) and parks indefinitely when no
    /// walltimes are pending — an idle kernel burns no wakeups.
    fn spawn_walltime_watcher(self: &Arc<Self>, tx: Sender<Vec<TaskOutcome>>) {
        let weak = Arc::downgrade(self);
        let deadlines = Arc::clone(&self.deadlines);
        let deadline_cv = Arc::clone(&self.deadline_cv);
        self.spawn("parsl-walltime", move || loop {
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
            if tx.send(due).is_err() {
                return;
            }
        });
    }

    /// Arm the walltime of `rec`'s current attempt, if its app has one
    /// and it is not armed already. Parking and dispatch both call this:
    /// the clock must keep running while a task waits out backpressure,
    /// or a parked task could outlive its walltime unbounded.
    pub(super) fn arm_walltime(&self, rec: &mut TaskRecord) {
        if let Some(w) = rec.walltime() {
            if rec.deadline_attempt != Some(rec.attempt) {
                rec.deadline_attempt = Some(rec.attempt);
                self.arm_deadline(Instant::now() + w, rec.id(), rec.attempt);
            }
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

    /// With `stop` raised: wake the walltime watcher and the timers, stop
    /// the executors, and drop our completion sender so the collector can
    /// disconnect once the executors have dropped theirs.
    ///
    /// The watcher may be parked with no deadline, so it must be woken to
    /// observe `stop` — and the notify must happen *under* the deadlines
    /// lock: the watcher checks `stop` while holding it, so an unlocked
    /// notify could land in the window between its check and its wait
    /// and be lost, parking it (and `shutdown`'s join) forever. The
    /// timers follow the same rule with their own flag, raised under its
    /// mutex before the notify.
    fn stop_services(&self) {
        {
            let _heap = self.deadlines.lock();
            self.deadline_cv.notify_all();
        }
        {
            let (stopped, cv) = &*self.timers_stopped;
            *stopped.lock() = true;
            cv.notify_all();
        }
        for e in &self.executors {
            e.shutdown();
        }
        self.completions.lock().take();
    }

    /// Stop everything: executors, service threads; fail still-live tasks
    /// with [`TaskError::Shutdown`]. Idempotent.
    pub fn shutdown(self: &Arc<Self>) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stop_services();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Parked tasks are among the unfinished swept below; drop their
        // park entries in one step so nothing re-queues them.
        self.parked.lock().clear();
        // Fail whatever never finished — every record still resident — as
        // one commit-plane batch.
        let mut unfinished: Vec<Event> = Vec::new();
        for shard in &self.table.shards {
            unfinished.extend(shard.lock().keys().map(|&id| Event::Settle {
                id,
                state: TaskState::Failed,
                result: Err(TaskError::Shutdown),
            }));
        }
        self.settle(unfinished);
        let _ = self.memo.flush();
    }
}

impl Drop for DataFlowKernel {
    fn drop(&mut self) {
        // Threads hold Weak refs, so reaching Drop means they can't block
        // us; the stop flag lets them exit promptly.
        self.stop.store(true, Ordering::Release);
        self.stop_services();
    }
}
