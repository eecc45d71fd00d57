//! The manager (pilot agent): one loop per node, for every executor shape.
//!
//! A manager registers capacity with the interchange, hands each accepted
//! task to its fan-out, batches the results back, and keeps the heartbeat
//! contract (§4.3.1). The fan-out ([`Fanout`]) is all that differs between
//! the three executor shapes:
//!
//! - **threads**: a pool of worker threads on a shared queue (HTEX);
//! - **inline**: the manager thread runs each task itself, LLEX's missing
//!   manager hop (§4.3.3), once it has read everything already in its
//!   inbox, so a cancel or a shutdown that arrived behind a prefetched
//!   task is obeyed before that task runs (the Dask shape prefetches);
//! - **ranks**: a `minimpi` world whose rank 0 is the manager and sends
//!   each task to an idle worker rank (EXEX, §4.3.2). The world aborting
//!   ends the manager, and a manager that ends without draining aborts the
//!   world: MPI fate sharing.
//!
//! Every fan-out checks the cancel set before it runs a task and reports
//! into the loop's one result funnel, so registration, heartbeats, the
//! silence exit, re-registration, app binding, cancel and drain exist once.
//! The thread pool ([`crate::ThreadPoolExecutor`]) runs the threads
//! fan-out with no manager at all: its `Runner`'s funnel is the
//! kernel's completion channel.
//!
//! A manager's funnel is its `Outbox`: whichever thread finishes a
//! result writes it to the interchange itself, by flat combining, so no
//! result wakes the manager. The manager's only wake sources are its port
//! and its heartbeat deadline.
//!
//! A manager runs in one of two deployments:
//!
//! - **in-proc** (`HtexExecutor::add_node`): a thread holding a fabric
//!   endpoint, sharing the client's app registry;
//! - **spawned process** (`parsl-worker` bin via [`run_worker`], threads
//!   fan-out): a [`nexus::TcpSpoke`] back to the interchange's hub,
//!   resolving apps from the compiled-in builtin table as the interchange
//!   advertises them. The process runs the manager and its worker threads
//!   and nothing else: the manager reads its socket itself, and a spoke
//!   reconnects while its owner reads it.
//!
//! With `reconnect` enabled the manager re-registers — carrying its held
//! `(task, attempt)` set so the interchange can reconcile accounting —
//! whenever the spoke reports a new link generation or the interchange
//! has been silent past the threshold. Without it (in-proc), prolonged
//! silence makes the manager exit, "to avoid resource wastage".

use crate::builtin;
use crate::exex::Ranks;
use crate::kernel;
use crate::proto::{encode, ToInterchange, ToManager, WireResult, WireTask};
use nexus::{Addr, Port, RecvError, SendHalf, SpokeConfig, TcpSpoke};
use parking_lot::{Condvar, Mutex, MutexGuard};
use parsl_core::error::AppError;
use parsl_core::registry::{AppId, AppOptions, AppRegistry};
use parsl_core::types::AppKind;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Manager tuning, the per-node slice of `HtexConfig`.
#[derive(Debug, Clone)]
pub(crate) struct ManagerCfg {
    /// Workers behind this manager.
    pub workers: usize,
    /// Extra advertised slots beyond the workers (task prefetch).
    pub prefetch: usize,
    /// Result batch size.
    pub batch_size: usize,
    /// Heartbeat period toward the interchange.
    pub heartbeat_period: Duration,
    /// Interchange silence past this marks the link suspect.
    pub heartbeat_threshold: Duration,
    /// On a suspect link, re-register instead of exiting (TCP workers,
    /// whose spoke reconnects underneath them).
    pub reconnect: bool,
}

/// How a manager runs the tasks it accepts. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// A pool of worker threads on a shared queue.
    Threads,
    /// The manager thread runs each task itself.
    Inline,
    /// Rank 0 of a `minimpi` world sends each task to an idle worker rank.
    Ranks,
}

/// Cancel marks: the `(task, attempt)` pairs to skip at pick-up.
pub(crate) type Marks = Arc<Mutex<HashSet<(u64, u32)>>>;

/// Where a [`Runner`] reports each attempt: its result, when it was
/// picked up, and whether the reporting thread has another task ready to
/// run. False once the receiving side is gone.
pub(crate) type Funnel = Arc<dyn Fn(WireResult, Instant, bool) -> bool + Send + Sync>;

/// What every fan-out runs a task with: the cancel check at pick-up, the
/// kernel, and its owner's result funnel — a manager's [`Outbox`], or
/// the thread pool's completion channel. A cancelled attempt (a hedge
/// loser, an expired walltime) is skipped but still answered, so `held`
/// and the owner's accounting settle the same either way.
#[derive(Clone)]
pub(crate) struct Runner {
    pub(crate) registry: Arc<AppRegistry>,
    pub(crate) cancelled: Marks,
    pub(crate) funnel: Funnel,
}

impl Runner {
    /// Run `task` as `worker` and report it; `more` tells, once it has
    /// run, whether another task is ready for this thread. False once the
    /// owner is gone.
    pub(crate) fn run(&self, task: &WireTask, worker: &str, more: impl FnOnce() -> bool) -> bool {
        let started = Instant::now();
        let result = if self.cancelled.lock().remove(&(task.id, task.attempt)) {
            WireResult {
                id: task.id,
                attempt: task.attempt,
                outcome: Err(AppError::msg("cancelled")),
                worker: worker.to_string(),
            }
        } else {
            kernel::execute(&self.registry, task, worker)
        };
        (self.funnel)(result, started, more())
    }
}

/// The threads fan-out's tasks: one queue, many readers. A push of one
/// task wakes one parked reader, a push of more wakes them all, and none
/// is woken if none is parked (the wake rule of `parking_lot::Condvar`).
/// Closed, it still hands out what it holds.
#[derive(Default)]
struct TaskQueue {
    /// The tasks, and whether the queue is closed.
    state: Mutex<(VecDeque<WireTask>, bool)>,
    ready: Condvar,
}

impl TaskQueue {
    /// Queue `tasks` under one lock. False once the queue is closed.
    fn push(&self, tasks: impl IntoIterator<Item = WireTask>) -> bool {
        let mut state = self.state.lock();
        if state.1 {
            return false;
        }
        let before = state.0.len();
        state.0.extend(tasks);
        let pushed = state.0.len() - before;
        drop(state);
        if pushed > 1 {
            self.ready.notify_all();
        } else {
            self.ready.notify_one();
        }
        true
    }

    /// The next task; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<WireTask> {
        let mut state = self.state.lock();
        loop {
            if let Some(task) = state.0.pop_front() {
                return Some(task);
            }
            if state.1 {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }

    /// Whether a task is queued.
    fn has_ready(&self) -> bool {
        !self.state.lock().0.is_empty()
    }
}

/// The fan-out's end of its [`TaskQueue`]: dropping it closes the queue,
/// so the workers run what is queued and exit.
pub(crate) struct Queue(Arc<TaskQueue>);

impl Drop for Queue {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A running fan-out: a manager's, or the thread pool's.
pub(crate) enum Workers {
    Threads {
        queue: Queue,
        handles: Vec<JoinHandle<()>>,
    },
    Inline {
        name: String,
        /// Accepted tasks the manager has not run yet.
        backlog: VecDeque<WireTask>,
    },
    Ranks(Ranks),
}

impl Workers {
    pub(crate) fn spawn(fanout: Fanout, n: usize, runner: &Runner, node: &Addr) -> Self {
        match fanout {
            Fanout::Threads => {
                let tasks = Arc::new(TaskQueue::default());
                let handles = (0..n)
                    .map(|w| {
                        let (tasks, runner) = (Arc::clone(&tasks), runner.clone());
                        let name = format!("{node}:w{w}");
                        std::thread::Builder::new()
                            .name(name.clone())
                            .spawn(move || {
                                while let Some(task) = tasks.pop() {
                                    if !runner.run(&task, &name, || tasks.has_ready()) {
                                        // The owner is gone: refuse what
                                        // it would dispatch next.
                                        tasks.close();
                                        return;
                                    }
                                }
                            })
                            .expect("spawn worker")
                    })
                    .collect();
                Workers::Threads {
                    queue: Queue(tasks),
                    handles,
                }
            }
            Fanout::Inline => Workers::Inline {
                name: format!("{node}:w0"),
                backlog: VecDeque::new(),
            },
            Fanout::Ranks => Workers::Ranks(Ranks::spawn(n, runner, node)),
        }
    }

    /// Hand over accepted tasks, in order. False once the fan-out is gone.
    pub(crate) fn dispatch(&mut self, tasks: impl IntoIterator<Item = WireTask>) -> bool {
        match self {
            Workers::Threads { queue, .. } => queue.0.push(tasks),
            Workers::Inline { backlog, .. } => {
                backlog.extend(tasks);
                true
            }
            Workers::Ranks(ranks) => tasks.into_iter().all(|t| ranks.dispatch(t).is_ok()),
        }
    }

    /// Whether a worker thread has a task queued.
    fn ready(&self) -> bool {
        matches!(self, Workers::Threads { queue, .. } if queue.0.has_ready())
    }

    /// Whether the manager holds a task it has yet to run itself.
    fn backlogged(&self) -> bool {
        matches!(self, Workers::Inline { backlog, .. } if !backlog.is_empty())
    }

    /// Run the oldest backlogged task, if any, on the manager's thread.
    /// False once the manager's result funnel is gone.
    fn run_next(&mut self, runner: &Runner) -> bool {
        match self {
            Workers::Inline { name, backlog } => backlog
                .pop_front()
                .is_none_or(|task| runner.run(&task, name, || false)),
            _ => true,
        }
    }

    /// Whether the fan-out died under the manager (an aborted world).
    fn aborted(&self) -> bool {
        matches!(self, Workers::Ranks(ranks) if ranks.is_aborted())
    }

    /// The graceful end, once every accepted task has been answered.
    pub(crate) fn stop(self) {
        match self {
            Workers::Threads { queue, handles } => {
                drop(queue);
                for h in handles {
                    let _ = h.join();
                }
            }
            Workers::Inline { .. } => {}
            Workers::Ranks(ranks) => ranks.stop(),
        }
    }
}

/// A manager's results on their way to the interchange, and the tasks it
/// holds. Whoever finishes a result flushes it, by flat combining
/// (Hendler et al., SPAA 2010): a thread appends its result and, if no
/// flush is in progress, becomes the flusher. The flusher takes the
/// results out, up to `batch_size` at a time, removes their tasks from
/// `held`, and writes one `Results` frame outside the lock; then it looks
/// at the list again before it lets go. Results appended while a frame is
/// written wait for that look, so under load they still batch.
///
/// A frame per result would still be too many under a load of short
/// tasks: with nothing to slow the flush down, the interchange would get
/// one result at a time and answer each with one task. So while short
/// tasks are queued and what waits is small (under [`LINGER_BYTES`]; a
/// large result pays for its own frame), a result may wait for more to
/// join it, but never past [`LINGER`]: the manager, seeing short tasks
/// queued, watches the
/// outbox. It then reads its port with a deadline no later than a
/// `LINGER` after the oldest waiting result, and flushes what is due each
/// time it wakes. A worker that finds nothing queued, or no one watching,
/// flushes at once, and the manager flushes what waits before it stops
/// watching. So a result waits at most one `LINGER` (and the socket's
/// timer tick), whatever runs next.
///
/// One lock orders `held` against the wire: a `Register` takes its `held`
/// snapshot and writes its frame under it, and never while a flush is
/// writing results whose tasks have already left `held` (the flusher
/// writes such a `Register` once its frame is out). So the interchange
/// never sees a result for a task a later `Register` still lists, nor a
/// `Register` that omits a task whose result has not yet been written.
pub(crate) struct Outbox {
    state: Mutex<Unsent>,
    /// Notified when a flush leaves nothing held: a drain waits on it.
    drained: Condvar,
    port: Arc<dyn SendHalf>,
    ix: Addr,
    name: String,
    capacity: usize,
    batch_size: usize,
}

#[derive(Default)]
struct Unsent {
    /// Results not yet taken by a flusher.
    results: Vec<WireResult>,
    /// Tasks accepted whose results have not been written back: the
    /// in-flight gauge for draining and the set a `Register` reports for
    /// accounting reconciliation.
    held: HashSet<(u64, u32)>,
    /// A thread is flushing; whoever appends meanwhile leaves it to it.
    flushing: bool,
    /// A `Register` asked for during a flush, written by the flusher.
    register: bool,
    /// The manager watches: it looks at the outbox within [`LINGER`] of
    /// the oldest waiting result.
    watched: bool,
    /// When the oldest result now waiting was appended.
    since: Option<Instant>,
    /// The payload bytes of the results now waiting.
    bytes: usize,
    /// The last task reported ran for less than [`LINGER`].
    short: bool,
}

/// How long a result may wait for the manager's next look instead of
/// being written at once, and the longest task that counts as short.
const LINGER: Duration = Duration::from_millis(1);

/// Results wait for others only while their payloads add up to less.
const LINGER_BYTES: usize = 64 * 1024;

impl Unsent {
    /// Every held task's result has been written.
    fn drained(&self) -> bool {
        self.held.is_empty() && !self.flushing
    }
}

impl Outbox {
    /// Take one result, picked up at `started`; `more` if the reporting
    /// thread has another task ready. Flush unless another thread is
    /// flushing, or the result can wait for the manager's look.
    fn report(&self, result: WireResult, started: Instant, more: bool) {
        let now = Instant::now();
        let short = now.duration_since(started) < LINGER;
        let mut st = self.state.lock();
        st.bytes += result.outcome.as_ref().map_or(0, Vec::len);
        st.results.push(result);
        st.short = short;
        if st.flushing {
            return;
        }
        let small = st.bytes < LINGER_BYTES && st.results.len() < self.batch_size;
        if more && short && small && st.watched {
            st.since.get_or_insert(now);
        } else {
            self.flush(st);
        }
    }

    /// Mark `tasks` held before they are queued. While tasks run short,
    /// the manager watches from now on: it is awake, and its next read's
    /// deadline comes from the outbox.
    fn hold(&self, tasks: &[WireTask]) {
        let mut st = self.state.lock();
        st.held.extend(tasks.iter().map(|t| (t.id, t.attempt)));
        st.watched |= st.short;
    }

    /// Before the manager reads its port, with `ready` telling whether a
    /// worker has a task queued: watch while short tasks are queued, and
    /// return when the manager must look next; otherwise flush what
    /// waits and stop watching.
    fn watch(&self, ready: bool) -> Option<Instant> {
        let mut st = self.state.lock();
        st.watched = ready && st.short;
        if st.watched {
            return Some(st.since.unwrap_or_else(Instant::now) + LINGER);
        }
        if !st.flushing && !st.results.is_empty() {
            self.flush(st);
        }
        None
    }

    /// After the manager's read: flush what has waited a `LINGER`.
    fn look(&self) {
        let st = self.state.lock();
        if !st.flushing && st.since.is_some_and(|t| t.elapsed() >= LINGER) {
            self.flush(st);
        }
    }

    /// Flush as the flusher until nothing is left, then let go.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, Unsent>) {
        // What waits is taken now: no deadline runs while this flushes.
        (st.flushing, st.since) = (true, None);
        loop {
            if std::mem::take(&mut st.register) {
                self.write_register(&st.held);
            }
            if st.results.is_empty() {
                break;
            }
            let batch: Vec<WireResult> = if st.results.len() <= self.batch_size {
                std::mem::take(&mut st.results)
            } else {
                st.results.drain(..self.batch_size).collect()
            };
            for r in &batch {
                st.held.remove(&(r.id, r.attempt));
            }
            drop(st);
            let _ = self
                .port
                .send(&self.ix, encode(&ToInterchange::Results(batch)));
            st = self.state.lock();
        }
        (st.flushing, st.bytes) = (false, 0);
        let drained = st.held.is_empty();
        drop(st);
        if drained {
            self.drained.notify_all();
        }
    }

    /// Register, reporting the tasks held at this instant: at once, or by
    /// the flusher once the frame it is writing is out.
    fn register(&self) {
        let mut st = self.state.lock();
        if st.flushing {
            st.register = true;
        } else {
            self.write_register(&st.held);
        }
    }

    /// Write a `Register`; the caller holds the lock `held` came from.
    fn write_register(&self, held: &HashSet<(u64, u32)>) {
        let _ = self.port.send(
            &self.ix,
            encode(&ToInterchange::Register {
                name: self.name.clone(),
                capacity: self.capacity,
                held: held.iter().copied().collect(),
            }),
        );
    }

    /// Wait until every held task's result has been written, or until
    /// `deadline`.
    fn wait_drained(&self, deadline: Instant) {
        let mut st = self.state.lock();
        while !st.drained() {
            if self.drained.wait_until(&mut st, deadline).timed_out() {
                return;
            }
        }
    }

    /// Deregister if every held task's result has been written.
    fn deregister_if_drained(&self) -> bool {
        let st = self.state.lock();
        let drained = st.drained();
        if drained {
            let _ = self.port.send(
                &self.ix,
                encode(&ToInterchange::Deregister {
                    name: self.name.clone(),
                }),
            );
        }
        drained
    }
}

/// Run one manager until shutdown or link death. Blocks the caller.
///
/// It waits in one place, its port, with a deadline, the next heartbeat
/// (sooner while results wait for its look, see [`Outbox`]), and checks
/// that deadline after every wake, so a busy manager still heartbeats; no
/// timer thread runs beside it. Results never wake it: the thread that
/// finishes one writes it. A draining manager waits on its `Outbox`
/// instead, until nothing is held, and then looks at its port without
/// blocking.
pub(crate) fn manager_loop(
    ep: Box<dyn Port>,
    registry: Arc<AppRegistry>,
    ix_addr: Addr,
    cfg: ManagerCfg,
    fanout: Fanout,
) {
    let addr = ep.addr().clone();
    let outbox = Arc::new(Outbox {
        state: Mutex::default(),
        drained: Condvar::new(),
        port: ep.send_half(),
        ix: ix_addr.clone(),
        name: addr.to_string(),
        capacity: cfg.workers + cfg.prefetch,
        batch_size: cfg.batch_size.max(1),
    });
    // The funnel holds the outbox weakly, so a worker stops once the
    // manager is gone.
    let reports = Arc::downgrade(&outbox);
    let runner = Runner {
        registry: Arc::clone(&registry),
        cancelled: Arc::default(),
        funnel: Arc::new(move |result, started, more| {
            let Some(outbox) = reports.upgrade() else {
                return false;
            };
            outbox.report(result, started, more);
            true
        }),
    };
    let mut workers = Workers::spawn(fanout, cfg.workers, &runner, &addr);

    outbox.register();
    let mut last_gen = ep.generation();

    let heartbeat = encode(&ToInterchange::Heartbeat {
        name: addr.to_string(),
    });
    let mut last_ix_contact = Instant::now();
    let mut next_beat = last_ix_contact + cfg.heartbeat_period;
    let mut draining = false;

    loop {
        // A backlogged task runs once nothing else is ready to read, so
        // its wait is zero.
        let got = if workers.backlogged() {
            ep.recv_timeout(Duration::ZERO)
        } else if draining {
            outbox.watch(false);
            outbox.wait_drained(next_beat);
            ep.recv_timeout(Duration::ZERO)
        } else {
            // While short tasks are queued, results may wait for this
            // manager's next look (see `Outbox`).
            let deadline = outbox
                .watch(workers.ready())
                .map_or(next_beat, |by| by.min(next_beat));
            let got = ep.recv_timeout(deadline.saturating_duration_since(Instant::now()));
            outbox.look();
            got
        };
        let idle = match got {
            Ok(env) => {
                last_ix_contact = Instant::now();
                match crate::proto::decode::<ToManager>(&env.payload) {
                    Ok(ToManager::Tasks(batch)) => {
                        outbox.hold(&batch);
                        if !workers.dispatch(batch) {
                            return;
                        }
                    }
                    Ok(ToManager::Apps(apps)) => {
                        // Bind advertised apps by name. In-proc managers
                        // share the client's registry, so every id already
                        // resolves and this is a no-op.
                        for a in apps {
                            if registry.get(AppId(a.id)).is_none() {
                                if let Some(func) = builtin::resolve(&a.name, &a.signature) {
                                    registry.register_remote(
                                        AppId(a.id),
                                        &a.name,
                                        AppKind::Native,
                                        &a.signature,
                                        func,
                                        AppOptions::default(),
                                    );
                                }
                            }
                        }
                    }
                    Ok(ToManager::Heartbeat) => {}
                    Ok(ToManager::Cancel { id, attempt }) => {
                        // Only attempts still held can be skipped; anything
                        // else already returned (or never arrived) and the
                        // entry would leak.
                        if outbox.state.lock().held.contains(&(id, attempt)) {
                            runner.cancelled.lock().insert((id, attempt));
                        }
                    }
                    Ok(ToManager::Shutdown) => {
                        draining = true;
                    }
                    Err(_) => {}
                }
                false
            }
            Err(RecvError::Closed) => return, // endpoint killed / spoke gave up
            // Nothing to read: a backlogged task runs.
            Err(RecvError::Timeout) => {
                if !workers.run_next(&runner) {
                    return;
                }
                true
            }
        };
        let now = Instant::now();
        if now >= next_beat {
            next_beat = now + cfg.heartbeat_period;
            if workers.aborted() {
                return;
            }
            // Prune cancel marks whose attempt raced its result out.
            {
                let st = outbox.state.lock();
                runner.cancelled.lock().retain(|k| st.held.contains(k));
            }
            let _ = ep.send(&ix_addr, heartbeat.clone());
            let gen = ep.generation();
            if gen != last_gen {
                // The spoke re-established the link: re-register with
                // the held set so the interchange reconciles.
                last_gen = gen;
                last_ix_contact = now;
                outbox.register();
            } else if now.duration_since(last_ix_contact) > cfg.heartbeat_threshold {
                if cfg.reconnect {
                    // Registration may have raced the interchange
                    // coming up, or the silence is transient; try
                    // again instead of dying.
                    last_ix_contact = now;
                    outbox.register();
                } else {
                    // "Managers, upon losing contact with the
                    // interchange, exit immediately to avoid resource
                    // wastage."
                    return;
                }
            }
        }
        // Deregister only after every accepted task's result is written
        // and the port held nothing new.
        if draining && idle && outbox.deregister_if_drained() {
            workers.stop();
            return;
        }
    }
}

/// Options for a spawned `parsl-worker` process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Hub socket address to connect back to (`host:port`).
    pub connect: String,
    /// This manager's name on the transport.
    pub name: String,
    /// The interchange's name on the transport.
    pub ix: String,
    /// Worker threads.
    pub workers: usize,
    /// Prefetch slots.
    pub prefetch: usize,
    /// Result batch size.
    pub batch_size: usize,
    /// Heartbeat period.
    pub heartbeat_period: Duration,
    /// Heartbeat threshold.
    pub heartbeat_threshold: Duration,
    /// How long a dropped connection keeps retrying before the process
    /// exits.
    pub reconnect_window: Duration,
}

/// Entry point of the `parsl-worker` bin: connect a spoke to the hub and
/// serve tasks until shutdown or the reconnect window expires.
pub fn run_worker(opts: WorkerOptions) -> Result<(), String> {
    let spoke = TcpSpoke::connect(
        opts.connect.as_str(),
        Addr::new(opts.name.as_str()),
        SpokeConfig {
            reconnect_window: opts.reconnect_window,
            ..Default::default()
        },
    )
    .map_err(|e| format!("connect {}: {e}", opts.connect))?;
    // Fresh registry: apps arrive as advertisements and bind to builtins.
    let registry = AppRegistry::new();
    manager_loop(
        Box::new(spoke),
        registry,
        Addr::new(opts.ix.as_str()),
        ManagerCfg {
            workers: opts.workers,
            prefetch: opts.prefetch,
            batch_size: opts.batch_size,
            heartbeat_period: opts.heartbeat_period,
            heartbeat_threshold: opts.heartbeat_threshold,
            reconnect: true,
        },
        Fanout::Threads,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doorbell::tests::within;
    use crate::proto::decode;
    use nexus::Fabric;
    use std::sync::Barrier;

    fn result(id: u64) -> WireResult {
        WireResult {
            id,
            attempt: 0,
            outcome: Ok(Vec::new()),
            worker: String::new(),
        }
    }

    /// The ids in a `Results` frame; `None` for any other frame.
    fn result_ids(env: &nexus::Envelope) -> Option<Vec<u64>> {
        match decode(&env.payload) {
            Ok(ToInterchange::Results(results)) => Some(results.iter().map(|r| r.id).collect()),
            _ => None,
        }
    }

    /// 10^5 races of two results into one outbox. A result appended
    /// while another thread flushes must be flushed by someone: the
    /// flusher looks at the list again before it lets go. One racer
    /// reports at once and the other after a 0–1.9 µs spin, so the second
    /// append lands anywhere around the first one's write. Nothing else
    /// reports, so a result the flusher left behind would never arrive.
    #[test]
    fn a_result_appended_during_a_flush_is_flushed() {
        const ROUNDS: u64 = 100_000;
        within(Duration::from_secs(60), || {
            let fabric = Fabric::new();
            let ix = fabric.bind(Addr::new("t:ix")).unwrap();
            let mgr = fabric.bind(Addr::new("t:mgr")).unwrap();
            let outbox = Arc::new(Outbox {
                state: Mutex::default(),
                drained: Condvar::new(),
                port: mgr.send_half(),
                ix: ix.addr().clone(),
                name: "t:mgr".into(),
                capacity: 2,
                batch_size: 64,
            });
            let go = Arc::new(Barrier::new(3));
            for side in 0..2u64 {
                let (outbox, go) = (Arc::clone(&outbox), Arc::clone(&go));
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        go.wait();
                        if side == 1 {
                            let spin = Duration::from_nanos(round % 64 * 30);
                            let until = Instant::now() + spin;
                            while Instant::now() < until {}
                        }
                        outbox.report(result(2 * round + side), Instant::now(), false);
                    }
                });
            }
            for round in 0..ROUNDS {
                outbox
                    .state
                    .lock()
                    .held
                    .extend([(2 * round, 0), (2 * round + 1, 0)]);
                go.wait();
                let deadline = Instant::now() + Duration::from_secs(1);
                let mut back = 0;
                while back < 2 {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    let Ok(env) = ix.recv_timeout(wait) else {
                        panic!("a result of round {round} was left unflushed");
                    };
                    let ids = result_ids(&env).expect("only results are written");
                    assert!(ids.iter().all(|id| id / 2 == round), "{ids:?}");
                    back += ids.len();
                }
                assert!(outbox.state.lock().held.is_empty());
            }
        });
    }

    /// A result may wait for others to join it while short tasks are
    /// queued, but only for the manager's next look: here the worker that
    /// held it back goes on to a task that naps for half a second, and the
    /// result still arrives within a few LINGERs (the fabric times its
    /// reads exactly; a socket's read timer ticks in jiffies).
    #[test]
    fn a_result_held_back_waits_only_for_the_managers_look() {
        within(Duration::from_secs(30), || {
            let fabric = Fabric::new();
            let ix = fabric.bind(Addr::new("t:ix")).unwrap();
            let ep = fabric.bind(Addr::new("t:mgr")).unwrap();
            let registry = AppRegistry::new();
            let nap: parsl_core::registry::ErasedAppFn = Arc::new(|args| {
                std::thread::sleep(Duration::from_millis(args.len() as u64));
                Ok(Vec::new())
            });
            let app = registry.register("nap", AppKind::Native, "", nap, Default::default());
            let cfg = ManagerCfg {
                workers: 1,
                prefetch: 4,
                batch_size: 64,
                heartbeat_period: Duration::from_secs(20),
                heartbeat_threshold: Duration::from_secs(60),
                reconnect: false,
            };
            let ix_addr = ix.addr().clone();
            std::thread::spawn(move || {
                manager_loop(Box::new(ep), registry, ix_addr, cfg, Fanout::Threads)
            });
            let _register = ix.recv_timeout(Duration::from_secs(5)).unwrap();
            let task = |id, nap_ms| WireTask {
                id,
                attempt: 0,
                app_id: app.id.0,
                tenant: 0,
                items: 1,
                args: vec![0; nap_ms],
            };
            let mgr = Addr::new("t:mgr");
            for round in 0..3u64 {
                let (warm, short, long) = (3 * round, 3 * round + 1, 3 * round + 2);
                // A short task first, so the next one counts as short.
                ix.send(&mgr, encode(&ToManager::Tasks(vec![task(warm, 0)])))
                    .unwrap();
                let first = ix.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(result_ids(&first), Some(vec![warm]));
                let sent = Instant::now();
                let tasks = vec![task(short, 0), task(long, 500)];
                ix.send(&mgr, encode(&ToManager::Tasks(tasks))).unwrap();
                let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
                let took = sent.elapsed();
                assert_eq!(result_ids(&env), Some(vec![short]));
                assert!(
                    took < Duration::from_millis(100),
                    "the short result of round {round} waited {took:?}"
                );
                let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(result_ids(&env), Some(vec![long]));
            }
            let _ = ix.send(&mgr, encode(&ToManager::Shutdown));
        });
    }

    /// A manager told `Shutdown` with results in flight deregisters once
    /// its last result is written, and only then. The heartbeat is 20 s
    /// away, so it cannot be what ends the drain.
    #[test]
    fn a_drain_deregisters_right_after_its_last_result() {
        within(Duration::from_secs(30), || {
            let fabric = Fabric::new();
            let ix = fabric.bind(Addr::new("t:ix")).unwrap();
            let ep = fabric.bind(Addr::new("t:mgr")).unwrap();
            let registry = AppRegistry::new();
            let nap: parsl_core::registry::ErasedAppFn = Arc::new(|args| {
                std::thread::sleep(Duration::from_millis(args.len() as u64));
                Ok(Vec::new())
            });
            let app = registry.register("nap", AppKind::Native, "", nap, Default::default());
            let cfg = ManagerCfg {
                workers: 2,
                prefetch: 0,
                batch_size: 64,
                heartbeat_period: Duration::from_secs(20),
                heartbeat_threshold: Duration::from_secs(60),
                reconnect: false,
            };
            let ix_addr = ix.addr().clone();
            let manager = std::thread::spawn(move || {
                manager_loop(Box::new(ep), registry, ix_addr, cfg, Fanout::Threads)
            });
            let registered = ix.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(
                decode(&registered.payload),
                Ok(ToInterchange::Register { .. })
            ));
            let task = |id, nap_ms| WireTask {
                id,
                attempt: 0,
                app_id: app.id.0,
                tenant: 0,
                items: 1,
                args: vec![0; nap_ms],
            };
            let mgr = Addr::new("t:mgr");
            let tasks = vec![task(0, 40), task(1, 80)];
            ix.send(&mgr, encode(&ToManager::Tasks(tasks))).unwrap();
            ix.send(&mgr, encode(&ToManager::Shutdown)).unwrap();

            let mut answered = Vec::new();
            let mut last_result = Instant::now();
            loop {
                let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
                let at = Instant::now();
                if let Some(ids) = result_ids(&env) {
                    answered.extend(ids);
                    last_result = at;
                    continue;
                }
                match decode(&env.payload) {
                    Ok(ToInterchange::Deregister { .. }) => {
                        answered.sort_unstable();
                        assert_eq!(answered, [0, 1], "deregistered before every result");
                        let gap = at - last_result;
                        assert!(
                            gap < Duration::from_millis(50),
                            "deregistered {gap:?} after the last result"
                        );
                        break;
                    }
                    Ok(ToInterchange::Heartbeat { .. }) => {}
                    other => panic!("unexpected frame: {other:?}"),
                }
            }
            manager.join().unwrap();
        });
    }
}
