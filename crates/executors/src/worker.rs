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
//! A manager runs in one of two deployments:
//!
//! - **in-proc** (`HtexExecutor::add_node`): a thread holding a fabric
//!   endpoint, sharing the client's app registry;
//! - **spawned process** (`parsl-worker` bin via [`run_worker`], threads
//!   fan-out): a [`nexus::TcpSpoke`] back to the interchange's hub,
//!   resolving apps from the compiled-in builtin table as the interchange
//!   advertises them.
//!
//! With `reconnect` enabled the manager re-registers — carrying its held
//! `(task, attempt)` set so the interchange can reconcile accounting —
//! whenever the spoke reports a new link generation or the interchange
//! has been silent past the threshold. Without it (in-proc), prolonged
//! silence makes the manager exit, "to avoid resource wastage".

use crate::builtin;
use crate::doorbell::Doorbell;
use crate::exex::Ranks;
use crate::kernel;
use crate::proto::{encode, ToInterchange, ToManager, WireResult, WireTask};
use nexus::{Addr, Envelope, Port, RecvError, SpokeConfig, TcpSpoke};
use parking_lot::{Condvar, Mutex};
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

/// Where a [`Runner`] reports each attempt, given when it was picked up.
/// False once the receiving side is gone.
pub(crate) type Funnel = Arc<dyn Fn(WireResult, Instant) -> bool + Send + Sync>;

/// What every fan-out runs a task with: the cancel check at pick-up, the
/// kernel, and its owner's result funnel — a manager's result list, or
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
    /// Run `task` as `worker` and report it. False once the owner is
    /// gone.
    pub(crate) fn run(&self, task: &WireTask, worker: &str) -> bool {
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
        (self.funnel)(result, started)
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
                                    if !runner.run(&task, &name) {
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
                .is_none_or(|task| runner.run(&task, name)),
            _ => true,
        }
    }

    /// `result` left the funnel: the rank that ran it is idle again.
    fn finished(&mut self, result: &WireResult) {
        if let Workers::Ranks(ranks) = self {
            ranks.finished(result.id, result.attempt);
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

/// Run one manager until shutdown or link death. Blocks the caller.
///
/// It waits in one place, its port, with a deadline, the next heartbeat,
/// and checks that deadline after every wake, so a busy manager still
/// heartbeats; no timer thread runs beside it. Worker results go on a
/// list under a mutex, and the funnel rings the manager's doorbell
/// (`crate::doorbell`), which wakes the port only if the manager is
/// parked.
pub(crate) fn manager_loop(
    ep: Box<dyn Port>,
    registry: Arc<AppRegistry>,
    ix_addr: Addr,
    cfg: ManagerCfg,
    fanout: Fanout,
) {
    let addr = ep.addr().clone();
    // Worker results, swapped out whole on each wake; the funnel holds
    // them weakly, so a worker stops once the manager is gone.
    let results: Arc<Mutex<Vec<WireResult>>> = Arc::default();
    let bell = Arc::new(Doorbell::new(ep.waker()));
    let (funnel_results, ring) = (Arc::downgrade(&results), Arc::clone(&bell));
    let runner = Runner {
        registry: Arc::clone(&registry),
        cancelled: Arc::default(),
        funnel: Arc::new(move |result, _| {
            let Some(results) = funnel_results.upgrade() else {
                return false;
            };
            results.lock().push(result);
            ring.ring(true);
            true
        }),
    };
    let mut workers = Workers::spawn(fanout, cfg.workers, &runner, &addr);

    let capacity = cfg.workers + cfg.prefetch;
    // Tasks accepted but not yet returned as results. Doubles as the
    // in-flight gauge for draining and as the `held` set a re-register
    // reports for accounting reconciliation.
    let mut held: HashSet<(u64, u32)> = HashSet::new();

    let send_register = |ep: &dyn Port, held: &HashSet<(u64, u32)>| {
        let _ = ep.send(
            &ix_addr,
            encode(&ToInterchange::Register {
                name: addr.to_string(),
                capacity,
                held: held.iter().copied().collect(),
            }),
        );
    };
    send_register(ep.as_ref(), &held);
    let mut last_gen = ep.generation();

    let heartbeat = encode(&ToInterchange::Heartbeat {
        name: addr.to_string(),
    });
    let mut result_buf: Vec<WireResult> = Vec::new();
    let mut taken: Vec<WireResult> = Vec::new();
    let mut last_ix_contact = Instant::now();
    let mut next_beat = last_ix_contact + cfg.heartbeat_period;
    let mut draining = false;
    // A message the drain check read before deciding not to stop yet.
    let mut unread: Option<Envelope> = None;

    loop {
        // A backlogged task runs once nothing else is ready to read, so
        // its wait is zero. Park, look at the results once more, and only
        // then wait on the port: a result sent before "parked" showed is
        // seen here, and one sent after rings.
        let wait = if workers.backlogged() {
            Duration::ZERO
        } else {
            next_beat.saturating_duration_since(Instant::now())
        };
        let got = match unread.take() {
            Some(env) => Some(Ok(env)),
            None => {
                bell.park(false);
                let ready = !results.lock().is_empty();
                let got = (!ready).then(|| ep.recv_timeout(wait));
                bell.unpark();
                got
            }
        };
        match got {
            Some(Ok(env)) if !env.is_wake() => {
                last_ix_contact = Instant::now();
                match crate::proto::decode::<ToManager>(&env.payload) {
                    Ok(ToManager::Tasks(batch)) => {
                        held.extend(batch.iter().map(|t| (t.id, t.attempt)));
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
                        if held.contains(&(id, attempt)) {
                            runner.cancelled.lock().insert((id, attempt));
                        }
                    }
                    Ok(ToManager::Shutdown) => {
                        draining = true;
                    }
                    Err(_) => {}
                }
            }
            Some(Err(RecvError::Closed)) => return, // endpoint killed / spoke gave up
            // Nothing to read: a backlogged task runs.
            Some(Err(RecvError::Timeout)) if !workers.run_next(&runner) => return,
            _ => {}
        }
        // Batch aggressively under load (drain whatever has already
        // accumulated), but never sit on results when the funnel is
        // empty: idle latency must not pay the batching timer.
        std::mem::swap(&mut *results.lock(), &mut taken);
        for res in taken.drain(..) {
            held.remove(&(res.id, res.attempt));
            workers.finished(&res);
            result_buf.push(res);
            if result_buf.len() >= cfg.batch_size {
                flush_results(ep.as_ref(), &ix_addr, &mut result_buf);
            }
        }
        flush_results(ep.as_ref(), &ix_addr, &mut result_buf);
        let now = Instant::now();
        if now >= next_beat {
            next_beat = now + cfg.heartbeat_period;
            if workers.aborted() {
                return;
            }
            // Prune cancel marks whose attempt raced its result out.
            runner.cancelled.lock().retain(|k| held.contains(k));
            let _ = ep.send(&ix_addr, heartbeat.clone());
            let gen = ep.generation();
            if gen != last_gen {
                // The spoke re-established the link: re-register with
                // the held set so the interchange reconciles.
                last_gen = gen;
                last_ix_contact = now;
                send_register(ep.as_ref(), &held);
            } else if now.duration_since(last_ix_contact) > cfg.heartbeat_threshold {
                if cfg.reconnect {
                    // Registration may have raced the interchange
                    // coming up, or the silence is transient; try
                    // again instead of dying.
                    last_ix_contact = now;
                    send_register(ep.as_ref(), &held);
                } else {
                    // "Managers, upon losing contact with the
                    // interchange, exit immediately to avoid resource
                    // wastage."
                    return;
                }
            }
        }
        // Deregister only after every accepted task has returned its
        // result and the inbox holds nothing new.
        if draining && held.is_empty() {
            unread = ep.try_recv();
            if unread.is_none() {
                let _ = ep.send(
                    &ix_addr,
                    encode(&ToInterchange::Deregister {
                        name: addr.to_string(),
                    }),
                );
                workers.stop();
                return;
            }
        }
    }
}

fn flush_results(ep: &dyn Port, ix: &Addr, buf: &mut Vec<WireResult>) {
    if buf.is_empty() {
        return;
    }
    let batch = std::mem::take(buf);
    let _ = ep.send(ix, encode(&ToInterchange::Results(batch)));
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
    use crate::proto::decode;
    use nexus::Fabric;

    /// 10^5 results racing a one-worker manager on its way to park. The
    /// interchange, played here, sends two tasks at a time and the next
    /// two the moment both results are back. The worker's first result
    /// wakes the manager; the second task spins 0–31 µs first, so its
    /// result lands anywhere between the manager's look at the funnel and
    /// its next wait. A lost wake-up leaves that result in the funnel
    /// until the next heartbeat, many seconds away.
    #[test]
    fn no_result_waits_on_an_idling_manager() {
        crate::doorbell::tests::within(Duration::from_secs(60), || {
            let fabric = Fabric::new();
            let ix = fabric.bind(Addr::new("t:ix")).unwrap();
            let ep = fabric.bind(Addr::new("t:mgr")).unwrap();
            let registry = AppRegistry::new();
            let spin: parsl_core::registry::ErasedAppFn = Arc::new(|args| {
                let until = Instant::now() + Duration::from_micros(args.len() as u64);
                while Instant::now() < until {}
                Ok(Vec::new())
            });
            let app = registry.register("spin", AppKind::Native, "", spin, Default::default());
            let cfg = ManagerCfg {
                workers: 1,
                prefetch: 1,
                batch_size: 64,
                heartbeat_period: Duration::from_secs(20),
                heartbeat_threshold: Duration::from_secs(60),
                reconnect: false,
            };
            let ix_addr = ix.addr().clone();
            std::thread::spawn(move || {
                manager_loop(Box::new(ep), registry, ix_addr, cfg, Fanout::Threads)
            });
            let mgr = Addr::new("t:mgr");
            let task = |id, spin_us| WireTask {
                id,
                attempt: 0,
                app_id: app.id.0,
                tenant: 0,
                items: 1,
                args: vec![0; spin_us],
            };
            for pair in 0..50_000u64 {
                let tasks = vec![task(2 * pair, 0), task(2 * pair + 1, pair as usize % 32)];
                ix.send(&mgr, encode(&ToManager::Tasks(tasks))).unwrap();
                let deadline = Instant::now() + Duration::from_secs(1);
                let mut back = 0;
                while back < 2 {
                    let Some(env) = ix.try_recv() else {
                        assert!(
                            Instant::now() < deadline,
                            "a result of pair {pair} was left"
                        );
                        continue;
                    };
                    if let Ok(ToInterchange::Results(results)) = decode(&env.payload) {
                        assert!(results.iter().all(|r| r.id / 2 == pair));
                        back += results.len();
                    }
                }
            }
            let _ = ix.send(&mgr, encode(&ToManager::Shutdown));
        });
    }
}
