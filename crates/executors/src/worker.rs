//! The manager (pilot agent): one loop per node, for every executor shape.
//!
//! A manager registers capacity with the interchange, hands each accepted
//! task to its fan-out, batches the results back, and keeps the heartbeat
//! contract (§4.3.1). The fan-out ([`Fanout`]) is all that differs between
//! the three executor shapes:
//!
//! - **threads**: a pool of worker threads on a shared queue (HTEX);
//! - **inline**: the manager thread runs each task itself, LLEX's missing
//!   manager hop (§4.3.3);
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
use crate::exex::Ranks;
use crate::kernel;
use crate::proto::{encode, ToInterchange, ToManager, WireResult, WireTask};
use crossbeam::channel::{unbounded, Sender};
use nexus::{Addr, Port, SpokeConfig, TcpSpoke};
use parking_lot::Mutex;
use parsl_core::error::AppError;
use parsl_core::registry::{AppId, AppOptions, AppRegistry};
use parsl_core::types::AppKind;
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Manager tuning, the per-node slice of `HtexConfig`.
#[derive(Debug, Clone)]
pub struct ManagerCfg {
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
/// kernel, and its owner's result funnel — a manager's result channel, or
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

/// A running fan-out: a manager's, or the thread pool's.
pub(crate) enum Workers {
    Threads {
        queue: Sender<WireTask>,
        handles: Vec<JoinHandle<()>>,
    },
    Inline {
        name: String,
    },
    Ranks(Ranks),
}

impl Workers {
    pub(crate) fn spawn(fanout: Fanout, n: usize, runner: &Runner, node: &Addr) -> Self {
        match fanout {
            Fanout::Threads => {
                let (queue, tasks) = unbounded::<WireTask>();
                let handles = (0..n)
                    .map(|w| {
                        let (tasks, runner) = (tasks.clone(), runner.clone());
                        let name = format!("{node}:w{w}");
                        std::thread::Builder::new()
                            .name(name.clone())
                            .spawn(move || {
                                while let Ok(task) = tasks.recv() {
                                    if !runner.run(&task, &name) {
                                        return;
                                    }
                                }
                            })
                            .expect("spawn worker")
                    })
                    .collect();
                Workers::Threads { queue, handles }
            }
            Fanout::Inline => Workers::Inline {
                name: format!("{node}:w0"),
            },
            Fanout::Ranks => Workers::Ranks(Ranks::spawn(n, runner, node)),
        }
    }

    /// Hand over one accepted task. False once the fan-out is gone.
    pub(crate) fn dispatch(&mut self, task: WireTask, runner: &Runner) -> bool {
        match self {
            Workers::Threads { queue, .. } => queue.send(task).is_ok(),
            Workers::Inline { name } => runner.run(&task, name),
            Workers::Ranks(ranks) => ranks.dispatch(task).is_ok(),
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
pub fn manager_loop(
    ep: Box<dyn Port>,
    registry: Arc<AppRegistry>,
    ix_addr: Addr,
    cfg: ManagerCfg,
    fanout: Fanout,
) {
    let addr = ep.addr().clone();
    let (result_tx, result_rx) = unbounded::<WireResult>();
    let runner = Runner {
        registry: Arc::clone(&registry),
        cancelled: Arc::default(),
        funnel: Arc::new(move |result, _| result_tx.send(result).is_ok()),
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

    let ticker = crossbeam::channel::tick(cfg.heartbeat_period);
    let mut result_buf: Vec<WireResult> = Vec::new();
    let mut last_ix_contact = Instant::now();
    let mut draining = false;

    loop {
        crossbeam::channel::select! {
            recv(ep.receiver()) -> env => {
                let Ok(env) = env else { return }; // endpoint killed / spoke gave up
                last_ix_contact = Instant::now();
                match crate::proto::decode::<ToManager>(&env.payload) {
                    Ok(ToManager::Tasks(batch)) => {
                        for t in batch {
                            held.insert((t.id, t.attempt));
                            if !workers.dispatch(t, &runner) {
                                return;
                            }
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
            recv(result_rx) -> res => {
                // Batch aggressively under load (drain whatever has
                // already accumulated), but never sit on results when the
                // funnel is empty — idle latency must not pay the batching
                // timer.
                let mut next = res.ok();
                while let Some(res) = next {
                    held.remove(&(res.id, res.attempt));
                    workers.finished(&res);
                    result_buf.push(res);
                    next = if result_buf.len() < cfg.batch_size {
                        result_rx.try_recv().ok()
                    } else {
                        None
                    };
                }
                flush_results(ep.as_ref(), &ix_addr, &mut result_buf);
            }
            recv(ticker) -> _ => {
                if workers.aborted() {
                    return;
                }
                // Prune cancel marks whose attempt raced its result out.
                runner.cancelled.lock().retain(|k| held.contains(k));
                flush_results(ep.as_ref(), &ix_addr, &mut result_buf);
                let _ = ep.send(
                    &ix_addr,
                    encode(&ToInterchange::Heartbeat { name: addr.to_string() }),
                );
                let gen = ep.generation();
                if gen != last_gen {
                    // The spoke re-established the link: re-register with
                    // the held set so the interchange reconciles.
                    last_gen = gen;
                    last_ix_contact = Instant::now();
                    send_register(ep.as_ref(), &held);
                } else if last_ix_contact.elapsed() > cfg.heartbeat_threshold {
                    if cfg.reconnect {
                        // Registration may have raced the interchange
                        // coming up, or the silence is transient; try
                        // again instead of dying.
                        last_ix_contact = Instant::now();
                        send_register(ep.as_ref(), &held);
                    } else {
                        // "Managers, upon losing contact with the
                        // interchange, exit immediately to avoid resource
                        // wastage."
                        return;
                    }
                }
            }
        }
        // Deregister only after every accepted task has returned its
        // result and the inbox holds nothing new.
        if draining && held.is_empty() && ep.queued() == 0 {
            flush_results(ep.as_ref(), &ix_addr, &mut result_buf);
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
