//! The Low Latency Executor (§4.3.3).
//!
//! "Since the goal of LLEX is to minimize the round-trip-time for tasks,
//! the execution model is designed to be as minimal as possible, thus
//! sacrificing features such as reliability and automated resource
//! provisioning for lower latency."
//!
//! Differences from HTEX, reproduced here:
//!
//! - workers connect to the interchange **directly** (no managers), one
//!   socket per worker, saving a message hop each way;
//! - the interchange is a **stateless relay**: it pairs queued tasks with
//!   idle workers and forwards results without any task tracking;
//! - there are **no heartbeats**: worker loss is undetectable; a task sent
//!   to a dead worker is simply lost (the paper suggests timed retries at
//!   a higher level — the DFK's per-app `walltime` + retries provide
//!   exactly that);
//! - the worker pool is fixed: no provisioning, no elasticity.

use crate::client::Client;
use crate::kernel;
use crate::proto::{encode, ToClient, ToInterchange, ToManager, WireResult, WireTask};
use nexus::{Addr, Endpoint, Fabric};
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::registry::AppRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// LLEX configuration.
#[derive(Debug, Clone)]
pub struct LlexConfig {
    /// Executor label.
    pub label: String,
    /// Fixed number of directly connected workers.
    pub workers: usize,
}

impl Default for LlexConfig {
    fn default() -> Self {
        LlexConfig {
            label: "llex".into(),
            workers: 4,
        }
    }
}

/// The Low Latency Executor. See module docs.
pub struct LlexExecutor {
    cfg: LlexConfig,
    fabric: Fabric,
    client: Client,
    connected: Arc<AtomicUsize>,
    next_worker: AtomicU64,
}

impl LlexExecutor {
    /// Build over a private fabric.
    pub fn new(cfg: LlexConfig) -> Self {
        Self::on_fabric(cfg, Fabric::new())
    }

    /// Build over an external fabric (latency/fault injection).
    pub fn on_fabric(cfg: LlexConfig, fabric: Fabric) -> Self {
        LlexExecutor {
            client: Client::new(&cfg.label, "ix"),
            cfg,
            fabric,
            connected: Arc::new(AtomicUsize::new(0)),
            next_worker: AtomicU64::new(0),
        }
    }

    /// The fabric (for fault injection in tests).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Connect one more worker directly to the interchange.
    pub fn add_worker(&self) -> Addr {
        let registry = self.client.registry().expect("add_worker before start");
        let n = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let addr = Addr::new(format!("{}:w-{n}", self.cfg.label));
        let fabric = self.fabric.clone();
        let ix_addr = self.client.ix_addr().clone();
        let waddr = addr.clone();
        // Worker threads are detached: LLEX trades reliability for
        // latency, so shutdown never waits on a wedged worker (a worker
        // stuck in app code would otherwise stall teardown forever).
        std::thread::Builder::new()
            .name(format!("{}-w{n}", self.cfg.label))
            .spawn(move || worker_loop(fabric, ix_addr, registry, waddr))
            .expect("spawn llex worker");
        addr
    }

    /// Fault injection: kill a worker outright. LLEX cannot detect this;
    /// any task on that worker is silently lost.
    pub fn kill_worker(&self, addr: &Addr) {
        self.fabric.kill(addr);
    }
}

impl Executor for LlexExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        // Even single-task LLEX frames ride the batch channel; a burst of
        // frames is coalesced by the collector's greedy drain. The relay
        // never emits ManagerLost or CommandReply.
        let ix_ep = self.client.start_on_fabric(&self.fabric, ctx, "worker")?;

        let stop = self.client.stop_flag();
        let client_addr = self.client.client_addr().clone();
        let connected = Arc::clone(&self.connected);
        self.client
            .spawn(format!("{}-ix", self.cfg.label), move || {
                relay_loop(ix_ep, &stop, &client_addr, &connected)
            })?;

        for _ in 0..self.cfg.workers {
            self.add_worker();
        }
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.client.submit(&task, None)
    }

    /// Native batching on the client→relay hop only: the relay still hands
    /// workers one task at a time (LLEX trades batching for latency on the
    /// dispatch side), but a wide submission crosses the fabric as a
    /// handful of `SubmitBatch` frames instead of one frame per task.
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        self.client
            .submit_batch(&tasks, self.fabric.max_frame_bytes())
    }

    fn outstanding(&self) -> usize {
        self.client.outstanding()
    }

    /// Configured worker count — LLEX workers are fixed at start, so this
    /// is the slot ceiling even while connections are still ramping.
    fn capacity(&self) -> usize {
        self.cfg.workers
    }

    fn connected_workers(&self) -> usize {
        self.connected.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.client.shutdown();
    }
}

/// The stateless relay: pair tasks with idle workers, forward results.
/// No tracking tables, no heartbeats — "the routing logic is completely
/// stateless and opaque to the interchange".
fn relay_loop(ep: Endpoint, stop: &AtomicBool, client_addr: &Addr, connected: &AtomicUsize) {
    let mut idle: VecDeque<Addr> = VecDeque::new();
    let mut queued: VecDeque<WireTask> = VecDeque::new();
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(env) = ep.recv_timeout(Duration::from_millis(50)) else {
            continue;
        };
        match crate::proto::decode::<ToInterchange>(&env.payload) {
            Ok(ToInterchange::Submit(task)) => queued.push_back(task),
            Ok(ToInterchange::SubmitBatch(tasks)) => queued.extend(tasks),
            Ok(ToInterchange::Register { .. }) => {
                connected.fetch_add(1, Ordering::Relaxed);
                idle.push_back(env.from);
            }
            Ok(ToInterchange::Results(results)) => {
                // Worker is free again; forward its result unexamined.
                idle.push_back(env.from);
                let _ = ep.send(client_addr, encode(&ToClient::Results(results)));
            }
            Ok(ToInterchange::Deregister { .. }) => {
                connected.fetch_sub(1, Ordering::Relaxed);
                idle.retain(|a| a != &env.from);
            }
            Ok(ToInterchange::Shutdown) => break,
            _ => {}
        }
        // Route greedily; a dead worker send loses the task (documented
        // LLEX behaviour — reliability traded for latency).
        while !queued.is_empty() && !idle.is_empty() {
            let w = idle.pop_front().expect("non-empty");
            let t = queued.pop_front().expect("non-empty");
            if ep.send(&w, encode(&ToManager::Tasks(vec![t]))).is_err() {
                connected.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    // Stop workers.
    while let Some(w) = idle.pop_front() {
        let _ = ep.send(&w, encode(&ToManager::Shutdown));
    }
}

fn worker_loop(fabric: Fabric, ix_addr: Addr, registry: Arc<AppRegistry>, addr: Addr) {
    let Ok(ep) = fabric.bind(addr.clone()) else {
        return;
    };
    let _ = ep.send(
        &ix_addr,
        encode(&ToInterchange::Register {
            name: addr.to_string(),
            capacity: 1,
            held: vec![],
        }),
    );
    loop {
        let Ok(env) = ep.recv() else { return };
        match crate::proto::decode::<ToManager>(&env.payload) {
            Ok(ToManager::Tasks(tasks)) => {
                let mut results: Vec<WireResult> = Vec::with_capacity(tasks.len());
                for t in &tasks {
                    results.push(kernel::execute(&registry, t, addr.as_str()));
                }
                if ep
                    .send(&ix_addr, encode(&ToInterchange::Results(results)))
                    .is_err()
                {
                    return;
                }
            }
            Ok(ToManager::Shutdown) => return,
            _ => {}
        }
    }
}
