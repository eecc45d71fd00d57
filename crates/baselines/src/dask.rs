//! Dask-distributed-style executor: a centralized scheduler.
//!
//! Dask distributed "relies on a centralized scheduler that coordinates
//! task submission and dynamic scheduling across multiple nodes". Every
//! worker holds a connection to the scheduler, which makes a per-task
//! placement decision. The paper measured the highest small-scale
//! throughput of all systems (2617 tasks/s — "optimized for short duration
//! jobs on small clusters") but connection failures at 8192 workers.

use nexus::{Addr, Fabric, Port};
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_executors::client::Client;
use parsl_executors::proto::{encode, ToClient, ToInterchange, ToManager, WireTask};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Dask-like configuration.
#[derive(Debug, Clone)]
pub struct DaskConfig {
    /// Executor label.
    pub label: String,
    /// Worker count.
    pub workers: usize,
    /// Scheduler connection cap (paper: failures at 8192).
    pub max_connections: usize,
}

impl Default for DaskConfig {
    fn default() -> Self {
        DaskConfig {
            label: "dask".into(),
            workers: 4,
            max_connections: 8192,
        }
    }
}

/// Dask-distributed-style executor. See module docs.
pub struct DaskLikeExecutor {
    cfg: DaskConfig,
    fabric: Fabric,
    client: Client,
    connected: Arc<AtomicUsize>,
}

impl DaskLikeExecutor {
    /// Build over a private fabric.
    pub fn new(cfg: DaskConfig) -> Self {
        DaskLikeExecutor {
            client: Client::new(&cfg.label, "scheduler"),
            cfg,
            fabric: Fabric::new(),
            connected: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn workers(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.cfg.workers).map(|i| Addr::new(format!("{}:worker-{i}", self.cfg.label)))
    }
}

impl Executor for DaskLikeExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let registry = Arc::clone(&ctx.registry);
        let sched_ep = self.client.start_on(&self.fabric, ctx, "worker")?;

        let stop = self.client.stop_flag();
        let client_addr = self.client.client_addr().clone();
        let connected = Arc::clone(&self.connected);
        let max_connections = self.cfg.max_connections;
        self.client
            .spawn(format!("{}-scheduler", self.cfg.label), move || {
                scheduler_loop(sched_ep, &stop, &client_addr, &connected, max_connections)
            })?;

        for addr in self.workers() {
            crate::spawn_direct_worker(&self.client, &self.fabric, &registry, addr)?;
        }
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.client.submit(&task, None)
    }

    fn outstanding(&self) -> usize {
        self.client.outstanding()
    }

    fn connected_workers(&self) -> usize {
        self.connected.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        crate::stop_direct_workers(&self.client, &self.fabric, self.workers());
        self.connected.store(0, Ordering::Relaxed);
    }
}

impl Drop for DaskLikeExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The centralized scheduler: per-task decisions over per-worker state.
///
/// Unlike HTEX's interchange (which batches and delegates to managers),
/// this scheduler maintains occupancy for every worker and decides task by
/// task — the architectural behaviour that is fast at small scale and
/// limits Dask at large scale.
fn scheduler_loop(
    ep: Box<dyn Port>,
    stop: &AtomicBool,
    client_addr: &Addr,
    connected: &AtomicUsize,
    max_connections: usize,
) {
    let mut workers: HashMap<Addr, usize> = HashMap::new(); // addr -> queued depth
    let mut queued: VecDeque<WireTask> = VecDeque::new();
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(env) = ep.recv_timeout(Duration::from_millis(50)) else {
            continue;
        };
        match parsl_executors::proto::decode::<ToInterchange>(&env.payload) {
            Ok(ToInterchange::Submit(t)) => queued.push_back(t),
            Ok(ToInterchange::Register { .. }) => {
                if workers.len() >= max_connections {
                    // Connection refused (paper: observed at 8192 workers).
                    let _ = ep.send(&env.from, encode(&ToManager::Shutdown));
                } else {
                    connected.fetch_add(1, Ordering::Relaxed);
                    workers.insert(env.from, 0);
                }
            }
            Ok(ToInterchange::Results(results)) => {
                if let Some(depth) = workers.get_mut(&env.from) {
                    *depth = depth.saturating_sub(results.len());
                }
                let _ = ep.send(client_addr, encode(&ToClient::Results(results)));
            }
            Ok(ToInterchange::Shutdown) => break,
            _ => {}
        }
        // Per-task decision: place on the least-occupied worker.
        while !queued.is_empty() {
            let Some((addr, _)) = workers.iter().min_by_key(|(_, &d)| d) else {
                break;
            };
            let addr = addr.clone();
            let depth = workers.get(&addr).copied().unwrap_or(0);
            if depth >= 2 {
                break; // everyone busy enough; wait for results
            }
            let t = queued.pop_front().expect("non-empty");
            if ep.send(&addr, encode(&ToManager::Tasks(vec![t]))).is_err() {
                workers.remove(&addr);
                connected.fetch_sub(1, Ordering::Relaxed);
            } else {
                *workers.get_mut(&addr).expect("present") += 1;
            }
        }
    }
    for w in workers.keys() {
        let _ = ep.send(w, encode(&ToManager::Shutdown));
    }
}
