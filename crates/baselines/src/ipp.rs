//! IPyParallel-style executor: a hub with directly connected engines.
//!
//! IPP's hub brokers every task individually between the client and its
//! engines and keeps per-task state for its interactive features; there is
//! no batching or prefetching. The paper measured 330 tasks/s through the
//! hub and failures past 2048 engines.

use nexus::{Addr, Fabric};
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_executors::client::{Broker, Client, Request};
use parsl_executors::proto::{decode, encode, encode_tasks, QueuedTask, ToInterchange, ToManager};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// IPP configuration.
#[derive(Debug, Clone)]
pub struct IppConfig {
    /// Executor label.
    pub label: String,
    /// Number of engines (workers).
    pub engines: usize,
    /// Engine connections the hub accepts before failing, per the paper's
    /// observed 2048-worker limit.
    pub max_connections: usize,
}

impl Default for IppConfig {
    fn default() -> Self {
        IppConfig {
            label: "ipp".into(),
            engines: 4,
            max_connections: 2048,
        }
    }
}

/// IPyParallel-style executor. See module docs.
pub struct IppExecutor {
    cfg: IppConfig,
    fabric: Fabric,
    client: Client,
    connected: Arc<AtomicUsize>,
}

impl IppExecutor {
    /// Build over a private fabric.
    pub fn new(cfg: IppConfig) -> Self {
        IppExecutor {
            client: Client::new(&cfg.label, "hub"),
            cfg,
            fabric: Fabric::new(),
            connected: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn engines(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.cfg.engines).map(|i| Addr::new(format!("{}:engine-{i}", self.cfg.label)))
    }
}

impl Executor for IppExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let registry = Arc::clone(&ctx.registry);
        // Frames here are usually single-task (the hub brokers tasks
        // individually), but the completion channel carries batches.
        let broker = self.client.start_on(&self.fabric, ctx)?;

        let connected = Arc::clone(&self.connected);
        let max_connections = self.cfg.max_connections;
        self.client
            .spawn(format!("{}-hub", self.cfg.label), move || {
                hub_loop(broker, &connected, max_connections)
            })?;

        for addr in self.engines() {
            crate::spawn_direct_worker(&self.client, &self.fabric, &registry, addr)?;
        }
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.client.submit(task)
    }

    fn outstanding(&self) -> usize {
        self.client.outstanding()
    }

    fn connected_workers(&self) -> usize {
        self.connected.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        crate::stop_direct_workers(&self.client, &self.fabric, self.engines());
        self.connected.store(0, Ordering::Relaxed);
    }
}

impl Drop for IppExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn hub_loop(broker: Broker, connected: &AtomicUsize, max_connections: usize) {
    let Broker {
        port: ep,
        requests,
        outcomes,
        ..
    } = broker;
    let mut idle: VecDeque<Addr> = VecDeque::new();
    let mut queued: VecDeque<QueuedTask> = VecDeque::new();
    'run: loop {
        crossbeam::channel::select! {
            recv(requests) -> request => {
                match request {
                    Ok(Request::Task(t)) => queued.push_back(t),
                    Ok(Request::Tasks(tasks)) => queued.extend(tasks),
                    Ok(Request::Shutdown) | Err(_) => break 'run,
                    // The model has no cancel, retirement or commands.
                    Ok(_) => {}
                }
            }
            recv(ep.receiver()) -> env => {
                let Ok(env) = env else { break 'run };
                match decode::<ToInterchange>(&env.payload) {
                    Ok(ToInterchange::Register { .. }) => {
                        if connected.load(Ordering::Relaxed) >= max_connections {
                            // Connection refused: the engine gets no reply and its
                            // thread exits (paper: failures past 2048 engines).
                            let _ = ep.send(&env.from, encode(&ToManager::Shutdown));
                        } else {
                            connected.fetch_add(1, Ordering::Relaxed);
                            idle.push_back(env.from);
                        }
                    }
                    Ok(ToInterchange::Results(results)) => {
                        idle.push_back(env.from);
                        outcomes.results(results);
                    }
                    _ => {}
                }
            }
        }
        // One-at-a-time dispatch: IPP's hub has no batching.
        while let (Some(_), false) = (idle.front(), queued.is_empty()) {
            let w = idle.pop_front().expect("non-empty");
            let t = queued.pop_front().expect("non-empty");
            if ep.send(&w, encode_tasks([&t])).is_err() {
                connected.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    while let Some(w) = idle.pop_front() {
        let _ = ep.send(&w, encode(&ToManager::Shutdown));
    }
}
