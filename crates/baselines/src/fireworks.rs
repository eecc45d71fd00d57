//! FireWorks-style executor: a polled central database.
//!
//! FireWorks "uses a centralized MongoDB-based LaunchPad to store tasks,
//! and allows connected FireWorkers to query tasks from LaunchPad for
//! execution". Nothing pushes work to workers: each FireWorker polls the
//! database on an interval, claims a task transactionally, runs it, and
//! writes the result back; the client polls for finished results. Every
//! step is a serialized database round trip, which is why the paper
//! measures 4 tasks/s and MongoDB timeouts past 1024 workers.

use parking_lot::Mutex;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::registry::AppRegistry;
use parsl_executors::kernel;
use parsl_executors::proto::{WireResult, WireTask};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// FireWorks-like configuration.
#[derive(Debug, Clone)]
pub struct FireworksConfig {
    /// Executor label.
    pub label: String,
    /// FireWorker count.
    pub workers: usize,
    /// How often each FireWorker (and the result collector) polls the
    /// LaunchPad. Polling, not pushing, is the architecture under test.
    pub poll_interval: Duration,
    /// Simulated per-query database service time (the MongoDB cost).
    pub db_service: Duration,
    /// Worker connections before the database starts refusing (paper:
    /// errors at 1024 workers).
    pub max_connections: usize,
}

impl Default for FireworksConfig {
    fn default() -> Self {
        FireworksConfig {
            label: "fireworks".into(),
            workers: 4,
            poll_interval: Duration::from_millis(20),
            db_service: Duration::from_micros(200),
            max_connections: 1024,
        }
    }
}

/// The LaunchPad: one big lock around task and result collections, with a
/// per-query service delay — a faithful caricature of a remote MongoDB.
struct LaunchPad {
    cfg: FireworksConfig,
    queue: Mutex<VecDeque<WireTask>>,
    results: Mutex<VecDeque<WireResult>>,
    connections: AtomicUsize,
}

impl LaunchPad {
    fn query_cost(&self) {
        if !self.cfg.db_service.is_zero() {
            std::thread::sleep(self.cfg.db_service);
        }
    }

    fn insert_task(&self, t: WireTask) {
        self.query_cost();
        self.queue.lock().push_back(t);
    }

    fn claim_task(&self) -> Option<WireTask> {
        self.query_cost();
        self.queue.lock().pop_front()
    }

    fn insert_result(&self, r: WireResult) {
        self.query_cost();
        self.results.lock().push_back(r);
    }

    fn drain_results(&self) -> Vec<WireResult> {
        self.query_cost();
        self.results.lock().drain(..).collect()
    }
}

/// FireWorks-style executor. See module docs.
pub struct FireworksExecutor {
    cfg: FireworksConfig,
    pad: Arc<LaunchPad>,
    outstanding: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    started: AtomicBool,
}

impl FireworksExecutor {
    /// Build the executor and its LaunchPad.
    pub fn new(cfg: FireworksConfig) -> Self {
        FireworksExecutor {
            pad: Arc::new(LaunchPad {
                cfg: cfg.clone(),
                queue: Mutex::new(VecDeque::new()),
                results: Mutex::new(VecDeque::new()),
                connections: AtomicUsize::new(0),
            }),
            cfg,
            outstanding: Arc::new(AtomicUsize::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            started: AtomicBool::new(false),
        }
    }
}

impl Executor for FireworksExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        if self.started.swap(true, Ordering::AcqRel) {
            return Err(ExecutorError::Rejected("already started".into()));
        }
        // FireWorkers.
        for i in 0..self.cfg.workers {
            if self.pad.connections.fetch_add(1, Ordering::Relaxed) >= self.cfg.max_connections {
                // Database refuses further connections.
                self.pad.connections.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            let pad = Arc::clone(&self.pad);
            let stop = Arc::clone(&self.stop);
            let registry: Arc<AppRegistry> = Arc::clone(&ctx.registry);
            let poll = self.cfg.poll_interval;
            let name = format!("{}-fireworker-{i}", self.cfg.label);
            let handle = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match pad.claim_task() {
                            Some(task) => {
                                let result = kernel::execute(&registry, &task, &name);
                                pad.insert_result(result);
                            }
                            None => std::thread::sleep(poll),
                        }
                    }
                })
                .map_err(|e| ExecutorError::Comm(e.to_string()))?;
            self.threads.lock().push(handle);
        }

        // Result collector: polls the pad and feeds the DFK.
        {
            let pad = Arc::clone(&self.pad);
            let stop = Arc::clone(&self.stop);
            let outstanding = Arc::clone(&self.outstanding);
            let poll = self.cfg.poll_interval;
            let handle = std::thread::Builder::new()
                .name(format!("{}-collector", self.cfg.label))
                .spawn(move || loop {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let batch = pad.drain_results();
                    if batch.is_empty() {
                        std::thread::sleep(poll);
                        continue;
                    }
                    // One poll's worth of results is one completion batch.
                    outstanding.fetch_sub(batch.len(), Ordering::Relaxed);
                    let outcomes = parsl_executors::proto::outcomes_from_results(batch);
                    if ctx.completions.send(outcomes).is_err() {
                        return;
                    }
                })
                .map_err(|e| ExecutorError::Comm(e.to_string()))?;
            self.threads.lock().push(handle);
        }
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        if !self.started.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) {
            return Err(ExecutorError::NotRunning);
        }
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.pad.insert_task(WireTask {
            id: task.id.0,
            attempt: task.attempt,
            app_id: task.app.id.0,
            tenant: task.tenant.0,
            items: task.items,
            args: task.args.to_vec(),
        });
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    fn connected_workers(&self) -> usize {
        self.pad.connections.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.pad.connections.store(0, Ordering::Relaxed);
    }
}

impl Drop for FireworksExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_cap_limits_workers() {
        let ex = FireworksExecutor::new(FireworksConfig {
            workers: 8,
            max_connections: 3,
            poll_interval: Duration::from_millis(1),
            db_service: Duration::ZERO,
            ..Default::default()
        });
        let (tx, _rx) = std::sync::mpsc::channel();
        ex.start(ExecutorContext {
            completions: tx,
            registry: AppRegistry::new(),
        })
        .unwrap();
        assert_eq!(ex.connected_workers(), 3);
        ex.shutdown();
    }
}
