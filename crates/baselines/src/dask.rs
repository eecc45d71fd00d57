//! Dask-distributed-style executor: a centralized scheduler.
//!
//! Dask distributed "relies on a centralized scheduler that coordinates
//! task submission and dynamic scheduling across multiple nodes". Every
//! worker holds a connection to the scheduler, which places each task on a
//! worker and keeps one more queued at a worker ahead of the one it runs.
//! The paper measured the highest small-scale throughput of all systems
//! (2617 tasks/s — "optimized for short duration jobs on small clusters")
//! but connection failures at 8192 workers.
//!
//! [`DaskLikeExecutor`] is HTEX's interchange as that scheduler, over
//! nodes of one inline worker with `prefetch: 1` (see the crate docs).

use parsl_executors::{HtexExecutor, NodeShape};

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

/// Dask-distributed-style executor: an [`HtexExecutor`] built from a
/// [`DaskConfig`]. See module docs.
pub type DaskLikeExecutor = HtexExecutor;

impl From<DaskConfig> for NodeShape {
    fn from(c: DaskConfig) -> Self {
        crate::direct_workers(c.label, c.workers, c.max_connections, 1)
    }
}
