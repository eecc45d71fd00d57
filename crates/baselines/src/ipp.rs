//! IPyParallel-style executor: a hub with directly connected engines.
//!
//! IPP's hub brokers every task individually between the client and its
//! engines and keeps per-task state for its interactive features; there is
//! no batching or prefetching. The paper measured 330 tasks/s through the
//! hub and failures past 2048 engines.
//!
//! [`IppExecutor`] is HTEX's interchange as that hub, over nodes of one
//! inline engine with `prefetch: 0`, so an engine holds only the task it
//! runs (see the crate docs).

use parsl_executors::{HtexExecutor, NodeShape};

/// IPP configuration.
#[derive(Debug, Clone)]
pub struct IppConfig {
    /// Executor label.
    pub label: String,
    /// Number of engines (workers).
    pub engines: usize,
    /// Engine connections the hub accepts, per the paper's observed
    /// 2048-worker limit.
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

/// IPyParallel-style executor: an [`HtexExecutor`] built from an
/// [`IppConfig`]. See module docs.
pub type IppExecutor = HtexExecutor;

impl From<IppConfig> for NodeShape {
    fn from(c: IppConfig) -> Self {
        crate::direct_workers(c.label, c.engines, c.max_connections, 0)
    }
}
