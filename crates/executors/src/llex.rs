//! The Low Latency Executor (§4.3.3): HTEX's interchange and manager loop
//! in their smallest shape.
//!
//! "Since the goal of LLEX is to minimize the round-trip-time for tasks,
//! the execution model is designed to be as minimal as possible, thus
//! sacrificing features such as reliability and automated resource
//! provisioning for lower latency."
//!
//! [`LlexExecutor`] is [`HtexExecutor`] over nodes of the shape
//! `From<LlexConfig>` builds:
//!
//! - one worker per node, run **inline** by its manager thread: no hop
//!   from manager to worker, and no prefetch or batching (capacity 1,
//!   batch 1), so a worker is handed one task at a time;
//! - a heartbeat threshold of [`Duration::MAX`]: worker loss is
//!   undetectable, and a task sent to a dead worker is simply lost (the
//!   paper suggests timed retries at a higher level — the DFK's per-app
//!   `walltime` + retries provide exactly that);
//! - a fixed pool: `workers` nodes at start, with a block floor and
//!   ceiling of the same number, so nothing scales.
//!
//! The interchange still keeps its task accounting, so a cancel settles a
//! task that is still queued there, and shutdown reaches every worker.

use crate::htex::{HtexConfig, HtexExecutor, NodeShape};
use crate::worker::Fanout;
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

/// The Low Latency Executor: an [`HtexExecutor`] built from an
/// [`LlexConfig`]. See module docs.
pub type LlexExecutor = HtexExecutor;

impl From<LlexConfig> for NodeShape {
    fn from(c: LlexConfig) -> Self {
        NodeShape::new(
            HtexConfig {
                label: c.label,
                workers_per_node: 1,
                prefetch: 0,
                batch_size: 1,
                heartbeat_threshold: Duration::MAX,
                nodes_per_block: 1,
                min_blocks: c.workers,
                max_blocks: c.workers,
                init_blocks: c.workers,
                ..HtexConfig::default()
            },
            Fanout::Inline,
        )
    }
}
