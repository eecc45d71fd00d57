//! `baselines` — the comparison systems from §5 of the paper.
//!
//! The paper evaluates Parsl against IPyParallel, FireWorks, and Dask
//! distributed. We reproduce each system's *architecture* — the mechanism
//! that determines its performance envelope — rather than its codebase:
//!
//! - [`IppExecutor`]: an IPyParallel-style **hub** to which every engine
//!   (worker) connects directly; the hub hands an engine one task at a
//!   time and tracks each individually (no batching), which is what
//!   limits its throughput and scale;
//! - [`DaskLikeExecutor`]: a **centralized scheduler** placing each task
//!   on a directly connected worker, one task ahead of the one it runs —
//!   fast for short tasks on small clusters, capped by per-worker
//!   connection state;
//! - [`FireworksExecutor`]: a central **LaunchPad database**; FireWorkers
//!   *poll* the database on an interval to claim work and write results
//!   back. Polling a central store is why FireWorks supports "concurrent
//!   execution of few (<1000) long-running tasks (>100 s)" and tops out
//!   at single-digit tasks per second.
//!
//! The hub and the scheduler are brokers like HTEX's interchange, so
//! [`IppExecutor`] and [`DaskLikeExecutor`] are
//! [`HtexExecutor`](parsl_executors::HtexExecutor) over the node shapes
//! their configs build, as LLEX is: every node is one worker run inline by
//! its manager, connected straight to the broker, one task to a frame,
//! with no heartbeat expiry. The connection cap is the pool's size: no
//! more than `max_connections` nodes are ever started, and the block
//! ceiling stops scaling there. FireWorks has no broker and keeps its own
//! loop.
//!
//! All three implement `parsl_core::Executor`, so any Parsl program can run
//! unmodified against a baseline; `tests/executor_contract.rs` runs the
//! executor contract on each. Their discrete-event counterparts for
//! paper-scale sweeps are in `simcluster::model`.

mod dask;
mod fireworks;
mod ipp;

pub use dask::{DaskConfig, DaskLikeExecutor};
pub use fireworks::{FireworksConfig, FireworksExecutor};
pub use ipp::{IppConfig, IppExecutor};

use parsl_executors::worker::Fanout;
use parsl_executors::{HtexConfig, NodeShape};
use std::time::Duration;

/// The shape of a pool of `workers` directly connected workers, at most
/// `max_connections` of them, each taking `prefetch` tasks beyond the one
/// it runs.
fn direct_workers(
    label: String,
    workers: usize,
    max_connections: usize,
    prefetch: usize,
) -> NodeShape {
    let nodes = workers.min(max_connections);
    NodeShape::new(
        HtexConfig {
            label,
            workers_per_node: 1,
            prefetch,
            batch_size: 1,
            heartbeat_threshold: Duration::MAX,
            nodes_per_block: 1,
            min_blocks: nodes,
            max_blocks: nodes,
            init_blocks: nodes,
            ..HtexConfig::default()
        },
        Fanout::Inline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_core::prelude::*;
    use std::time::Duration;

    #[test]
    fn dask_connection_cap_rejects_workers() {
        let d = DaskLikeExecutor::new(DaskConfig {
            workers: 4,
            max_connections: 2,
            ..Default::default()
        });
        let dfk = DataFlowKernel::builder()
            .executor_arc(std::sync::Arc::new(d))
            .build()
            .unwrap();
        // Only 2 of the 4 workers may connect.
        let ex = dfk.executor("dask").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while ex.connected_workers() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(ex.connected_workers(), 2);
        // Work still completes on the connected subset.
        let id = dfk.python_app("id", |x: u8| x);
        assert_eq!(parsl_core::call!(id, 7u8).result().unwrap(), 7);
        dfk.shutdown();
    }

    #[test]
    fn fireworks_polling_dominates_latency() {
        // With a 50 ms poll interval, a single task's latency must be at
        // least one poll period — the architectural cost the paper measures.
        let dfk = DataFlowKernel::builder()
            .executor(FireworksExecutor::new(FireworksConfig {
                workers: 1,
                poll_interval: Duration::from_millis(50),
                ..Default::default()
            }))
            .build()
            .unwrap();
        let id = dfk.python_app("id", |x: u8| x);
        // Warm-up task so the worker's poll loop is in steady state.
        let _ = parsl_core::call!(id, 0u8).result().unwrap();
        let t0 = std::time::Instant::now();
        let _ = parsl_core::call!(id, 1u8).result().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(10),
            "poll-based claim should not be instant, got {elapsed:?}"
        );
        dfk.shutdown();
    }
}
