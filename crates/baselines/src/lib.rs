//! `baselines` — the comparison systems from §5 of the paper.
//!
//! The paper evaluates Parsl against IPyParallel, FireWorks, and Dask
//! distributed. We reproduce each system's *architecture* — the mechanism
//! that determines its performance envelope — rather than its codebase:
//!
//! - [`IppExecutor`]: an IPyParallel-style **hub** to which every engine
//!   (worker) connects directly; the hub tracks each task individually
//!   (no batching), which is what limits its throughput and scale;
//! - [`DaskLikeExecutor`]: a **centralized scheduler** making a per-task
//!   placement decision over directly connected workers — fast for short
//!   tasks on small clusters, capped by per-worker connection state;
//! - [`FireworksExecutor`]: a central **LaunchPad database**; FireWorkers
//!   *poll* the database on an interval to claim work and write results
//!   back. Polling a central store is why FireWorks supports "concurrent
//!   execution of few (<1000) long-running tasks (>100 s)" and tops out
//!   at single-digit tasks per second.
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

use nexus::{Addr, Fabric};
use parsl_core::executor::ExecutorError;
use parsl_core::registry::AppRegistry;
use parsl_executors::client::Client;
use parsl_executors::worker::{manager_loop, Fanout, ManagerCfg};
use std::sync::Arc;
use std::time::Duration;

/// Start a worker (Dask) or engine (IPP) connected straight to its broker
/// at `addr`: HTEX's manager loop with one slot, run inline. These brokers
/// send no heartbeats, so it never gives up on a silent one; it stops on
/// a shutdown frame, or when [`stop_direct_workers`] kills its endpoint.
fn spawn_direct_worker(
    client: &Client,
    fabric: &Fabric,
    registry: &Arc<AppRegistry>,
    addr: Addr,
) -> Result<(), ExecutorError> {
    let ep = fabric
        .bind(addr.clone())
        .map_err(|e| ExecutorError::Comm(e.to_string()))?;
    let cfg = ManagerCfg {
        workers: 1,
        prefetch: 0,
        batch_size: 1,
        heartbeat_period: Duration::from_millis(100),
        heartbeat_threshold: Duration::MAX,
        reconnect: false,
    };
    let (broker, registry) = (client.ix_addr().clone(), Arc::clone(registry));
    client.spawn(addr.to_string(), move || {
        manager_loop(Box::new(ep), registry, broker, cfg, Fanout::Inline)
    })
}

/// Stop the broker and its direct workers. A worker that registered after
/// the broker exited would never hear a shutdown frame, so every endpoint
/// is killed before the client joins the threads.
fn stop_direct_workers(client: &Client, fabric: &Fabric, workers: impl Iterator<Item = Addr>) {
    for addr in workers {
        fabric.kill(&addr);
    }
    client.shutdown();
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
