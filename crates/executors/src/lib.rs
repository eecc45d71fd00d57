//! `parsl-executors` — the paper's executor suite (§4.3).
//!
//! "As it appears infeasible to implement a single execution strategy that
//! will meet so many diverse requirements on such varied platforms, Parsl
//! provides a modular executor interface and a collection of executors
//! that are tuned for common execution patterns":
//!
//! | Executor | Paper target | This crate |
//! |---|---|---|
//! | [`ThreadPoolExecutor`] | single node | worker threads in-process |
//! | [`HtexExecutor`] | ≤2000 nodes, high throughput | [`interchange`] + per-node managers ([`worker`]) + worker threads over the `nexus` fabric or TCP; batching, prefetch, heartbeats, command channel |
//! | [`ExexExecutor`] | >1000 nodes | `HtexExecutor` whose nodes are `minimpi` pools: rank 0 manages, other ranks work; no prefetch; fate-sharing faults |
//! | [`LlexExecutor`] | latency-sensitive | `HtexExecutor` whose nodes are one worker run inline by its manager; no prefetch, no batching, no heartbeat expiry, a fixed pool |
//!
//! There is one wire executor, [`HtexExecutor`]; a [`NodeShape`] built
//! from [`HtexConfig`], [`LlexConfig`] or [`ExexConfig`] picks how its
//! managers run tasks ([`worker::Fanout`]). The `baselines` crate's Dask
//! and IPP models are two more shapes of it, so its client half
//! (`client::Client`: the outstanding gauge, one typed request queue,
//! teardown), its [`interchange`] and its manager loop ([`worker`]) are
//! the only broker code in the workspace.
//!
//! Single [`Executor::submit`](parsl_core::executor::Executor::submit)
//! calls batch too, on HTEX: the interchange drains whatever the client
//! queued since its last wake and sends each manager one `Tasks` frame of
//! up to [`HtexConfig::batch_size`] tasks, written straight from the
//! kernel's argument bytes. It settles results into the kernel's
//! completion channel itself (see `client.rs`).

pub mod builtin;
pub(crate) mod client;
mod doorbell;
pub mod exex;
pub mod htex;
pub mod interchange;
pub mod kernel;
pub mod llex;
pub mod proto;
pub mod threadpool;
pub mod worker;

pub use exex::{ExexConfig, ExexExecutor};
pub use htex::{default_worker_cmd, HtexConfig, HtexExecutor, NodeShape, TcpHtexOptions};
pub use llex::{LlexConfig, LlexExecutor};
pub use threadpool::ThreadPoolExecutor;
pub use worker::{run_worker, WorkerOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_core::prelude::*;
    use std::time::Duration;

    fn quick_htex(workers_per_node: usize, nodes: usize) -> HtexExecutor {
        HtexExecutor::new(HtexConfig {
            workers_per_node,
            nodes_per_block: nodes,
            init_blocks: 1,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(150),
            ..Default::default()
        })
    }

    /// An app whose first call reports on the returned "started" channel
    /// and then hangs until the returned gate sender drops; every later
    /// call returns `f(x)` at once.
    fn hang_first(
        dfk: &std::sync::Arc<DataFlowKernel>,
        f: fn(u64) -> u64,
    ) -> (
        App<(u64,), u64>,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::SyncSender<()>,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (started_tx, started) = std::sync::mpsc::channel();
        let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
        let gate_rx = parking_lot::Mutex::new(gate_rx);
        let first = AtomicBool::new(true);
        let app = dfk.python_app("slow", move |x: u64| {
            if first.swap(false, Ordering::SeqCst) {
                let _ = started_tx.send(());
                let _ = gate_rx.lock().recv(); // returns once the gate drops
            }
            f(x)
        });
        (app, started, gate)
    }

    /// The names of this process's threads.
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect()
    }

    /// Killing an in-proc node ends its manager thread at once, long
    /// before any heartbeat: nothing its workers hold (the port's send
    /// half) keeps the killed inbox open.
    #[test]
    fn a_killed_nodes_manager_thread_ends_within_a_second() {
        let htex = std::sync::Arc::new(HtexExecutor::new(HtexConfig {
            label: "kn".into(),
            workers_per_node: 1,
            heartbeat_period: Duration::from_secs(20),
            heartbeat_threshold: Duration::from_secs(60),
            ..Default::default()
        }));
        let dfk = DataFlowKernel::builder()
            .executor_arc(htex.clone())
            .build()
            .unwrap();
        let double = dfk.python_app("double", |x: u64| x * 2);
        assert_eq!(parsl_core::call!(double, 1u64).result().unwrap(), 2);
        let manager_alive = || thread_names().iter().any(|n| n == "kn-mgr-0");
        assert!(manager_alive());
        htex.kill_node(&htex.nodes()[0]);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while manager_alive() {
            assert!(std::time::Instant::now() < deadline, "manager still runs");
            std::thread::sleep(Duration::from_millis(5));
        }
        dfk.shutdown();
    }

    /// Managers wait for their next heartbeat with a deadline, not on a
    /// timer thread: none is running beside a live in-proc HTEX.
    #[test]
    fn a_running_htex_has_no_tick_thread() {
        let htex = std::sync::Arc::new(quick_htex(1, 2));
        let dfk = DataFlowKernel::builder()
            .executor_arc(htex.clone())
            .build()
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while htex.connected_workers() < 2 {
            assert!(std::time::Instant::now() < deadline, "never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        let names = thread_names();
        assert!(
            names.iter().any(|n| n.starts_with("htex-mgr-")),
            "{names:?}"
        );
        assert!(!names.iter().any(|n| n.contains("tick")), "{names:?}");
        dfk.shutdown();
    }

    #[test]
    fn htex_executes_tasks() {
        let dfk = DataFlowKernel::builder()
            .executor(quick_htex(2, 2))
            .build()
            .unwrap();
        let double = dfk.python_app("double", |x: u64| x * 2);
        let futs: Vec<_> = (0..50u64).map(|i| parsl_core::call!(double, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), 2 * i as u64);
        }
        dfk.shutdown();
    }

    #[test]
    fn htex_dependency_chains_cross_nodes() {
        let dfk = DataFlowKernel::builder()
            .executor(quick_htex(2, 3))
            .build()
            .unwrap();
        let inc = dfk.python_app("inc", |x: u64| x + 1);
        let mut f = parsl_core::call!(inc, 0u64);
        for _ in 0..20 {
            f = parsl_core::call!(inc, f);
        }
        assert_eq!(f.result().unwrap(), 21);
        dfk.shutdown();
    }

    #[test]
    fn htex_worker_count_reflects_nodes() {
        let htex = quick_htex(4, 2);
        let dfk = DataFlowKernel::builder()
            .executor_arc(std::sync::Arc::new(htex))
            .build()
            .unwrap();
        // 1 block × 2 nodes × 4 workers; registration is async, poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let ex = dfk.executor("htex").unwrap();
        while ex.connected_workers() < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(ex.connected_workers(), 8);
        dfk.shutdown();
    }

    #[test]
    fn htex_manager_loss_is_detected_and_retried() {
        let htex = std::sync::Arc::new(quick_htex(1, 1));
        let dfk = DataFlowKernel::builder()
            .executor_arc(htex.clone())
            .retries(2)
            .build()
            .unwrap();
        let (slow, started, gate) = hang_first(&dfk, |x| x);
        let f = parsl_core::call!(slow, 5u64);
        // Once the task runs on the (only) node, kill that node.
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("task started");
        let nodes = htex.nodes();
        assert_eq!(nodes.len(), 1);
        htex.kill_node(&nodes[0]);
        // Bring up a replacement so the retry has somewhere to run.
        htex.add_node();
        assert_eq!(f.result().unwrap(), 5);
        drop(gate);
        dfk.shutdown();
    }

    #[test]
    fn llex_executes_tasks() {
        let dfk = DataFlowKernel::builder()
            .executor(LlexExecutor::new(LlexConfig {
                workers: 3,
                ..Default::default()
            }))
            .build()
            .unwrap();
        let id = dfk.python_app("id", |x: i64| x);
        let futs: Vec<_> = (0..30i64).map(|i| parsl_core::call!(id, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), i as i64);
        }
        dfk.shutdown();
    }

    #[test]
    fn htex_command_channel_reports_outstanding() {
        use crate::proto::{Command, CommandReply};
        let htex = std::sync::Arc::new(HtexExecutor::new(HtexConfig {
            workers_per_node: 2,
            ..Default::default()
        }));
        let dfk = DataFlowKernel::builder()
            .executor_arc(htex.clone())
            .build()
            .unwrap();
        let noop = dfk.python_app("noop", |x: u8| x);
        let _ = parsl_core::call!(noop, 1u8).result().unwrap();
        let reply = htex
            .command(Command::OutstandingInfo, Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, CommandReply::Outstanding(0));
        let reply = htex
            .command(Command::ConnectedWorkers, Duration::from_secs(2))
            .unwrap();
        assert!(matches!(reply, CommandReply::Workers(n) if n >= 2));
        dfk.shutdown();
    }

    #[test]
    fn llex_lost_worker_loses_task_but_walltime_recovers_it() {
        let llex = std::sync::Arc::new(LlexExecutor::new(LlexConfig {
            workers: 1,
            ..Default::default()
        }));
        let dfk = DataFlowKernel::builder()
            .executor_arc(llex.clone())
            .retries(1)
            .build()
            .unwrap();
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
        let gate_rx = parking_lot::Mutex::new(gate_rx);
        let flaky_env = dfk.python_app_cfg(
            "task",
            AppOptions {
                walltime: Some(Duration::from_millis(300)),
                ..Default::default()
            },
            move |x: u64| -> Result<u64, AppError> {
                let n = CALLS.fetch_add(1, Ordering::SeqCst);
                if n == 0 {
                    // First execution: hangs until the gate drops — it
                    // will be "lost".
                    let _ = gate_rx.lock().recv();
                }
                Ok(x)
            },
        );
        let f = parsl_core::call!(flaky_env, 9u64);
        // Add a second worker so the retry can run while the other one is
        // stuck in the first attempt (LLEX itself never notices).
        llex.add_node();
        assert_eq!(f.result().unwrap(), 9);
        drop(gate);
        dfk.shutdown();
    }

    #[test]
    fn exex_executes_tasks() {
        let dfk = DataFlowKernel::builder()
            .executor(ExexExecutor::new(ExexConfig {
                ranks_per_pool: 4,
                init_pools: 2,
                heartbeat_period: Duration::from_millis(30),
                heartbeat_threshold: Duration::from_millis(150),
                ..Default::default()
            }))
            .build()
            .unwrap();
        let sq = dfk.python_app("sq", |x: u64| x * x);
        let futs: Vec<_> = (0..40u64).map(|i| parsl_core::call!(sq, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), (i * i) as u64);
        }
        dfk.shutdown();
    }

    #[test]
    fn exex_pool_crash_takes_out_whole_pool_and_retries_elsewhere() {
        let exex = std::sync::Arc::new(ExexExecutor::new(ExexConfig {
            ranks_per_pool: 3,
            init_pools: 1,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(200),
            ..Default::default()
        }));
        let dfk = DataFlowKernel::builder()
            .executor_arc(exex.clone())
            .retries(2)
            .build()
            .unwrap();
        let (slow, started, gate) = hang_first(&dfk, |x| x + 1);
        let f = parsl_core::call!(slow, 1u64);
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("task started");
        let pools = exex.nodes();
        assert_eq!(pools.len(), 1);
        exex.kill_node(&pools[0]);
        exex.add_node();
        assert_eq!(f.result().unwrap(), 2);
        drop(gate);
        dfk.shutdown();
    }

    #[test]
    fn multi_executor_config_spreads_tasks() {
        // §3.5: "multi-site" execution via multiple executors.
        let dfk = DataFlowKernel::builder()
            .executor(ThreadPoolExecutor::with_label("site-a", 2))
            .executor(ThreadPoolExecutor::with_label("site-b", 2))
            .seed(11)
            .build()
            .unwrap();
        let id = dfk.python_app("id", |x: u32| x);
        let futs: Vec<_> = (0..64u32).map(|i| parsl_core::call!(id, i)).collect();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.result().unwrap(), i as u32);
        }
        dfk.shutdown();
    }
}
