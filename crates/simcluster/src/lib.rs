//! `simcluster` — testbed machines, a batch-scheduler (LRM) simulator, and
//! the paper-scale executor models.
//!
//! The paper evaluates on two real systems (§5): the **Midway** campus
//! cluster (28-core Intel nodes, 0.07 ms RTT) and the **Blue Waters** Cray
//! (XE nodes with 32 integer scheduling units used one-per-worker, 0.04 ms
//! RTT). Neither is available here, so this crate provides:
//!
//! - [`Machine`] descriptions with [`machines::midway`] and
//!   [`machines::blue_waters`] presets carrying the paper's published node
//!   counts, cores, and measured RTTs;
//! - [`Lrm`], a Local Resource Manager simulation with the three provider
//!   actions Parsl needs (submit / status / cancel, §4.2), FIFO scheduling,
//!   configurable queue delay, walltime enforcement, block-size policies,
//!   and failure injection. It is *time-domain agnostic*: callers drive it
//!   with explicit clocks, so the same implementation serves the real
//!   thread-based providers (wall-clock nanoseconds) and the
//!   discrete-event experiments (virtual time);
//! - [`SimProvider`], a `parsl_providers::ExecutionProvider` whose jobs go
//!   through the [`Lrm`] on the wall clock — the paper's Slurm/PBS/Cobalt
//!   stand-in for elasticity experiments;
//! - [`calib`], the cost constants that parameterize every executor and
//!   baseline model, with their provenance documented next to each number;
//! - [`model`], the discrete-event [`FrameworkModel`] of each Parsl
//!   executor and baseline system, for the paper-scale experiments.
//!
//! Nothing in the runtime links this crate: only the paper-figure binaries
//! in `crates/bench` do.

pub mod calib;
mod lrm;
mod machine;
pub mod model;
mod sim;

pub use lrm::{JobId, JobState, Lrm, LrmConfig, SubmitError};
pub use machine::{machines, Machine};
pub use model::{CampaignResult, FrameworkModel, ScaleFailure};
pub use sim::SimProvider;

#[cfg(test)]
mod tests {
    use super::*;
    use parsl_providers::{ExecutionProvider, JobStatus};
    use simnet::SimTime;
    use std::time::Duration;

    fn small_machine() -> Machine {
        Machine {
            name: "test".into(),
            nodes: 4,
            cores_per_node: 2,
            workers_per_node: 2,
            rtt: SimTime::from_micros(50),
        }
    }

    fn lrm(qdelay_ms: u64) -> Lrm {
        Lrm::new(
            small_machine(),
            LrmConfig {
                queue_delay: SimTime::from_millis(qdelay_ms),
                ..Default::default()
            },
            0,
        )
    }

    #[test]
    fn submit_starts_after_queue_delay() {
        let mut lrm = lrm(100);
        let id = lrm.submit(SimTime::ZERO, 2, None).unwrap();
        assert_eq!(lrm.status(id), Some(JobState::Pending));
        lrm.advance(SimTime::from_millis(50));
        assert_eq!(lrm.status(id), Some(JobState::Pending));
        lrm.advance(SimTime::from_millis(100));
        assert!(matches!(lrm.status(id), Some(JobState::Running { .. })));
        assert_eq!(lrm.free_nodes(), 2);
    }

    #[test]
    fn fifo_queue_blocks_when_capacity_exhausted() {
        let mut lrm = lrm(0);
        let a = lrm.submit(SimTime::ZERO, 3, None).unwrap();
        let b = lrm.submit(SimTime::ZERO, 3, None).unwrap();
        lrm.advance(SimTime::ZERO);
        assert!(matches!(lrm.status(a), Some(JobState::Running { .. })));
        assert_eq!(lrm.status(b), Some(JobState::Pending));
        // Freeing A lets B start.
        lrm.cancel(SimTime::from_secs(1), a);
        lrm.advance(SimTime::from_secs(1));
        assert!(matches!(lrm.status(b), Some(JobState::Running { .. })));
    }

    #[test]
    fn walltime_expires_jobs() {
        let mut lrm = lrm(0);
        let id = lrm
            .submit(SimTime::ZERO, 1, Some(SimTime::from_secs(10)))
            .unwrap();
        lrm.advance(SimTime::ZERO);
        assert!(matches!(lrm.status(id), Some(JobState::Running { .. })));
        lrm.advance(SimTime::from_secs(10));
        assert_eq!(lrm.status(id), Some(JobState::Completed));
        assert_eq!(lrm.free_nodes(), 4);
    }

    #[test]
    fn cancel_pending_job() {
        let mut lrm = lrm(1000);
        let id = lrm.submit(SimTime::ZERO, 1, None).unwrap();
        assert!(lrm.cancel(SimTime::from_millis(1), id));
        assert_eq!(lrm.status(id), Some(JobState::Cancelled));
        lrm.advance(SimTime::from_secs(5));
        assert_eq!(lrm.free_nodes(), 4);
        // Cancelling twice is a no-op returning false.
        assert!(!lrm.cancel(SimTime::from_secs(5), id));
    }

    #[test]
    fn oversized_job_rejected() {
        let mut lrm = lrm(0);
        assert!(matches!(
            lrm.submit(SimTime::ZERO, 100, None),
            Err(SubmitError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn node_policy_enforced() {
        let mut lrm = Lrm::new(
            small_machine(),
            LrmConfig {
                min_nodes_per_job: Some(2),
                max_nodes_per_job: Some(3),
                ..Default::default()
            },
            0,
        );
        assert!(lrm.submit(SimTime::ZERO, 1, None).is_err());
        assert!(lrm.submit(SimTime::ZERO, 4, None).is_err());
        assert!(lrm.submit(SimTime::ZERO, 2, None).is_ok());
    }

    #[test]
    fn queued_job_cap_enforced() {
        let mut lrm = Lrm::new(
            small_machine(),
            LrmConfig {
                max_queued_jobs: Some(1),
                ..Default::default()
            },
            0,
        );
        // First job occupies everything; second sits in queue; third rejected.
        let _a = lrm.submit(SimTime::ZERO, 4, None).unwrap();
        lrm.advance(SimTime::ZERO);
        let _b = lrm.submit(SimTime::ZERO, 4, None).unwrap();
        assert!(matches!(
            lrm.submit(SimTime::ZERO, 4, None),
            Err(SubmitError::QueueFull { .. })
        ));
    }

    #[test]
    fn fail_job_releases_nodes() {
        let mut lrm = lrm(0);
        let id = lrm.submit(SimTime::ZERO, 4, None).unwrap();
        lrm.advance(SimTime::ZERO);
        assert_eq!(lrm.free_nodes(), 0);
        lrm.fail_job(SimTime::from_secs(1), id);
        assert_eq!(lrm.status(id), Some(JobState::Failed));
        assert_eq!(lrm.free_nodes(), 4);
    }

    #[test]
    fn queue_jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut lrm = Lrm::new(
                small_machine(),
                LrmConfig {
                    queue_delay: SimTime::from_millis(10),
                    queue_jitter: SimTime::from_millis(50),
                    ..Default::default()
                },
                seed,
            );
            let id = lrm.submit(SimTime::ZERO, 1, None).unwrap();
            let mut t = SimTime::ZERO;
            while !matches!(lrm.status(id), Some(JobState::Running { .. })) {
                t += SimTime::from_millis(1);
                lrm.advance(t);
            }
            t
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn next_event_time_reports_earliest_transition() {
        let mut lrm = lrm(100);
        let _ = lrm.submit(SimTime::ZERO, 1, None).unwrap();
        // Earliest transition is the queued job's eligibility instant.
        assert_eq!(lrm.next_event_time(), Some(SimTime::from_millis(100)));
        lrm.advance(SimTime::from_millis(100));
        assert_eq!(lrm.next_event_time(), None); // running, no walltime
    }

    #[test]
    fn presets_match_paper() {
        let m = machines::midway();
        assert_eq!(m.cores_per_node, 28);
        assert_eq!(m.rtt, SimTime::from_micros(70));
        let b = machines::blue_waters();
        assert_eq!(b.workers_per_node, 32);
        assert_eq!(b.rtt, SimTime::from_micros(40));
        assert!(b.nodes >= 8192, "must fit the paper's 8192-node runs");
    }

    #[test]
    fn calibration_matches_reported_throughputs() {
        // The bottleneck service times must invert to the paper's Table 2
        // maximum throughputs.
        let tol = 0.01;
        let t = 1.0 / calib::HTEX_INTERCHANGE_SERVICE.as_secs_f64();
        assert!((t - 1181.0).abs() / 1181.0 < tol, "HTEX {t}");
        let t = 1.0 / calib::EXEX_INTERCHANGE_SERVICE.as_secs_f64();
        assert!((t - 1176.0).abs() / 1176.0 < tol, "EXEX {t}");
        let t = 1.0 / calib::IPP_HUB_SERVICE.as_secs_f64();
        assert!((t - 330.0).abs() / 330.0 < tol, "IPP {t}");
        let t = 1.0 / calib::DASK_SCHEDULER_SERVICE.as_secs_f64();
        assert!((t - 2617.0).abs() / 2617.0 < tol, "Dask {t}");
        let t = 1.0 / calib::FIREWORKS_DB_SERVICE.as_secs_f64();
        assert!((t - 4.0).abs() / 4.0 < tol, "FireWorks {t}");
    }

    #[test]
    fn sim_provider_queues_then_runs() {
        let p = SimProvider::builder()
            .nodes(4)
            .queue_delay(Duration::from_millis(80))
            .build();
        let job = p.submit(2, None).unwrap();
        assert_eq!(p.status(&job), JobStatus::Pending);
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(p.status(&job), JobStatus::Running);
        p.cancel(&job);
        assert_eq!(p.status(&job), JobStatus::Cancelled);
    }

    #[test]
    fn sim_provider_respects_capacity() {
        let p = SimProvider::builder().nodes(2).build();
        let a = p.submit(2, None).unwrap();
        let b = p.submit(1, None).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(p.status(&a), JobStatus::Running);
        assert_eq!(p.status(&b), JobStatus::Pending);
        p.cancel(&a);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(p.status(&b), JobStatus::Running);
    }

    #[test]
    fn sim_provider_walltime_completes_job() {
        let p = SimProvider::builder().nodes(1).build();
        let job = p.submit(1, Some(Duration::from_millis(60))).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.status(&job), JobStatus::Running);
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(p.status(&job), JobStatus::Completed);
    }

    #[test]
    fn block_pool_provisions_through_queue_delay() {
        use parsl_core::executor::BlockScaling;
        use parsl_executors::{HtexConfig, HtexExecutor};
        use std::sync::Arc;

        let htex = Arc::new(HtexExecutor::new(HtexConfig {
            label: "pool-test".into(),
            workers_per_node: 1,
            init_blocks: 0,
            ..Default::default()
        }));
        let dfk = parsl_core::DataFlowKernel::builder()
            .executor_arc(htex.clone())
            .build()
            .unwrap();
        let _ = &dfk;

        let provider = SimProvider::builder()
            .nodes(10)
            .queue_delay(Duration::from_millis(50))
            .build();
        let pool = parsl_providers::BlockPool::builder(provider)
            .nodes_per_block(2)
            .min_blocks(0)
            .max_blocks(3)
            .poll_interval(Duration::from_millis(10))
            .on_block_up({
                let htex = Arc::clone(&htex);
                move |nodes| {
                    for _ in 0..nodes {
                        htex.add_node();
                    }
                }
            })
            .on_block_down({
                let htex = Arc::clone(&htex);
                move |nodes| {
                    for _ in 0..nodes {
                        htex.remove_node();
                    }
                }
            })
            .build();

        assert_eq!(pool.block_count(), 0);
        assert_eq!(pool.scale_out(2), 2);
        assert_eq!(
            pool.block_count(),
            2,
            "blocks count as provisioned while queued"
        );
        // Nodes appear only after the queue delay.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while htex.nodes().len() < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(htex.nodes().len(), 4);
        // Scale in releases jobs and tears down nodes.
        assert_eq!(pool.scale_in(1), 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while htex.nodes().len() > 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(htex.nodes().len(), 2);
        pool.shutdown();
        dfk.shutdown();
    }
}
