//! The simulated batch-system provider: Slurm/PBS/Cobalt semantics on a
//! wall clock.
//!
//! Wraps the [`Lrm`] state machine, driving it with real elapsed
//! time: submissions sit in a FIFO queue for the configured queue delay,
//! jobs wait when the machine is full, and walltimes expire. This is what
//! makes elasticity experiments experience realistic provisioning latency
//! (§4.4: "in an HPC setting, elasticity may be complicated by queue
//! delays").

use crate::{JobId, JobState, Lrm, LrmConfig, Machine, SubmitError};
use parking_lot::Mutex;
use parsl_providers::{ExecutionProvider, JobHandle, JobStatus, ProviderError};
use simnet::SimTime;
use std::time::{Duration, Instant};

/// Batch-system provider over a simulated machine.
pub struct SimProvider {
    name: String,
    lrm: Mutex<Lrm>,
    epoch: Instant,
}

/// Builder for [`SimProvider`].
pub struct SimProviderBuilder {
    name: String,
    nodes: usize,
    queue_delay: Duration,
    queue_jitter: Duration,
    max_nodes_per_job: Option<usize>,
    min_nodes_per_job: Option<usize>,
    max_queued_jobs: Option<usize>,
    seed: u64,
}

impl SimProvider {
    /// Start building (defaults: 16 nodes, no queue delay).
    pub fn builder() -> SimProviderBuilder {
        SimProviderBuilder {
            name: "slurm-sim".into(),
            nodes: 16,
            queue_delay: Duration::ZERO,
            queue_jitter: Duration::ZERO,
            max_nodes_per_job: None,
            min_nodes_per_job: None,
            max_queued_jobs: None,
            seed: 0,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

impl SimProviderBuilder {
    /// Provider display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Machine size in nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Base scheduler queue delay before a job can start.
    pub fn queue_delay(mut self, d: Duration) -> Self {
        self.queue_delay = d;
        self
    }

    /// Additional uniform random delay in `[0, jitter]`.
    pub fn queue_jitter(mut self, d: Duration) -> Self {
        self.queue_jitter = d;
        self
    }

    /// Scheduler policy: largest job accepted.
    pub fn max_nodes_per_job(mut self, n: usize) -> Self {
        self.max_nodes_per_job = Some(n);
        self
    }

    /// Scheduler policy: smallest job accepted.
    pub fn min_nodes_per_job(mut self, n: usize) -> Self {
        self.min_nodes_per_job = Some(n);
        self
    }

    /// Scheduler policy: queued-job cap.
    pub fn max_queued_jobs(mut self, n: usize) -> Self {
        self.max_queued_jobs = Some(n);
        self
    }

    /// Seed for queue jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the provider.
    pub fn build(self) -> SimProvider {
        let machine = Machine {
            name: self.name.clone(),
            nodes: self.nodes,
            cores_per_node: 1,
            workers_per_node: 1,
            rtt: SimTime::from_micros(70),
        };
        let cfg = LrmConfig {
            queue_delay: SimTime::from_nanos(self.queue_delay.as_nanos() as u64),
            queue_jitter: SimTime::from_nanos(self.queue_jitter.as_nanos() as u64),
            min_nodes_per_job: self.min_nodes_per_job,
            max_nodes_per_job: self.max_nodes_per_job,
            max_queued_jobs: self.max_queued_jobs,
        };
        SimProvider {
            name: self.name,
            lrm: Mutex::new(Lrm::new(machine, cfg, self.seed)),
            epoch: Instant::now(),
        }
    }
}

impl ExecutionProvider for SimProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&self, nodes: usize, walltime: Option<Duration>) -> Result<JobHandle, ProviderError> {
        let now = self.now();
        let wt = walltime.map(|w| SimTime::from_nanos(w.as_nanos() as u64));
        match self.lrm.lock().submit(now, nodes, wt) {
            Ok(id) => Ok(JobHandle(id.0)),
            Err(e @ SubmitError::QueueFull { .. }) => Err(ProviderError::Busy(e.to_string())),
            Err(e) => Err(ProviderError::Rejected(e.to_string())),
        }
    }

    fn status(&self, job: &JobHandle) -> JobStatus {
        let now = self.now();
        let mut lrm = self.lrm.lock();
        lrm.advance(now);
        match lrm.status(JobId(job.0)) {
            None => JobStatus::Unknown,
            Some(JobState::Pending) => JobStatus::Pending,
            Some(JobState::Running { .. }) => JobStatus::Running,
            Some(JobState::Completed) => JobStatus::Completed,
            Some(JobState::Cancelled) => JobStatus::Cancelled,
            Some(JobState::Failed) => JobStatus::Failed,
        }
    }

    fn cancel(&self, job: &JobHandle) -> bool {
        let now = self.now();
        self.lrm.lock().cancel(now, JobId(job.0))
    }

    fn free_nodes(&self) -> usize {
        let now = self.now();
        let mut lrm = self.lrm.lock();
        lrm.advance(now);
        lrm.free_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_policies_propagate() {
        let p = SimProvider::builder()
            .nodes(8)
            .min_nodes_per_job(2)
            .max_nodes_per_job(4)
            .build();
        assert!(p.submit(1, None).is_err());
        assert!(p.submit(5, None).is_err());
        assert!(p.submit(3, None).is_ok());
    }

    #[test]
    fn queue_full_is_busy_not_rejected() {
        let p = SimProvider::builder().nodes(1).max_queued_jobs(1).build();
        let _running = p.submit(1, None).unwrap();
        let _queued = p.submit(1, None).unwrap();
        match p.submit(1, None) {
            Err(ProviderError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    }
}
