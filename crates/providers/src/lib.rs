//! `parsl-providers` — the provider abstraction (§4.2).
//!
//! "Clouds, supercomputers, and local PCs offer vastly different modes of
//! access. To overcome these differences, and present a single uniform
//! interface, Parsl implements a simple provider abstraction ... based on
//! three core actions: submit a job for execution, retrieve the status of
//! an allocation, and cancel a running job."
//!
//! This crate provides:
//!
//! - [`ExecutionProvider`]: the three-action trait;
//! - [`LocalProvider`]: "fork on this machine" — jobs start immediately;
//! - [`SlurmScript`]: renders the `#SBATCH` submission script a real Slurm
//!   provider would generate, so configs are inspectable (§4.2's
//!   parameter-to-script mapping);
//! - [`Channel`]s ([`LocalChannel`], [`SshChannel`]) that transform
//!   submission commands the way Parsl channels do;
//! - [`Launcher`]s (single, srun-like, mpiexec-like) that wrap the worker
//!   command for in-job fan-out (§4.2.2);
//! - [`BlockPool`]: glue binding a provider to an executor's node
//!   management, giving the DataFlowKernel's strategy engine real
//!   provisioning delays (blocks, §4.2.3).

mod block;
mod channel;
mod launcher;
mod local;
mod provider;
mod slurm;
mod wrapper;

pub use block::BlockPool;
pub use channel::{Channel, LocalChannel, SshChannel};
pub use launcher::{Launcher, MpiExecLauncher, SingleLauncher, SrunLauncher};
pub use local::LocalProvider;
pub use provider::{ExecutionProvider, JobHandle, JobStatus, ProviderError};
pub use slurm::SlurmScript;
pub use wrapper::ProvidedExecutor;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn local_provider_starts_immediately() {
        let p = LocalProvider::new(8);
        let job = p.submit(2, None).unwrap();
        assert_eq!(p.status(&job), JobStatus::Running);
        assert_eq!(p.free_nodes(), 6);
        p.cancel(&job);
        assert_eq!(p.status(&job), JobStatus::Cancelled);
        assert_eq!(p.free_nodes(), 8);
    }

    #[test]
    fn local_provider_rejects_oversized() {
        let p = LocalProvider::new(2);
        assert!(p.submit(3, None).is_err());
    }

    #[test]
    fn slurm_script_renders_paper_listing() {
        // Listing 1 of the paper: 128 nodes, skx-normal, 12:00:00.
        let script = SlurmScript {
            job_name: "parsl.block-0".into(),
            partition: Some("skx-normal".into()),
            nodes: 128,
            walltime: Some(Duration::from_secs(12 * 3600)),
            scheduler_options: vec!["#SBATCH --exclusive".into()],
            worker_init: "module load conda".into(),
            command: "process_worker_pool --block 0".into(),
        };
        let text = script.render();
        assert!(text.contains("#SBATCH --nodes=128"));
        assert!(text.contains("#SBATCH --partition=skx-normal"));
        assert!(text.contains("#SBATCH --time=12:00:00"));
        assert!(text.contains("#SBATCH --exclusive"));
        assert!(text.contains("module load conda"));
        assert!(text.contains("process_worker_pool"));
    }

    #[test]
    fn channels_transform_commands() {
        let local = LocalChannel;
        assert_eq!(local.wrap("sbatch job.sh"), "sbatch job.sh");
        let ssh = SshChannel::new("login1.cluster.edu", "user");
        let wrapped = ssh.wrap("sbatch job.sh");
        assert!(wrapped.contains("ssh"));
        assert!(wrapped.contains("user@login1.cluster.edu"));
        assert!(wrapped.contains("sbatch job.sh"));
    }

    #[test]
    fn launchers_fan_out() {
        let single = SingleLauncher;
        assert_eq!(single.wrap("worker", 4, 2), "worker");
        let srun = SrunLauncher;
        let cmd = srun.wrap("worker", 4, 2);
        assert!(cmd.contains("srun"));
        assert!(cmd.contains("--nodes=4"));
        assert!(cmd.contains("--ntasks-per-node=2"));
        let mpi = MpiExecLauncher;
        let cmd = mpi.wrap("worker", 4, 2);
        assert!(cmd.contains("mpiexec"));
        assert!(cmd.contains("-n 8"));
    }
}
