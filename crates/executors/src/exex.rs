//! The Extreme Scale Executor (§4.3.2): HTEX's interchange and manager
//! loop over nodes whose workers are MPI ranks.
//!
//! EXEX targets the largest machines by using MPI inside each batch job:
//! "Upon deployment, rank 0 of the MPI communicator takes the role of the
//! manager, while all other ranks assume the role of workers." With "an
//! identical broker role" to HTEX, [`ExexExecutor`] is [`HtexExecutor`]
//! over nodes of the shape `From<ExexConfig>` builds: each node is a
//! **pool**, a `minimpi` world of `ranks_per_pool` ranks. Rank 0 is the
//! manager (`crate::worker::manager_loop` with the ranks fan-out): it
//! registers its worker ranks as capacity, with no prefetch, and sends each
//! task to an idle rank (`Ranks`); the other ranks run them
//! (`worker_rank_loop`). One block is one pool.
//!
//! The paper's fault-tolerance caveat is preserved: `minimpi` fate-sharing
//! means one dead rank kills the whole pool, so "we recommend that users
//! break their allocation into several smaller MPI worker pools within a
//! single scheduler job". Pool loss is detected by the same heartbeat
//! mechanism as HTEX.

use crate::htex::{HtexConfig, HtexExecutor, NodeShape};
use crate::proto::WireTask;
use crate::worker::{Fanout, Runner};
use minimpi::{MpiError, Rank, Tag, World};
use nexus::Addr;
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::Duration;

/// Message tags on a pool's communicator.
const TAG_TASK: Tag = Tag(1);
const TAG_STOP: Tag = Tag(2);

/// EXEX configuration.
#[derive(Debug, Clone)]
pub struct ExexConfig {
    /// Executor label.
    pub label: String,
    /// Ranks per MPI pool (1 manager + N−1 workers).
    pub ranks_per_pool: usize,
    /// Task batch size from interchange to pool managers.
    pub batch_size: usize,
    /// Heartbeat period between pool managers and the interchange.
    pub heartbeat_period: Duration,
    /// Silence threshold for declaring a pool lost.
    pub heartbeat_threshold: Duration,
    /// Pools brought up at start.
    pub init_pools: usize,
    /// Elasticity floor/ceiling in pools (blocks).
    pub min_pools: usize,
    /// See `min_pools`.
    pub max_pools: usize,
    /// RNG seed for randomized pool selection.
    pub seed: u64,
}

impl Default for ExexConfig {
    fn default() -> Self {
        ExexConfig {
            label: "exex".into(),
            ranks_per_pool: 5,
            batch_size: 8,
            heartbeat_period: Duration::from_millis(100),
            heartbeat_threshold: Duration::from_millis(400),
            init_pools: 1,
            min_pools: 0,
            max_pools: usize::MAX,
            seed: 0,
        }
    }
}

/// The Extreme Scale Executor: an [`HtexExecutor`] built from an
/// [`ExexConfig`]. See module docs.
pub type ExexExecutor = HtexExecutor;

impl From<ExexConfig> for NodeShape {
    fn from(c: ExexConfig) -> Self {
        assert!(
            c.ranks_per_pool >= 2,
            "a pool needs rank 0 plus at least one worker"
        );
        NodeShape::new(
            HtexConfig {
                label: c.label,
                workers_per_node: c.ranks_per_pool - 1,
                prefetch: 0,
                batch_size: c.batch_size,
                heartbeat_period: c.heartbeat_period,
                heartbeat_threshold: c.heartbeat_threshold,
                nodes_per_block: 1,
                min_blocks: c.min_pools,
                max_blocks: c.max_pools,
                init_blocks: c.init_pools,
                seed: c.seed,
            },
            Fanout::Ranks,
        )
    }
}

/// The ranks fan-out of a pool manager: rank 0 of the pool's world, which
/// sends each task to an idle worker rank. Dropping it without
/// [`Ranks::stop`] aborts the world.
///
/// A pool has no prefetch, and a rank is idle again before its result
/// leaves the manager, so the interchange never sends a task the pool has
/// no idle rank for.
pub(crate) struct Ranks {
    rank0: Rank,
    idle: Vec<usize>,
    /// The rank running each dispatched attempt.
    running: HashMap<(u64, u32), usize>,
    handles: Vec<JoinHandle<()>>,
}

impl Ranks {
    /// Create a world of `workers + 1` ranks and start the worker ranks,
    /// each reporting through `runner`.
    pub(crate) fn spawn(workers: usize, runner: &Runner, node: &Addr) -> Self {
        let mut world = World::create(workers + 1).into_iter();
        let rank0 = world.next().expect("a world has rank 0");
        let handles = world
            .map(|rank| {
                let runner = runner.clone();
                let name = format!("{node}:rank{}", rank.rank());
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || worker_rank_loop(rank, runner, name))
                    .expect("spawn worker rank")
            })
            .collect();
        Ranks {
            rank0,
            idle: (1..=workers).collect(),
            running: HashMap::new(),
            handles,
        }
    }

    /// Send `task` to an idle rank. Fails once the world has aborted.
    pub(crate) fn dispatch(&mut self, task: WireTask) -> Result<(), MpiError> {
        let rank = self
            .idle
            .pop()
            .expect("the interchange sends a pool no more tasks than it has ranks");
        self.running.insert((task.id, task.attempt), rank);
        let payload = wire::to_bytes(&task).expect("tasks always encode");
        self.rank0.send(rank, TAG_TASK, payload)
    }

    /// The attempt's result reached the manager: its rank is idle again.
    pub(crate) fn finished(&mut self, id: u64, attempt: u32) {
        if let Some(rank) = self.running.remove(&(id, attempt)) {
            self.idle.push(rank);
        }
    }

    /// Whether a rank's death aborted the world.
    pub(crate) fn is_aborted(&self) -> bool {
        self.rank0.is_aborted()
    }

    /// The graceful end: stop every worker rank, then finalize rank 0.
    pub(crate) fn stop(self) {
        for rank in 1..self.rank0.size() {
            let _ = self.rank0.send(rank, TAG_STOP, Vec::new());
        }
        for h in self.handles {
            let _ = h.join();
        }
        self.rank0.finalize();
    }
}

/// A worker rank: run each task rank 0 sends and report it into the
/// manager's funnel until told to stop or the world aborts.
fn worker_rank_loop(rank: Rank, runner: Runner, name: String) {
    while let Ok(msg) = rank.recv(Some(0), None) {
        match msg.tag {
            TAG_TASK => {
                let task: WireTask =
                    wire::from_bytes(&msg.payload).expect("rank 0 sends encoded tasks");
                if !runner.run(&task, &name) {
                    return;
                }
            }
            TAG_STOP => {
                rank.finalize();
                return;
            }
            _ => {}
        }
    }
}
