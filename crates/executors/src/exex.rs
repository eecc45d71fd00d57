//! The Extreme Scale Executor (§4.3.2).
//!
//! EXEX targets the largest machines by using MPI inside each batch job:
//! "Upon deployment, rank 0 of the MPI communicator takes the role of the
//! manager, while all other ranks assume the role of workers." The
//! reproduction deploys **pools**: each pool is a `minimpi` world whose
//! rank 0 connects to the interchange over the fabric (ZeroMQ in the
//! paper) and fans tasks out to its worker ranks over "MPI".
//!
//! The paper's fault-tolerance caveat is preserved: `minimpi` fate-sharing
//! means one dead rank kills the whole pool, so "we recommend that users
//! break their allocation into several smaller MPI worker pools within a
//! single scheduler job". Pool loss is detected by the same heartbeat
//! mechanism as HTEX.

use crate::client::Client;
use crate::interchange::{interchange_loop, IxParams};
use crate::kernel;
use crate::proto::{encode, ToInterchange, ToManager, WireResult, WireTask};
use minimpi::{Rank, Tag, World, ANY_SOURCE};
use nexus::{Addr, Fabric};
use parking_lot::Mutex;
use parsl_core::executor::{BlockScaling, Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::registry::AppRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message tags on the intra-pool "MPI" communicator.
const TAG_TASK: Tag = Tag(1);
const TAG_RESULT: Tag = Tag(2);
const TAG_STOP: Tag = Tag(3);

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

/// The Extreme Scale Executor. See module docs.
pub struct ExexExecutor {
    cfg: ExexConfig,
    fabric: Fabric,
    client: Client,
    connected_workers: Arc<AtomicUsize>,
    next_pool: AtomicU64,
    /// Live pool manager addresses, newest last.
    pools: Mutex<Vec<Addr>>,
}

impl ExexExecutor {
    /// Build over a private fabric.
    pub fn new(cfg: ExexConfig) -> Self {
        Self::on_fabric(cfg, Fabric::new())
    }

    /// Build over an external fabric.
    pub fn on_fabric(cfg: ExexConfig, fabric: Fabric) -> Self {
        assert!(
            cfg.ranks_per_pool >= 2,
            "a pool needs rank 0 plus at least one worker"
        );
        ExexExecutor {
            client: Client::new(&cfg.label, "ix"),
            cfg,
            fabric,
            connected_workers: Arc::new(AtomicUsize::new(0)),
            next_pool: AtomicU64::new(0),
            pools: Mutex::new(Vec::new()),
        }
    }

    /// The fabric (for fault injection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Deploy one more MPI pool. Returns the pool manager's address.
    pub fn add_pool(&self) -> Addr {
        let registry = self.client.registry().expect("add_pool before start");
        let n = self.next_pool.fetch_add(1, Ordering::Relaxed);
        let addr = Addr::new(format!("{}:pool-{n}", self.cfg.label));

        let mut ranks = World::create(self.cfg.ranks_per_pool).into_iter();
        let manager_rank = ranks.next().expect("rank 0");

        // Worker ranks.
        for rank in ranks {
            let registry = Arc::clone(&registry);
            self.client
                .spawn(format!("{addr}:rank{}", rank.rank()), move || {
                    worker_rank_loop(rank, registry)
                })
                .expect("spawn exex worker rank");
        }

        // Rank 0: the pool manager bridging fabric and MPI.
        let fabric = self.fabric.clone();
        let ix_addr = self.client.ix_addr().clone();
        let heartbeat_period = self.cfg.heartbeat_period;
        let maddr = addr.clone();
        self.client
            .spawn(format!("{addr}:rank0"), move || {
                pool_manager_loop(fabric, ix_addr, heartbeat_period, manager_rank, maddr)
            })
            .expect("spawn exex pool manager");

        self.pools.lock().push(addr.clone());
        addr
    }

    /// Gracefully retire the most recently added pool. Routed through the
    /// interchange so no batch crosses the shutdown on the wire.
    pub fn remove_pool(&self) -> bool {
        let Some(addr) = self.pools.lock().pop() else {
            return false;
        };
        let _ = self.client.send(&ToInterchange::Retire {
            name: addr.to_string(),
        });
        true
    }

    /// Fault injection: crash a pool. Killing rank 0's fabric endpoint
    /// makes it abort the world, and MPI fate-sharing takes every other
    /// rank down with it.
    pub fn kill_pool(&self, addr: &Addr) {
        let mut pools = self.pools.lock();
        if let Some(i) = pools.iter().position(|p| p == addr) {
            pools.remove(i);
            self.fabric.kill(addr);
        }
    }

    /// Addresses of live pools.
    pub fn pools(&self) -> Vec<Addr> {
        self.pools.lock().clone()
    }
}

impl Executor for ExexExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let registry = Arc::clone(&ctx.registry);
        let ix_ep = self.client.start_on_fabric(&self.fabric, ctx, "MPI pool")?;

        // Identical broker role to HTEX, but the counterparties are pool
        // managers ("EXEX uses a hierarchical task distribution model,
        // where the managers communicate with the interchange on behalf
        // of workers"), which advertise exactly their worker ranks.
        let params = IxParams {
            client_addr: self.client.client_addr().clone(),
            prefetch: 0,
            batch_size: self.cfg.batch_size,
            heartbeat_period: self.cfg.heartbeat_period,
            heartbeat_threshold: self.cfg.heartbeat_threshold,
            seed: self.cfg.seed,
            connected_workers: Arc::clone(&self.connected_workers),
            // EXEX exposes no drain probe, so nothing reads this gauge.
            draining_nodes: Arc::default(),
            stop: self.client.stop_flag(),
        };
        self.client
            .spawn(format!("{}-ix", self.cfg.label), move || {
                interchange_loop(Box::new(ix_ep), registry, params)
            })?;

        for _ in 0..self.cfg.init_pools {
            self.add_pool();
        }
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.client.submit(&task, None)
    }

    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        self.client
            .submit_batch(&tasks, self.fabric.max_frame_bytes())
    }

    fn outstanding(&self) -> usize {
        self.client.outstanding()
    }

    fn connected_workers(&self) -> usize {
        self.connected_workers.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.client.shutdown();
    }

    fn scaling(&self) -> Option<&dyn BlockScaling> {
        Some(self)
    }
}

impl BlockScaling for ExexExecutor {
    fn block_count(&self) -> usize {
        self.pools.lock().len()
    }

    fn workers_per_block(&self) -> usize {
        self.cfg.ranks_per_pool - 1
    }

    fn scale_out(&self, n: usize) -> usize {
        let mut added = 0;
        for _ in 0..n {
            if self.block_count() >= self.cfg.max_pools {
                break;
            }
            self.add_pool();
            added += 1;
        }
        added
    }

    fn scale_in(&self, n: usize) -> usize {
        let mut removed = 0;
        for _ in 0..n {
            if self.block_count() <= self.cfg.min_pools {
                break;
            }
            if !self.remove_pool() {
                break;
            }
            removed += 1;
        }
        removed
    }

    fn min_blocks(&self) -> usize {
        self.cfg.min_pools
    }

    fn max_blocks(&self) -> usize {
        self.cfg.max_pools
    }
}

// ---------------------------------------------------------------------------
// Pool: rank 0 bridges fabric <-> MPI; other ranks execute.
// ---------------------------------------------------------------------------

fn pool_manager_loop(
    fabric: Fabric,
    ix_addr: Addr,
    heartbeat_period: Duration,
    rank: Rank,
    addr: Addr,
) {
    let Ok(ep) = fabric.bind(addr.clone()) else {
        rank.abort();
        return;
    };
    let n_workers = rank.size() - 1;
    let _ = ep.send(
        &ix_addr,
        encode(&ToInterchange::Register {
            name: addr.to_string(),
            capacity: n_workers,
            held: vec![],
        }),
    );

    let mut idle: VecDeque<usize> = (1..rank.size()).collect();
    let mut backlog: VecDeque<WireTask> = VecDeque::new();
    let mut in_flight = 0usize;
    let mut last_hb = Instant::now();
    let mut draining = false;

    loop {
        // Fabric side (non-blocking-ish).
        match ep.recv_timeout(Duration::from_millis(1)) {
            Ok(env) => match crate::proto::decode::<ToManager>(&env.payload) {
                Ok(ToManager::Tasks(batch)) => backlog.extend(batch),
                // Pools share the client registry; advertisements are moot.
                // Cancels are advisory and EXEX ranks run lockstep waves,
                // so skipping one task would desync the wave — ignore.
                Ok(ToManager::Apps(_))
                | Ok(ToManager::Heartbeat)
                | Ok(ToManager::Cancel { .. }) => {}
                Ok(ToManager::Shutdown) => draining = true,
                Err(_) => {}
            },
            Err(nexus::RecvError::Timeout) => {}
            Err(nexus::RecvError::Closed) => {
                // Endpoint killed: the "node" died. MPI fate-sharing takes
                // the whole pool down.
                rank.abort();
                return;
            }
        }

        // Dispatch over "MPI".
        while let (Some(&w), false) = (idle.front(), backlog.is_empty()) {
            let task = backlog.pop_front().expect("non-empty");
            let payload = wire::to_bytes(&task).expect("task encodes");
            if rank.send(w, TAG_TASK, payload).is_err() {
                return; // pool aborted
            }
            idle.pop_front();
            in_flight += 1;
        }

        // Collect results (non-blocking poll via short timeout).
        loop {
            match rank.recv_timeout(ANY_SOURCE, Some(TAG_RESULT), Duration::from_micros(200)) {
                Ok(msg) => {
                    idle.push_back(msg.from);
                    in_flight -= 1;
                    if let Ok(result) = wire::from_bytes::<WireResult>(&msg.payload) {
                        if ep
                            .send(&ix_addr, encode(&ToInterchange::Results(vec![result])))
                            .is_err()
                        {
                            // Interchange gone; nothing left to live for.
                            rank.abort();
                            return;
                        }
                    }
                }
                Err(minimpi::MpiError::Timeout) => break,
                Err(_) => return, // aborted
            }
        }

        if last_hb.elapsed() >= heartbeat_period {
            last_hb = Instant::now();
            let _ = ep.send(
                &ix_addr,
                encode(&ToInterchange::Heartbeat {
                    name: addr.to_string(),
                }),
            );
        }

        if draining && backlog.is_empty() && in_flight == 0 {
            let _ = ep.send(
                &ix_addr,
                encode(&ToInterchange::Deregister {
                    name: addr.to_string(),
                }),
            );
            for w in 1..rank.size() {
                let _ = rank.send(w, TAG_STOP, Vec::new());
            }
            rank.finalize();
            return;
        }
    }
}

fn worker_rank_loop(rank: Rank, registry: Arc<AppRegistry>) {
    let me = rank.rank();
    loop {
        let msg = match rank.recv(Some(0), None) {
            Ok(m) => m,
            Err(_) => return, // pool aborted
        };
        match msg.tag {
            TAG_TASK => {
                let Ok(task) = wire::from_bytes::<WireTask>(&msg.payload) else {
                    continue;
                };
                let result = kernel::execute(&registry, &task, &format!("rank-{me}"));
                let payload = wire::to_bytes(&result).expect("result encodes");
                if rank.send(0, TAG_RESULT, payload).is_err() {
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
