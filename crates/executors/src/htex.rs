//! The High Throughput Executor (§4.3.1), and the one executor type
//! behind LLEX and EXEX too.
//!
//! Three components, mirroring Figure 2a:
//!
//! - the **executor client** ([`crate::client::Client`], shared with the
//!   Dask/IPP baselines) submits tasks and receives results on behalf of
//!   the DataFlowKernel;
//! - the **interchange** ([`crate::interchange`]) brokers between client
//!   and managers: it queues tasks, matches them to managers with
//!   advertised capacity using randomized selection for fairness, relays
//!   result batches, answers a synchronous command channel, and watches
//!   heartbeats;
//! - **managers** (pilot agents, one per node, [`crate::worker`])
//!   register capacity (`workers_per_node + prefetch`), receive task
//!   batches, hand them to their workers, and batch results back.
//!
//! What this file adds is the topology (in-proc fabric or TCP), the node
//! lifecycle (add, retire, kill, stop at shutdown) and block scaling. A
//! [`NodeShape`] says what a node is: built from an [`HtexConfig`] its
//! manager feeds worker threads, while [`crate::LlexExecutor`] and
//! [`crate::ExexExecutor`] are this type over the shapes their configs
//! build (one inline worker per node; a pool of MPI ranks).
//!
//! Fault tolerance follows the paper: managers and the interchange
//! exchange periodic heartbeats. A manager that loses the interchange
//! exits immediately "to avoid resource wastage"; when the interchange
//! loses a manager with outstanding tasks, it reports them to the client
//! so the DFK can retry.
//!
//! The topology runs over either message plane (see [`nexus::transport`]):
//! the in-proc fabric (threads, deterministic fault injection) or real
//! loopback/remote TCP ([`HtexExecutor::tcp`]), where managers are
//! `parsl-worker` *processes* spawned through the `providers` launcher
//! path and connected back to the interchange's [`nexus::TcpHub`]. On
//! both planes the client and the interchange are ports of the same
//! plane in this process ([`Client::start_on`]), so a frame between
//! them is a channel send, never a socket write.

use crate::client::{Client, Cover};
use crate::interchange::{interchange_loop, IxParams};
use crate::proto::{Command, CommandReply, ToInterchange};
use crate::worker::{manager_loop, Fanout, ManagerCfg};
use nexus::{Addr, Fabric, TcpHub, Transport};
use parking_lot::Mutex;
use parsl_core::executor::{BlockScaling, Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::types::TaskId;
use parsl_providers::{Channel, Launcher, LocalChannel, SingleLauncher};
use std::collections::HashMap;
use std::process::Child;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// HTEX tuning knobs.
#[derive(Debug, Clone)]
pub struct HtexConfig {
    /// Executor label.
    pub label: String,
    /// Worker threads per simulated node.
    pub workers_per_node: usize,
    /// Extra task slots a manager advertises beyond its workers, so tasks
    /// are prefetched while workers are busy ("configurable batching and
    /// prefetching of tasks to minimize communication overheads").
    pub prefetch: usize,
    /// Largest task batch the interchange sends a manager at once, and
    /// the most single `submit`s the client coalesces into one frame
    /// under backlog (1 = never coalesce). An explicit `submit_batch` is
    /// split only at the transport's frame budget.
    pub batch_size: usize,
    /// Heartbeat period between managers and interchange.
    pub heartbeat_period: Duration,
    /// Silence longer than this marks the counterpart lost.
    pub heartbeat_threshold: Duration,
    /// Nodes added per scaling block (provider blocks, §4.2.3).
    pub nodes_per_block: usize,
    /// Elasticity floor, in blocks.
    pub min_blocks: usize,
    /// Elasticity ceiling, in blocks.
    pub max_blocks: usize,
    /// Nodes brought up at start (`init_blocks × nodes_per_block`).
    pub init_blocks: usize,
    /// RNG seed for the interchange's randomized manager selection.
    pub seed: u64,
}

impl Default for HtexConfig {
    fn default() -> Self {
        HtexConfig {
            label: "htex".into(),
            workers_per_node: 4,
            prefetch: 4,
            batch_size: 8,
            heartbeat_period: Duration::from_millis(100),
            heartbeat_threshold: Duration::from_millis(400),
            nodes_per_block: 1,
            min_blocks: 0,
            max_blocks: usize::MAX,
            init_blocks: 1,
            seed: 0,
        }
    }
}

/// What the nodes of an [`HtexExecutor`] are: HTEX's knobs plus how each
/// manager runs its tasks. Built only from the executor configs:
/// [`HtexConfig`] (worker threads), [`crate::LlexConfig`] and
/// [`crate::ExexConfig`] (see their `From` impls).
#[derive(Debug, Clone)]
pub struct NodeShape {
    cfg: HtexConfig,
    fanout: Fanout,
}

impl NodeShape {
    pub(crate) fn new(cfg: HtexConfig, fanout: Fanout) -> Self {
        NodeShape { cfg, fanout }
    }
}

impl From<HtexConfig> for NodeShape {
    fn from(cfg: HtexConfig) -> Self {
        NodeShape::new(cfg, Fanout::Threads)
    }
}

/// How an [`HtexExecutor::tcp`] deployment spawns and reaches workers.
pub struct TcpHtexOptions {
    /// Argv prefix that starts one worker process; the executor appends
    /// its `--connect/--name/...` flags. Defaults to the `PARSL_WORKER_BIN`
    /// environment variable, falling back to a `parsl-worker` binary next
    /// to the current executable.
    pub worker_cmd: Vec<String>,
    /// Launcher wrapping the worker command (single/srun/mpiexec), the
    /// provider path from §4.2.
    pub launcher: Arc<dyn Launcher>,
    /// Channel wrapping the launched command (local/ssh).
    pub channel: Arc<dyn Channel>,
    /// Bind address for the hub listener (`"127.0.0.1:0"` = ephemeral
    /// loopback port).
    pub bind: String,
    /// How long a disconnected worker keeps retrying before it exits.
    pub reconnect_window: Duration,
}

impl Default for TcpHtexOptions {
    fn default() -> Self {
        TcpHtexOptions {
            worker_cmd: default_worker_cmd(),
            launcher: Arc::new(SingleLauncher),
            channel: Arc::new(LocalChannel),
            bind: "127.0.0.1:0".into(),
            reconnect_window: Duration::from_secs(10),
        }
    }
}

/// Locate the `parsl-worker` binary: `PARSL_WORKER_BIN` wins, else a
/// sibling of the current executable (stepping out of `deps/` for test
/// binaries), else bare `parsl-worker` resolved via `PATH`.
pub fn default_worker_cmd() -> Vec<String> {
    if let Ok(p) = std::env::var("PARSL_WORKER_BIN") {
        return vec![p];
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent().map(|p| p.to_path_buf());
        if let Some(d) = &dir {
            if d.file_name().is_some_and(|n| n == "deps") {
                dir = d.parent().map(|p| p.to_path_buf());
            }
        }
        if let Some(d) = dir {
            let candidate = d.join("parsl-worker");
            if candidate.exists() {
                return vec![candidate.to_string_lossy().into_owned()];
            }
        }
    }
    vec!["parsl-worker".into()]
}

struct TcpTopology {
    hub: TcpHub,
    opts: TcpHtexOptions,
    /// Spawned worker processes by manager address, for SIGKILL fault
    /// injection and shutdown reaping.
    children: Mutex<HashMap<Addr, Child>>,
}

/// The message plane the topology runs over.
enum Topology {
    /// In-proc fabric: managers are threads, faults are injected.
    InProc(Fabric),
    /// Real TCP: managers are spawned `parsl-worker` processes.
    Tcp(TcpTopology),
}

impl Topology {
    /// The plane the interchange and the client attach to.
    fn plane(&self) -> &dyn Transport {
        match self {
            Topology::InProc(fabric) => fabric,
            Topology::Tcp(t) => &t.hub,
        }
    }
}

/// The High Throughput Executor. See module docs.
pub struct HtexExecutor {
    cfg: HtexConfig,
    fanout: Fanout,
    topo: Topology,
    client: Client,
    connected_workers: Arc<AtomicUsize>,
    next_node: AtomicU64,
    /// Live node addresses, newest last (graceful scale-in pops the back).
    nodes: Mutex<Vec<Addr>>,
    blocks: AtomicUsize,
    /// Nodes retired but not yet deregistered: incremented when a `Retire`
    /// is sent, decremented by the interchange when the manager leaves its
    /// draining set (graceful deregister or heartbeat loss). Drives
    /// [`BlockScaling::draining_blocks`] and the providers' drain probes.
    draining_nodes: Arc<AtomicUsize>,
    /// The managers the interchange told to stop on its way out, written
    /// when it exits. Shutdown kills every other node.
    stopped: Arc<Mutex<Vec<Addr>>>,
}

impl HtexExecutor {
    /// Build an executor over its own private fabric.
    pub fn new(shape: impl Into<NodeShape>) -> Self {
        Self::on_fabric(shape, Fabric::new())
    }

    /// Build over an externally supplied fabric (tests inject latency and
    /// faults this way).
    pub fn on_fabric(shape: impl Into<NodeShape>, fabric: Fabric) -> Self {
        Self::with_topology(shape.into(), Topology::InProc(fabric))
    }

    /// Build over real TCP: the interchange listens on a [`TcpHub`] and
    /// every `add_node` spawns a `parsl-worker` process, whose manager
    /// feeds worker threads, that connects back. Fails if the hub socket
    /// cannot bind.
    pub fn tcp(cfg: HtexConfig, opts: TcpHtexOptions) -> std::io::Result<Self> {
        let hub = TcpHub::bind(&opts.bind)?;
        Ok(Self::with_topology(
            cfg.into(),
            Topology::Tcp(TcpTopology {
                hub,
                opts,
                children: Mutex::new(HashMap::new()),
            }),
        ))
    }

    fn with_topology(NodeShape { cfg, fanout }: NodeShape, topo: Topology) -> Self {
        HtexExecutor {
            client: Client::new(&cfg.label, "ix"),
            cfg,
            fanout,
            topo,
            connected_workers: Arc::new(AtomicUsize::new(0)),
            next_node: AtomicU64::new(0),
            nodes: Mutex::new(Vec::new()),
            blocks: AtomicUsize::new(0),
            draining_nodes: Arc::new(AtomicUsize::new(0)),
            stopped: Arc::default(),
        }
    }

    /// The fabric this executor communicates over (for fault injection).
    /// Panics for a TCP-transport executor, which has no fabric — use
    /// [`HtexExecutor::drop_node_conn`] / [`HtexExecutor::kill_node`]
    /// there instead.
    pub fn fabric(&self) -> &Fabric {
        match &self.topo {
            Topology::InProc(f) => f,
            Topology::Tcp(_) => panic!("fabric() on a TCP-transport HTEX"),
        }
    }

    /// Bring up one more node (manager + workers): a thread in-proc, a
    /// spawned `parsl-worker` process over TCP. Returns its address.
    pub fn add_node(&self) -> Addr {
        let cfg = &self.cfg;
        let n = self.next_node.fetch_add(1, Ordering::Relaxed);
        let addr = Addr::new(format!("{}:mgr-{n}", cfg.label));
        match &self.topo {
            Topology::InProc(fabric) => {
                let registry = self.client.registry().expect("add_node before start");
                let ep = fabric.bind(addr.clone()).expect("manager address free");
                let mgr_cfg = ManagerCfg {
                    workers: cfg.workers_per_node,
                    prefetch: cfg.prefetch,
                    batch_size: cfg.batch_size,
                    heartbeat_period: cfg.heartbeat_period,
                    heartbeat_threshold: cfg.heartbeat_threshold,
                    reconnect: false,
                };
                let (ix_addr, fanout) = (self.client.ix_addr().clone(), self.fanout);
                // The thread stands in for a node's process, so nothing
                // joins it: shutdown stops it (a `Shutdown`, or a killed
                // endpoint) without waiting on a task wedged in app code.
                std::thread::Builder::new()
                    .name(format!("{}-mgr-{n}", cfg.label))
                    .spawn(move || manager_loop(Box::new(ep), registry, ix_addr, mgr_cfg, fanout))
                    .expect("spawn manager");
            }
            Topology::Tcp(t) => {
                let child = spawn_worker_process(cfg, self.client.ix_addr(), t, &addr)
                    .expect("spawn parsl-worker process");
                t.children.lock().insert(addr.clone(), child);
            }
        }
        self.nodes.lock().push(addr.clone());
        addr
    }

    /// Gracefully retire the most recently added node. The retirement is
    /// routed through the interchange so no task batch can cross the
    /// shutdown on the wire.
    pub fn remove_node(&self) -> bool {
        let Some(addr) = self.nodes.lock().pop() else {
            return false;
        };
        let retire = ToInterchange::Retire {
            name: addr.to_string(),
        };
        if self.client.send(&retire).is_ok() {
            self.draining_nodes.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Nodes that have been retired but are still finishing held tasks.
    /// A provider pool's drain probe reads this to decide when a drained
    /// block's job can actually be released.
    pub fn draining_nodes(&self) -> usize {
        self.draining_nodes.load(Ordering::Relaxed)
    }

    /// Fault injection: abruptly kill a node's manager (no deregistration,
    /// no result flush). In-proc the endpoint is killed; over TCP the
    /// worker *process* receives SIGKILL. The interchange notices via
    /// missed heartbeats either way.
    pub fn kill_node(&self, addr: &Addr) {
        match &self.topo {
            Topology::InProc(fabric) => fabric.kill(addr),
            Topology::Tcp(t) => {
                if let Some(mut child) = t.children.lock().remove(addr) {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        self.nodes.lock().retain(|a| a != addr);
    }

    /// Fault injection (TCP only): sever a worker's connection without
    /// touching its process. The worker's spoke reconnects and the manager
    /// re-registers; no tasks should be lost. Returns false in-proc or if
    /// no such connection exists.
    pub fn drop_node_conn(&self, addr: &Addr) -> bool {
        match &self.topo {
            Topology::InProc(_) => false,
            Topology::Tcp(t) => t.hub.drop_conn(addr),
        }
    }

    /// Addresses of live nodes.
    pub fn nodes(&self) -> Vec<Addr> {
        self.nodes.lock().clone()
    }

    /// The client's coalescing terms: Σ capacity of the registered
    /// managers as the slots a backlog must cover, `batch_size` and the
    /// plane's frame budget as the caps on a coalesced frame.
    fn cover(&self) -> Cover {
        // Every manager registers `workers_per_node` workers and
        // `prefetch` slots beyond them.
        let workers = self.connected_workers.load(Ordering::Relaxed);
        let managers = workers / self.cfg.workers_per_node.max(1);
        Cover {
            slots: workers + self.cfg.prefetch * managers,
            max_tasks: self.cfg.batch_size,
            max_frame_bytes: self.topo.plane().max_frame_bytes(),
        }
    }

    /// Synchronous administrative command (§4.3.1). Times out after `wait`.
    pub fn command(&self, cmd: Command, wait: Duration) -> Result<CommandReply, ExecutorError> {
        self.client.command(cmd, wait)
    }
}

impl Executor for HtexExecutor {
    fn label(&self) -> &str {
        &self.cfg.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let registry = Arc::clone(&ctx.registry);
        // The interchange and the client attach to the same plane as local
        // ports: over TCP only the managers sit behind sockets.
        let ix_ep = self.client.start_on(self.topo.plane(), ctx, "manager")?;

        let params = IxParams {
            client_addr: self.client.client_addr().clone(),
            prefetch: self.cfg.prefetch,
            batch_size: self.cfg.batch_size,
            heartbeat_period: self.cfg.heartbeat_period,
            heartbeat_threshold: self.cfg.heartbeat_threshold,
            seed: self.cfg.seed,
            connected_workers: Arc::clone(&self.connected_workers),
            draining_nodes: Arc::clone(&self.draining_nodes),
            stop: self.client.stop_flag(),
        };
        let stopped = Arc::clone(&self.stopped);
        self.client
            .spawn(format!("{}-ix", self.cfg.label), move || {
                *stopped.lock() = interchange_loop(ix_ep, registry, params);
            })?;

        for _ in 0..self.cfg.init_blocks {
            self.scale_out(1);
        }
        Ok(())
    }

    /// Under a backlog that already covers the managers' slots twice
    /// over, single submits wait in the client's outbox and cross the
    /// wire up to `batch_size` to a frame ([`crate::client`]).
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.client.submit(&task, Some(self.cover()))
    }

    /// An explicit batch leaves at once, behind any held single submits.
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        self.client
            .submit_batch(&tasks, self.topo.plane().max_frame_bytes())
    }

    fn outstanding(&self) -> usize {
        self.client.outstanding()
    }

    /// Best-effort: drop the attempt from the interchange's queue, or
    /// forward the cancel to the manager holding it. Either way a
    /// (possibly synthesized) result flows back, so the outstanding gauge
    /// and manager accounting settle normally.
    fn cancel(&self, id: TaskId, attempt: u32) {
        let _ = self
            .client
            .send(&ToInterchange::Cancel { id: id.0, attempt });
    }

    fn connected_workers(&self) -> usize {
        self.connected_workers.load(Ordering::Relaxed)
    }

    /// Stop the interchange, then every node: a manager the interchange
    /// told to stop drains and exits by itself; any other node (still
    /// starting, or declared lost) was never told, so it is killed rather
    /// than waited on.
    fn shutdown(&self) {
        self.client.shutdown();
        let stopped = std::mem::take(&mut *self.stopped.lock());
        let nodes = std::mem::take(&mut *self.nodes.lock());
        match &self.topo {
            Topology::InProc(fabric) => {
                for addr in nodes.iter().filter(|a| !stopped.contains(a)) {
                    fabric.kill(addr);
                }
            }
            Topology::Tcp(t) => {
                // A told worker process is reaped once it exits; the
                // deadline only bounds one that cannot finish its drain.
                let deadline = Instant::now() + Duration::from_secs(5);
                for (addr, mut child) in t.children.lock().drain() {
                    if stopped.contains(&addr) {
                        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    let _ = child.kill();
                    let _ = child.wait();
                }
                t.hub.shutdown();
            }
        }
        // The interchange exited without deregistering anyone.
        self.connected_workers.store(0, Ordering::Relaxed);
    }

    fn scaling(&self) -> Option<&dyn BlockScaling> {
        Some(self)
    }
}

impl BlockScaling for HtexExecutor {
    fn block_count(&self) -> usize {
        self.blocks.load(Ordering::Relaxed)
    }

    fn workers_per_block(&self) -> usize {
        self.cfg.nodes_per_block * self.cfg.workers_per_node
    }

    fn scale_out(&self, n: usize) -> usize {
        let mut added = 0;
        for _ in 0..n {
            if self.block_count() >= self.cfg.max_blocks {
                break;
            }
            for _ in 0..self.cfg.nodes_per_block {
                self.add_node();
            }
            self.blocks.fetch_add(1, Ordering::Relaxed);
            added += 1;
        }
        added
    }

    fn scale_in(&self, n: usize) -> usize {
        let mut removed = 0;
        for _ in 0..n {
            if self.block_count() <= self.cfg.min_blocks {
                break;
            }
            for _ in 0..self.cfg.nodes_per_block {
                self.remove_node();
            }
            self.blocks.fetch_sub(1, Ordering::Relaxed);
            removed += 1;
        }
        removed
    }

    fn min_blocks(&self) -> usize {
        self.cfg.min_blocks
    }

    fn max_blocks(&self) -> usize {
        self.cfg.max_blocks
    }

    /// HTEX retirement is already graceful (`Retire` → manager finishes
    /// held work → `Deregister`), so draining is scale-in plus the
    /// draining-nodes gauge the snapshot and providers read.
    fn drain(&self, n: usize) -> usize {
        self.scale_in(n)
    }

    fn draining_blocks(&self) -> usize {
        self.draining_nodes
            .load(Ordering::Relaxed)
            .div_ceil(self.cfg.nodes_per_block.max(1))
    }
}

impl Drop for HtexExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker process spawning (TCP topology)
// ---------------------------------------------------------------------------

/// Render and spawn one `parsl-worker` process through the provider path:
/// the raw command is wrapped by the configured [`Launcher`] and
/// [`Channel`] (identity for local single-node runs, `srun`/`ssh` shapes
/// for clusters), then executed under `sh -c "exec ..."` so signals sent
/// to the child hit the worker itself. A command nothing wrapped is
/// spawned directly: the child is then the worker as soon as `spawn`
/// returns, not a shell still on its way to `exec`.
fn spawn_worker_process(
    cfg: &HtexConfig,
    ix_addr: &Addr,
    topo: &TcpTopology,
    addr: &Addr,
) -> std::io::Result<Child> {
    let mut argv: Vec<String> = topo.opts.worker_cmd.clone();
    argv.extend([
        "--connect".into(),
        topo.hub.local_addr().to_string(),
        "--name".into(),
        addr.to_string(),
        "--ix".into(),
        ix_addr.to_string(),
        "--workers".into(),
        cfg.workers_per_node.to_string(),
        "--prefetch".into(),
        cfg.prefetch.to_string(),
        "--batch".into(),
        cfg.batch_size.to_string(),
        "--heartbeat-ms".into(),
        cfg.heartbeat_period.as_millis().to_string(),
        "--threshold-ms".into(),
        cfg.heartbeat_threshold.as_millis().to_string(),
        "--reconnect-ms".into(),
        topo.opts.reconnect_window.as_millis().to_string(),
    ]);
    let raw = argv
        .iter()
        .map(|a| shell_quote(a))
        .collect::<Vec<_>>()
        .join(" ");
    let launched = topo.opts.launcher.wrap(&raw, 1, cfg.workers_per_node);
    let command = topo.opts.channel.wrap(&launched);
    if command == raw {
        return std::process::Command::new(&argv[0])
            .args(&argv[1..])
            .spawn();
    }
    std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("exec {command}"))
        .spawn()
}

/// Quote one argv element for `sh -c`.
fn shell_quote(s: &str) -> String {
    if !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-_./:=".contains(&b))
    {
        s.to_string()
    } else {
        format!("'{}'", s.replace('\'', r"'\''"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parsl_core::registry::{AppOptions, AppRegistry};
    use parsl_core::types::{AppKind, ResourceSpec, TaskId};

    /// A batch submitted through one `submit_batch` call comes back
    /// complete, and the outstanding gauge returns to zero.
    #[test]
    fn submit_batch_roundtrip() {
        let registry = AppRegistry::new();
        let app = registry.register(
            "double",
            AppKind::Native,
            "(u64)->u64",
            Arc::new(|args| {
                let (x,): (u64,) = wire::from_bytes(args)
                    .map_err(|e| parsl_core::error::AppError::Serialization(e.to_string()))?;
                wire::to_bytes(&(x * 2))
                    .map_err(|e| parsl_core::error::AppError::Serialization(e.to_string()))
            }),
            AppOptions::default(),
        );
        let (tx, rx) = crossbeam::channel::unbounded();
        let htex = HtexExecutor::new(HtexConfig {
            workers_per_node: 2,
            nodes_per_block: 2,
            ..Default::default()
        });
        htex.start(ExecutorContext {
            completions: tx,
            registry: Arc::clone(&registry),
        })
        .unwrap();

        let n = 64u64;
        let batch: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec {
                id: TaskId(i),
                app: Arc::clone(&app),
                args: Bytes::from(wire::to_bytes(&(i,)).unwrap()),
                resources: ResourceSpec::default(),
                attempt: 0,
                tenant: parsl_core::types::TenantId::DEFAULT,
                items: 1,
            })
            .collect();
        htex.submit_batch(batch).unwrap();

        let mut got = std::collections::HashMap::new();
        while got.len() < n as usize {
            let outcomes = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("batch completes");
            for outcome in outcomes {
                let v: u64 = wire::from_bytes(&outcome.result.unwrap()).unwrap();
                got.insert(outcome.id.0, v);
            }
        }
        for i in 0..n {
            assert_eq!(got.get(&i), Some(&(i * 2)), "task {i}");
        }
        assert_eq!(htex.outstanding(), 0);
        htex.shutdown();
    }

    fn spec(app: &Arc<parsl_core::registry::RegisteredApp>, id: u64, ms: u64) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            app: Arc::clone(app),
            args: Bytes::from(wire::to_bytes(&(id, ms)).unwrap()),
            resources: ResourceSpec::default(),
            attempt: 0,
            tenant: parsl_core::types::TenantId::DEFAULT,
            items: 1,
        }
    }

    /// One node of one worker plus one prefetch slot (2 slots, so the
    /// client holds single submits once 4 are out), running an app that
    /// blocks until the returned gate sender is dropped. Returns once the
    /// manager has registered.
    fn gated_htex() -> (
        HtexExecutor,
        crossbeam::channel::Receiver<Vec<parsl_core::executor::TaskOutcome>>,
        Arc<parsl_core::registry::RegisteredApp>,
        crossbeam::channel::Sender<()>,
    ) {
        let registry = AppRegistry::new();
        let (gate_tx, gate_rx) = crossbeam::channel::bounded::<()>(0);
        let app = registry.register(
            "gated",
            AppKind::Native,
            "(u64,u64)->u64",
            Arc::new(move |_| {
                let _ = gate_rx.recv(); // returns once the gate sender drops
                Ok(Vec::new())
            }),
            AppOptions::default(),
        );
        let (tx, rx) = crossbeam::channel::unbounded();
        let htex = HtexExecutor::new(HtexConfig {
            workers_per_node: 1,
            prefetch: 1,
            ..Default::default()
        });
        htex.start(ExecutorContext {
            completions: tx,
            registry,
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while htex.connected_workers() < 1 {
            assert!(Instant::now() < deadline, "manager never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        (htex, rx, app, gate_tx)
    }

    /// Wait for `n` more outcomes, all `Ok`.
    fn expect_ok(
        rx: &crossbeam::channel::Receiver<Vec<parsl_core::executor::TaskOutcome>>,
        n: usize,
    ) {
        let mut done = 0;
        while done < n {
            for o in rx.recv_timeout(Duration::from_secs(10)).expect("completes") {
                assert!(o.result.is_ok(), "{:?}", o.result);
                done += 1;
            }
        }
    }

    /// 2 × slots + 1 single submits against a closed gate: the last one
    /// waits in the client's outbox, and a command flushes it ahead of
    /// itself — the interchange counts every task submitted.
    #[test]
    fn command_sees_every_task_submitted_before_it() {
        let (htex, rx, app, gate) = gated_htex();
        for id in 0..5 {
            htex.submit(spec(&app, id, 0)).unwrap();
        }
        let reply = htex.command(Command::OutstandingInfo, Duration::from_secs(10));
        assert_eq!(reply.ok(), Some(CommandReply::Outstanding(5)));
        drop(gate);
        expect_ok(&rx, 5);
        assert_eq!(htex.outstanding(), 0);
        htex.shutdown();
    }

    /// Cancelling a task that is still in the client's outbox settles it
    /// like any other undispatched task: the cancel travels behind it.
    #[test]
    fn cancel_settles_a_task_still_in_the_outbox() {
        let (htex, rx, app, gate) = gated_htex();
        for id in 0..5 {
            htex.submit(spec(&app, id, 0)).unwrap();
        }
        htex.cancel(TaskId(4), 0);
        let cancelled = rx.recv_timeout(Duration::from_secs(10)).expect("settles");
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].id, TaskId(4));
        let err = format!("{:?}", cancelled[0].result.as_ref().unwrap_err());
        assert!(err.contains("cancelled before dispatch"), "{err}");
        drop(gate);
        expect_ok(&rx, 4);
        assert_eq!(htex.outstanding(), 0);
        htex.shutdown();
    }
}
