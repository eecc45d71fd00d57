//! The interchange: the broker between an executor client and its
//! managers (§4.3.1, Figure 2a).
//!
//! It queues the client's tasks, matches them to managers with advertised
//! capacity using randomized selection for fairness, tracks which
//! `(task, attempt)` pairs each manager holds, settles result batches
//! straight into the kernel's completion channel, answers the
//! synchronous command channel, and watches heartbeats: a manager silent
//! past the threshold is dropped and its held tasks are settled as lost
//! so the DFK can retry them. Results from a manager the interchange no
//! longer accounts for are discarded.
//!
//! It waits on two sources at once: the client's request queue
//! ([`crate::client::Request`], typed values, never encoded) and its port
//! on the plane, which carries only manager frames. On each wake it
//! drains the queue in bulk, then dispatches per manager up to
//! `batch_size`, each batch written as one `ToManager::Tasks` frame
//! straight from the queued argument bytes ([`crate::proto::encode_tasks`]).
//! While tasks are left that no manager has a slot for, it waits on the
//! client's bell instead of the queue, so more tasks do not wake it and
//! a control request still does.
//!
//! Every executor shape runs it: HTEX's managers feed worker threads,
//! EXEX's are MPI pool leaders ("identical broker role", §4.3.2) with
//! `prefetch: 0`, and LLEX's run one task at a time inline with no
//! heartbeat expiry.

use crate::client::{Broker, Outcomes, Request};
use crate::proto::{
    decode, encode, encode_tasks, Command, CommandReply, QueuedTask, ToInterchange, ToManager,
    WireApp, WireResult,
};
use nexus::{Addr, Envelope, Port};
use parsl_core::error::AppError;
use parsl_core::registry::{AppId, AppRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most requests one wake takes off the client's queue before it
/// dispatches, so a producer that never pauses cannot starve the plane.
const DRAIN: usize = 1024;

/// What the interchange reads from the executor that runs it.
pub struct IxParams {
    /// Slots a manager advertises beyond its workers; subtracted from a
    /// registering manager's capacity to count its workers.
    pub prefetch: usize,
    /// Largest task batch sent to a manager at once.
    pub batch_size: usize,
    /// The plane's frame budget: no `Tasks` frame of more than one task
    /// exceeds it.
    pub max_frame_bytes: usize,
    /// Heartbeat period toward managers.
    pub heartbeat_period: Duration,
    /// Manager silence longer than this marks it lost.
    pub heartbeat_threshold: Duration,
    /// RNG seed for the randomized manager selection.
    pub seed: u64,
    /// Gauge of workers behind registered managers.
    pub connected_workers: Arc<AtomicUsize>,
    /// Gauge of retired-but-not-yet-gone managers: the executor
    /// increments it when it sends a `Retire`, the interchange decrements
    /// it when that manager deregisters, is lost, or was never known.
    pub draining_nodes: Arc<AtomicUsize>,
}

struct ManagerInfo {
    free: usize,
    workers: usize,
    last_seen: Instant,
    outstanding: HashSet<(u64, u32)>,
    /// App ids already advertised to this manager (remote workers bind
    /// builtins by name on first sight; in-proc managers ignore these).
    advertised: HashSet<u64>,
}

/// One retiring node finished draining (deregistered, was lost, or never
/// existed); saturating so a stray decrement can't wrap the gauge.
fn node_drained(draining_nodes: &AtomicUsize) {
    let _ = draining_nodes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
}

/// Why `name`'s held tasks come back as `ExecutorLost`.
fn lost_reason(name: &Addr) -> String {
    format!("manager {name} lost (heartbeat expired)")
}

/// The interchange's state between wakes.
struct Interchange {
    ep: Box<dyn Port>,
    outcomes: Outcomes,
    registry: Arc<AppRegistry>,
    p: IxParams,
    pending: VecDeque<QueuedTask>,
    managers: HashMap<Addr, ManagerInfo>,
    blacklist: HashSet<Addr>,
    draining: HashSet<Addr>,
    rng: SmallRng,
    /// Managers with free slots, refilled for each dispatch.
    candidates: Vec<Addr>,
}

/// Run the interchange until a `Shutdown` request, a `ShutdownExecutor`
/// command, or the client's queue closing; registered managers are told
/// to shut down on the way out. Returns the managers so told: the
/// executor kills every other node it started. `registry` resolves app
/// ids for advertisement.
pub fn interchange_loop(broker: Broker, registry: Arc<AppRegistry>, p: IxParams) -> Vec<Addr> {
    let Broker {
        port,
        requests,
        bell,
        outcomes,
    } = broker;
    let tick = p.heartbeat_period / 2;
    let mut ix = Interchange {
        ep: port,
        outcomes,
        registry,
        rng: SmallRng::seed_from_u64(p.seed),
        p,
        pending: VecDeque::new(),
        managers: HashMap::new(),
        blacklist: HashSet::new(),
        draining: HashSet::new(),
        candidates: Vec::new(),
    };
    let mut next_tick = Instant::now() + tick;
    let mut last_hb_out = Instant::now();
    // Tasks are queued that no manager can take yet: until a frame frees
    // a slot, more of them are no reason to wake, so wait on the bell
    // instead of the queue (`Broker::bell`).
    let mut saturated = false;

    'run: loop {
        let wait = if saturated && !requests.is_empty() {
            Duration::ZERO // the last drain stopped at its limit
        } else {
            next_tick.saturating_duration_since(Instant::now())
        };
        if saturated {
            crossbeam::channel::select! {
                recv(bell) -> rung => {
                    if rung.is_err() && requests.is_empty() {
                        break 'run; // the client is gone
                    }
                }
                recv(ix.ep.receiver()) -> env => {
                    match env {
                        Ok(env) => ix.frame(env),
                        Err(_) => break 'run, // the port was killed
                    }
                }
                default(wait) => {}
            }
        } else {
            // Requests first: a request the client made before a worker
            // finished (a cancel, then the gate that held the worker
            // opening) is obeyed before that worker's results frame.
            crossbeam::channel::select! {
                recv(requests) -> request => {
                    if !request.is_ok_and(|r| ix.request(r)) {
                        break 'run;
                    }
                }
                recv(ix.ep.receiver()) -> env => {
                    match env {
                        Ok(env) => ix.frame(env),
                        Err(_) => break 'run, // the port was killed
                    }
                }
                default(wait) => {}
            }
        }
        for _ in 0..DRAIN {
            let Ok(request) = requests.try_recv() else {
                break;
            };
            if !ix.request(request) {
                break 'run;
            }
        }
        let now = Instant::now();
        if now >= next_tick {
            next_tick = now + tick;
            if now.duration_since(last_hb_out) >= ix.p.heartbeat_period {
                last_hb_out = now;
                for addr in ix.managers.keys() {
                    let _ = ix.ep.send(addr, encode(&ToManager::Heartbeat));
                }
            }
            ix.sweep(now);
        }
        ix.dispatch();
        saturated = !ix.pending.is_empty();
    }

    let Interchange { ep, managers, .. } = ix;
    managers
        .into_keys()
        .filter(|addr| ep.send(addr, encode(&ToManager::Shutdown)).is_ok())
        .collect()
}

impl Interchange {
    /// Take one client request. False to stop. Tasks only join the queue;
    /// a control request first dispatches what it can, so it meets the
    /// tasks ahead of it where they would be had each request had a wake
    /// of its own (a cancel behind a batch finds the tasks that fit a
    /// manager already sent).
    fn request(&mut self, request: Request) -> bool {
        match request {
            Request::Task(task) => self.pending.push_back(task),
            Request::Tasks(tasks) => self.pending.extend(tasks),
            control => {
                self.dispatch();
                return self.control(control);
            }
        }
        true
    }

    /// Obey one control request. False to stop.
    fn control(&mut self, request: Request) -> bool {
        match request {
            Request::Task(_) | Request::Tasks(_) => unreachable!("tasks are queued, not obeyed"),
            Request::Cancel { id, attempt } => self.cancel(id, attempt),
            Request::Retire { node } => {
                if self.managers.contains_key(&node) {
                    // Stop dispatching first, then tell the manager to
                    // drain; same-pair FIFO means any batch sent before
                    // this instant arrives before the shutdown.
                    self.draining.insert(node.clone());
                    let _ = self.ep.send(&node, encode(&ToManager::Shutdown));
                } else {
                    // Manager already gone (or never registered): the
                    // drain is trivially complete.
                    node_drained(&self.p.draining_nodes);
                }
            }
            Request::Command(cmd, reply) => {
                let answer = match cmd {
                    Command::OutstandingInfo => {
                        let running: usize =
                            self.managers.values().map(|m| m.outstanding.len()).sum();
                        CommandReply::Outstanding(self.pending.len() + running)
                    }
                    Command::ConnectedWorkers => {
                        CommandReply::Workers(self.p.connected_workers.load(Ordering::Relaxed))
                    }
                    Command::Blacklist(name) => {
                        self.blacklist.insert(Addr::new(name));
                        CommandReply::Ack
                    }
                    Command::ShutdownExecutor => {
                        let _ = reply.send(CommandReply::Ack);
                        return false;
                    }
                };
                let _ = reply.send(answer);
            }
            Request::Shutdown => return false,
        }
        true
    }

    /// Drop a still-queued attempt and settle it "cancelled before
    /// dispatch" (the DFK's attempt filter discards the result), or
    /// forward the cancel to the manager holding it.
    fn cancel(&mut self, id: u64, attempt: u32) {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|t| t.id == id && t.attempt == attempt)
        {
            self.pending.remove(pos);
            self.outcomes.results(vec![WireResult {
                id,
                attempt,
                outcome: Err(AppError::msg("cancelled before dispatch")),
                worker: String::new(),
            }]);
        } else if let Some(addr) = self
            .managers
            .iter()
            .find(|(_, m)| m.outstanding.contains(&(id, attempt)))
            .map(|(a, _)| a.clone())
        {
            let _ = self
                .ep
                .send(&addr, encode(&ToManager::Cancel { id, attempt }));
        }
    }

    /// Handle one frame from a manager. Client-only messages (submits,
    /// cancels, retirements, commands, shutdown) are ignored here like an
    /// undecodable frame: they come only from the request queue, so no
    /// peer on the plane can queue work or stop the interchange.
    fn frame(&mut self, env: Envelope) {
        let now = Instant::now();
        let Ok(msg) = decode::<ToInterchange>(&env.payload) else {
            return; // corrupt frame; drop, like a real broker
        };
        match msg {
            ToInterchange::Register {
                name: _,
                capacity,
                held,
            } => {
                if let Some(m) = self.managers.get_mut(&env.from) {
                    // Re-register after a link drop: keep the accounting,
                    // reconcile against what the manager actually still
                    // holds, and settle anything that died in the gap as
                    // lost so the DFK retries it.
                    let held: HashSet<(u64, u32)> = held.into_iter().collect();
                    let vanished: Vec<(u64, u32)> =
                        m.outstanding.difference(&held).copied().collect();
                    for k in &vanished {
                        m.outstanding.remove(k);
                    }
                    m.free = capacity.saturating_sub(m.outstanding.len());
                    m.last_seen = now;
                    self.outcomes.lost(vanished, &lost_reason(&env.from));
                } else {
                    let workers = capacity.saturating_sub(self.p.prefetch);
                    self.p
                        .connected_workers
                        .fetch_add(workers, Ordering::Relaxed);
                    self.managers.insert(
                        env.from,
                        ManagerInfo {
                            free: capacity,
                            workers,
                            last_seen: now,
                            outstanding: HashSet::new(),
                            advertised: HashSet::new(),
                        },
                    );
                }
            }
            ToInterchange::Capacity { name: _, free } => {
                if let Some(m) = self.managers.get_mut(&env.from) {
                    m.free = free;
                    m.last_seen = now;
                }
            }
            ToInterchange::Results(results) => {
                // Settle only results this interchange still accounts for.
                // A manager declared lost (its tasks already settled and
                // retried) may reconnect and flush stale results; settling
                // those would double-finalize attempts and corrupt the
                // client's outstanding gauge.
                if let Some(m) = self.managers.get_mut(&env.from) {
                    let known: Vec<_> = results
                        .into_iter()
                        .filter(|r| m.outstanding.remove(&(r.id, r.attempt)))
                        .collect();
                    m.free += known.len();
                    m.last_seen = now;
                    self.outcomes.results(known);
                }
            }
            ToInterchange::Heartbeat { name: _ } => {
                if let Some(m) = self.managers.get_mut(&env.from) {
                    m.last_seen = now;
                }
            }
            ToInterchange::Deregister { name: _ } => {
                if self.draining.remove(&env.from) {
                    node_drained(&self.p.draining_nodes);
                }
                if let Some(m) = self.managers.remove(&env.from) {
                    self.p
                        .connected_workers
                        .fetch_sub(m.workers, Ordering::Relaxed);
                    // A graceful manager has already flushed results;
                    // anything still marked outstanding is settled lost.
                    let tasks = m.outstanding.into_iter().collect();
                    self.outcomes.lost(tasks, &lost_reason(&env.from));
                }
            }
            ToInterchange::Submit(_)
            | ToInterchange::SubmitBatch(_)
            | ToInterchange::Retire { .. }
            | ToInterchange::Cancel { .. }
            | ToInterchange::Command(_)
            | ToInterchange::Shutdown => {}
        }
    }

    /// Detect lost managers (§4.3.1) and settle their tasks.
    fn sweep(&mut self, now: Instant) {
        let threshold = self.p.heartbeat_threshold;
        let lost: Vec<Addr> = self
            .managers
            .iter()
            .filter(|(_, m)| now.duration_since(m.last_seen) > threshold)
            .map(|(a, _)| a.clone())
            .collect();
        for addr in lost {
            let m = self.managers.remove(&addr).expect("present");
            if self.draining.remove(&addr) {
                node_drained(&self.p.draining_nodes);
            }
            self.p
                .connected_workers
                .fetch_sub(m.workers, Ordering::Relaxed);
            let tasks = m.outstanding.into_iter().collect();
            self.outcomes.lost(tasks, &lost_reason(&addr));
        }
    }

    /// Match queued tasks to managers with capacity. Each round gives
    /// every manager with a free slot an even share of what is queued,
    /// starting at a random one for fairness, so a burst spreads over all
    /// of them; a share is cut to `batch_size`, the manager's free slots
    /// and the frame budget. Tasks left queued wait for a frame that frees
    /// a slot or registers a manager.
    fn dispatch(&mut self) {
        while !self.pending.is_empty() {
            self.candidates.clear();
            self.candidates.extend(
                self.managers
                    .iter()
                    .filter(|(a, m)| {
                        m.free > 0 && !self.blacklist.contains(*a) && !self.draining.contains(*a)
                    })
                    .map(|(a, _)| a.clone()),
            );
            let k = self.candidates.len();
            if k == 0 {
                return;
            }
            let share = self.pending.len().div_ceil(k);
            let first = self.rng.random_range(0..k);
            for i in 0..k {
                let pick = self.candidates[(first + i) % k].clone();
                if self.pending.is_empty() || !self.send_share(&pick, share) {
                    return;
                }
            }
        }
    }

    /// Send `pick` one `Tasks` frame of at most `share` queued tasks (its
    /// first task always fits the frame budget), advertising any app it
    /// has not seen first. False if the manager's port refused a frame.
    fn send_share(&mut self, pick: &Addr, share: usize) -> bool {
        let m = self.managers.get_mut(pick).expect("candidate exists");
        let most = self.p.batch_size.min(m.free).min(share);
        let mut bytes = 10; // the variant index and the task count
        let n = self
            .pending
            .iter()
            .take(most)
            .take_while(|t| {
                bytes += t.encoded_len();
                bytes <= self.p.max_frame_bytes
            })
            .count()
            .max(1);
        let batch = self.pending.range(..n);

        // Advertise apps this manager hasn't seen before their tasks:
        // same-pair FIFO guarantees the worker binds the ids first.
        let mut new_app_ids: Vec<u64> = batch
            .clone()
            .map(|t| t.app_id)
            .filter(|id| !m.advertised.contains(id))
            .collect();
        new_app_ids.sort_unstable();
        new_app_ids.dedup();
        let new_apps: Vec<WireApp> = new_app_ids
            .iter()
            .filter_map(|id| self.registry.get(AppId(*id)))
            .map(|app| WireApp {
                id: app.id.0,
                name: app.name.to_string(),
                signature: app.signature.to_string(),
            })
            .collect();
        if !new_apps.is_empty()
            && self
                .ep
                .send(pick, encode(&ToManager::Apps(new_apps)))
                .is_err()
        {
            return false;
        }
        m.advertised.extend(new_app_ids);

        // The tasks leave the queue only once their frame is sent: a
        // manager whose endpoint died between heartbeat checks keeps
        // nothing, and the loss path cleans up.
        if self.ep.send(pick, encode_tasks(batch)).is_err() {
            return false;
        }
        m.free -= n;
        m.outstanding
            .extend(self.pending.drain(..n).map(|t| (t.id, t.attempt)));
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExexConfig, ExexExecutor, HtexConfig, HtexExecutor};
    use bytes::Bytes;
    use crossbeam::channel::{bounded, unbounded};
    use nexus::{Addr, Fabric};
    use parsl_core::error::TaskError;
    use parsl_core::executor::{Executor, ExecutorContext, TaskSpec};
    use parsl_core::registry::{AppOptions, AppRegistry};
    use parsl_core::types::{AppKind, ResourceSpec, TaskId, TenantId};
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const HEARTBEAT_PERIOD: Duration = Duration::from_millis(30);
    const HEARTBEAT_THRESHOLD: Duration = Duration::from_millis(150);

    /// A manager the interchange has declared lost flushes its results
    /// late: they are dropped, not forwarded. `k` tasks block on a gate
    /// inside `holder`'s workers; the `holder → ix` link goes dark past
    /// the heartbeat threshold, so each task comes back `ExecutorLost`
    /// exactly once; then the link is restored and the gate opened, so
    /// `holder` sends `k` results for attempts already settled. None may
    /// surface as a second outcome, and the outstanding gauge must settle
    /// at zero instead of being decremented twice.
    fn results_from_a_lost_manager_are_dropped(
        start: impl FnOnce(&Fabric, ExecutorContext) -> (Arc<dyn Executor>, Addr, Addr),
        k: usize,
    ) {
        let registry = AppRegistry::new();
        let (started_tx, started_rx) = unbounded::<()>();
        let (gate_tx, gate_rx) = bounded::<()>(0);
        let app = registry.register(
            "gated",
            AppKind::Native,
            "()->()",
            Arc::new(move |_| {
                let _ = started_tx.send(());
                let _ = gate_rx.recv(); // returns once the gate sender drops
                Ok(Vec::new())
            }),
            AppOptions::default(),
        );
        let (tx, rx) = unbounded();
        let fabric = Fabric::new();
        let (ex, holder, ix) = start(
            &fabric,
            ExecutorContext {
                completions: tx,
                registry: Arc::clone(&registry),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while ex.connected_workers() < k {
            assert!(Instant::now() < deadline, "workers never registered");
            std::thread::sleep(Duration::from_millis(5));
        }

        let tasks = (0..k as u64)
            .map(|i| TaskSpec {
                id: TaskId(i),
                app: Arc::clone(&app),
                args: Bytes::new(),
                resources: ResourceSpec::default(),
                attempt: 0,
                tenant: TenantId::DEFAULT,
                items: 1,
            })
            .collect();
        ex.submit_batch(tasks).unwrap();
        for _ in 0..k {
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every task reaches a worker");
        }

        fabric.drop_link(&holder, &ix);
        let mut lost = HashSet::new();
        while lost.len() < k {
            for o in rx
                .recv_timeout(Duration::from_secs(10))
                .expect("loss reported")
            {
                assert!(
                    matches!(o.result, Err(TaskError::ExecutorLost(_))),
                    "expected ExecutorLost, got {:?}",
                    o.result
                );
                assert!(lost.insert((o.id, o.attempt)), "loss reported twice");
            }
        }
        assert_eq!(ex.outstanding(), 0);

        fabric.restore_link(&holder, &ix);
        drop(gate_tx);
        // The late results reach the interchange within milliseconds;
        // nothing may come out the other side.
        let second = rx.recv_timeout(4 * HEARTBEAT_THRESHOLD);
        let outstanding = ex.outstanding();
        // The interchange no longer knows `holder`, so its shutdown fan-out
        // misses it and the executor kills it instead.
        ex.shutdown();
        assert!(second.is_err(), "stale results forwarded: {second:?}");
        assert_eq!(outstanding, 0, "outstanding gauge decremented twice");
    }

    #[test]
    fn exex_drops_results_from_a_pool_it_declared_lost() {
        let k = 3;
        results_from_a_lost_manager_are_dropped(
            |fabric, ctx| {
                let exex = Arc::new(ExexExecutor::on_fabric(
                    ExexConfig {
                        ranks_per_pool: k + 1,
                        init_pools: 1,
                        heartbeat_period: HEARTBEAT_PERIOD,
                        heartbeat_threshold: HEARTBEAT_THRESHOLD,
                        ..Default::default()
                    },
                    fabric.clone(),
                ));
                exex.start(ctx).unwrap();
                let pool = exex.nodes().remove(0);
                (exex, pool, Addr::new("exex:ix"))
            },
            k,
        );
    }

    /// HTEX's in-proc manager exits one threshold after the interchange
    /// stops heartbeating it, so its late flush lands in that window.
    #[test]
    fn htex_drops_results_from_a_manager_it_declared_lost() {
        let k = 3;
        results_from_a_lost_manager_are_dropped(
            |fabric, ctx| {
                let htex = Arc::new(HtexExecutor::on_fabric(
                    HtexConfig {
                        workers_per_node: k,
                        prefetch: 0,
                        heartbeat_period: HEARTBEAT_PERIOD,
                        heartbeat_threshold: HEARTBEAT_THRESHOLD,
                        ..Default::default()
                    },
                    fabric.clone(),
                ));
                htex.start(ctx).unwrap();
                let node = htex.nodes().remove(0);
                (htex, node, Addr::new("htex:ix"))
            },
            k,
        );
    }
}
