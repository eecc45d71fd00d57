//! The interchange: the broker between an executor client and its
//! managers (§4.3.1, Figure 2a).
//!
//! It queues submitted tasks, matches them to managers with advertised
//! capacity using randomized selection for fairness, tracks which
//! `(task, attempt)` pairs each manager holds, relays result batches,
//! answers the synchronous command channel, and watches heartbeats: a
//! manager silent past the threshold is dropped and its held tasks are
//! reported to the client so the DFK can retry them. Results from a
//! manager the interchange no longer accounts for are discarded.
//!
//! Every executor shape runs it: HTEX's managers feed worker threads,
//! EXEX's are MPI pool leaders ("identical broker role", §4.3.2) with
//! `prefetch: 0`, and LLEX's run one task at a time inline with no
//! heartbeat expiry.

use crate::proto::{
    decode, encode, Command, CommandReply, ToClient, ToInterchange, ToManager, WireApp, WireResult,
    WireTask,
};
use nexus::{Addr, Port};
use parsl_core::error::AppError;
use parsl_core::registry::{AppId, AppRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the interchange reads from the executor that runs it.
pub struct IxParams {
    /// Where results and lost-manager reports go.
    pub client_addr: Addr,
    /// Slots a manager advertises beyond its workers; subtracted from a
    /// registering manager's capacity to count its workers.
    pub prefetch: usize,
    /// Largest task batch sent to a manager at once.
    pub batch_size: usize,
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
    /// Checked between receives; set by the client's shutdown.
    pub stop: Arc<AtomicBool>,
}

struct ManagerInfo {
    free: usize,
    workers: usize,
    last_seen: Instant,
    outstanding: HashMap<(u64, u32), ()>,
    /// App ids already advertised to this manager (remote workers bind
    /// builtins by name on first sight; in-proc managers ignore these).
    advertised: HashSet<u64>,
}

/// One retiring node finished draining (deregistered, was lost, or never
/// existed); saturating so a stray decrement can't wrap the gauge.
fn node_drained(draining_nodes: &AtomicUsize) {
    let _ = draining_nodes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
}

/// Run the interchange on `ep` until a `Shutdown` frame, a
/// `ShutdownExecutor` command or `p.stop`; registered managers are told to
/// shut down on the way out. Returns the managers so told: the executor
/// kills every other node it started. `registry` resolves app ids for
/// advertisement.
pub fn interchange_loop(ep: Box<dyn Port>, registry: Arc<AppRegistry>, p: IxParams) -> Vec<Addr> {
    let mut pending: VecDeque<WireTask> = VecDeque::new();
    let mut managers: HashMap<Addr, ManagerInfo> = HashMap::new();
    let mut blacklist: HashSet<Addr> = HashSet::new();
    let mut draining: HashSet<Addr> = HashSet::new();
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut last_hb_out = Instant::now();

    loop {
        if p.stop.load(Ordering::Acquire) {
            break;
        }
        let msg = ep.recv_timeout(p.heartbeat_period / 2);
        let now = Instant::now();

        if let Ok(env) = msg {
            match decode::<ToInterchange>(&env.payload) {
                Ok(ToInterchange::Submit(task)) => {
                    pending.push_back(task);
                }
                Ok(ToInterchange::SubmitBatch(tasks)) => {
                    pending.extend(tasks);
                }
                Ok(ToInterchange::Register {
                    name: _,
                    capacity,
                    held,
                }) => {
                    if let Some(m) = managers.get_mut(&env.from) {
                        // Re-register after a link drop: keep the
                        // accounting, reconcile against what the manager
                        // actually still holds, and report anything that
                        // died in the gap as lost so the DFK retries it.
                        let held: HashSet<(u64, u32)> = held.into_iter().collect();
                        let vanished: Vec<(u64, u32)> = m
                            .outstanding
                            .keys()
                            .filter(|k| !held.contains(k))
                            .copied()
                            .collect();
                        for k in &vanished {
                            m.outstanding.remove(k);
                        }
                        m.free = capacity.saturating_sub(m.outstanding.len());
                        m.last_seen = now;
                        if !vanished.is_empty() {
                            let _ = ep.send(
                                &p.client_addr,
                                encode(&ToClient::ManagerLost {
                                    name: env.from.to_string(),
                                    tasks: vanished,
                                }),
                            );
                        }
                    } else {
                        let workers = capacity.saturating_sub(p.prefetch);
                        p.connected_workers.fetch_add(workers, Ordering::Relaxed);
                        managers.insert(
                            env.from.clone(),
                            ManagerInfo {
                                free: capacity,
                                workers,
                                last_seen: now,
                                outstanding: HashMap::new(),
                                advertised: HashSet::new(),
                            },
                        );
                    }
                }
                Ok(ToInterchange::Capacity { name: _, free }) => {
                    if let Some(m) = managers.get_mut(&env.from) {
                        m.free = free;
                        m.last_seen = now;
                    }
                }
                Ok(ToInterchange::Results(results)) => {
                    // Forward only results this interchange still accounts
                    // for. A manager declared lost (its tasks already
                    // reported and retried) may reconnect and flush stale
                    // results; forwarding those would double-finalize
                    // attempts and corrupt the client's outstanding gauge.
                    if let Some(m) = managers.get_mut(&env.from) {
                        let known: Vec<_> = results
                            .into_iter()
                            .filter(|r| m.outstanding.remove(&(r.id, r.attempt)).is_some())
                            .collect();
                        m.free += known.len();
                        m.last_seen = now;
                        if !known.is_empty() {
                            let _ = ep.send(&p.client_addr, encode(&ToClient::Results(known)));
                        }
                    }
                }
                Ok(ToInterchange::Heartbeat { name: _ }) => {
                    if let Some(m) = managers.get_mut(&env.from) {
                        m.last_seen = now;
                    }
                }
                Ok(ToInterchange::Retire { name }) => {
                    let addr = Addr::new(&name);
                    if managers.contains_key(&addr) {
                        // Stop dispatching first, then tell the manager to
                        // drain; same-pair FIFO means any batch sent before
                        // this instant arrives before the shutdown.
                        draining.insert(addr.clone());
                        let _ = ep.send(&addr, encode(&ToManager::Shutdown));
                    } else {
                        // Manager already gone (or never registered): the
                        // drain is trivially complete.
                        node_drained(&p.draining_nodes);
                    }
                }
                Ok(ToInterchange::Cancel { id, attempt }) => {
                    if let Some(pos) = pending
                        .iter()
                        .position(|t| t.id == id && t.attempt == attempt)
                    {
                        // Never dispatched: drop it here and synthesize a
                        // failed result so the client's outstanding gauge
                        // settles (the DFK's attempt filter discards it).
                        pending.remove(pos);
                        let _ = ep.send(
                            &p.client_addr,
                            encode(&ToClient::Results(vec![WireResult {
                                id,
                                attempt,
                                outcome: Err(AppError::msg("cancelled before dispatch")),
                                worker: String::new(),
                            }])),
                        );
                    } else if let Some(addr) = managers
                        .iter()
                        .find(|(_, m)| m.outstanding.contains_key(&(id, attempt)))
                        .map(|(a, _)| a.clone())
                    {
                        let _ = ep.send(&addr, encode(&ToManager::Cancel { id, attempt }));
                    }
                }
                Ok(ToInterchange::Deregister { name: _ }) => {
                    if draining.remove(&env.from) {
                        node_drained(&p.draining_nodes);
                    }
                    if let Some(m) = managers.remove(&env.from) {
                        p.connected_workers.fetch_sub(m.workers, Ordering::Relaxed);
                        // A graceful manager has already flushed results;
                        // anything still marked outstanding is reported.
                        if !m.outstanding.is_empty() {
                            let tasks: Vec<(u64, u32)> = m.outstanding.keys().copied().collect();
                            let _ = ep.send(
                                &p.client_addr,
                                encode(&ToClient::ManagerLost {
                                    name: env.from.to_string(),
                                    tasks,
                                }),
                            );
                        }
                    }
                }
                Ok(ToInterchange::Command(cmd)) => {
                    let reply = match cmd {
                        Command::OutstandingInfo => {
                            let queued = pending.len();
                            let running: usize =
                                managers.values().map(|m| m.outstanding.len()).sum();
                            CommandReply::Outstanding(queued + running)
                        }
                        Command::ConnectedWorkers => {
                            CommandReply::Workers(p.connected_workers.load(Ordering::Relaxed))
                        }
                        Command::Blacklist(name) => {
                            blacklist.insert(Addr::new(name));
                            CommandReply::Ack
                        }
                        Command::ShutdownExecutor => {
                            let _ = ep.send(
                                &env.from,
                                encode(&ToClient::CommandReply(CommandReply::Ack)),
                            );
                            break;
                        }
                    };
                    let _ = ep.send(&env.from, encode(&ToClient::CommandReply(reply)));
                }
                Ok(ToInterchange::Shutdown) => break,
                Err(_) => { /* corrupt frame; drop, like a real broker */ }
            }
        }

        // Heartbeats out to managers.
        if now.duration_since(last_hb_out) >= p.heartbeat_period {
            last_hb_out = now;
            for addr in managers.keys() {
                let _ = ep.send(addr, encode(&ToManager::Heartbeat));
            }
        }

        // Detect lost managers (§4.3.1) and surface their tasks.
        let lost: Vec<Addr> = managers
            .iter()
            .filter(|(_, m)| now.duration_since(m.last_seen) > p.heartbeat_threshold)
            .map(|(a, _)| a.clone())
            .collect();
        for addr in lost {
            let m = managers.remove(&addr).expect("present");
            if draining.remove(&addr) {
                node_drained(&p.draining_nodes);
            }
            p.connected_workers.fetch_sub(m.workers, Ordering::Relaxed);
            let tasks: Vec<(u64, u32)> = m.outstanding.keys().copied().collect();
            let _ = ep.send(
                &p.client_addr,
                encode(&ToClient::ManagerLost {
                    name: addr.to_string(),
                    tasks,
                }),
            );
        }

        // Dispatch: match queued tasks to managers with capacity, picking
        // managers at random for fairness.
        while !pending.is_empty() {
            let candidates: Vec<Addr> = managers
                .iter()
                .filter(|(a, m)| m.free > 0 && !blacklist.contains(a) && !draining.contains(a))
                .map(|(a, _)| a.clone())
                .collect();
            if candidates.is_empty() {
                break;
            }
            let pick = &candidates[rng.random_range(0..candidates.len())];
            let m = managers.get_mut(pick).expect("candidate exists");
            let n = p.batch_size.min(m.free).min(pending.len());
            let batch: Vec<WireTask> = pending.drain(..n).collect();

            // Advertise apps this manager hasn't seen before their tasks:
            // same-pair FIFO guarantees the worker binds the ids first.
            let mut new_app_ids: Vec<u64> = batch
                .iter()
                .map(|t| t.app_id)
                .filter(|id| !m.advertised.contains(id))
                .collect();
            new_app_ids.sort_unstable();
            new_app_ids.dedup();
            let new_apps: Vec<WireApp> = new_app_ids
                .iter()
                .filter_map(|id| registry.get(AppId(*id)))
                .map(|app| WireApp {
                    id: app.id.0,
                    name: app.name.to_string(),
                    signature: app.signature.to_string(),
                })
                .collect();
            if !new_apps.is_empty() && ep.send(pick, encode(&ToManager::Apps(new_apps))).is_err() {
                for t in batch.into_iter().rev() {
                    pending.push_front(t);
                }
                break;
            }
            let m = managers.get_mut(pick).expect("candidate exists");
            m.advertised.extend(new_app_ids);

            for t in &batch {
                m.outstanding.insert((t.id, t.attempt), ());
            }
            m.free -= n;
            let msg = ToManager::Tasks(batch);
            if ep.send(pick, encode(&msg)).is_err() {
                // Manager's endpoint died between heartbeat checks; requeue
                // and let the loss path clean up.
                let ToManager::Tasks(batch) = msg else {
                    unreachable!("built as Tasks above")
                };
                let m = managers.get_mut(pick).expect("candidate exists");
                for t in batch.into_iter().rev() {
                    m.outstanding.remove(&(t.id, t.attempt));
                    pending.push_front(t);
                }
                break;
            }
        }
    }

    managers
        .into_keys()
        .filter(|addr| ep.send(addr, encode(&ToManager::Shutdown)).is_ok())
        .collect()
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
