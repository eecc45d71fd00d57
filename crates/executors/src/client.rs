//! The executor-client half shared by every wire executor (§4.3.1,
//! Figure 2a: "the executor client submits tasks and receives results on
//! behalf of the DataFlowKernel").
//!
//! HTEX (in all three of its shapes, LLEX and EXEX among them) and the
//! Dask/IPP baselines differ in what sits behind the broker address — an
//! interchange with managers, a central scheduler, a hub — but the half
//! that faces the DFK is the same: an outstanding-task gauge, one queue
//! into the broker, and joined threads for teardown. Each of those
//! executors owns one [`Client`].
//!
//! # One party, one queue
//!
//! The client and its broker share a process, so nothing between them is
//! encoded. [`Client::submit`], [`Client::submit_batch`], [`Client::send`]
//! and [`Client::command`] push [`Request`] values onto one FIFO channel,
//! which the broker drains. A task carries the kernel's argument bytes
//! ([`QueuedTask`]); the first and only copy of them in this process is
//! the manager frame the broker writes. Because there is one queue, a
//! `Cancel` or a command never overtakes the submit it follows. Batching
//! lives in the broker, beside its backlog and the managers' free slots
//! (§4.3.1 "configurable batching and prefetching of tasks to minimize
//! communication overheads"); no task waits in the client, or on a timer.
//!
//! The broker settles tasks itself: it turns each results frame it
//! accepts, each lost manager and each task cancelled before dispatch
//! into one completion batch through its [`Outcomes`], which also takes
//! them off the gauge. The plane carries only the broker's own peers, so
//! a peer on it cannot submit, cancel, retire or stop anything: those are
//! requests, and only the client makes requests.

use crate::proto::{
    outcomes_from_lost, outcomes_from_results, Command, CommandReply, QueuedTask, WireResult,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use nexus::{Addr, Port, Transport};
use parking_lot::Mutex;
use parsl_core::executor::{ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::registry::AppRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the client asks of its broker, in submit order on one queue.
#[derive(Debug)]
pub enum Request {
    /// One task.
    Task(QueuedTask),
    /// The tasks of one `submit_batch` call, in order.
    Tasks(Vec<QueuedTask>),
    /// Abandon one attempt (the losing half of a straggler hedge).
    /// Advisory: if the attempt is still queued the broker drops it and
    /// settles it "cancelled before dispatch"; if it already reached a
    /// manager the cancel is forwarded and the worker skips execution,
    /// but a result still flows back so held-task accounting stays
    /// intact.
    Cancel {
        /// DFK task id.
        id: u64,
        /// Attempt to abandon.
        attempt: u32,
    },
    /// Stop dispatching to one manager, then tell it to drain. Routing
    /// retirement through the broker (instead of telling the manager
    /// directly) closes the race where a task batch and a shutdown cross
    /// on the wire.
    Retire {
        /// The manager's address.
        node: Addr,
    },
    /// A synchronous administrative command (§4.3.1) and where its reply
    /// goes.
    Command(Command, Sender<CommandReply>),
    /// Stop the broker.
    Shutdown,
}

/// Where a broker settles tasks: the kernel's completion channel, and the
/// client's outstanding gauge, which each delivery decrements first.
#[derive(Clone)]
pub struct Outcomes {
    completions: Sender<Vec<TaskOutcome>>,
    outstanding: Arc<AtomicUsize>,
}

impl Outcomes {
    /// Deliver one results frame as one completion batch: the batching
    /// the managers did on the wire carries through the DFK's collector.
    /// False once the kernel is gone.
    pub fn results(&self, results: Vec<WireResult>) -> bool {
        self.settle(outcomes_from_results(results))
    }

    /// Deliver `(task, attempt)` pairs a lost counterparty held as one
    /// batch of `ExecutorLost` failures. False once the kernel is gone.
    pub fn lost(&self, tasks: Vec<(u64, u32)>, reason: &str) -> bool {
        self.settle(outcomes_from_lost(tasks, reason))
    }

    fn settle(&self, outcomes: Vec<TaskOutcome>) -> bool {
        if outcomes.is_empty() {
            return true;
        }
        self.outstanding
            .fetch_sub(outcomes.len(), Ordering::Relaxed);
        self.completions.send(outcomes).is_ok()
    }
}

/// The broker's side of a live client, from [`Client::start_on`].
pub struct Broker {
    /// The broker's port on the plane, for its managers or workers.
    pub port: Box<dyn Port>,
    /// The client's requests, in order.
    pub requests: Receiver<Request>,
    /// Rung after every request that is not a task, and closed with the
    /// client: a broker that cannot use more tasks for now (every slot
    /// taken) may wait on this instead of `requests`, so queued tasks cost
    /// no wake-up, and still obey a cancel, a command or a shutdown at
    /// once by draining `requests`.
    pub bell: Receiver<()>,
    /// Where the broker settles tasks.
    pub outcomes: Outcomes,
}

/// A started client's half of the queue.
struct Link {
    requests: Sender<Request>,
    bell: Sender<()>,
    registry: Arc<AppRegistry>,
}

impl Link {
    fn send(&self, request: Request) -> Result<(), ExecutorError> {
        let control = !matches!(request, Request::Task(_) | Request::Tasks(_));
        self.requests
            .send(request)
            .map_err(|_| ExecutorError::Comm("the broker has stopped".into()))?;
        if control {
            // One ring pending is enough: the broker drains every request.
            let _ = self.bell.try_send(());
        }
        Ok(())
    }
}

/// The client half of a wire executor. See module docs.
pub struct Client {
    ix_addr: Addr,
    outstanding: Arc<AtomicUsize>,
    link: Mutex<Option<Link>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Client {
    /// A stopped client for the executor `label`, whose broker
    /// (interchange, scheduler, hub) answers at `{label}:{broker}`.
    pub fn new(label: &str, broker: &str) -> Self {
        Client {
            ix_addr: Addr::new(format!("{label}:{broker}")),
            outstanding: Arc::new(AtomicUsize::new(0)),
            link: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// The broker's address on its plane.
    pub fn ix_addr(&self) -> &Addr {
        &self.ix_addr
    }

    /// The DFK's app registry, once started (worker-side app resolution).
    pub fn registry(&self) -> Option<Arc<AppRegistry>> {
        self.link.lock().as_ref().map(|l| Arc::clone(&l.registry))
    }

    /// Tasks submitted whose outcomes have not yet been delivered.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Go live: attach the broker's address to `plane` and hand back
    /// everything the caller's broker loop needs — its port, the request
    /// queue, and where to settle tasks (`ctx.completions`).
    pub fn start_on(
        &self,
        plane: &dyn Transport,
        ctx: ExecutorContext,
    ) -> Result<Broker, ExecutorError> {
        let mut link = self.link.lock();
        if link.is_some() {
            return Err(ExecutorError::Rejected("already started".into()));
        }
        let port = plane
            .attach(self.ix_addr.clone())
            .map_err(|e| ExecutorError::Comm(e.to_string()))?;
        let (requests, inbox) = unbounded();
        let (bell, rung) = bounded(1);
        *link = Some(Link {
            requests,
            bell,
            registry: ctx.registry,
        });
        Ok(Broker {
            port,
            requests: inbox,
            bell: rung,
            outcomes: Outcomes {
                completions: ctx.completions,
                outstanding: Arc::clone(&self.outstanding),
            },
        })
    }

    /// Spawn a named thread that [`Client::shutdown`] joins (brokers and
    /// the baselines' workers).
    pub fn spawn(
        &self,
        name: String,
        f: impl FnOnce() + Send + 'static,
    ) -> Result<(), ExecutorError> {
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .map_err(|e| ExecutorError::Comm(e.to_string()))?;
        self.threads.lock().push(handle);
        Ok(())
    }

    /// Queue `request` behind everything before it, counting `tasks` more
    /// outstanding until the broker settles them.
    fn push(&self, request: Request, tasks: usize) -> Result<(), ExecutorError> {
        let link = self.link.lock();
        let link = link.as_ref().ok_or(ExecutorError::NotRunning)?;
        self.outstanding.fetch_add(tasks, Ordering::Relaxed);
        link.send(request).inspect_err(|_| {
            self.outstanding.fetch_sub(tasks, Ordering::Relaxed);
        })
    }

    /// Accept one task, in order behind everything submitted before.
    pub fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.push(Request::Task(QueuedTask::from_spec(task)), 1)
    }

    /// Accept a batch as one request, in order behind everything
    /// submitted before.
    pub fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let n = tasks.len();
        let tasks = tasks.into_iter().map(QueuedTask::from_spec).collect();
        self.push(Request::Tasks(tasks), n)
    }

    /// Send a control request (cancel, retire) behind every task
    /// submitted so far.
    pub fn send(&self, request: Request) -> Result<(), ExecutorError> {
        self.push(request, 0)
    }

    /// Synchronous administrative command (§4.3.1), answered behind every
    /// task submitted before it; times out after `wait`.
    pub fn command(&self, cmd: Command, wait: Duration) -> Result<CommandReply, ExecutorError> {
        let (reply, answer) = bounded(1);
        self.send(Request::Command(cmd, reply))?;
        answer
            .recv_timeout(wait)
            .map_err(|_| ExecutorError::Comm("command not answered".into()))
    }

    /// Stop: tell the broker, close the queue, join every thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if let Some(link) = self.link.lock().take() {
            let _ = link.send(Request::Shutdown);
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    //! The queue's properties, seen where they matter: in the frames a
    //! manager receives. Each rig runs a real interchange on a plane — a
    //! `Fabric`, or a `TcpHub` bound on loopback with every port
    //! hub-local, as HTEX attaches them over TCP — and the test plays the
    //! manager: it registers when it chooses, reads `Tasks` frames, and
    //! answers with `Results`. Tasks submitted before the manager
    //! registers wait at the interchange, so the frames they leave in do
    //! not depend on timing.

    use super::*;
    use crate::interchange::{interchange_loop, IxParams};
    use crate::proto::{decode, encode, ToInterchange, ToManager, WireTask};
    use bytes::Bytes;
    use nexus::{Fabric, FabricConfig, TcpHub};
    use parsl_core::registry::{AppOptions, RegisteredApp};
    use parsl_core::types::{AppKind, ResourceSpec, TaskId, TenantId};

    const WAIT: Duration = Duration::from_secs(10);

    struct Rig {
        client: Client,
        manager: Box<dyn Port>,
        outcomes: Receiver<Vec<TaskOutcome>>,
        app: Arc<RegisteredApp>,
    }

    fn context() -> (
        ExecutorContext,
        Receiver<Vec<TaskOutcome>>,
        Arc<RegisteredApp>,
    ) {
        let registry = AppRegistry::new();
        let app = registry.register(
            "never-run",
            AppKind::Native,
            "()->()",
            Arc::new(|_| Ok(Vec::new())),
            AppOptions::default(),
        );
        let (completions, outcomes) = unbounded();
        let ctx = ExecutorContext {
            completions,
            registry,
        };
        (ctx, outcomes, app)
    }

    /// An interchange sending at most `batch_size` tasks per frame, whose
    /// managers count as lost after `threshold` of silence, and the port
    /// of one manager that has not registered yet.
    fn rig_with(plane: &dyn Transport, batch_size: usize, threshold: Duration) -> Rig {
        let client = Client::new("t", "ix");
        let (ctx, outcomes, app) = context();
        let registry = Arc::clone(&ctx.registry);
        let broker = client.start_on(plane, ctx).unwrap();
        let params = IxParams {
            prefetch: 0,
            batch_size,
            max_frame_bytes: plane.max_frame_bytes(),
            heartbeat_period: threshold / 4,
            heartbeat_threshold: threshold,
            seed: 0,
            connected_workers: Arc::default(),
            draining_nodes: Arc::default(),
        };
        client
            .spawn("t-ix".into(), move || {
                interchange_loop(broker, registry, params);
            })
            .unwrap();
        let manager = plane.attach(Addr::new("t:mgr")).unwrap();
        Rig {
            client,
            manager,
            outcomes,
            app,
        }
    }

    fn rig(plane: &dyn Transport, batch_size: usize) -> Rig {
        rig_with(plane, batch_size, Duration::from_secs(60))
    }

    /// Both planes, with a frame budget of `max_frame_bytes`.
    fn planes(max_frame_bytes: usize) -> [Box<dyn Transport>; 2] {
        let fabric = Fabric::with_config(FabricConfig {
            max_frame_bytes,
            ..Default::default()
        });
        let hub = TcpHub::bind_with("127.0.0.1:0", max_frame_bytes).expect("bind loopback hub");
        [Box::new(fabric), Box::new(hub)]
    }

    fn spec(app: &Arc<RegisteredApp>, id: u64, args_len: usize) -> TaskSpec {
        TaskSpec {
            id: TaskId(id),
            app: Arc::clone(app),
            args: Bytes::from(vec![id as u8; args_len]),
            resources: ResourceSpec::default(),
            attempt: 0,
            tenant: TenantId::DEFAULT,
            items: 1,
        }
    }

    impl Rig {
        fn submit(&self, id: u64, args_len: usize) {
            self.client.submit(spec(&self.app, id, args_len)).unwrap();
        }

        fn submit_batch(&self, ids: std::ops::Range<u64>, args_len: usize) {
            let batch = ids.map(|id| spec(&self.app, id, args_len)).collect();
            self.client.submit_batch(batch).unwrap();
        }

        /// The manager announces itself with `capacity` slots.
        fn register(&self, port: &dyn Port, capacity: usize) {
            let name = port.addr().to_string();
            let held = Vec::new();
            let hello = ToInterchange::Register {
                name,
                capacity,
                held,
            };
            port.send(self.client.ix_addr(), encode(&hello)).unwrap();
        }

        /// The next `Tasks` frame at `port`: its payload size and tasks.
        fn next_tasks(&self, port: &dyn Port) -> (usize, Vec<WireTask>) {
            loop {
                let env = port.recv_timeout(WAIT).expect("a frame arrives");
                match decode(&env.payload).expect("interchange frames decode") {
                    ToManager::Tasks(tasks) => return (env.payload.len(), tasks),
                    ToManager::Apps(_) | ToManager::Heartbeat => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }

        /// Frames at the manager until `n` tasks have arrived.
        fn frames(&self, n: usize) -> Vec<(usize, Vec<u64>)> {
            let (mut frames, mut seen) = (Vec::new(), 0);
            while seen < n {
                let (bytes, tasks) = self.next_tasks(&*self.manager);
                seen += tasks.len();
                frames.push((bytes, tasks.iter().map(|t| t.id).collect()));
            }
            frames
        }

        /// Answer `ids` from `port` with one `Results` frame.
        fn reply(&self, port: &dyn Port, ids: &[u64]) {
            let results = ids
                .iter()
                .map(|&id| WireResult {
                    id,
                    attempt: 0,
                    outcome: Ok(Vec::new()),
                    worker: "w".into(),
                })
                .collect();
            let frame = encode(&ToInterchange::Results(results));
            port.send(self.client.ix_addr(), frame).unwrap();
        }

        /// Collect `n` outcomes from the completion channel.
        fn outcomes(&self, n: usize) -> Vec<TaskOutcome> {
            let mut got = Vec::new();
            while got.len() < n {
                got.extend(self.outcomes.recv_timeout(WAIT).expect("outcomes arrive"));
            }
            got
        }
    }

    fn ids(frames: &[(usize, Vec<u64>)]) -> Vec<u64> {
        frames
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// With a manager idle, each submit leaves at once as a `Tasks` frame
    /// of that one task, byte for byte serde's encoding of it; its result
    /// settles it and takes it off the gauge.
    #[test]
    fn idle_submit_leaves_in_one_tasks_frame() {
        let fabric = Fabric::new();
        let rig = rig(&fabric, 64);
        rig.register(&*rig.manager, 1);
        for id in 0..3 {
            rig.submit(id, 8);
            let env = loop {
                let env = rig.manager.recv_timeout(WAIT).expect("a frame arrives");
                if matches!(decode(&env.payload), Ok(ToManager::Tasks(_))) {
                    break env;
                }
            };
            let task = WireTask::from_spec(&spec(&rig.app, id, 8));
            assert_eq!(env.payload, encode(&ToManager::Tasks(vec![task])));
            rig.reply(&*rig.manager, &[id]);
            assert_eq!(rig.outcomes(1)[0].id, TaskId(id));
            assert_eq!(rig.client.outstanding(), 0);
        }
    }

    /// Single submits queued at the interchange leave `batch_size` to a
    /// frame, in submit order; answered, the gauge is back at zero.
    #[test]
    fn coalesced_frames_stop_at_max_tasks() {
        for plane in planes(1 << 18) {
            let rig = rig(&*plane, 8);
            for id in 0..100 {
                rig.submit(id, 8);
            }
            assert_eq!(rig.client.outstanding(), 100);
            rig.register(&*rig.manager, 1000);
            let frames = rig.frames(100);
            assert!(frames.iter().all(|(_, ids)| ids.len() <= 8));
            assert_eq!(frames.len(), 13, "100 tasks, 8 to a frame");
            let seen = ids(&frames);
            assert_eq!(
                seen,
                (0..100).collect::<Vec<u64>>(),
                "wire order is submit order"
            );
            rig.reply(&*rig.manager, &seen);
            let done: Vec<u64> = rig.outcomes(100).iter().map(|o| o.id.0).collect();
            assert_eq!(done, seen);
            assert_eq!(rig.client.outstanding(), 0);
        }
    }

    /// Fat arguments: the frame budget closes a frame at 3 tasks, long
    /// before `batch_size`.
    #[test]
    fn coalesced_frames_stop_at_the_frame_budget() {
        for plane in planes(4096) {
            let rig = rig(&*plane, 64);
            for id in 0..30 {
                rig.submit(id, 1000);
            }
            rig.register(&*rig.manager, 1000);
            let frames = rig.frames(30);
            assert!(frames.iter().all(|(bytes, _)| *bytes <= 4096));
            assert!(frames.iter().all(|(_, ids)| ids.len() <= 4));
            assert!(frames[0].1.len() >= 3, "{frames:?}");
            assert_eq!(ids(&frames), (0..30).collect::<Vec<u64>>());
        }
    }

    /// A task bigger than the frame budget still ships, alone, between
    /// the frames of the tasks around it.
    #[test]
    fn oversize_task_ships_alone() {
        let fabric = Fabric::with_config(FabricConfig {
            max_frame_bytes: 200,
            ..Default::default()
        });
        let rig = rig(&fabric, 64);
        for id in 0..3 {
            rig.submit(id, 8);
        }
        rig.submit(3, 4096);
        rig.submit_batch(4..6, 8);
        rig.register(&*rig.manager, 1000);
        let frames = rig.frames(6);
        let alone: Vec<&(usize, Vec<u64>)> = frames.iter().filter(|(b, _)| *b > 200).collect();
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].1, vec![3]);
        assert!(alone[0].0 > 4096);
        assert_eq!(ids(&frames), (0..6).collect::<Vec<u64>>());
    }

    /// One batch wider than `batch_size` spans frames, each full, in
    /// order, and the gauge counts the whole batch.
    #[test]
    fn one_batch_spans_frames_in_order() {
        let fabric = Fabric::new();
        let rig = rig(&fabric, 10);
        rig.submit_batch(0..100, 60);
        assert_eq!(rig.client.outstanding(), 100);
        rig.register(&*rig.manager, 1000);
        let frames = rig.frames(100);
        assert!(frames.iter().all(|(_, ids)| ids.len() == 10));
        assert_eq!(ids(&frames), (0..100).collect::<Vec<u64>>());
    }

    /// A batch queues behind the single submits before it.
    #[test]
    fn batch_leaves_behind_held_tasks() {
        for plane in planes(1 << 18) {
            let rig = rig(&*plane, 64);
            for id in 0..4 {
                rig.submit(id, 8);
            }
            rig.submit_batch(4..7, 8);
            rig.register(&*rig.manager, 1000);
            assert_eq!(ids(&rig.frames(7)), (0..7).collect::<Vec<u64>>());
        }
    }

    /// A cancel and a command travel behind the submits before them: the
    /// cancel finds its task still queued and settles it "cancelled
    /// before dispatch", and the command counts every other task.
    #[test]
    fn cancel_never_overtakes_its_submit() {
        for plane in planes(1 << 18) {
            let rig = rig(&*plane, 64);
            rig.register(&*rig.manager, 0); // no slots: everything stays queued
            for id in 0..3 {
                rig.submit(id, 8);
            }
            rig.submit_batch(3..5, 8);
            for id in [2, 4] {
                rig.client.send(Request::Cancel { id, attempt: 0 }).unwrap();
            }
            let reply = rig.client.command(Command::OutstandingInfo, WAIT).unwrap();
            assert_eq!(reply, CommandReply::Outstanding(3));
            let cancelled = rig.outcomes(2);
            for (o, id) in cancelled.iter().zip([2, 4]) {
                assert_eq!(o.id, TaskId(id));
                let err = format!("{:?}", o.result.as_ref().unwrap_err());
                assert!(err.contains("cancelled before dispatch"), "{err}");
            }
            assert_eq!(rig.client.outstanding(), 3);
        }
    }

    /// A burst queued while two managers have room is split evenly
    /// between them, in order within each, rather than filling whichever
    /// one a random pick names first.
    #[test]
    fn a_burst_spreads_over_every_free_manager() {
        let fabric = Fabric::new();
        let rig = rig(&fabric, 64);
        let second = fabric.bind(Addr::new("t:mgr-2")).unwrap();
        rig.register(&*rig.manager, 100);
        rig.register(&second, 100);
        let both = CommandReply::Workers(200);
        while rig.client.command(Command::ConnectedWorkers, WAIT).unwrap() != both {}
        rig.submit_batch(0..40, 8);
        let mine = ids(&rig.frames(20));
        let mut theirs = Vec::new();
        while theirs.len() < 20 {
            theirs.extend(rig.next_tasks(&second).1.iter().map(|t| t.id));
        }
        assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
        assert!(theirs.windows(2).all(|w| w[0] < w[1]), "{theirs:?}");
        let mut all = [mine, theirs].concat();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<u64>>());
    }

    /// `batch_size: 1` (LLEX) never coalesces: one task per frame however
    /// many are queued.
    #[test]
    fn max_tasks_one_never_coalesces() {
        let fabric = Fabric::new();
        let rig = rig(&fabric, 1);
        for id in 0..20 {
            rig.submit(id, 8);
        }
        rig.register(&*rig.manager, 1000);
        let frames = rig.frames(20);
        assert_eq!(frames.len(), 20);
        assert_eq!(ids(&frames), (0..20).collect::<Vec<u64>>());
    }

    /// Once the broker has stopped, a submit fails and the gauge does not
    /// count it; after shutdown the client is not running.
    #[test]
    fn submit_fails_once_the_broker_is_gone() {
        let fabric = Fabric::new();
        let rig = rig(&fabric, 64);
        rig.submit(0, 8);
        let ack = rig.client.command(Command::ShutdownExecutor, WAIT).unwrap();
        assert_eq!(ack, CommandReply::Ack);
        // The interchange drops its end of the queue as it returns.
        let deadline = std::time::Instant::now() + WAIT;
        let refused = loop {
            match rig.client.submit(spec(&rig.app, 1, 8)) {
                Ok(()) => assert!(std::time::Instant::now() < deadline, "still accepted"),
                Err(e) => break e,
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(matches!(refused, ExecutorError::Comm(_)), "{refused:?}");
        let accepted_before = rig.client.outstanding();
        assert!(rig.client.submit(spec(&rig.app, 2, 8)).is_err());
        assert_eq!(rig.client.outstanding(), accepted_before);
        rig.client.shutdown();
        let after = rig.client.submit(spec(&rig.app, 3, 8));
        assert!(matches!(after, Err(ExecutorError::NotRunning)), "{after:?}");
    }

    /// A manager whose port died takes nothing: its frames are refused,
    /// its tasks stay queued, and once it is found lost they all go to
    /// the next manager, in order. None of them settles as lost.
    #[test]
    fn refused_tasks_frame_keeps_its_tasks_queued() {
        let fabric = Fabric::new();
        let rig = rig_with(&fabric, 64, Duration::from_millis(200));
        rig.register(&*rig.manager, 1000);
        let deadline = std::time::Instant::now() + WAIT;
        while rig.client.command(Command::ConnectedWorkers, WAIT).unwrap()
            != CommandReply::Workers(1000)
        {
            assert!(std::time::Instant::now() < deadline, "never registered");
        }
        fabric.kill(rig.manager.addr());
        rig.submit_batch(0..5, 8);
        let successor = fabric.bind(Addr::new("t:mgr-2")).unwrap();
        rig.register(&successor, 1000);
        // The successor heartbeats while it waits, so only the dead
        // manager goes silent past the threshold.
        let heartbeat = encode(&ToInterchange::Heartbeat {
            name: "t:mgr-2".into(),
        });
        let mut seen = Vec::new();
        while seen.len() < 5 {
            assert!(std::time::Instant::now() < deadline, "tasks never moved");
            successor
                .send(rig.client.ix_addr(), heartbeat.clone())
                .unwrap();
            if let Ok(env) = successor.recv_timeout(Duration::from_millis(20)) {
                if let Ok(ToManager::Tasks(tasks)) = decode(&env.payload) {
                    seen.extend(tasks.iter().map(|t| t.id));
                }
            }
        }
        assert_eq!(seen, (0..5).collect::<Vec<u64>>());
        assert!(rig.outcomes.try_recv().is_err(), "a queued task settled");
        assert_eq!(rig.client.outstanding(), 5);
        rig.reply(&successor, &seen);
        let done: Vec<u64> = rig.outcomes(5).iter().map(|o| o.id.0).collect();
        assert_eq!(done, seen);
        assert_eq!(rig.client.outstanding(), 0);
    }
}
