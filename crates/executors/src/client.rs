//! The executor-client half shared by every wire executor (§4.3.1,
//! Figure 2a: "the executor client submits tasks and receives results on
//! behalf of the DataFlowKernel").
//!
//! HTEX (in all three of its shapes, LLEX and EXEX among them) and the
//! Dask/IPP baselines differ in what sits behind the broker address — an
//! interchange with managers, a central scheduler, a hub — but the half
//! that faces the DFK is the same: a port on the message plane, an
//! outstanding-task gauge, a receive thread turning `ToClient` frames
//! into completion batches, and a stop flag plus joined threads for
//! teardown. Each of those executors owns one [`Client`].
//!
//! # The outbox
//!
//! Every submit goes through one outbox, under one lock, so submit order
//! is wire order. [`Client::submit`] without a [`Cover`] and
//! [`Client::submit_batch`] empty it before they return. `submit` with a
//! `Cover` (HTEX) may leave its task there: a task that would queue
//! behind a broker backlog already twice the registered slots cannot
//! start sooner by leaving now, so it waits for company and the outbox
//! ships as one `SubmitBatch` frame (§4.3.1 "configurable batching ... to
//! minimize communication overheads", applied to callers that submit one
//! task at a time). With nothing outstanding the rule never holds, and
//! the task leaves in the calling thread as the same `Submit` frame as
//! ever.
//!
//! A held outbox is flushed
//! - by the next `submit`, once the backlog no longer covers the slots,
//!   the outbox reaches [`Cover::max_tasks`], or the new task would
//!   overflow [`Cover::max_frame_bytes`]; and by `submit_batch`, ahead of
//!   its own frames;
//! - by the receive thread after every frame from the broker (a results
//!   frame is the moment the backlog shrank) and on its 50 ms receive
//!   timeout. A held task sits behind at least two slots' worth of sent
//!   ones, so results keep coming while it waits; the timeout bounds the
//!   wait when they do not;
//! - before every control message ([`Client::send`], [`Client::command`],
//!   shutdown), so a `Cancel` or an `OutstandingInfo` never overtakes the
//!   submit it refers to.
//!
//! A frame the port refuses fails every task in it: the gauge is rolled
//! back, tasks whose submit call had already returned `Ok` are delivered
//! as `ExecutorLost` outcomes by whichever thread flushed, and the tasks
//! of the call in progress fail that call.

use crate::proto::{
    decode, encode, outcomes_from_lost, outcomes_from_results, Command, CommandReply, ToClient,
    ToInterchange, WireTask,
};
use crossbeam::channel::{bounded, Sender};
use nexus::{Addr, Port, Transport};
use parking_lot::Mutex;
use parsl_core::executor::{ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::registry::AppRegistry;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Reply slot for the synchronous command channel, shared with the
/// receive thread.
type CommandSlot = Arc<Mutex<Option<Sender<CommandReply>>>>;

/// What lets [`Client::submit`] hold a task back, and what caps the frame
/// it is held for. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Cover {
    /// Task slots registered behind the broker (Σ manager capacity:
    /// workers plus prefetch). A task is held only while the tasks already
    /// sent and not yet answered number at least twice this. A broker
    /// still waiting for its first manager counts as one slot, so the
    /// first tasks leave at once.
    pub slots: usize,
    /// Most tasks a held outbox may reach before it is sent; 1 never
    /// holds.
    pub max_tasks: usize,
    /// The transport's frame budget: no frame of more than one task
    /// exceeds it, by [`WireTask::encoded_size_hint`].
    pub max_frame_bytes: usize,
}

/// Tasks accepted and not yet on the wire, in submit order. Between calls
/// it holds only single submits a [`Cover`] let wait, fewer than its
/// `max_tasks`; inside `submit_batch` it is the frame being filled.
#[derive(Default)]
struct Outbox {
    tasks: Vec<WireTask>,
    /// Σ `encoded_size_hint` over `tasks`.
    bytes: usize,
}

impl Outbox {
    /// Whether `task` can join the frame being filled: a frame always
    /// takes its first task, so an oversized task still ships, alone.
    fn fits(&self, task: &WireTask, max_frame_bytes: usize) -> bool {
        self.tasks.is_empty() || self.bytes + task.encoded_size_hint() <= max_frame_bytes
    }

    fn push(&mut self, task: WireTask) {
        self.bytes += task.encoded_size_hint();
        self.tasks.push(task);
    }
}

/// The sending half of a live client, shared by the submitting threads
/// and the receive thread.
struct Link {
    port: Arc<dyn Port>,
    ix_addr: Addr,
    outstanding: Arc<AtomicUsize>,
    ctx: ExecutorContext,
    outbox: Mutex<Outbox>,
}

impl Link {
    /// Send the outbox as one frame: a lone task as `Submit`, more as
    /// `SubmitBatch`. If the port refuses it, every task in it comes off
    /// the gauge and the first `held` of them — the ones whose submit call
    /// has already returned `Ok` — settle as `ExecutorLost`.
    fn flush(&self, outbox: &mut Outbox, held: usize) -> Result<(), ExecutorError> {
        outbox.bytes = 0;
        let msg = match outbox.tasks.len() {
            0 => return Ok(()),
            // `pop` keeps the allocation for the next lone task.
            1 => ToInterchange::Submit(outbox.tasks.pop().expect("len checked")),
            _ => ToInterchange::SubmitBatch(std::mem::take(&mut outbox.tasks)),
        };
        self.port.send(&self.ix_addr, encode(&msg)).map_err(|e| {
            let tasks = match msg {
                ToInterchange::Submit(task) => vec![task],
                ToInterchange::SubmitBatch(tasks) => tasks,
                _ => unreachable!("built as a submit above"),
            };
            self.outstanding.fetch_sub(tasks.len(), Ordering::Relaxed);
            let lost: Vec<(u64, u32)> =
                tasks.iter().take(held).map(|t| (t.id, t.attempt)).collect();
            if !lost.is_empty() {
                let reason = format!("submit frame refused: {e}");
                let _ = self.ctx.completions.send(outcomes_from_lost(lost, &reason));
            }
            ExecutorError::Comm(e.to_string())
        })
    }

    /// Flush an outbox in which every task's submit call has returned.
    /// The error is dropped: the tasks have settled as lost, and whatever
    /// the caller sends next meets the same port.
    fn flush_held(&self, outbox: &mut Outbox) {
        let _ = self.flush(outbox, usize::MAX);
    }

    /// Accept one task behind whatever is held, and send the outbox
    /// unless `cover` holds it back.
    fn submit(&self, spec: &TaskSpec, cover: Option<Cover>) -> Result<(), ExecutorError> {
        let task = WireTask::from_spec(spec);
        let mut outbox = self.outbox.lock();
        // Without a cover the task joins no held frame: it ships alone.
        if !outbox.fits(&task, cover.map_or(0, |c| c.max_frame_bytes)) {
            self.flush_held(&mut outbox);
        }
        let held = outbox.tasks.len();
        outbox.push(task);
        let outstanding = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(c) = cover {
            let at_broker = outstanding.saturating_sub(outbox.tasks.len());
            let covered = at_broker >= c.slots.max(1).saturating_mul(2);
            if covered && outbox.tasks.len() < c.max_tasks {
                return Ok(());
            }
        }
        self.flush(&mut outbox, held)
    }

    /// Send `specs` now, behind whatever is held: one frame per
    /// `max_frame_bytes` of tasks.
    fn submit_batch(
        &self,
        specs: &[TaskSpec],
        max_frame_bytes: usize,
    ) -> Result<(), ExecutorError> {
        let mut outbox = self.outbox.lock();
        self.flush_held(&mut outbox);
        self.outstanding.fetch_add(specs.len(), Ordering::Relaxed);
        for (i, spec) in specs.iter().enumerate() {
            let task = WireTask::from_spec(spec);
            if !outbox.fits(&task, max_frame_bytes) {
                if let Err(e) = self.flush(&mut outbox, 0) {
                    // Tasks `i..` never reached the outbox.
                    self.outstanding
                        .fetch_sub(specs.len() - i, Ordering::Relaxed);
                    return Err(e);
                }
            }
            outbox.push(task);
        }
        self.flush(&mut outbox, 0)
    }

    /// Send a control message behind everything submitted so far.
    fn send(&self, msg: &ToInterchange) -> Result<(), ExecutorError> {
        let mut outbox = self.outbox.lock();
        self.flush_held(&mut outbox);
        self.port
            .send(&self.ix_addr, encode(msg))
            .map_err(|e| ExecutorError::Comm(e.to_string()))
    }
}

/// The client half of a wire executor. See module docs.
pub struct Client {
    ix_addr: Addr,
    client_addr: Addr,
    outstanding: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    command_reply: CommandSlot,
    link: Mutex<Option<Arc<Link>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Client {
    /// A stopped client for the executor `label`, whose broker
    /// (interchange, scheduler, hub) answers at `{label}:{broker}` and
    /// whose own mailbox is `{label}:client`.
    pub fn new(label: &str, broker: &str) -> Self {
        Client {
            ix_addr: Addr::new(format!("{label}:{broker}")),
            client_addr: Addr::new(format!("{label}:client")),
            outstanding: Arc::new(AtomicUsize::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            command_reply: Arc::new(Mutex::new(None)),
            link: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// The broker's address.
    pub fn ix_addr(&self) -> &Addr {
        &self.ix_addr
    }

    /// The address the broker sends results to; bind the port passed to
    /// [`Client::start`] here.
    pub fn client_addr(&self) -> &Addr {
        &self.client_addr
    }

    /// Set by [`Client::shutdown`]; broker loops poll it between receives.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The DFK's app registry, once started (worker-side app resolution).
    pub fn registry(&self) -> Option<Arc<AppRegistry>> {
        self.link
            .lock()
            .as_ref()
            .map(|l| Arc::clone(&l.ctx.registry))
    }

    /// Tasks submitted whose outcomes have not yet been delivered.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Go live on `port` (bound at [`Client::client_addr`]) and spawn the
    /// receive thread delivering to `ctx.completions`. `lost_noun` names
    /// the broker's counterparties in `ExecutorLost` reasons ("manager",
    /// "MPI pool", ...).
    pub fn start(
        &self,
        port: Arc<dyn Port>,
        ctx: ExecutorContext,
        lost_noun: &'static str,
    ) -> Result<(), ExecutorError> {
        let link = {
            let mut slot = self.link.lock();
            if slot.is_some() {
                return Err(ExecutorError::Rejected("already started".into()));
            }
            let link = Arc::new(Link {
                port,
                ix_addr: self.ix_addr.clone(),
                outstanding: Arc::clone(&self.outstanding),
                ctx,
                outbox: Mutex::default(),
            });
            *slot = Some(Arc::clone(&link));
            link
        };
        let stop = self.stop_flag();
        let command_reply = Arc::clone(&self.command_reply);
        self.spawn(format!("{}-recv", self.client_addr), move || {
            recv_loop(&link, &stop, lost_noun, &command_reply)
        })
    }

    /// [`Client::start`] on the broker's own plane: attach both addresses
    /// to `plane`, go live on the client one, and hand back the broker's
    /// port for the caller's broker loop. Client and broker share the
    /// process, so on a [`nexus::TcpHub`] both are hub-local ports and a
    /// frame between them is one channel send; only the broker's remote
    /// peers sit behind sockets.
    pub fn start_on(
        &self,
        plane: &dyn Transport,
        ctx: ExecutorContext,
        lost_noun: &'static str,
    ) -> Result<Box<dyn Port>, ExecutorError> {
        let attach = |addr: &Addr| {
            plane
                .attach(addr.clone())
                .map_err(|e| ExecutorError::Comm(e.to_string()))
        };
        let broker = attach(&self.ix_addr)?;
        self.start(Arc::from(attach(&self.client_addr)?), ctx, lost_noun)?;
        Ok(broker)
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

    fn link(&self) -> Result<Arc<Link>, ExecutorError> {
        self.link.lock().clone().ok_or(ExecutorError::NotRunning)
    }

    /// Accept one task, in order behind everything submitted before.
    /// Without a `cover` it has left as its own `Submit` frame when this
    /// returns; with one it may wait in the outbox (module docs), which
    /// only a broker that decodes `SubmitBatch` can take.
    pub fn submit(&self, task: &TaskSpec, cover: Option<Cover>) -> Result<(), ExecutorError> {
        self.link()?.submit(task, cover)
    }

    /// Ship a batch now, behind everything submitted before, as
    /// `SubmitBatch` frames — one message per `max_frame_bytes` of tasks
    /// instead of one per task (§4.3.1 "configurable batching ... to
    /// minimize communication overheads"). Only for brokers that decode
    /// `SubmitBatch`.
    pub fn submit_batch(
        &self,
        tasks: &[TaskSpec],
        max_frame_bytes: usize,
    ) -> Result<(), ExecutorError> {
        self.link()?.submit_batch(tasks, max_frame_bytes)
    }

    /// Send a control message (cancel, retire) to the broker, behind
    /// every task submitted so far.
    pub fn send(&self, msg: &ToInterchange) -> Result<(), ExecutorError> {
        self.link()?.send(msg)
    }

    /// Synchronous administrative command (§4.3.1): one in flight at a
    /// time, times out after `wait`.
    pub fn command(&self, cmd: Command, wait: Duration) -> Result<CommandReply, ExecutorError> {
        let (tx, rx) = bounded(1);
        {
            let mut slot = self.command_reply.lock();
            if slot.is_some() {
                return Err(ExecutorError::Rejected("command already in flight".into()));
            }
            *slot = Some(tx);
        }
        let reply = self.send(&ToInterchange::Command(cmd)).and_then(|()| {
            rx.recv_timeout(wait)
                .map_err(|_| ExecutorError::Comm("command timed out".into()))
        });
        *self.command_reply.lock() = None;
        reply
    }

    /// Stop: raise the flag, tell the broker, drop the DFK context, join
    /// every thread. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(link) = self.link.lock().take() {
            let _ = link.send(&ToInterchange::Shutdown);
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

/// Forward each `Results` frame as one completion batch, convert
/// lost-manager reports into `ExecutorLost` retries, resolve synchronous
/// command replies, and flush the outbox after every frame and every
/// receive timeout. Returns when `stop` is set or the completion channel
/// closes.
fn recv_loop(
    link: &Link,
    stop: &AtomicBool,
    lost_noun: &str,
    command_reply: &Mutex<Option<Sender<CommandReply>>>,
) {
    let completions = &link.ctx.completions;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let received = link.port.recv_timeout(Duration::from_millis(50));
        if let Ok(env) = received {
            match decode::<ToClient>(&env.payload) {
                Ok(ToClient::Results(results)) => {
                    // Forward the whole frame as one completion batch — the
                    // batching the interchange/manager did on the wire is
                    // preserved through the DFK's collector.
                    link.outstanding.fetch_sub(results.len(), Ordering::Relaxed);
                    let outcomes = outcomes_from_results(results);
                    if !outcomes.is_empty() && completions.send(outcomes).is_err() {
                        return;
                    }
                }
                Ok(ToClient::ManagerLost { name, tasks }) => {
                    link.outstanding.fetch_sub(tasks.len(), Ordering::Relaxed);
                    let outcomes = outcomes_from_lost(
                        tasks,
                        &format!("{lost_noun} {name} lost (heartbeat expired)"),
                    );
                    if !outcomes.is_empty() && completions.send(outcomes).is_err() {
                        return;
                    }
                }
                Ok(ToClient::CommandReply(reply)) => {
                    if let Some(tx) = command_reply.lock().take() {
                        let _ = tx.send(reply);
                    }
                }
                Err(_) => {}
            }
        }
        link.flush_held(&mut link.outbox.lock());
    }
}

#[cfg(test)]
mod tests {
    //! The test plays the broker: it owns the port attached at the
    //! broker address, so it sees every frame the client sends and
    //! decides when results come back. The outbox tests run on both
    //! planes the client meets: a `Fabric`, and a `TcpHub` bound on
    //! loopback with both ports hub-local, as HTEX attaches them over TCP
    //! (no worker, so no socket carries a frame). On the fabric nothing
    //! else is attached, so `FabricStats::sent` counts exactly the
    //! client's frames plus the test's own replies. The only clock
    //! involved is the receive thread's 50 ms tick, which can flush a
    //! held outbox early but can never reorder, drop or overfill a frame;
    //! where a test depends on the tick it blocks on the frame's arrival.

    use super::*;
    use crate::proto::WireResult;
    use crate::{LlexConfig, LlexExecutor};
    use bytes::Bytes;
    use crossbeam::channel::{unbounded, Receiver};
    use nexus::{Endpoint, Fabric, TcpHub};
    use parsl_core::error::TaskError;
    use parsl_core::executor::{Executor, TaskOutcome};
    use parsl_core::registry::{AppOptions, RegisteredApp};
    use parsl_core::types::{AppKind, ResourceSpec, TaskId, TenantId};

    const WAIT: Duration = Duration::from_secs(10);

    struct Rig<P> {
        client: Client,
        broker: Box<dyn Port>,
        outcomes: Receiver<Vec<TaskOutcome>>,
        app: Arc<RegisteredApp>,
        plane: P,
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

    fn rig<P: Transport>(plane: P) -> Rig<P> {
        let client = Client::new("t", "ix");
        let (ctx, outcomes, app) = context();
        let broker = client.start_on(&plane, ctx, "manager").unwrap();
        Rig {
            client,
            broker,
            outcomes,
            app,
            plane,
        }
    }

    /// A loopback hub with nothing connected to it.
    fn hub() -> TcpHub {
        TcpHub::bind("127.0.0.1:0").expect("bind loopback hub")
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

    impl<P> Rig<P> {
        fn submit(&self, id: u64, args_len: usize, cover: Cover) {
            let task = spec(&self.app, id, args_len);
            self.client.submit(&task, Some(cover)).unwrap();
        }

        /// The next frame at the broker: its payload size and message.
        fn next_frame(&self) -> (usize, ToInterchange) {
            let env = self.broker.recv_timeout(WAIT).expect("a frame arrives");
            let msg = decode(&env.payload).expect("client frames decode");
            (env.payload.len(), msg)
        }

        /// Answer `ids` with one `Results` frame.
        fn reply(&self, from: &dyn Port, ids: &[u64]) {
            let results = ids
                .iter()
                .map(|&id| WireResult {
                    id,
                    attempt: 0,
                    outcome: Ok(Vec::new()),
                    worker: "w".into(),
                })
                .collect();
            from.send(
                self.client.client_addr(),
                encode(&ToClient::Results(results)),
            )
            .unwrap();
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

    fn tasks_of(msg: ToInterchange) -> Vec<WireTask> {
        match msg {
            ToInterchange::Submit(task) => vec![task],
            ToInterchange::SubmitBatch(tasks) => tasks,
            other => panic!("expected a submit frame, got {other:?}"),
        }
    }

    /// With nothing outstanding the frame has left when a covered `submit`
    /// returns, and it is the `Submit` frame an uncovered one sends.
    #[test]
    fn idle_submit_sends_one_submit_frame_before_returning() {
        let rig = rig(Fabric::new());
        let cover = Cover {
            slots: 2,
            max_tasks: 64,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..3 {
            let sent = rig.plane.stats().sent();
            rig.submit(id, 8, cover);
            assert_eq!(
                rig.plane.stats().sent(),
                sent + 1,
                "one frame per idle call"
            );
            let env = rig.broker.try_recv().expect("already at the broker");
            let plain = ToInterchange::Submit(WireTask::from_spec(&spec(&rig.app, id, 8)));
            assert_eq!(env.payload, encode(&plain), "byte-identical to Submit");
            // Settle it, so the next call finds nothing outstanding again.
            rig.reply(&*rig.broker, &[id]);
            rig.outcomes(1);
            assert_eq!(rig.client.outstanding(), 0);
        }
    }

    /// Single submits past 2 × slots coalesce: no frame exceeds
    /// `max_tasks` or the byte budget, tasks reach the broker in submit
    /// order, and once answered the gauge is back at zero.
    fn coalesces_within_caps(plane: impl Transport, args_len: usize, cover: Cover) {
        let rig = rig(plane);
        let n = 100u64;
        for id in 0..n {
            rig.submit(id, args_len, cover);
        }
        assert_eq!(rig.client.outstanding(), n as usize);
        let mut seen = Vec::new();
        let mut frames = 0;
        while seen.len() < n as usize {
            let (bytes, msg) = rig.next_frame();
            let tasks = tasks_of(msg);
            assert!(tasks.len() <= cover.max_tasks, "{} tasks", tasks.len());
            assert!(bytes <= cover.max_frame_bytes, "{bytes} bytes");
            frames += 1;
            seen.extend(tasks.iter().map(|t| t.id));
        }
        assert_eq!(
            seen,
            (0..n).collect::<Vec<u64>>(),
            "wire order is submit order"
        );
        assert!(frames < n as usize, "nothing was coalesced");
        rig.reply(&*rig.broker, &seen);
        let done: Vec<u64> = rig.outcomes(n as usize).iter().map(|o| o.id.0).collect();
        assert_eq!(done, seen);
        assert_eq!(rig.client.outstanding(), 0);
    }

    #[test]
    fn coalesced_frames_stop_at_max_tasks() {
        let cover = Cover {
            slots: 3,
            max_tasks: 8,
            max_frame_bytes: 1 << 18,
        };
        coalesces_within_caps(Fabric::new(), 8, cover);
        coalesces_within_caps(hub(), 8, cover);
    }

    /// Fat arguments: the byte budget closes a frame at 3 tasks, long
    /// before `max_tasks`.
    #[test]
    fn coalesced_frames_stop_at_the_frame_budget() {
        let cover = Cover {
            slots: 3,
            max_tasks: 64,
            max_frame_bytes: 4096,
        };
        coalesces_within_caps(Fabric::new(), 1000, cover);
        coalesces_within_caps(hub(), 1000, cover);
    }

    /// A task bigger than the frame budget still ships, alone: at once
    /// with nothing outstanding, behind the held tasks it cannot join
    /// under backlog, and in the middle of an explicit batch.
    #[test]
    fn oversize_task_ships_alone() {
        let rig = rig(Fabric::new());
        let cover = Cover {
            slots: 1,
            max_tasks: 64,
            max_frame_bytes: 200,
        };
        rig.submit(0, 4096, cover);
        let env = rig.broker.try_recv().expect("already at the broker");
        assert!(env.payload.len() > 4096);
        assert!(matches!(decode(&env.payload), Ok(ToInterchange::Submit(t)) if t.id == 0));

        // 1 leaves (one task at the broker covers nothing), 2 and 3 are
        // held, 4 does not fit behind them.
        for id in 1..4 {
            rig.submit(id, 8, cover);
        }
        rig.submit(4, 4096, cover);
        let mut seen = Vec::new();
        while seen.len() < 4 {
            let tasks = tasks_of(rig.next_frame().1);
            assert!(tasks.len() == 1 || tasks.iter().all(|t| t.id != 4));
            seen.extend(tasks.iter().map(|t| t.id));
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);

        let batch: Vec<TaskSpec> = [(5, 8), (6, 4096), (7, 8)]
            .iter()
            .map(|&(id, len)| spec(&rig.app, id, len))
            .collect();
        rig.client.submit_batch(&batch, 64).unwrap();
        for id in 5..8 {
            let env = rig.broker.try_recv().expect("sent before returning");
            assert!(matches!(decode(&env.payload), Ok(ToInterchange::Submit(t)) if t.id == id));
        }
        assert_eq!(rig.client.outstanding(), 8);
    }

    /// One explicit batch wider than the frame budget: every frame is on
    /// the fabric when the call returns, full to the budget and no
    /// further, in order, and the gauge counts the whole batch.
    #[test]
    fn one_batch_spans_frames_in_order() {
        let rig = rig(Fabric::new());
        let batch: Vec<TaskSpec> = (0..100).map(|id| spec(&rig.app, id, 60)).collect();
        let per_task = WireTask::from_spec(&batch[0]).encoded_size_hint();
        let sent = rig.plane.stats().sent();
        rig.client.submit_batch(&batch, per_task * 10).unwrap();
        assert_eq!(rig.plane.stats().sent(), sent + 10);
        assert_eq!(rig.client.outstanding(), 100);
        let mut seen = Vec::new();
        for _ in 0..10 {
            let env = rig.broker.try_recv().expect("sent before returning");
            assert!(env.payload.len() <= per_task * 10);
            let tasks = tasks_of(decode(&env.payload).unwrap());
            assert_eq!(tasks.len(), 10);
            seen.extend(tasks.iter().map(|t| t.id));
        }
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
    }

    /// An explicit batch goes out behind the held single submits, in
    /// frames of its own.
    #[test]
    fn batch_leaves_behind_held_tasks() {
        batch_leaves_behind_held(Fabric::new());
        batch_leaves_behind_held(hub());
    }

    fn batch_leaves_behind_held(plane: impl Transport) {
        let rig = rig(plane);
        let cover = Cover {
            slots: 1,
            max_tasks: 64,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..4 {
            rig.submit(id, 8, cover);
        }
        let batch: Vec<TaskSpec> = (4..7).map(|id| spec(&rig.app, id, 8)).collect();
        rig.client.submit_batch(&batch, 1 << 18).unwrap();
        let mut frames = Vec::new();
        while frames.iter().map(Vec::len).sum::<usize>() < 7 {
            let env = rig.broker.try_recv().expect("sent before returning");
            let tasks = tasks_of(decode(&env.payload).unwrap());
            frames.push(tasks.iter().map(|t| t.id).collect::<Vec<u64>>());
        }
        assert_eq!(frames.concat(), (0..7).collect::<Vec<u64>>());
        assert_eq!(frames.last().unwrap(), &[4, 5, 6]);
    }

    /// A port that refuses every send once its allowance is used up.
    struct Metered {
        inner: Endpoint,
        allowance: AtomicUsize,
    }

    impl Port for Metered {
        fn addr(&self) -> &Addr {
            self.inner.addr()
        }
        fn send(&self, to: &Addr, payload: Bytes) -> Result<(), nexus::SendError> {
            let spend = |left: usize| left.checked_sub(1);
            self.allowance
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend)
                .map_err(|_| nexus::SendError::PeerGone(to.clone()))?;
            self.inner.send(to, payload)
        }
        fn recv(&self) -> Result<nexus::Envelope, nexus::RecvError> {
            self.inner.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<nexus::Envelope, nexus::RecvError> {
            self.inner.recv_timeout(timeout)
        }
        fn try_recv(&self) -> Option<nexus::Envelope> {
            self.inner.try_recv()
        }
        fn queued(&self) -> usize {
            self.inner.queued()
        }
        fn receiver(&self) -> &Receiver<nexus::Envelope> {
            self.inner.receiver()
        }
    }

    /// The port takes the first frame of a three-frame batch and refuses
    /// the second: the call fails, only the frame that left stays on the
    /// gauge, nothing is delivered as lost (no task's submit had
    /// returned), and the outbox is left empty for the next call.
    #[test]
    fn refused_frame_mid_batch_rolls_the_gauge_back() {
        let fabric = Fabric::new();
        let client = Client::new("t", "ix");
        let broker = fabric.bind(client.ix_addr().clone()).unwrap();
        let port = Arc::new(Metered {
            inner: fabric.bind(client.client_addr().clone()).unwrap(),
            allowance: AtomicUsize::new(1),
        });
        let (ctx, outcomes, app) = context();
        client.start(port.clone(), ctx, "manager").unwrap();

        let batch: Vec<TaskSpec> = (0..30).map(|id| spec(&app, id, 60)).collect();
        let per_task = WireTask::from_spec(&batch[0]).encoded_size_hint();
        let refused = client.submit_batch(&batch, per_task * 10);
        assert!(
            matches!(refused, Err(ExecutorError::Comm(_))),
            "{refused:?}"
        );
        assert_eq!(client.outstanding(), 10);
        let first = tasks_of(decode(&broker.try_recv().unwrap().payload).unwrap());
        let ids: Vec<u64> = first.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        assert!(broker.try_recv().is_none());
        assert!(outcomes.try_recv().is_err(), "a failed call lost a task");

        port.allowance.store(usize::MAX, Ordering::Relaxed);
        client.submit(&spec(&app, 30, 8), None).unwrap();
        let env = broker.try_recv().expect("sent before returning");
        assert!(matches!(decode(&env.payload), Ok(ToInterchange::Submit(t)) if t.id == 30));
        assert_eq!(client.outstanding(), 11);
    }

    /// A task held behind 2 × slots sent ones, with no further call and
    /// no results, leaves on the receive thread's tick.
    #[test]
    fn held_task_leaves_on_the_tick() {
        held_task_leaves_on_tick(Fabric::new());
        held_task_leaves_on_tick(hub());
    }

    fn held_task_leaves_on_tick(plane: impl Transport) {
        let rig = rig(plane);
        let cover = Cover {
            slots: 2,
            max_tasks: 64,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..5 {
            rig.submit(id, 8, cover);
        }
        let mut seen = Vec::new();
        while seen.len() < 5 {
            seen.extend(tasks_of(rig.next_frame().1).iter().map(|t| t.id));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    /// A control message goes out behind the held tasks, never ahead.
    #[test]
    fn control_messages_flush_the_outbox_first() {
        control_messages_flush_first(Fabric::new());
        control_messages_flush_first(hub());
    }

    fn control_messages_flush_first(plane: impl Transport) {
        let rig = rig(plane);
        let cover = Cover {
            slots: 1,
            max_tasks: 64,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..4 {
            rig.submit(id, 8, cover);
        }
        rig.client
            .send(&ToInterchange::Cancel { id: 3, attempt: 0 })
            .unwrap();
        let mut seen = Vec::new();
        loop {
            match rig.next_frame().1 {
                ToInterchange::Cancel { id, .. } => {
                    assert_eq!(id, 3);
                    break;
                }
                submit => seen.extend(tasks_of(submit).iter().map(|t| t.id)),
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3], "cancel overtook a submit");
    }

    /// `max_tasks: 1` (HTEX `batch_size: 1`) never holds: one `Submit`
    /// frame per call whatever the backlog.
    #[test]
    fn max_tasks_one_never_coalesces() {
        let rig = rig(Fabric::new());
        let cover = Cover {
            slots: 1,
            max_tasks: 1,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..20 {
            let sent = rig.plane.stats().sent();
            rig.submit(id, 8, cover);
            assert_eq!(rig.plane.stats().sent(), sent + 1);
            assert!(matches!(rig.next_frame().1, ToInterchange::Submit(t) if t.id == id));
        }
    }

    /// LLEX submits through [`Client::submit`]: one frame per call, of a
    /// `Submit` frame's size, however much is already queued at its
    /// interchange (no workers here, so nothing ever drains and nothing
    /// else sends).
    #[test]
    fn llex_still_sends_one_submit_frame_per_task() {
        let fabric = Fabric::new();
        let llex = LlexExecutor::on_fabric(
            LlexConfig {
                workers: 0,
                ..Default::default()
            },
            fabric.clone(),
        );
        let (ctx, _outcomes, app) = context();
        llex.start(ctx).unwrap();
        let stats = fabric.stats();
        for id in 0..20 {
            let task = spec(&app, id, 8);
            let frame = encode(&ToInterchange::Submit(WireTask::from_spec(&task)));
            let (sent, bytes) = (stats.sent(), stats.bytes());
            llex.submit(task).unwrap();
            assert_eq!(stats.sent(), sent + 1);
            assert_eq!(stats.bytes(), bytes + frame.len() as u64);
        }
        assert_eq!(llex.outstanding(), 20);
        llex.shutdown();
    }

    /// The broker dies with tasks in the outbox. Each held task, whose
    /// `submit` had returned `Ok`, settles exactly once as `ExecutorLost`
    /// and comes off the gauge; a call whose own frame is refused fails
    /// instead, also off the gauge. The tasks the dead broker took stay
    /// counted until a successor answers them.
    #[test]
    fn held_tasks_settle_as_lost_when_the_broker_dies() {
        let rig = rig(Fabric::new());
        let cover = Cover {
            slots: 2,
            max_tasks: 4,
            max_frame_bytes: 1 << 18,
        };
        for id in 0..4 {
            rig.submit(id, 8, cover);
        }
        rig.plane.kill(rig.client.ix_addr());
        // Covered and under `max_tasks`: accepted without touching the port.
        for id in 4..7 {
            rig.submit(id, 8, cover);
        }
        let mut lost: Vec<u64> = rig
            .outcomes(3)
            .into_iter()
            .map(|o| {
                assert!(
                    matches!(o.result, Err(TaskError::ExecutorLost(_))),
                    "expected ExecutorLost, got {:?}",
                    o.result
                );
                o.id.0
            })
            .collect();
        lost.sort_unstable();
        assert_eq!(lost, vec![4, 5, 6]);
        assert_eq!(rig.client.outstanding(), 4);

        // Three more held, then a call that sends at once: the refusal
        // fails that call and loses whatever was still held before it
        // (the tick may already have lost some; once each either way).
        for id in 7..10 {
            rig.submit(id, 8, cover);
        }
        let refused = rig.client.submit(&spec(&rig.app, 10, 8), None);
        assert!(
            matches!(refused, Err(ExecutorError::Comm(_))),
            "{refused:?}"
        );
        let mut lost: Vec<u64> = rig.outcomes(3).iter().map(|o| o.id.0).collect();
        lost.sort_unstable();
        assert_eq!(lost, vec![7, 8, 9]);
        assert_eq!(rig.client.outstanding(), 4);

        // A successor at the broker address answers the four that were
        // sent: the gauge reaches zero, and no second outcome for a lost
        // task ever shows up.
        let successor = rig.plane.bind(rig.client.ix_addr().clone()).unwrap();
        rig.reply(&successor, &[0, 1, 2, 3]);
        let done: Vec<u64> = rig.outcomes(4).iter().map(|o| o.id.0).collect();
        assert_eq!(done, vec![0, 1, 2, 3]);
        assert_eq!(rig.client.outstanding(), 0);
        assert!(
            rig.outcomes.try_recv().is_err(),
            "an outcome was duplicated"
        );
    }
}
