//! The executor-client half shared by every wire executor (§4.3.1,
//! Figure 2a: "the executor client submits tasks and receives results on
//! behalf of the DataFlowKernel").
//!
//! HTEX, EXEX, LLEX and the Dask/IPP baselines differ in what sits behind
//! the broker address — an interchange with managers, MPI pools, a
//! stateless relay, a central scheduler, a hub — but the half that faces
//! the DFK is the same: a port on the message plane, an outstanding-task
//! gauge, a receive thread turning `ToClient` frames into completion
//! batches, and a stop flag plus joined threads for teardown. Each of
//! those executors owns one [`Client`].

use crate::proto::{
    decode, encode, outcomes_from_lost, outcomes_from_results, Command, CommandReply, ToClient,
    ToInterchange, WireTask,
};
use crossbeam::channel::{bounded, Sender};
use nexus::{Addr, Endpoint, Fabric, Port};
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

/// The client half of a wire executor. See module docs.
pub struct Client {
    ix_addr: Addr,
    client_addr: Addr,
    outstanding: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    command_reply: CommandSlot,
    port: Mutex<Option<Arc<dyn Port>>>,
    ctx: Mutex<Option<ExecutorContext>>,
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
            port: Mutex::new(None),
            ctx: Mutex::new(None),
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
        self.ctx.lock().as_ref().map(|c| Arc::clone(&c.registry))
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
        {
            let mut slot = self.ctx.lock();
            if slot.is_some() {
                return Err(ExecutorError::Rejected("already started".into()));
            }
            *slot = Some(ctx.clone());
        }
        *self.port.lock() = Some(Arc::clone(&port));
        let stop = self.stop_flag();
        let outstanding = Arc::clone(&self.outstanding);
        let command_reply = Arc::clone(&self.command_reply);
        self.spawn(format!("{}-recv", self.client_addr), move || {
            recv_loop(
                port.as_ref(),
                &stop,
                &outstanding,
                &ctx,
                lost_noun,
                &command_reply,
            )
        })
    }

    /// [`Client::start`] for an executor whose whole plane is one in-proc
    /// fabric: bind both addresses, go live on the client one, and hand
    /// back the broker's endpoint for the caller's broker loop.
    pub fn start_on_fabric(
        &self,
        fabric: &Fabric,
        ctx: ExecutorContext,
        lost_noun: &'static str,
    ) -> Result<Endpoint, ExecutorError> {
        let bind = |addr: &Addr| {
            fabric
                .bind(addr.clone())
                .map_err(|e| ExecutorError::Comm(e.to_string()))
        };
        let broker_ep = bind(&self.ix_addr)?;
        let client_ep = bind(&self.client_addr)?;
        self.start(Arc::new(client_ep), ctx, lost_noun)?;
        Ok(broker_ep)
    }

    /// Spawn a named thread that [`Client::shutdown`] joins (brokers,
    /// managers, workers).
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

    fn port(&self) -> Result<Arc<dyn Port>, ExecutorError> {
        self.port.lock().clone().ok_or(ExecutorError::NotRunning)
    }

    /// Ship one task as its own `Submit` frame.
    pub fn submit(&self, task: &TaskSpec) -> Result<(), ExecutorError> {
        let port = self.port()?;
        let wire_task = WireTask::from_spec(task);
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        port.send(&self.ix_addr, encode(&ToInterchange::Submit(wire_task)))
            .map_err(|e| {
                self.outstanding.fetch_sub(1, Ordering::Relaxed);
                ExecutorError::Comm(e.to_string())
            })
    }

    /// Ship a batch as `SubmitBatch` frames — one message per
    /// `max_frame_bytes` of tasks instead of one per task (§4.3.1
    /// "configurable batching ... to minimize communication overheads").
    /// Only for brokers that decode `SubmitBatch`.
    pub fn submit_batch(
        &self,
        tasks: &[TaskSpec],
        max_frame_bytes: usize,
    ) -> Result<(), ExecutorError> {
        let port = self.port()?;
        crate::proto::send_task_batch(
            port.as_ref(),
            &self.ix_addr,
            &self.outstanding,
            max_frame_bytes,
            tasks,
        )
    }

    /// Send a control message (cancel, retire) to the broker.
    pub fn send(&self, msg: &ToInterchange) -> Result<(), ExecutorError> {
        self.port()?
            .send(&self.ix_addr, encode(msg))
            .map_err(|e| ExecutorError::Comm(e.to_string()))
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
        if let Some(port) = self.port.lock().take() {
            let _ = port.send(&self.ix_addr, encode(&ToInterchange::Shutdown));
        }
        self.ctx.lock().take();
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
/// lost-manager reports into `ExecutorLost` retries, and resolve
/// synchronous command replies. Returns when `stop` is set or the
/// completion channel closes.
fn recv_loop(
    port: &dyn Port,
    stop: &AtomicBool,
    outstanding: &AtomicUsize,
    ctx: &ExecutorContext,
    lost_noun: &str,
    command_reply: &Mutex<Option<Sender<CommandReply>>>,
) {
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(env) = port.recv_timeout(Duration::from_millis(50)) else {
            continue;
        };
        match decode::<ToClient>(&env.payload) {
            Ok(ToClient::Results(results)) => {
                // Forward the whole frame as one completion batch — the
                // batching the interchange/manager did on the wire is
                // preserved through the DFK's collector.
                outstanding.fetch_sub(results.len(), Ordering::Relaxed);
                let outcomes = outcomes_from_results(results);
                if !outcomes.is_empty() && ctx.completions.send(outcomes).is_err() {
                    return;
                }
            }
            Ok(ToClient::ManagerLost { name, tasks }) => {
                outstanding.fetch_sub(tasks.len(), Ordering::Relaxed);
                let outcomes = outcomes_from_lost(
                    tasks,
                    &format!("{lost_noun} {name} lost (heartbeat expired)"),
                );
                if !outcomes.is_empty() && ctx.completions.send(outcomes).is_err() {
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
}
