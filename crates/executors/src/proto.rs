//! Wire protocol shared by the executors (§4.3).
//!
//! Every message crossing the `nexus` fabric is one of these enums,
//! wire-encoded. Tasks travel as `(task id, attempt, app id, argument
//! bytes)` — the function itself resolves worker-side through the shared
//! app registry, the reproduction's stand-in for serializing functions by
//! reference.

use parsl_core::error::AppError;
use serde::{Deserialize, Serialize};

/// A task as shipped to workers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WireTask {
    /// DFK task id.
    pub id: u64,
    /// Retry attempt, echoed in the result.
    pub attempt: u32,
    /// App registry id.
    pub app_id: u64,
    /// Tenant (logical workflow) the task was submitted under, carried
    /// across the fabric so remote accounting can stay per-tenant.
    pub tenant: u32,
    /// Logical items fused into this task (1 normally; the chunk length
    /// for fused `app.map` chunks).
    pub items: u32,
    /// Wire-encoded argument tuple.
    pub args: Vec<u8>,
}

impl WireTask {
    /// Wire form of a DFK [`TaskSpec`](parsl_core::executor::TaskSpec).
    pub fn from_spec(task: &parsl_core::executor::TaskSpec) -> Self {
        WireTask {
            id: task.id.0,
            attempt: task.attempt,
            app_id: task.app.id.0,
            tenant: task.tenant.0,
            items: task.items,
            args: task.args.to_vec(),
        }
    }

    /// Conservative encoded-size estimate, used by the client's outbox to
    /// keep submit frames within the transport's frame budget without
    /// encoding twice. Header fields are varints ≤ 10 bytes each plus the
    /// args length prefix.
    pub fn encoded_size_hint(&self) -> usize {
        self.args.len() + 48
    }
}

/// Convert one `Results` frame into the completion batch the DFK's
/// collector consumes, stamped with a shared finish time: the frame that
/// crossed the fabric as one message stays one message on the completion
/// channel instead of exploding into per-task sends.
pub fn outcomes_from_results(results: Vec<WireResult>) -> Vec<parsl_core::executor::TaskOutcome> {
    let finished = std::time::Instant::now();
    results
        .into_iter()
        .map(|r| parsl_core::executor::TaskOutcome {
            id: parsl_core::types::TaskId(r.id),
            attempt: r.attempt,
            result: r
                .outcome
                .map(bytes::Bytes::from)
                .map_err(parsl_core::error::TaskError::App),
            worker: Some(r.worker),
            started: None,
            finished: Some(finished),
        })
        .collect()
}

/// Convert a `ManagerLost` report into one completion batch of
/// `ExecutorLost` failures (the reason is shared, not cloned per task).
pub fn outcomes_from_lost(
    tasks: Vec<(u64, u32)>,
    reason: &str,
) -> Vec<parsl_core::executor::TaskOutcome> {
    let reason: std::sync::Arc<str> = reason.into();
    tasks
        .into_iter()
        .map(|(id, attempt)| {
            parsl_core::executor::TaskOutcome::new(
                parsl_core::types::TaskId(id),
                attempt,
                Err(parsl_core::error::TaskError::ExecutorLost(
                    std::sync::Arc::clone(&reason),
                )),
            )
        })
        .collect()
}

/// An app advertisement: enough identity for a remote worker process to
/// bind its compiled-in body for `name` under the interchange's `id`.
/// The reproduction's analogue of Parsl serializing functions by
/// reference — the body never crosses the wire, only the reference.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WireApp {
    /// Registry id tasks will arrive with.
    pub id: u64,
    /// App name, resolved against the worker's builtin table.
    pub name: String,
    /// Advisory type signature (kept for memo-hash parity and debugging).
    pub signature: String,
}

/// A result as shipped back from workers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WireResult {
    /// DFK task id.
    pub id: u64,
    /// Attempt this result belongs to.
    pub attempt: u32,
    /// The app's output bytes or its failure.
    pub outcome: Result<Vec<u8>, AppError>,
    /// Worker identity, for monitoring.
    pub worker: String,
}

/// Messages arriving at an interchange (from the executor client or from
/// managers/workers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToInterchange {
    /// Client submits one task.
    Submit(WireTask),
    /// Client submits a batch of tasks in one frame (§4.3.1 batching).
    /// Semantically `Submit` × n with one message's framing/transport cost;
    /// the interchange appends the whole batch to its pending queue in
    /// submission order.
    SubmitBatch(Vec<WireTask>),
    /// A manager (HTEX/EXEX) or worker (LLEX) announces itself with its
    /// task capacity.
    Register {
        /// Sender's fabric address.
        name: String,
        /// Concurrent task slots (workers + prefetch for managers; 1 for
        /// LLEX workers).
        capacity: usize,
        /// `(task id, attempt)` pairs the sender is still holding. Empty
        /// on first registration; on a reconnect re-register the
        /// interchange reconciles its accounting against this set and
        /// reports anything that vanished in the gap as lost (so the DFK
        /// retries it) instead of leaving it outstanding forever.
        held: Vec<(u64, u32)>,
    },
    /// Manager reports `free` open slots after dispatching work.
    Capacity {
        /// Manager address.
        name: String,
        /// Open slots.
        free: usize,
    },
    /// Batch of finished tasks.
    Results(Vec<WireResult>),
    /// Periodic liveness signal (§4.3.1).
    Heartbeat {
        /// Sender address.
        name: String,
    },
    /// Graceful departure; outstanding tasks have already been returned.
    Deregister {
        /// Sender address.
        name: String,
    },
    /// Client asks the interchange to retire one manager: stop dispatching
    /// to it, then forward a shutdown. Routing retirement through the
    /// interchange (instead of telling the manager directly) closes the
    /// race where a task batch and a shutdown cross on the wire.
    Retire {
        /// Manager address to retire.
        name: String,
    },
    /// Client abandons one attempt (the losing half of a straggler hedge).
    /// Advisory: if the attempt is still queued the interchange drops it
    /// and synthesizes a failed result so the client's outstanding gauge
    /// settles; if it already reached a manager the cancel is forwarded
    /// and the worker skips execution, but a result still flows back so
    /// held-task accounting stays intact.
    Cancel {
        /// DFK task id.
        id: u64,
        /// Attempt to abandon.
        attempt: u32,
    },
    /// Administrative command channel request (§4.3.1).
    Command(Command),
    /// Stop the interchange.
    Shutdown,
}

/// Messages from an interchange to a manager (HTEX) or pool leader (EXEX).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToManager {
    /// A batch of tasks to run.
    Tasks(Vec<WireTask>),
    /// App advertisements, sent before the first task batch referencing
    /// them. In-proc managers share the client's registry and ignore
    /// these; remote worker processes bind builtins by name.
    Apps(Vec<WireApp>),
    /// Liveness signal from the interchange.
    Heartbeat,
    /// Skip executing this attempt if it hasn't started; a "cancelled"
    /// failure result is still returned so accounting stays intact.
    Cancel {
        /// DFK task id.
        id: u64,
        /// Attempt to abandon.
        attempt: u32,
    },
    /// Drain and exit.
    Shutdown,
}

/// Messages from an interchange back to the executor client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToClient {
    /// Finished tasks.
    Results(Vec<WireResult>),
    /// A manager stopped heartbeating while holding tasks; the DFK decides
    /// whether to retry them (§4.3.1).
    ManagerLost {
        /// The manager that disappeared.
        name: String,
        /// `(task id, attempt)` pairs that were outstanding on it.
        tasks: Vec<(u64, u32)>,
    },
    /// Reply on the command channel.
    CommandReply(CommandReply),
}

/// Synchronous administrative actions on the interchange (§4.3.1: "the
/// interchange can be asked for outstanding task information, to blacklist
/// managers, or to shutdown the executor").
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub enum Command {
    /// How many tasks are queued or running.
    OutstandingInfo,
    /// How many workers are connected.
    ConnectedWorkers,
    /// Stop sending tasks to this manager.
    Blacklist(String),
    /// Shut the executor down.
    ShutdownExecutor,
}

/// Replies to [`Command`]s.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub enum CommandReply {
    /// Outstanding task count.
    Outstanding(usize),
    /// Connected worker count.
    Workers(usize),
    /// Generic acknowledgement.
    Ack,
}

/// Encode any protocol message as fabric payload.
pub fn encode<T: Serialize>(msg: &T) -> bytes::Bytes {
    bytes::Bytes::from(wire::to_bytes(msg).expect("protocol messages always encode"))
}

/// Decode a fabric payload.
pub fn decode<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, wire::Error> {
    wire::from_bytes(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_roundtrip() {
        let t = WireTask {
            id: 7,
            attempt: 1,
            app_id: 3,
            tenant: 5,
            items: 1,
            args: vec![1, 2, 3],
        };
        let msg = ToInterchange::Submit(t.clone());
        let bytes = encode(&msg);
        match decode::<ToInterchange>(&bytes).unwrap() {
            ToInterchange::Submit(got) => assert_eq!(got, t),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip() {
        let tasks: Vec<WireTask> = (0..5)
            .map(|i| WireTask {
                id: i,
                attempt: 0,
                app_id: 1,
                tenant: 0,
                items: 1,
                args: vec![i as u8; 8],
            })
            .collect();
        let bytes = encode(&ToInterchange::SubmitBatch(tasks.clone()));
        match decode::<ToInterchange>(&bytes).unwrap() {
            ToInterchange::SubmitBatch(got) => assert_eq!(got, tasks),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn result_roundtrip_with_error() {
        let r = WireResult {
            id: 9,
            attempt: 0,
            outcome: Err(AppError::msg("boom")),
            worker: "w1".into(),
        };
        let msg = ToClient::Results(vec![r.clone()]);
        let bytes = encode(&msg);
        match decode::<ToClient>(&bytes).unwrap() {
            ToClient::Results(v) => assert_eq!(v, vec![r]),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn command_roundtrip() {
        for cmd in [
            Command::OutstandingInfo,
            Command::ConnectedWorkers,
            Command::Blacklist("m-3".into()),
            Command::ShutdownExecutor,
        ] {
            let bytes = encode(&ToInterchange::Command(cmd.clone()));
            match decode::<ToInterchange>(&bytes).unwrap() {
                ToInterchange::Command(got) => assert_eq!(got, cmd),
                other => panic!("wrong variant {other:?}"),
            }
        }
    }
}
