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
}

/// A task on its way from the client to a manager: [`WireTask`]'s fields
/// over the kernel's own argument bytes, so a submit neither copies nor
/// encodes them. [`encode_tasks`] writes them into the `ToManager::Tasks`
/// frame, the one copy they get in this process.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedTask {
    /// DFK task id.
    pub id: u64,
    /// Retry attempt, echoed in the result.
    pub attempt: u32,
    /// App registry id.
    pub app_id: u64,
    /// Tenant the task was submitted under.
    pub tenant: u32,
    /// Logical items fused into this task.
    pub items: u32,
    /// Wire-encoded argument tuple, shared with the kernel.
    pub args: bytes::Bytes,
}

impl QueuedTask {
    /// Take a DFK [`TaskSpec`](parsl_core::executor::TaskSpec)'s fields;
    /// the arguments move, they are not copied.
    pub fn from_spec(task: parsl_core::executor::TaskSpec) -> Self {
        QueuedTask {
            id: task.id.0,
            attempt: task.attempt,
            app_id: task.app.id.0,
            tenant: task.tenant.0,
            items: task.items,
            args: task.args,
        }
    }

    /// Bytes this task takes in a `Tasks` frame: five varint header
    /// fields, the argument count, and one varint per argument byte (two
    /// for a byte ≥ 0x80, as serde writes a `Vec<u8>`).
    pub(crate) fn encoded_len(&self) -> usize {
        let args = &self.args[..];
        let high = if args.is_ascii() {
            0
        } else {
            args.iter().filter(|&&b| b >= 0x80).count()
        };
        varint_len(self.id)
            + varint_len(self.attempt.into())
            + varint_len(self.app_id)
            + varint_len(self.tenant.into())
            + varint_len(self.items.into())
            + varint_len(args.len() as u64)
            + args.len()
            + high
    }
}

/// Length of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// `encode(&ToManager::Tasks(..))` of these tasks, byte for byte, written
/// straight from their argument bytes into one buffer of the exact size.
/// A manager decodes it as the `Vec<WireTask>` it always received.
pub fn encode_tasks<'a, I>(tasks: I) -> bytes::Bytes
where
    I: IntoIterator<Item = &'a QueuedTask>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let tasks = tasks.into_iter();
    let count = tasks.len() as u64;
    let len = 1 + varint_len(count) + tasks.clone().map(QueuedTask::encoded_len).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.push(0); // `ToManager::Tasks`'s variant index
    wire::encode_varint(count, &mut out);
    for t in tasks {
        for field in [
            t.id,
            t.attempt.into(),
            t.app_id,
            t.tenant.into(),
            t.items.into(),
            t.args.len() as u64,
        ] {
            wire::encode_varint(field, &mut out);
        }
        if t.args.is_ascii() {
            out.extend_from_slice(&t.args);
        } else {
            for &b in t.args.iter() {
                wire::encode_varint(b.into(), &mut out);
            }
        }
    }
    debug_assert_eq!(out.len(), len);
    bytes::Bytes::from(out)
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

/// Messages arriving at an interchange from managers/workers.
///
/// `Submit`, `SubmitBatch`, `Retire`, `Cancel`, `Command` and `Shutdown`
/// are the client's, which now reaches its interchange over a typed
/// queue ([`crate::client::Request`]) and never sends them; an
/// interchange ignores them from the plane. They stay so that the
/// variant indices, and with them every manager-edge frame's bytes, do
/// not change.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToInterchange {
    /// One task (client-only, see above).
    Submit(WireTask),
    /// A batch of tasks in one frame (client-only, see above).
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
    /// Retire one manager (client-only, see above).
    Retire {
        /// Manager address to retire.
        name: String,
    },
    /// Abandon one attempt (client-only, see above).
    Cancel {
        /// DFK task id.
        id: u64,
        /// Attempt to abandon.
        attempt: u32,
    },
    /// An administrative command (client-only, see above).
    Command(Command),
    /// Stop the interchange (client-only, see above).
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

/// Messages an interchange used to send its executor client. No runtime
/// edge sends them any more: the interchange settles results into the
/// kernel's completion channel itself ([`crate::client::Outcomes`]). The
/// codec stays for the benchmark's layer probes.
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

    /// Every manager-edge message, byte for byte as the parent release
    /// encoded it: a spawned `parsl-worker` of either side must read what
    /// the other writes.
    #[test]
    fn manager_edge_frames_keep_their_bytes() {
        let to_ix: [(ToInterchange, &[u8]); 5] = [
            (
                ToInterchange::Register {
                    name: "htex:mgr-0".into(),
                    capacity: 12,
                    held: vec![(7, 1), (300, 0)],
                },
                &[
                    2, 10, 104, 116, 101, 120, 58, 109, 103, 114, 45, 48, 12, 2, 7, 1, 172, 2, 0,
                ],
            ),
            (
                ToInterchange::Capacity {
                    name: "htex:mgr-0".into(),
                    free: 3,
                },
                &[3, 10, 104, 116, 101, 120, 58, 109, 103, 114, 45, 48, 3],
            ),
            (
                ToInterchange::Results(vec![
                    WireResult {
                        id: 5,
                        attempt: 2,
                        outcome: Ok(vec![1, 0x80, 0xff]),
                        worker: "w0".into(),
                    },
                    WireResult {
                        id: 6,
                        attempt: 0,
                        outcome: Err(AppError::msg("boom")),
                        worker: String::new(),
                    },
                ]),
                &[
                    4, 2, 5, 2, 0, 3, 1, 128, 1, 255, 1, 2, 119, 48, 6, 0, 1, 0, 4, 98, 111, 111,
                    109, 0,
                ],
            ),
            (ToInterchange::Heartbeat { name: "m".into() }, &[5, 1, 109]),
            (ToInterchange::Deregister { name: "m".into() }, &[6, 1, 109]),
        ];
        for (msg, bytes) in to_ix {
            assert_eq!(&encode(&msg)[..], bytes, "{msg:?}");
        }
        let to_manager: [(ToManager, &[u8]); 5] = [
            (
                ToManager::Tasks(vec![
                    WireTask {
                        id: 1,
                        attempt: 0,
                        app_id: 3,
                        tenant: 0,
                        items: 1,
                        args: vec![9, 0x80],
                    },
                    WireTask {
                        id: 200,
                        attempt: 1,
                        app_id: 70000,
                        tenant: 2,
                        items: 977,
                        args: vec![],
                    },
                ]),
                &[
                    0, 2, 1, 0, 3, 0, 1, 2, 9, 128, 1, 200, 1, 1, 240, 162, 4, 2, 209, 7, 0,
                ],
            ),
            (
                ToManager::Apps(vec![WireApp {
                    id: 3,
                    name: "noop".into(),
                    signature: "(u64)->u64".into(),
                }]),
                &[
                    1, 1, 3, 4, 110, 111, 111, 112, 10, 40, 117, 54, 52, 41, 45, 62, 117, 54, 52,
                ],
            ),
            (ToManager::Heartbeat, &[2]),
            (
                ToManager::Cancel {
                    id: 300,
                    attempt: 1,
                },
                &[3, 172, 2, 1],
            ),
            (ToManager::Shutdown, &[4]),
        ];
        for (msg, bytes) in to_manager {
            assert_eq!(&encode(&msg)[..], bytes, "{msg:?}");
        }
    }

    fn queued(id: u64, args: Vec<u8>) -> QueuedTask {
        QueuedTask {
            id,
            attempt: (id % 3) as u32,
            app_id: id.wrapping_mul(0x9e37_79b9),
            tenant: (id % 5) as u32,
            items: (id % 1000) as u32,
            args: bytes::Bytes::from(args),
        }
    }

    fn wire_of(t: &QueuedTask) -> WireTask {
        WireTask {
            id: t.id,
            attempt: t.attempt,
            app_id: t.app_id,
            tenant: t.tenant,
            items: t.items,
            args: t.args.to_vec(),
        }
    }

    fn serde_tasks(tasks: &[QueuedTask]) -> bytes::Bytes {
        encode(&ToManager::Tasks(tasks.iter().map(wire_of).collect()))
    }

    /// The edge cases by name: no task, one, 64; empty arguments; every
    /// byte value, the ones ≥ 0x80 among them.
    #[test]
    fn direct_tasks_frame_matches_serde_at_the_edges() {
        assert_eq!(encode_tasks(&[]), serde_tasks(&[]));
        let all_bytes: Vec<u8> = (0..=255).collect();
        for args in [Vec::new(), vec![0x7f], vec![0x80], all_bytes] {
            let one = [queued(u64::MAX - 1, args)];
            assert_eq!(encode_tasks(&one), serde_tasks(&one));
        }
        let many: Vec<QueuedTask> = (0..64)
            .map(|i| queued(i << 20, vec![i as u8 * 4; i as usize]))
            .collect();
        assert_eq!(encode_tasks(&many), serde_tasks(&many));
    }

    proptest::proptest! {
        #[test]
        fn direct_tasks_frame_is_serdes_encoding(
            ids in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..65),
            args in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
        ) {
            // Task `i` takes a window of `args` starting at `i`, so frames
            // mix empty, ASCII-only and high-byte arguments.
            let tasks: Vec<QueuedTask> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| queued(id, args.get(i..).unwrap_or_default().to_vec()))
                .collect();
            let direct = encode_tasks(&tasks);
            proptest::prop_assert_eq!(&direct[..], &serde_tasks(&tasks)[..]);
            let back = match decode::<ToManager>(&direct) {
                Ok(ToManager::Tasks(back)) => back,
                other => panic!("not a Tasks frame: {other:?}"),
            };
            proptest::prop_assert_eq!(back, tasks.iter().map(wire_of).collect::<Vec<_>>());
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
