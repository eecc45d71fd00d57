//! `transition` checked in isolation: random event sequences against one
//! record that is in no table, with `apply` never run, so every effect
//! the sequence asked for is still in the `Effects` value to be counted.
//!
//! The kernel is real but inert — two executors that swallow what they
//! are given — and serves as the counters `transition` charges and
//! releases. Each case dispatches or parks the record the way
//! `launch_batch` would, feeds it a sequence of primary and hedge
//! outcomes (ok, app error, lost executor, walltime expiry), stale and
//! duplicate attempt numbers, hedge stamps and `Settle`s, then ends it
//! the way the shutdown sweep would, and checks what the kernel relies
//! on: one fire per task, terminal states absorb, charges net to zero,
//! at most one checkpoint frame, a retry outnumbers every attempt that
//! was ever in flight, an expired attempt in flight is cancelled.

use super::{Effects, Event};
use crate::dfk::record::TaskRecord;
use crate::dfk::{DataFlowKernel, SubmitOptions};
use crate::error::{AppError, TaskError};
use crate::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use crate::future::FutureState;
use crate::registry::AppOptions;
use crate::types::{AppKind, TaskId, TaskState, TenantId};
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Accepts every task and never answers.
struct Swallow(&'static str);

impl Executor for Swallow {
    fn label(&self) -> &str {
        self.0
    }
    fn start(&self, _ctx: ExecutorContext) -> Result<(), ExecutorError> {
        Ok(())
    }
    fn submit(&self, _task: TaskSpec) -> Result<(), ExecutorError> {
        Ok(())
    }
    fn outstanding(&self) -> usize {
        0
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {}
}

const TENANT: TenantId = TenantId(7);

fn inflight(dfk: &DataFlowKernel) -> usize {
    dfk.inflight_counts().iter().map(|(_, n)| n).sum()
}

/// What `fx` holds, for "this event changed nothing" comparisons.
fn sizes(fx: &Effects) -> [usize; 7] {
    [
        fx.fire.len(),
        fx.checkpoints.len(),
        fx.events.len(),
        fx.retries.len(),
        fx.cancels.len(),
        fx.samples.len(),
        fx.unparked.len(),
    ]
}

fn check(retries: u32, start_parked: bool, memoizable: bool, ops: &[(u8, u8)]) {
    let dfk = DataFlowKernel::builder()
        .executor(Swallow("a"))
        .executor(Swallow("b"))
        .build()
        .unwrap();
    let app = dfk.register_erased(
        "t",
        AppKind::Native,
        "()",
        Arc::new(|_: &[u8]| Ok(Vec::new())),
        AppOptions {
            walltime: Some(Duration::from_secs(3600)),
            ..AppOptions::default()
        },
    );
    let id = TaskId(1);
    let opts = SubmitOptions {
        tenant: TENANT,
        ..SubmitOptions::default()
    };
    let mut rec = TaskRecord::new(app, Vec::new(), retries, opts, FutureState::new(id));
    rec.args_bytes = Some(Bytes::new());
    rec.memo_key = memoizable.then_some(42);

    // Highest attempt number ever handed to an executor.
    let mut highest: Option<u32> = None;
    if start_parked {
        dfk.park(&mut rec, None);
        assert_eq!(dfk.parked_tasks(), 1);
    } else {
        let tenant = dfk.tenant_state(TENANT);
        let mut snapshots = dfk.snapshot_executors();
        let idx = dfk
            .route(&mut snapshots, None, &tenant, &[], false)
            .unwrap();
        highest = Some(dfk.dispatch(&mut rec, idx).attempt);
    }

    let mut fx = Effects::default();
    let shutdown = (7u8, 2u8); // the sweep: Settle(Failed, Shutdown)
    for &(op, arg) in ops.iter().chain([&shutdown]) {
        // A task no executor holds can only expire or be settled.
        let op = match op % 8 {
            0 | 1 | 2 | 4 | 5 if rec.state == TaskState::Pending => 3,
            op => op,
        };
        let outcome = |attempt, result| Event::Outcome(TaskOutcome::new(id, attempt, result));
        let failure = Err(TaskError::App(AppError::msg("x")));
        let event = match op {
            0 => outcome(rec.attempt, Ok(Bytes::from_static(b"v"))),
            1 => outcome(rec.attempt, failure),
            2 => outcome(rec.attempt, Err(TaskError::ExecutorLost("gone".into()))),
            3 => outcome(rec.attempt, Err(TaskError::WalltimeExceeded)),
            4 => {
                if let Some((spec, _)) = dfk.stamp_hedge(&mut rec) {
                    assert!(Some(spec.attempt) > highest);
                    highest = Some(spec.attempt);
                }
                continue;
            }
            5 => outcome(
                rec.hedge_attempt.unwrap_or(rec.attempt + 1),
                if arg % 2 == 0 {
                    Ok(Bytes::from_static(b"h"))
                } else {
                    failure
                },
            ),
            // Attempt numbers out of the blue: mostly stale or duplicate,
            // now and then the live one.
            6 => outcome(u32::from(arg % 8), Ok(Bytes::from_static(b"s"))),
            _ => match arg % 3 {
                0 => Event::Settle {
                    id,
                    state: TaskState::Memoized,
                    result: Ok(Bytes::from_static(b"m")),
                },
                1 => Event::Settle {
                    id,
                    state: TaskState::DepFail,
                    result: Err(TaskError::DependencyFailed {
                        failed_task: TaskId(0),
                        reason: "up".into(),
                    }),
                },
                _ => Event::Settle {
                    id,
                    state: TaskState::Failed,
                    result: Err(TaskError::Shutdown),
                },
            },
        };

        let (state, attempt, before) = (rec.state, rec.attempt, sizes(&fx));
        let (was_parked, charged) = (rec.parked, rec.charged.map(usize::from));
        dfk.transition(&mut rec, event, &mut fx);

        if op == 3 && !state.is_terminal() {
            if let Some(i) = charged {
                assert!(
                    fx.cancels[before[4]..].contains(&(i, id, attempt)),
                    "an expired attempt in flight was not cancelled"
                );
            }
        }
        if state.is_terminal() {
            assert_eq!(rec.state, state, "a terminal state was left");
            assert_eq!(
                sizes(&fx),
                before,
                "an event had effects after the task ended"
            );
            assert_eq!(rec.attempt, attempt);
        }
        if fx.retries.len() > before[3] {
            let (spec, idx) = fx.retries.last().unwrap();
            assert!(
                Some(spec.attempt) > highest,
                "retry attempt {} does not outnumber {highest:?}",
                spec.attempt
            );
            highest = Some(spec.attempt);
            assert_eq!(rec.state, TaskState::Launched);
            assert_eq!(rec.charged.map(usize::from), Some(*idx));
        }
        if was_parked && (rec.state != state || rec.attempt != attempt) {
            assert!(!rec.parked && fx.unparked.contains(&id));
        }
        // Whatever is in flight is charged, and nothing else is.
        let held = usize::from(rec.charged.is_some());
        assert_eq!(
            inflight(&dfk),
            held + usize::from(rec.hedge_charged.is_some())
        );
        assert_eq!(dfk.tenant_inflight(TENANT), held);
        assert_eq!(rec.state == TaskState::Launched, rec.charged.is_some());
        assert!(rec.state.is_terminal() || rec.hedge_attempt.is_none() || rec.charged.is_some());
    }

    assert!(rec.state.is_terminal());
    assert_eq!(fx.fire.len(), 1, "a task fires its future exactly once");
    assert!(Arc::ptr_eq(&fx.fire[0].0, &rec.future));
    assert_eq!(
        fx.fire[0].1.is_ok(),
        matches!(rec.state, TaskState::Done | TaskState::Memoized)
    );
    assert_eq!(
        fx.checkpoints.len(),
        usize::from(memoizable && rec.state == TaskState::Done),
        "one checkpoint frame for a memoizable Done, none otherwise"
    );
    assert_eq!(inflight(&dfk), 0, "executor and hedge charges net to zero");
    assert_eq!(dfk.tenant_inflight(TENANT), 0, "tenant charges net to zero");
    assert!(fx.retries.len() <= retries as usize);
    assert!(!rec.parked);
    dfk.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn transition_keeps_the_commit_invariants(
        retries in 0u32..4,
        start_parked in any::<bool>(),
        memoizable in any::<bool>(),
        ops in vec((any::<u8>(), any::<u8>()), 0..24),
    ) {
        check(retries, start_parked, memoizable, &ops);
    }
}

/// The cases the random walk must not be trusted to find: a retry after a
/// hedge was cancelled numbers itself past the hedge, and a walltime
/// expiry while parked retries straight into a dispatch.
#[test]
fn retry_after_cancelled_hedge_and_expiry_while_parked() {
    // dispatch, hedge (attempt 1), primary fails → retry must be 2.
    check(1, false, true, &[(4, 0), (1, 0), (0, 0)]);
    // parked, expires with a retry left → launched on attempt 1, then Ok.
    check(1, true, true, &[(3, 0), (0, 0)]);
    // hedge wins; the primary's late Ok is stale.
    check(0, false, true, &[(4, 0), (5, 0), (6, 0)]);
    // failed hedge is forgotten, primary still resolves the task.
    check(0, false, false, &[(4, 0), (5, 1), (0, 0)]);
}
