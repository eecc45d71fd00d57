//! Nothing is resident at quiescence, and a late event is absorbed.
//!
//! One kernel over an executor that only records what it is given; the
//! test plays the executor's part by handing outcomes to `settle` itself,
//! so every interleaving below is the one written down. The graph ends in
//! all four terminal states by way of a retry, a hedge whose loser
//! reports after the winner, a walltime expiry on either side of a
//! `Done`, a duplicate outcome in one frame, a dependency failure whose
//! other parent completes later, a tenant quota that parks, and a
//! submission that never was one. Afterwards the table is empty, the
//! histogram is the closed form, every charge is back, every future
//! holds its one value — and saying everything a second time changes
//! none of that.

use super::Event;
use crate::executor::{ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use crate::future::FutureState;
use crate::prelude::*;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Accepts every task, notes it, and never answers.
#[derive(Default)]
struct Hold {
    seen: Mutex<Vec<TaskSpec>>,
}

impl Executor for Hold {
    fn label(&self) -> &str {
        "hold"
    }
    fn start(&self, _ctx: ExecutorContext) -> Result<(), ExecutorError> {
        Ok(())
    }
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.seen.lock().push(task);
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

impl Hold {
    /// The latest attempt of `task` this executor was handed.
    fn attempt(&self, task: TaskId) -> u32 {
        let seen = self.seen.lock();
        let of_task = seen.iter().filter(|s| s.id == task);
        of_task.map(|s| s.attempt).max().expect("task was launched")
    }
}

const TENANT: TenantId = TenantId(3);

fn ok(v: u64) -> Result<Bytes, TaskError> {
    Ok(Bytes::from(wire::to_bytes(&v).unwrap()))
}

fn app_error() -> Result<Bytes, TaskError> {
    Err(TaskError::App(AppError::msg("boom")))
}

/// Everything the kernel can be asked about its bookkeeping.
#[derive(Debug, PartialEq)]
struct Books {
    resident: usize,
    states: Vec<(String, usize)>,
    submitted: usize,
    live: usize,
    inflight: usize,
    parked: usize,
    tenant_inflight: usize,
    values: Vec<Option<Result<Bytes, String>>>,
}

fn books(dfk: &DataFlowKernel, futures: &[Arc<FutureState>]) -> Books {
    let mut states: Vec<(String, usize)> = dfk
        .state_counts()
        .into_iter()
        .map(|(s, n)| (s.to_string(), n))
        .collect();
    states.sort();
    Books {
        resident: dfk.table.shards.iter().map(|s| s.lock().len()).sum(),
        states,
        submitted: dfk.task_count(),
        live: dfk.live_tasks(),
        inflight: dfk.inflight_counts().iter().map(|(_, n)| n).sum(),
        parked: dfk.parked_tasks(),
        tenant_inflight: dfk.tenant_inflight(TENANT) + dfk.tenant_inflight(TenantId::DEFAULT),
        values: futures
            .iter()
            .map(|f| f.peek().map(|r| r.map_err(|e| e.to_string())))
            .collect(),
    }
}

#[test]
fn quiescent_kernel_holds_no_records_and_absorbs_replays() {
    let hold = Arc::new(Hold::default());
    let dfk = DataFlowKernel::builder()
        .executor_arc(Arc::clone(&hold) as Arc<dyn Executor>)
        .memoize(true)
        .tenant(
            TENANT,
            TenantConfig {
                max_inflight: Some(1),
                ..TenantConfig::default()
            },
        )
        .build()
        .unwrap();
    let options = |retries, walltime| AppOptions {
        retries: Some(retries),
        walltime,
        ..AppOptions::default()
    };
    let plain = dfk.python_app("plain", |x: u64| x);
    let flaky = dfk.python_app_cfg("flaky", options(1, None), |x: u64| Ok(x));
    let timed = dfk.python_app_cfg(
        "timed",
        options(0, Some(Duration::from_secs(3600))),
        |x: u64| Ok(x),
    );
    let add = dfk.python_app("add", |a: u64, b: u64| a + b);

    let a = plain.call((Dep::value(1),));
    let retried = flaky.call((Dep::value(2),));
    let hedged = plain.call((Dep::value(3),));
    let beats_expiry = timed.call((Dep::value(4),));
    let expires = timed.call((Dep::value(5),));
    let fails = plain.call((Dep::value(6),));
    let slow = plain.call((Dep::value(7),));
    let orphan = add.call((Dep::from(&fails), Dep::from(&slow)));
    let grandchild = plain.call((Dep::from(&orphan),));
    let quota_first = plain.invoke().tenant(TENANT).call((Dep::value(8),));
    let quota_second = plain.invoke().tenant(TENANT).call((Dep::value(9),));
    let never = dfk.failed_submission(AppError::msg("unencodable"));
    assert_eq!(dfk.parked_tasks(), 1, "the tenant's second task parks");

    let mut log: Vec<TaskOutcome> = Vec::new();
    let mut play = |frame: Vec<TaskOutcome>| {
        log.extend(frame.iter().cloned());
        dfk.settle(frame.into_iter().map(Event::Outcome));
    };
    let outcome = |f: &Arc<FutureState>, result| {
        let id = f.task_id();
        TaskOutcome::new(id, hold.attempt(id), result)
    };

    // A duplicate in one frame: the second finds the record gone.
    play(vec![outcome(a.state(), ok(1)), outcome(a.state(), ok(100))]);
    // The same call again is now a memo hit, settled inside `call`.
    let memoized = plain.call((Dep::value(1),));
    assert!(memoized.done());

    // First attempt fails, the retry is handed to the executor, succeeds.
    play(vec![outcome(retried.state(), app_error())]);
    assert_eq!(hold.attempt(retried.task_id()), 1);
    play(vec![outcome(retried.state(), ok(2))]);

    // The hedge wins; the primary reports afterwards.
    let id = hedged.task_id();
    let (hedge, _) = {
        let mut shard = dfk.table.shard(id).lock();
        dfk.stamp_hedge(shard.get_mut(&id).unwrap()).unwrap()
    };
    play(vec![TaskOutcome::new(id, hedge.attempt, ok(3))]);
    play(vec![TaskOutcome::new(id, 0, ok(300))]);

    // An expiry behind a `Done`, and a `Done` behind an expiry.
    let expired = |f: &Arc<FutureState>| outcome(f, Err(TaskError::WalltimeExceeded));
    play(vec![
        outcome(beats_expiry.state(), ok(4)),
        expired(beats_expiry.state()),
    ]);
    play(vec![
        expired(expires.state()),
        outcome(expires.state(), ok(5)),
    ]);

    // One parent fails: child and grandchild never run. The other parent
    // completes into an edge whose child is gone.
    play(vec![outcome(fails.state(), app_error())]);
    assert!(orphan.done() && grandchild.done());
    play(vec![outcome(slow.state(), ok(7))]);

    // The quota frees, the parked task launches and completes.
    play(vec![outcome(quota_first.state(), ok(8))]);
    assert_eq!(dfk.parked_tasks(), 0);
    play(vec![outcome(quota_second.state(), ok(9))]);

    dfk.wait_for_all();
    let futures: Vec<Arc<FutureState>> = [
        &a,
        &memoized,
        &retried,
        &hedged,
        &beats_expiry,
        &expires,
        &fails,
        &slow,
        &orphan,
        &grandchild,
        &quota_first,
        &quota_second,
    ]
    .iter()
    .map(|f| Arc::clone(f.state()))
    .chain([never])
    .collect();
    let quiescent = books(&dfk, &futures);

    let closed_form = [("dep_fail", 2), ("done", 7), ("failed", 3), ("memoized", 1)];
    assert_eq!(
        quiescent.states,
        closed_form.map(|(state, n)| (state.to_string(), n)),
        "state_counts is the closed form"
    );
    assert_eq!(
        (quiescent.resident, quiescent.live, quiescent.submitted),
        (0, 0, 13),
        "no record outlives its task"
    );
    assert_eq!(
        (
            quiescent.inflight,
            quiescent.parked,
            quiescent.tenant_inflight
        ),
        (0, 0, 0)
    );
    assert!(quiescent.values.iter().all(Option::is_some));
    assert_eq!(a.result().unwrap(), 1, "the duplicate did not win");
    assert_eq!(hedged.result().unwrap(), 3, "the loser did not win");
    assert_eq!(beats_expiry.result().unwrap(), 4);
    assert!(matches!(
        expires.exception(),
        Some(TaskError::WalltimeExceeded)
    ));

    // Everything once more, as one frame and one at a time: a second
    // assignment of any future would panic in `FutureState::set`.
    dfk.settle(log.iter().cloned().map(Event::Outcome));
    for outcome in log {
        dfk.settle([Event::Outcome(outcome)]);
    }
    assert_eq!(dfk.run_hedge_once(), 0);
    assert_eq!(books(&dfk, &futures), quiescent);
    dfk.shutdown();
    assert_eq!(books(&dfk, &futures), quiescent);
}
