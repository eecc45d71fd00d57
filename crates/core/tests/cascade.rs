//! A dependency failure cascades through a graph of any depth as a loop,
//! not as recursion: a 100,000-task chain whose head fails settles every
//! task on the collector's ordinary stack.

use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::prelude::*;
use std::sync::Arc;

/// Holds every task it is given until the test fails them all.
#[derive(Default)]
struct HoldThenFail {
    ctx: parking_lot::Mutex<Option<ExecutorContext>>,
    held: parking_lot::Mutex<Vec<(TaskId, u32)>>,
}

impl HoldThenFail {
    fn fail_all(&self) {
        let ctx = self.ctx.lock().clone().expect("started");
        let lost = TaskError::ExecutorLost("the test dropped the manager".into());
        let outcomes = std::mem::take(&mut *self.held.lock())
            .into_iter()
            .map(|(id, attempt)| TaskOutcome::new(id, attempt, Err(lost.clone())))
            .collect();
        ctx.completions.send(outcomes).expect("collector is alive");
    }
}

impl Executor for HoldThenFail {
    fn label(&self) -> &str {
        "hold"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.held.lock().push((task.id, task.attempt));
        Ok(())
    }
    fn outstanding(&self) -> usize {
        self.held.lock().len()
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.ctx.lock().take();
    }
}

#[test]
fn dependency_failure_cascades_iteratively_through_a_100k_chain() {
    const CHAIN: usize = 100_000;
    let exec = Arc::new(HoldThenFail::default());
    let dfk = DataFlowKernel::builder()
        .executor_arc(exec.clone())
        .build()
        .unwrap();
    let step = dfk.python_app("step", |x: u64| x + 1);

    // step(step(…step(0)…)): only the head can launch, and it is held.
    let mut tail = parsl_core::call!(step, 0u64);
    for _ in 0..CHAIN {
        tail = parsl_core::call!(step, tail);
    }
    assert_eq!(
        exec.outstanding(),
        1,
        "only the head has no unmet dependency"
    );
    assert_eq!(dfk.live_tasks(), CHAIN + 1);

    exec.fail_all();

    match tail.result() {
        Err(ParslError::Task(TaskError::DependencyFailed {
            failed_task,
            reason,
        })) => {
            assert_eq!(
                failed_task,
                TaskId(CHAIN as u64 - 1),
                "the tail's own parent"
            );
            // The root failure, however deep: not a rendering of the
            // whole chain of dependency errors above it.
            assert_eq!(&*reason, "executor lost task: the test dropped the manager");
        }
        other => panic!("expected DependencyFailed, got {other:?}"),
    }
    dfk.wait_for_all();

    let counts = dfk.state_counts();
    assert_eq!(counts.get(&TaskState::Failed), Some(&1));
    assert_eq!(counts.get(&TaskState::DepFail), Some(&CHAIN));
    assert_eq!(counts.len(), 2, "{counts:?}");
    assert!(dfk.inflight_counts().iter().all(|(_, n)| *n == 0));
    assert_eq!(dfk.parked_tasks(), 0);
    dfk.shutdown();
}
