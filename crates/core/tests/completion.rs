//! The batched completion plane and the deadline-driven walltime watcher:
//! integration tests at the core-crate level (no wire executors).

use bytes::Bytes;
use parsl_core::error::{ParslError, TaskError};
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::registry::AppOptions;
use std::sync::Arc;
use std::time::Duration;

/// Accepts every task and never completes any — the walltime watcher is
/// the only way out.
struct BlackHole {
    ctx: parking_lot::Mutex<Option<ExecutorContext>>,
}

impl BlackHole {
    fn new() -> Self {
        BlackHole {
            ctx: parking_lot::Mutex::new(None),
        }
    }
}

impl Executor for BlackHole {
    fn label(&self) -> &str {
        "blackhole"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }
    fn submit(&self, _task: TaskSpec) -> Result<(), ExecutorError> {
        if self.ctx.lock().is_none() {
            return Err(ExecutorError::NotRunning);
        }
        Ok(())
    }
    fn outstanding(&self) -> usize {
        0
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.ctx.lock().take();
    }
}

/// An idle kernel with no walltimes must not tick: the watcher is
/// deadline driven, not a 10 ms poll (a poll would wake ~15 times here).
#[test]
fn walltime_watcher_sleeps_when_no_deadlines_pending() {
    let dfk = DataFlowKernel::builder()
        .executor(ImmediateExecutor::new())
        .build()
        .unwrap();
    let inc = dfk.python_app("inc", |x: u64| x + 1);
    for i in 0..32u64 {
        assert_eq!(parsl_core::call!(inc, i).result().unwrap(), i + 1);
    }
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        dfk.walltime_wakeups(),
        0,
        "no walltime was ever armed, so the watcher must never wake"
    );
    dfk.shutdown();
}

/// Walltimes still fire: the watcher wakes for the armed deadline and the
/// expiry travels the batched completion path (a one-failure batch).
#[test]
fn armed_walltime_wakes_the_watcher_and_expires_the_task() {
    let dfk = DataFlowKernel::builder()
        .executor(BlackHole::new())
        .build()
        .unwrap();
    let stuck = dfk.python_app_cfg(
        "stuck",
        AppOptions {
            walltime: Some(Duration::from_millis(60)),
            ..Default::default()
        },
        |x: u64| -> Result<u64, parsl_core::error::AppError> { Ok(x) },
    );
    let f = parsl_core::call!(stuck, 1u64);
    match f.result_timeout(Duration::from_secs(5)) {
        Err(ParslError::Task(TaskError::WalltimeExceeded)) => {}
        other => panic!("expected WalltimeExceeded, got {other:?}"),
    }
    assert!(
        dfk.walltime_wakeups() >= 1,
        "the armed deadline must have woken the watcher"
    );
    dfk.shutdown();
}

/// Delivers every submitted batch as ONE completion frame after executing
/// all members — a synthetic completion storm.
struct FrameEcho {
    ctx: parking_lot::Mutex<Option<ExecutorContext>>,
}

impl Executor for FrameEcho {
    fn label(&self) -> &str {
        "frame-echo"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.submit_batch(vec![task])
    }
    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let ctx = self.ctx.lock().clone().ok_or(ExecutorError::NotRunning)?;
        let outcomes: Vec<TaskOutcome> = tasks
            .iter()
            .map(|t| {
                let result = (t.app.func)(&t.args)
                    .map(Bytes::from)
                    .map_err(TaskError::App);
                TaskOutcome::new(t.id, t.attempt, result)
            })
            .collect();
        ctx.completions
            .send(outcomes)
            .map_err(|_| ExecutorError::Comm("completions closed".into()))
    }
    fn outstanding(&self) -> usize {
        0
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.ctx.lock().take();
    }
}

/// The per-task reference: releases one outcome per frame and waits for
/// the kernel to commit it before taking the next task, so every outcome
/// settles in a commit pass of its own. It learns of the commit as the
/// kernel's monitor, from the task's terminal event. The waiting happens
/// on a thread of its own: `submit` only queues, because the kernel may
/// call it from the collector, the one thread that commits.
#[derive(Default)]
struct OneByOne {
    queue: parking_lot::Mutex<Option<crossbeam::channel::Sender<TaskSpec>>>,
    commits: Arc<Commits>,
}

#[derive(Default)]
struct Commits {
    settled: parking_lot::Mutex<usize>,
    committed: parking_lot::Condvar,
}

impl MonitorSink for OneByOne {
    fn on_event(&self, event: &MonitorEvent) {
        if matches!(event, MonitorEvent::Task { state, .. } if state.is_terminal()) {
            *self.commits.settled.lock() += 1;
            self.commits.committed.notify_all();
        }
    }
}

impl Executor for OneByOne {
    fn label(&self) -> &str {
        "one-by-one"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let (tx, rx) = crossbeam::channel::unbounded::<TaskSpec>();
        *self.queue.lock() = Some(tx);
        let commits = Arc::clone(&self.commits);
        std::thread::spawn(move || {
            while let Ok(t) = rx.recv() {
                let result = (t.app.func)(&t.args)
                    .map(Bytes::from)
                    .map_err(TaskError::App);
                let mut settled = commits.settled.lock();
                let target = *settled + 1;
                let outcome = vec![TaskOutcome::new(t.id, t.attempt, result)];
                if ctx.completions.send(outcome).is_err() {
                    return;
                }
                while *settled < target {
                    commits.committed.wait(&mut settled);
                }
            }
        });
        Ok(())
    }
    fn submit(&self, t: TaskSpec) -> Result<(), ExecutorError> {
        let queue = self.queue.lock();
        let tx = queue.as_ref().ok_or(ExecutorError::NotRunning)?;
        tx.send(t)
            .map_err(|_| ExecutorError::Comm("one-by-one thread gone".into()))
    }
    fn outstanding(&self) -> usize {
        0
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.queue.lock().take();
    }
}

/// Run a memoized fan-in campaign with a checkpoint file, on `FrameEcho`
/// (`batched`) or on the one-outcome-per-pass reference; return the
/// multiset (sorted list) of checkpoint frames written.
fn checkpointed_run(path: &std::path::Path, batched: bool) -> Vec<Vec<u8>> {
    let builder = DataFlowKernel::builder()
        .memoize(true)
        .checkpoint_file(path);
    let builder = if batched {
        builder.executor(FrameEcho {
            ctx: parking_lot::Mutex::new(None),
        })
    } else {
        let reference = Arc::new(OneByOne::default());
        builder.executor_arc(reference.clone()).monitor(reference)
    };
    let dfk = builder.build().unwrap();
    let root = dfk.python_app("root", || 0u64);
    let child = dfk.python_app("child", |gate: u64, i: u64| gate + i * 7);
    let gate = parsl_core::call!(root);
    let futs: Vec<_> = (0..64u64)
        .map(|i| child.call((Dep::future(gate.clone()), Dep::value(i))))
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64 * 7);
    }
    dfk.wait_for_all();
    dfk.shutdown();

    let file = std::fs::File::open(path).unwrap();
    let mut reader = wire::FrameReader::new(std::io::BufReader::new(file));
    let mut frames = Vec::new();
    while let Some(frame) = reader.read().unwrap() {
        frames.push(frame);
    }
    frames.sort();
    frames
}

/// Acceptance criterion: the checkpoint file of a batched-collection run
/// is byte-equivalent (modulo frame order) to a per-task run's.
#[test]
fn batched_checkpoint_file_matches_per_task_modulo_order() {
    let dir = std::env::temp_dir().join(format!("parsl-completion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let batched_path = dir.join("batched.ckpt");
    let per_task_path = dir.join("per-task.ckpt");
    let _ = std::fs::remove_file(&batched_path);
    let _ = std::fs::remove_file(&per_task_path);

    let batched = checkpointed_run(&batched_path, true);
    let per_task = checkpointed_run(&per_task_path, false);
    assert_eq!(batched.len(), 65, "root + 64 children all checkpointed");
    assert_eq!(batched, per_task, "same frames, different order at most");

    std::fs::remove_file(&batched_path).unwrap();
    std::fs::remove_file(&per_task_path).unwrap();
}

/// A storm of single-frame completions interleaved with one giant frame:
/// every task resolves exactly once and the state histogram balances.
#[test]
fn wide_fan_in_storm_accounts_exactly() {
    let dfk = DataFlowKernel::builder()
        .executor(FrameEcho {
            ctx: parking_lot::Mutex::new(None),
        })
        .build()
        .unwrap();
    let root = dfk.python_app("root", || 1u64);
    let child = dfk.python_app("child", |gate: u64, i: u64| gate + i);
    let sum = dfk.python_app("sum", |xs: Vec<u64>| xs.iter().sum::<u64>());

    let gate = parsl_core::call!(root);
    let children: Vec<_> = (0..256u64)
        .map(|i| child.call((Dep::future(gate.clone()), Dep::value(i))))
        .collect();
    let joined = parsl_core::combinators::join_all(&dfk, children.clone());
    let total = sum.call((Dep::future(joined),));
    // Σ (1 + i) for i in 0..256
    assert_eq!(total.result().unwrap(), 256 + (0..256u64).sum::<u64>());
    dfk.wait_for_all();
    let counts = dfk.state_counts();
    let done = counts.get(&TaskState::Done).copied().unwrap_or(0);
    assert_eq!(
        done,
        dfk.task_count(),
        "every task Done exactly once: {counts:?}"
    );
    dfk.shutdown();
}
