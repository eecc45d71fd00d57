//! Integration tests for the pluggable scheduler and the per-executor
//! backpressure cap, driven through the full DataFlowKernel dispatch
//! path against a manually-completed executor.

use bytes::Bytes;
use parking_lot::Mutex;
use parsl_core::error::TaskError;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An executor that accepts tasks but completes them only when the test
/// says so, giving deterministic control over in-flight counts.
struct GatedExecutor {
    label: String,
    workers: usize,
    ctx: Mutex<Option<ExecutorContext>>,
    queue: Mutex<VecDeque<TaskSpec>>,
    submitted: AtomicUsize,
    inflight: AtomicUsize,
    peak_inflight: AtomicUsize,
}

impl GatedExecutor {
    fn new(label: &str, workers: usize) -> Arc<Self> {
        Arc::new(GatedExecutor {
            label: label.to_string(),
            workers,
            ctx: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            submitted: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            peak_inflight: AtomicUsize::new(0),
        })
    }

    fn submitted(&self) -> usize {
        self.submitted.load(Ordering::SeqCst)
    }

    fn peak_inflight(&self) -> usize {
        self.peak_inflight.load(Ordering::SeqCst)
    }

    /// Run and report the oldest held task; false when none is held.
    fn complete_one(&self) -> bool {
        let Some(task) = self.queue.lock().pop_front() else {
            return false;
        };
        let ctx = self.ctx.lock().clone().expect("started");
        let result = (task.app.func)(&task.args)
            .map(Bytes::from)
            .map_err(TaskError::App);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        ctx.completions
            .send(vec![TaskOutcome::new(task.id, task.attempt, result)])
            .expect("collector alive");
        true
    }

    fn complete_all(&self) -> usize {
        let mut n = 0;
        while self.complete_one() {
            n += 1;
        }
        n
    }
}

impl Executor for GatedExecutor {
    fn label(&self) -> &str {
        &self.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        if self.ctx.lock().is_none() {
            return Err(ExecutorError::NotRunning);
        }
        self.submitted.fetch_add(1, Ordering::SeqCst);
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_inflight.fetch_max(now, Ordering::SeqCst);
        self.queue.lock().push_back(task);
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    fn connected_workers(&self) -> usize {
        self.workers
    }

    fn shutdown(&self) {
        self.ctx.lock().take();
        self.queue.lock().clear();
    }
}

/// Poll until `cond` holds; panic after 5 seconds.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn inflight_of(dfk: &DataFlowKernel, label: &str) -> usize {
    dfk.inflight_counts()
        .into_iter()
        .find(|(l, _)| l == label)
        .map(|(_, n)| n)
        .expect("label exists")
}

#[test]
fn least_outstanding_converges_on_the_idle_executor() {
    let a = GatedExecutor::new("a", 1);
    let b = GatedExecutor::new("b", 1);
    let dfk = DataFlowKernel::builder()
        .executor_arc(a.clone())
        .executor_arc(b.clone())
        .scheduler(SchedulerPolicy::LeastOutstanding)
        .build()
        .unwrap();
    assert_eq!(dfk.scheduler_name(), "least_outstanding");
    let id = dfk.python_app("id", |x: u64| x);

    // Six tasks split 3/3: join-shortest-queue balances an even load.
    let first: Vec<_> = (0..6).map(|i| parsl_core::call!(id, i)).collect();
    eventually("first wave dispatched", || {
        a.submitted() + b.submitted() == 6
    });
    assert_eq!(a.submitted(), 3);
    assert_eq!(b.submitted(), 3);

    // Drain executor b only: it becomes the shortest queue.
    assert_eq!(b.complete_all(), 3);
    eventually("b's completions processed", || inflight_of(&dfk, "b") == 0);

    // The next two tasks must both chase the idle executor.
    let second: Vec<_> = (10..12).map(|i| parsl_core::call!(id, i)).collect();
    eventually("second wave dispatched", || b.submitted() == 5);
    assert_eq!(
        a.submitted(),
        3,
        "saturated executor must not receive new work"
    );

    a.complete_all();
    b.complete_all();
    for f in first.iter().chain(&second) {
        f.result().unwrap();
    }
    dfk.shutdown();
}

#[test]
fn backpressure_parks_over_cap_tasks_and_drains_on_completion() {
    let ex = GatedExecutor::new("gated", 1);
    let dfk = DataFlowKernel::builder()
        .executor_arc(ex.clone())
        .scheduler(SchedulerPolicy::LeastOutstanding)
        .max_inflight_per_executor(2)
        .build()
        .unwrap();
    let id = dfk.python_app("id", |x: u64| x);

    let futs: Vec<_> = (0..5).map(|i| parsl_core::call!(id, i)).collect();
    // Only the cap's worth dispatches; the rest park.
    eventually("cap reached", || ex.submitted() == 2);
    eventually("excess parked", || dfk.parked_tasks() == 3);
    assert_eq!(ex.submitted(), 2, "cap must hold while nothing completes");

    // Each completion frees one slot and pulls one parked task through.
    assert!(ex.complete_one());
    eventually("third task dispatched", || ex.submitted() == 3);
    assert_eq!(dfk.parked_tasks(), 2);

    // Draining everything lets the rest flow; the cap is never exceeded.
    while dfk.live_tasks() > 0 {
        ex.complete_all();
        std::thread::sleep(Duration::from_millis(2));
    }
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64);
    }
    assert!(
        ex.peak_inflight() <= 2,
        "peak in-flight {} exceeded the cap",
        ex.peak_inflight()
    );
    assert_eq!(dfk.parked_tasks(), 0);
    dfk.shutdown();
}

#[test]
fn pinned_tasks_park_on_their_own_executor_only() {
    let a = GatedExecutor::new("a", 1);
    let b = GatedExecutor::new("b", 1);
    let dfk = DataFlowKernel::builder()
        .executor_arc(a.clone())
        .executor_arc(b.clone())
        .scheduler(SchedulerPolicy::LeastOutstanding)
        .max_inflight_per_executor(1)
        .build()
        .unwrap();
    let pinned = dfk.python_app_cfg::<(u64,), u64, _>(
        "pinned",
        AppOptions {
            executor: Some("b".into()),
            ..Default::default()
        },
        |x: u64| Ok(x),
    );
    let futs: Vec<_> = (0..3).map(|i| parsl_core::call!(pinned, i)).collect();
    // One in flight on b; the other two wait for b specifically, even
    // though a is idle.
    eventually("first pinned task dispatched", || b.submitted() == 1);
    eventually("rest parked", || dfk.parked_tasks() == 2);
    assert_eq!(
        a.submitted(),
        0,
        "pinned tasks must not spill to another executor"
    );

    while dfk.live_tasks() > 0 {
        b.complete_all();
        std::thread::sleep(Duration::from_millis(2));
    }
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64);
    }
    assert_eq!(b.submitted(), 3);
    assert!(b.peak_inflight() <= 1);
    dfk.shutdown();
}

#[test]
fn random_hash_default_still_reaches_every_executor() {
    let a = GatedExecutor::new("a", 1);
    let b = GatedExecutor::new("b", 1);
    let dfk = DataFlowKernel::builder()
        .executor_arc(a.clone())
        .executor_arc(b.clone())
        .seed(5)
        .build()
        .unwrap();
    assert_eq!(dfk.scheduler_name(), "random_hash");
    let id = dfk.python_app("id", |x: u64| x);
    let futs: Vec<_> = (0..64).map(|i| parsl_core::call!(id, i)).collect();
    eventually("all dispatched", || a.submitted() + b.submitted() == 64);
    assert!(a.submitted() > 0 && b.submitted() > 0);
    a.complete_all();
    b.complete_all();
    for f in &futs {
        f.result().unwrap();
    }
    dfk.shutdown();
}
