//! The kernel's heap-allocation budget per task, counted.
//!
//! A counting `#[global_allocator]` keeps one counter per thread, so what
//! the test harness's other threads do is not in the numbers: the submit
//! side is read on the thread that calls `call()`, the dependency hop and
//! the completion side on the collector thread, through the hooks that
//! run there (the executor's `submit`, a future's `on_done`). The
//! executor only queues, into a buffer sized beforehand, until `release`
//! hands the test the queued tasks' outcomes to send as it likes; from
//! then on it answers each task at once on the submitting thread — past
//! `release`, that is the collector.
//!
//! One test, so the phases never overlap.

use bytes::Bytes;
use parsl_core::error::TaskError;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Holds submitted tasks until `release`, then answers each at once. Every
/// answered-at-once `submit` notes the thread's allocation count, so the
/// difference between the first and the last is what the hops between them
/// cost on that thread.
struct QueueExecutor {
    ctx: Mutex<Option<ExecutorContext>>,
    queued: Mutex<Vec<TaskSpec>>,
    released: AtomicBool,
    first: AtomicU64,
    last: AtomicU64,
}

fn outcome_of(task: &TaskSpec) -> TaskOutcome {
    TaskOutcome::new(
        task.id,
        task.attempt,
        (task.app.func)(&task.args)
            .map(Bytes::from)
            .map_err(TaskError::App),
    )
}

impl QueueExecutor {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(QueueExecutor {
            ctx: Mutex::new(None),
            queued: Mutex::new(Vec::with_capacity(capacity)),
            released: AtomicBool::new(false),
            first: AtomicU64::new(u64::MAX),
            last: AtomicU64::new(0),
        })
    }

    /// Stop queueing, and return the queued tasks' outcomes unsent.
    fn release(&self) -> Vec<TaskOutcome> {
        let queued = std::mem::take(&mut *self.queued.lock().unwrap());
        self.released.store(true, Ordering::Release);
        queued.iter().map(outcome_of).collect()
    }

    fn send(&self, outcomes: Vec<TaskOutcome>) {
        let ctx = self.ctx.lock().unwrap().clone().expect("started");
        ctx.completions.send(outcomes).expect("the kernel is up");
    }
}

impl Executor for QueueExecutor {
    fn label(&self) -> &str {
        "queue"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock().unwrap() = Some(ctx);
        Ok(())
    }
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        if self.released.load(Ordering::Acquire) {
            let now = allocations();
            let _ =
                self.first
                    .compare_exchange(u64::MAX, now, Ordering::Relaxed, Ordering::Relaxed);
            self.last.store(now, Ordering::Relaxed);
            self.send(vec![outcome_of(&task)]);
        } else {
            self.queued.lock().unwrap().push(task);
        }
        Ok(())
    }
    fn outstanding(&self) -> usize {
        self.queued.lock().unwrap().len()
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.ctx.lock().unwrap().take();
    }
}

fn queue_kernel(capacity: usize) -> (Arc<DataFlowKernel>, Arc<QueueExecutor>) {
    let executor = QueueExecutor::new(capacity);
    let dfk = DataFlowKernel::builder()
        .executor_arc(Arc::clone(&executor) as Arc<dyn Executor>)
        .build()
        .unwrap();
    (dfk, executor)
}

#[test]
fn per_task_allocations_stay_within_budget() {
    // Root tasks: call() on this thread, then their completion on the
    // collector, in frames of 64.
    const ROOTS: usize = 20_000;
    let (dfk, executor) = queue_kernel(ROOTS);
    let noop = dfk.python_app("noop", |x: u64| x);
    let mut futures: Vec<AppFuture<u64>> = Vec::with_capacity(ROOTS);
    let before = allocations();
    for v in 0..ROOTS as u64 {
        futures.push(noop.call((Dep::value(v),)));
    }
    let per_call = (allocations() - before) as f64 / ROOTS as f64;

    // The first and the last outcome travel alone, and each notes the
    // collector's count as its future fires: everything in between is
    // the 64-outcome frames and nothing else.
    let (mark, marks) = std::sync::mpsc::channel();
    for future in [&futures[0], &futures[ROOTS - 1]] {
        let mark = mark.clone();
        future.on_done(move |_| mark.send(allocations()).unwrap());
    }
    let mut outcomes = executor.release().into_iter();
    let last = outcomes.next_back().unwrap();
    executor.send(outcomes.by_ref().take(1).collect());
    futures[0].result().unwrap();
    loop {
        let frame: Vec<TaskOutcome> = outcomes.by_ref().take(64).collect();
        if frame.is_empty() {
            break;
        }
        executor.send(frame);
    }
    futures[ROOTS - 2].result().unwrap();
    executor.send(vec![last]);
    let (first, last) = (marks.recv().unwrap(), marks.recv().unwrap());
    let per_completion = (last - first) as f64 / (ROOTS - 2) as f64;
    for (v, f) in futures.iter().enumerate() {
        assert_eq!(f.result().unwrap(), v as u64);
    }
    dfk.shutdown();

    // A chain: call() on this thread; each hop — the parent's outcome
    // collected, the edge resolved, the child launched and answered — on
    // the collector, the executor's own allocations included.
    const CHAIN: usize = 5_000;
    let (dfk, executor) = queue_kernel(1);
    let inc = dfk.python_app("inc", |x: u64| x + 1);
    let before = allocations();
    let mut f = inc.call((Dep::value(0),));
    for _ in 1..CHAIN {
        f = inc.call((Dep::from(&f),));
    }
    let per_chain_call = (allocations() - before) as f64 / CHAIN as f64;
    executor.send(executor.release());
    assert_eq!(
        f.result_timeout(Duration::from_secs(60)).unwrap(),
        CHAIN as u64
    );
    let hops = (CHAIN - 2) as f64; // first answered-at-once submit to last
    let per_hop = (executor.last.load(Ordering::Relaxed) - executor.first.load(Ordering::Relaxed))
        as f64
        / hops;
    dfk.shutdown();

    eprintln!(
        "allocations: {per_call:.2} per root call, {per_completion:.3} per completion, \
         {per_chain_call:.2} + {per_hop:.2} per chain task (call + hop)"
    );
    assert!(per_call <= 2.5, "{per_call} allocations per root call()");
    assert!(
        per_completion <= 0.1,
        "{per_completion} allocations per completed root task"
    );
    assert!(
        per_chain_call + per_hop <= 7.5,
        "{per_chain_call} + {per_hop} allocations per chain task"
    );
}
