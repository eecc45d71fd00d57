//! Outside-in tracing of one task's life, recorded only from this package.
//!
//! Stamps come from four places a user of the public API can stand:
//! around `call()` / `result()` in the workload, inside a
//! [`TracedExecutor`] that decorates the real executor (entry and exit of
//! `submit`, and every outcome batch on its way to the kernel), inside a
//! [`TraceSink`] that receives the kernel's monitor events, and in an
//! `on_done` callback on each future. Stamps of one task share its task
//! id. They are kept in memory and turned into spans after the epoch; a
//! span's self time is its duration minus what its child spans cover.

use crate::stats;
use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::Mutex;
use parsl_core::executor::{BlockScaling, Executor, ExecutorContext, ExecutorError, TaskSpec};
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::types::{TaskId, TaskState};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a stamp was taken. Each source writes to its own lane, so the
/// workload thread never waits on the collector's stamps.
#[derive(Clone, Copy)]
enum Lane {
    Workload = 0,
    Submit = 1,
    Outcome = 2,
    Sink = 3,
    Callback = 4,
}

#[derive(Clone, Copy)]
enum Stamp {
    /// `call()` entered and returned; `n` tasks were created by it.
    Call,
    /// The executor's `submit`/`submit_batch` entered and returned with
    /// this task among `n`.
    Submit,
    /// The task's outcome reached the kernel's completion channel in a
    /// batch of `n`.
    Outcome,
    /// Worker-side execution interval, where the executor reports one.
    Exec,
    /// Monitor events, stamped on receipt.
    Pending,
    Terminal,
    /// The future was assigned.
    Set,
    /// `result()` entered and returned.
    Result,
}

#[derive(Clone, Copy)]
struct Event {
    task: u64,
    stamp: Stamp,
    t0: u64,
    t1: u64,
    n: u32,
}

/// Collects stamps during a traced epoch.
pub struct Tracer {
    origin: Instant,
    lanes: [Mutex<Vec<Event>>; 5],
    /// Child → parent edges the workload declares (a diamond's shape).
    links: Mutex<Vec<(u64, u64)>>,
    /// Calls that create their tasks out of the workload's sight (a map
    /// and its chunk tasks), as intervals.
    bulk_calls: Mutex<Vec<(u64, u64)>>,
    monitor_events: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            lanes: Default::default(),
            links: Mutex::new(Vec::new()),
            bulk_calls: Mutex::new(Vec::new()),
            monitor_events: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the tracer was made; never 0, so 0 can mean
    /// "no stamp".
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn at(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.origin).as_nanos() as u64).max(1)
    }

    fn push(&self, lane: Lane, e: Event) {
        self.lanes[lane as usize].lock().push(e);
    }

    /// A `call()` that ran from `t0` to `t1` and created `tasks`.
    pub fn call(&self, tasks: &[TaskId], t0: u64, t1: u64) {
        let mut lane = self.lanes[Lane::Workload as usize].lock();
        for id in tasks {
            lane.push(Event {
                task: id.0,
                stamp: Stamp::Call,
                t0,
                t1,
                n: tasks.len() as u32,
            });
        }
    }

    /// A call from `t0` to `t1` whose tasks the workload cannot name: the
    /// tasks whose `Pending` event falls inside it are taken as its own.
    pub fn bulk_call(&self, t0: u64, t1: u64) {
        self.bulk_calls.lock().push((t0, t1));
    }

    /// A `result()` on `task` that ran from `t0` to `t1`.
    pub fn result(&self, task: TaskId, t0: u64, t1: u64) {
        self.push(
            Lane::Workload,
            Event {
                task: task.0,
                stamp: Stamp::Result,
                t0,
                t1,
                n: 1,
            },
        );
    }

    /// `child` takes `parent`'s future as an argument.
    pub fn link(&self, child: TaskId, parent: TaskId) {
        self.links.lock().push((child.0, parent.0));
    }

    /// Stamp the moment `future` is assigned.
    pub fn watch<T>(self: &Arc<Self>, future: &parsl_core::AppFuture<T>) {
        let tracer = Arc::clone(self);
        let task = future.task_id().0;
        future.on_done(move |_| {
            let t = tracer.now();
            tracer.push(
                Lane::Callback,
                Event {
                    task,
                    stamp: Stamp::Set,
                    t0: t,
                    t1: t,
                    n: 1,
                },
            );
        });
    }

    /// Monitor events seen so far.
    pub fn monitor_events(&self) -> u64 {
        self.monitor_events.load(Ordering::Relaxed)
    }

    /// Everything stamped so far, as per-task timelines.
    pub fn timelines(&self) -> Timelines {
        let mut tasks: Vec<Timeline> = Vec::new();
        for lane in &self.lanes {
            for e in lane.lock().iter() {
                let i = e.task as usize;
                if tasks.len() <= i {
                    tasks.resize(i + 1, Timeline::default());
                }
                let t = &mut tasks[i];
                match e.stamp {
                    Stamp::Call => {
                        t.call = (e.t0, e.t1);
                        t.call_tasks = e.n;
                    }
                    Stamp::Submit => {
                        t.submit = (e.t0, e.t1);
                        t.submit_batch = e.n;
                    }
                    Stamp::Outcome => t.outcome = e.t0,
                    Stamp::Exec => t.exec = (e.t0, e.t1),
                    Stamp::Pending => t.pending = e.t0,
                    Stamp::Terminal => t.terminal = e.t0,
                    Stamp::Set => t.set = e.t0,
                    Stamp::Result => t.result = (e.t0, e.t1),
                }
            }
        }
        for &(child, parent) in self.links.lock().iter() {
            if let Some(t) = tasks.get_mut(child as usize) {
                t.parents.push(parent);
            }
        }
        for &(t0, t1) in self.bulk_calls.lock().iter() {
            let inside = |t: &Timeline| t.call.0 == 0 && t.pending >= t0 && t.pending <= t1;
            let n = tasks.iter().filter(|t| inside(t)).count() as u32;
            for t in tasks.iter_mut().filter(|t| inside(t)) {
                t.call = (t0, t1);
                t.call_tasks = n;
            }
        }
        Timelines { tasks }
    }
}

/// The stamps of one task; 0 means the stamp was never taken.
#[derive(Clone, Default)]
pub struct Timeline {
    call: (u64, u64),
    call_tasks: u32,
    pending: u64,
    submit: (u64, u64),
    submit_batch: u32,
    outcome: u64,
    exec: (u64, u64),
    terminal: u64,
    set: u64,
    result: (u64, u64),
    parents: Vec<u64>,
}

/// One named interval of a task's life. `parent` indexes the same slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub task: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Overlapping children are counted once, and a
/// child reaching outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.len() - covered
        })
        .collect()
}

pub struct Timelines {
    tasks: Vec<Timeline>,
}

/// Per-layer numbers of one traced epoch; times are medians over the
/// tasks of the work window, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    pub call_us: f64,
    pub dispatch_wait_us: f64,
    pub exec_submit_us_per_task: f64,
    pub flight_us: f64,
    pub exec_us: f64,
    pub collect_us: f64,
    pub wake_us: f64,
    pub submit_batch_mean: f64,
    pub outcome_batch_mean: f64,
    /// Executor calls and outcome batches inside the window.
    pub submit_calls: u64,
    pub outcome_batches: u64,
    /// Tasks that reached the executor inside the window.
    pub executor_tasks: u64,
    /// Tasks the kernel created inside the window.
    pub tasks: u64,
    /// Worker-side execution seconds the executor reported.
    pub exec_seconds: f64,
}

impl Timelines {
    /// The spans of task `id`, root first.
    fn spans(&self, id: u64) -> Vec<Span> {
        let Some(t) = self.tasks.get(id as usize) else {
            return Vec::new();
        };
        let first = [t.call.0, t.pending].into_iter().filter(|&x| x > 0).min();
        let last = [t.result.1, t.set, t.terminal].into_iter().max();
        let (Some(first), Some(last)) = (first, last) else {
            return Vec::new();
        };
        let mut spans = vec![Span {
            name: "task",
            task: id,
            parent: None,
            start: first,
            end: last.max(first),
        }];
        let mut add = |name, parent, start: u64, end: u64| {
            if start > 0 && end >= start {
                spans.push(Span {
                    name,
                    task: id,
                    parent: Some(parent),
                    start,
                    end,
                });
                spans.len() - 1
            } else {
                0
            }
        };
        let call = add("call", 0, t.call.0, t.call.1);
        // A task is ready once it exists and its last parent is assigned.
        let ready = t
            .parents
            .iter()
            .filter_map(|&p| self.tasks.get(p as usize).map(|p| p.set))
            .chain([t.pending, if t.pending == 0 { t.call.0 } else { 0 }])
            .max()
            .unwrap_or(0);
        if t.submit.0 > 0 {
            // Dispatch and the executor call run inside `call()` when the
            // calling thread is the one that drains the ready queue.
            let inside = |x: u64| call > 0 && x >= t.call.0 && x <= t.call.1;
            let owner = |start: u64, end: u64| {
                if inside(start) && inside(end) {
                    call
                } else {
                    0
                }
            };
            add(
                "dispatch_wait",
                owner(ready, t.submit.0),
                ready.min(t.submit.0),
                t.submit.0,
            );
            add(
                "exec_submit",
                owner(t.submit.0, t.submit.1),
                t.submit.0,
                t.submit.1,
            );
            let flight = add("flight", 0, t.submit.1, t.outcome);
            if flight > 0 {
                add("exec", flight, t.exec.0, t.exec.1);
            }
        }
        let set = if t.set > 0 { t.set } else { t.terminal };
        add("collect", 0, t.outcome, set);
        add("wake", 0, set.max(t.result.0), t.result.1);
        spans
    }

    /// Medians over the tasks created at or after `window_start`.
    pub fn summary(&self, window_start: u64) -> TraceSummary {
        let mut by_name: std::collections::HashMap<&'static str, Vec<f64>> = Default::default();
        let mut out = TraceSummary::default();
        let mut window_submits: Vec<(u64, u64)> = Vec::new();
        let mut window_outcomes: Vec<u64> = Vec::new();
        for (id, t) in self.tasks.iter().enumerate() {
            let born = if t.call.0 > 0 { t.call.0 } else { t.pending };
            if born == 0 || born < window_start {
                continue;
            }
            out.tasks += 1;
            let spans = self.spans(id as u64);
            for (s, own) in spans.iter().zip(self_times(&spans)) {
                let us = own as f64 / 1e3;
                let us = match s.name {
                    // One call that created many tasks (a map) is shared
                    // among them, as one executor call is among its batch.
                    "call" => us / t.call_tasks.max(1) as f64,
                    "exec_submit" => us / t.submit_batch.max(1) as f64,
                    _ => us,
                };
                by_name.entry(s.name).or_default().push(us);
            }
            if t.submit.0 > 0 {
                out.executor_tasks += 1;
                window_submits.push(t.submit);
            }
            if t.outcome > 0 {
                window_outcomes.push(t.outcome);
            }
            out.exec_seconds += t.exec.1.saturating_sub(t.exec.0) as f64 / 1e9;
        }
        let mut p50 = |name: &str| {
            by_name.get_mut(name).map_or(0.0, |v| {
                v.sort_by(|a, b| a.total_cmp(b));
                stats::percentile(v, 50.0)
            })
        };
        out.call_us = p50("call");
        out.dispatch_wait_us = p50("dispatch_wait");
        out.exec_submit_us_per_task = p50("exec_submit");
        out.flight_us = p50("flight");
        out.exec_us = p50("exec");
        out.collect_us = p50("collect");
        out.wake_us = p50("wake");
        // Tasks of one batch carry the same stamps, so the distinct
        // stamps count the executor calls and the outcome batches.
        let outcomes = window_outcomes.len();
        window_submits.sort_unstable();
        window_submits.dedup();
        window_outcomes.sort_unstable();
        window_outcomes.dedup();
        out.submit_calls = window_submits.len() as u64;
        out.outcome_batches = window_outcomes.len() as u64;
        out.submit_batch_mean = out.executor_tasks as f64 / out.submit_calls.max(1) as f64;
        out.outcome_batch_mean = outcomes as f64 / out.outcome_batches.max(1) as f64;
        out
    }

    /// Write the spans of up to `limit` tasks, evenly spaced over the
    /// run, as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let step = self.tasks.len().div_ceil(limit.max(1)).max(1);
        for id in (0..self.tasks.len()).step_by(step) {
            let spans = self.spans(id as u64);
            let own = self_times(&spans);
            for (s, own) in spans.iter().zip(own) {
                writeln!(
                    w,
                    "{{\"task\": {}, \"span\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.task,
                    s.name,
                    s.parent
                        .map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name)),
                    s.start,
                    s.end,
                    own
                )?;
            }
        }
        w.flush()
    }
}

/// Decorates an executor with stamps at its two boundaries: tasks going
/// in through `submit`/`submit_batch`, outcomes coming back through the
/// completion channel.
pub struct TracedExecutor {
    inner: Arc<dyn Executor>,
    tracer: Arc<Tracer>,
    stop: Arc<AtomicBool>,
    relay: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TracedExecutor {
    pub fn new(inner: Arc<dyn Executor>, tracer: Arc<Tracer>) -> Self {
        TracedExecutor {
            inner,
            tracer,
            stop: Arc::new(AtomicBool::new(false)),
            relay: Mutex::new(None),
        }
    }

    fn stamp_submit(&self, ids: &[u64], t0: u64, t1: u64) {
        let mut lane = self.tracer.lanes[Lane::Submit as usize].lock();
        for &task in ids {
            lane.push(Event {
                task,
                stamp: Stamp::Submit,
                t0,
                t1,
                n: ids.len() as u32,
            });
        }
    }
}

impl Executor for TracedExecutor {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let (tx, rx) = unbounded();
        let kernel = ctx.completions;
        let tracer = Arc::clone(&self.tracer);
        let stop = Arc::clone(&self.stop);
        let relay = std::thread::Builder::new()
            .name("bench-trace-relay".into())
            .spawn(move || loop {
                let batch: Vec<parsl_core::TaskOutcome> =
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(batch) => batch,
                        Err(RecvTimeoutError::Timeout) if !stop.load(Ordering::Acquire) => continue,
                        Err(_) => return,
                    };
                let t = tracer.now();
                {
                    let mut lane = tracer.lanes[Lane::Outcome as usize].lock();
                    for o in &batch {
                        lane.push(Event {
                            task: o.id.0,
                            stamp: Stamp::Outcome,
                            t0: t,
                            t1: t,
                            n: batch.len() as u32,
                        });
                        if let (Some(s), Some(f)) = (o.started, o.finished) {
                            lane.push(Event {
                                task: o.id.0,
                                stamp: Stamp::Exec,
                                t0: tracer.at(s),
                                t1: tracer.at(f),
                                n: 1,
                            });
                        }
                    }
                }
                if kernel.send(batch).is_err() {
                    return;
                }
            })
            .map_err(|e| ExecutorError::Comm(format!("spawn trace relay: {e}")))?;
        *self.relay.lock() = Some(relay);
        self.inner.start(ExecutorContext {
            completions: tx,
            registry: ctx.registry,
        })
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        let id = task.id.0;
        let t0 = self.tracer.now();
        let r = self.inner.submit(task);
        self.stamp_submit(&[id], t0, self.tracer.now());
        r
    }

    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
        let t0 = self.tracer.now();
        let r = self.inner.submit_batch(tasks);
        self.stamp_submit(&ids, t0, self.tracer.now());
        r
    }

    fn cancel(&self, id: TaskId, attempt: u32) {
        self.inner.cancel(id, attempt);
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn connected_workers(&self) -> usize {
        self.inner.connected_workers()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
        self.stop.store(true, Ordering::Release);
        if let Some(relay) = self.relay.lock().take() {
            let _ = relay.join();
        }
    }

    fn scaling(&self) -> Option<&dyn BlockScaling> {
        self.inner.scaling()
    }
}

/// Receives the kernel's monitor events, stamps the ones that bound a
/// task's life, counts all of them, and passes them on.
pub struct TraceSink {
    tracer: Arc<Tracer>,
    next: Option<Arc<dyn MonitorSink>>,
}

impl TraceSink {
    pub fn new(tracer: Arc<Tracer>, next: Option<Arc<dyn MonitorSink>>) -> Self {
        TraceSink { tracer, next }
    }

    fn stamp(&self, events: &[MonitorEvent]) {
        let t = self.tracer.now();
        self.tracer
            .monitor_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut lane = self.tracer.lanes[Lane::Sink as usize].lock();
        for e in events {
            let MonitorEvent::Task { task, state, .. } = e else {
                continue;
            };
            let stamp = match state {
                TaskState::Pending => Stamp::Pending,
                s if s.is_terminal() => Stamp::Terminal,
                _ => continue,
            };
            lane.push(Event {
                task: task.0,
                stamp,
                t0: t,
                t1: t,
                n: 1,
            });
        }
    }
}

impl MonitorSink for TraceSink {
    fn on_event(&self, event: &MonitorEvent) {
        self.stamp(std::slice::from_ref(event));
        if let Some(next) = &self.next {
            next.on_event(event);
        }
    }

    fn on_batch(&self, events: &[MonitorEvent]) {
        self.stamp(events);
        if let Some(next) = &self.next {
            next.on_batch(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            task: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("task", None, 0, 100),
            span("call", Some(0), 0, 30),
            span("exec_submit", Some(1), 10, 25),
            span("flight", Some(0), 30, 90),
            span("exec", Some(3), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![10, 15, 15, 40, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("task", None, 10, 50),
            span("a", Some(0), 0, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 45, 80),
            span("outside", Some(0), 60, 70),
        ];
        // a∪b covers 10..40 of the parent, c covers 45..50.
        assert_eq!(self_times(&spans)[0], 40 - 30 - 5);
    }

    #[test]
    fn childless_span_keeps_its_duration() {
        assert_eq!(self_times(&[span("wake", None, 5, 12)]), vec![7]);
    }

    #[test]
    fn stamps_become_spans_with_nested_executor_call() {
        let tracer = Tracer::new();
        let id = TaskId(3);
        tracer.call(&[id], 100, 400);
        tracer.push(
            Lane::Sink,
            Event {
                task: 3,
                stamp: Stamp::Pending,
                t0: 150,
                t1: 150,
                n: 1,
            },
        );
        tracer.push(
            Lane::Submit,
            Event {
                task: 3,
                stamp: Stamp::Submit,
                t0: 200,
                t1: 350,
                n: 1,
            },
        );
        tracer.push(
            Lane::Outcome,
            Event {
                task: 3,
                stamp: Stamp::Outcome,
                t0: 900,
                t1: 900,
                n: 1,
            },
        );
        tracer.push(
            Lane::Callback,
            Event {
                task: 3,
                stamp: Stamp::Set,
                t0: 1000,
                t1: 1000,
                n: 1,
            },
        );
        tracer.result(id, 500, 1100);
        let lines = tracer.timelines();
        let spans = lines.spans(3);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "task",
                "call",
                "dispatch_wait",
                "exec_submit",
                "flight",
                "collect",
                "wake"
            ]
        );
        // Dispatch (150..200) and the executor call (200..350) ran inside
        // call() (100..400), so call's self time excludes both.
        let own = self_times(&spans);
        assert_eq!(own[1], 300 - 50 - 150);
        let s = lines.summary(0);
        assert_eq!(s.tasks, 1);
        assert_eq!(s.executor_tasks, 1);
        assert!((s.flight_us - 0.55).abs() < 1e-9);
        assert!((s.collect_us - 0.1).abs() < 1e-9);
        assert!((s.wake_us - 0.1).abs() < 1e-9);
    }
}
