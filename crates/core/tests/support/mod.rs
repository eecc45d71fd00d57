//! What the DAG property suites share: one random-DAG spec, one harness
//! that runs a spec on a kernel, the inline executor and monitor sink they
//! run with, and `expect` — a sequential reference interpreter that says
//! what any run of a spec must produce. Every suite checks the kernel
//! against `expect`, never against a second production configuration.
//!
//! A spec is a layered DAG. Node `(li, ni)` depends on a subset of layer
//! `li - 1` and computes `base + Σ parents` (wrapping), with
//! `base = (li + 1) * 1000 + ni`; a poisoned node fails every attempt
//! instead. The harness submits each node, in order, as a `join_all` of its
//! parents followed by a `node` task taking the join — so on a fresh kernel
//! the `k`-th node is tasks `2k` (join) and `2k + 1` (node).
//!
//! The root suites include this file through `#[path]`, so it uses std,
//! proptest and `parsl_core` only.

#![allow(dead_code)] // each suite uses its own part

use parsl_core::combinators::join_all;
use parsl_core::error::{AppError, ParslError, TaskError};
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::ConfigBuilder;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long one run may take before its unfinished nodes count as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One node of a [`DagSpec`].
#[derive(Debug, Clone)]
pub struct Node {
    pub base: u64,
    /// Indices of earlier nodes; may repeat.
    pub parents: Vec<usize>,
    pub poisoned: bool,
    /// The tenant the node task runs under (its join runs under the
    /// default one).
    pub tenant: u32,
}

/// A random layered DAG, nodes in submission order.
#[derive(Debug, Clone)]
pub struct DagSpec {
    pub nodes: Vec<Node>,
    /// The node indices of each layer.
    pub layers: Vec<Range<usize>>,
}

/// 2–4 layers of 1 to `max_width` nodes, each with up to 3 parents in
/// the layer before, a tenant in 0..4, and — in half the specs — a
/// one-in-five chance of being poisoned.
pub fn dag_strategy(max_width: usize) -> impl Strategy<Value = DagSpec> {
    let sizes = vec(1..max_width + 1, 2..5);
    (sizes, any::<bool>()).prop_flat_map(|(sizes, with_failures)| {
        let mut layers = Vec::new();
        for (li, &n) in sizes.iter().enumerate() {
            let prev = if li == 0 { 0 } else { sizes[li - 1] };
            // Layer 0 draws no parents; `max(1)` only keeps the index
            // range non-empty for it.
            let parents = vec(0..prev.max(1), 0..=prev.min(3));
            let poisoned = (0u8..5).prop_map(move |x| with_failures && x == 0);
            layers.push(vec((parents, poisoned, 0u32..4), n..=n));
        }
        layers.prop_map(|layers| {
            let mut spec = DagSpec {
                nodes: Vec::new(),
                layers: Vec::new(),
            };
            for (li, layer) in layers.into_iter().enumerate() {
                let start = spec.nodes.len();
                let prev_start = spec.layers.last().map_or(0, |r| r.start);
                for (ni, (parents, poisoned, tenant)) in layer.into_iter().enumerate() {
                    spec.nodes.push(Node {
                        base: (li as u64 + 1) * 1000 + ni as u64,
                        parents: parents.into_iter().map(|p| prev_start + p).collect(),
                        poisoned,
                        tenant,
                    });
                }
                spec.layers.push(start..spec.nodes.len());
            }
            spec
        })
    })
}

/// The `node` app's body. `parsl_executors::builtin` compiles the same
/// body into spawned workers under the same name.
pub fn node_body(base: u64, deps: Vec<u64>, fail: bool) -> Result<u64, AppError> {
    if fail {
        return Err(AppError::msg("poisoned node"));
    }
    Ok(deps.into_iter().fold(base, u64::wrapping_add))
}

/// A node's value, or the kind of its failure: `"app"` (its body failed),
/// `"dep"` (a parent did), `"other"` (anything else, a timeout included).
pub type Value = Result<u64, &'static str>;

pub fn classify(r: Result<u64, ParslError>) -> Value {
    match r {
        Ok(v) => Ok(v),
        Err(ParslError::Task(TaskError::App(_))) => Err("app"),
        Err(ParslError::Task(TaskError::DependencyFailed { .. })) => Err("dep"),
        Err(_) => Err("other"),
    }
}

/// Submit `spec` to `dfk` and wait for every node: their values, in node
/// order.
pub fn submit(dfk: &Arc<DataFlowKernel>, spec: &DagSpec) -> Vec<Value> {
    let node = dfk.python_app_fallible("node", node_body);
    let mut futures: Vec<AppFuture<u64>> = Vec::with_capacity(spec.nodes.len());
    for n in &spec.nodes {
        let joined = join_all(dfk, n.parents.iter().map(|&p| futures[p].clone()).collect());
        futures.push(node.invoke().tenant(TenantId(n.tenant)).call((
            Dep::value(n.base),
            Dep::future(joined),
            Dep::value(n.poisoned),
        )));
    }
    let deadline = Instant::now() + TIMEOUT;
    futures
        .iter()
        .map(|f| classify(f.result_timeout(deadline.saturating_duration_since(Instant::now()))))
        .collect()
}

/// What the monitor saw of one task.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub launched: u32,
    pub retries: u32,
    /// State and attempt of each terminal event: exactly one per task.
    pub ended: Vec<(TaskState, u32)>,
}

/// The attempt witness: per task id, its `Launched`, `Retry` and terminal
/// monitor events.
#[derive(Default)]
pub struct Retries(Mutex<BTreeMap<u64, Trace>>);

impl MonitorSink for Retries {
    fn on_event(&self, event: &MonitorEvent) {
        let mut tasks = self.0.lock().unwrap();
        match event {
            MonitorEvent::Task {
                task,
                state,
                attempt,
                ..
            } => {
                let trace = tasks.entry(task.0).or_default();
                if *state == TaskState::Launched {
                    trace.launched += 1;
                } else if state.is_terminal() {
                    trace.ended.push((*state, *attempt));
                }
            }
            MonitorEvent::Retry { task, .. } => tasks.entry(task.0).or_default().retries += 1,
            _ => {}
        }
    }
}

/// Everything a run of a spec is compared on.
#[derive(Debug, PartialEq)]
pub struct Run {
    pub values: Vec<Value>,
    /// The kernel's terminal-state histogram, join tasks included.
    pub states: HashMap<TaskState, usize>,
    pub tasks: BTreeMap<u64, Trace>,
}

/// Build a kernel from `builder` with a retry budget and a [`Retries`]
/// sink, run `spec` on it, check it comes to rest, and shut it down.
pub fn run(builder: ConfigBuilder, spec: &DagSpec, retries: u32) -> Run {
    let sink = Arc::new(Retries::default());
    let dfk = builder
        .retries(retries)
        .monitor(sink.clone())
        .build()
        .unwrap();
    let values = submit(&dfk, spec);
    assert_quiescent(&dfk);
    let run = Run {
        values,
        states: dfk.state_counts(),
        tasks: sink.0.lock().unwrap().clone(),
    };
    dfk.shutdown();
    run
}

/// The kernel's accounting at rest: nothing live, parked or charged to an
/// executor or tenant, and a state histogram covering every task.
pub fn assert_quiescent(dfk: &DataFlowKernel) {
    dfk.wait_for_all_timeout(TIMEOUT);
    assert_eq!(dfk.live_tasks(), 0, "tasks still live");
    let ended: usize = dfk.state_counts().values().sum();
    assert_eq!(ended, dfk.task_count(), "state histogram vs task count");
    for (label, n) in dfk.inflight_counts() {
        assert_eq!(n, 0, "executor {label} still charged");
    }
    assert_eq!(dfk.parked_tasks(), 0, "tasks still parked");
    for t in dfk.tenant_ids() {
        assert_eq!(dfk.tenant_inflight(t), 0, "{t} still charged");
    }
}

/// The reference interpreter: what a run of `spec` with a budget of
/// `retries` must produce, evaluated one node at a time in order. A join
/// runs once if its parents all succeeded and ends `DepFail` otherwise; a
/// node whose join failed ends `DepFail` without running; a poisoned node
/// runs, retries `retries` times, and ends `Failed` on its last attempt.
pub fn expect(spec: &DagSpec, retries: u32) -> Run {
    let trace = |launched, retries, state, attempt| Trace {
        launched,
        retries,
        ended: vec![(state, attempt)],
    };
    let mut run = Run {
        values: Vec::new(),
        states: HashMap::new(),
        tasks: BTreeMap::new(),
    };
    for (k, n) in spec.nodes.iter().enumerate() {
        let parents: Result<Vec<u64>, _> = n.parents.iter().map(|&p| run.values[p]).collect();
        let (join, value, node) = match parents {
            Err(_) => (
                trace(0, 0, TaskState::DepFail, 0),
                Err("dep"),
                trace(0, 0, TaskState::DepFail, 0),
            ),
            Ok(deps) => {
                let join = trace(1, 0, TaskState::Done, 0);
                match node_body(n.base, deps, n.poisoned) {
                    Ok(v) => (join, Ok(v), trace(1, 0, TaskState::Done, 0)),
                    Err(_) => (
                        join,
                        Err("app"),
                        trace(1, retries, TaskState::Failed, retries),
                    ),
                }
            }
        };
        for (id, t) in [(2 * k, join), (2 * k + 1, node)] {
            *run.states.entry(t.ended[0].0).or_default() += 1;
            run.tasks.insert(id as u64, t);
        }
        run.values.push(value);
    }
    run
}

/// An executor that runs each task on the submitting thread. Batched, it
/// runs a whole submitted batch before delivering it as one frame;
/// otherwise every task comes through `submit` and ships as a frame of
/// one.
pub struct InlineExec {
    label: String,
    batched: bool,
    ctx: Mutex<Option<ExecutorContext>>,
}

impl InlineExec {
    pub fn new(label: &str, batched: bool) -> Self {
        InlineExec {
            label: label.into(),
            batched,
            ctx: Mutex::new(None),
        }
    }

    /// Run one task's body.
    pub fn run(task: &TaskSpec) -> TaskOutcome {
        let result = (task.app.func)(&task.args)
            .map(Into::into)
            .map_err(TaskError::App);
        TaskOutcome::new(task.id, task.attempt, result)
    }

    fn send(&self, outcomes: Vec<TaskOutcome>) -> Result<(), ExecutorError> {
        let ctx = self
            .ctx
            .lock()
            .unwrap()
            .clone()
            .ok_or(ExecutorError::NotRunning)?;
        ctx.completions
            .send(outcomes)
            .map_err(|_| ExecutorError::Comm("completions closed".into()))
    }
}

impl Executor for InlineExec {
    fn label(&self) -> &str {
        &self.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock().unwrap() = Some(ctx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.send(vec![Self::run(&task)])
    }

    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        if !self.batched {
            return tasks.into_iter().try_for_each(|t| self.submit(t));
        }
        self.send(tasks.iter().map(Self::run).collect())
    }

    fn outstanding(&self) -> usize {
        0
    }

    fn connected_workers(&self) -> usize {
        1
    }

    fn shutdown(&self) {
        self.ctx.lock().unwrap().take();
    }
}
