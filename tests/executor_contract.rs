//! The executor contract, checked on every executor.
//!
//! The DFK drives every executor through one trait
//! (`parsl_core::executor::Executor`, §4.3: "a modular executor interface").
//! Each clause below is one test, run against every instance in
//! [`instances`] that does not declare it as a gap, side by side on threads
//! named "<clause> on <instance>". A gap is declared with its reason,
//! citing the paper or the crate docs, and `every_pair_runs_or_is_declared`
//! checks that no pair is left out silently. After every clause the
//! executor's `outstanding()` is 0.
//!
//! Tasks are held in flight by an app named `sleep_ms`. In-proc its body
//! reports a start and waits on a gate the clause opens; in a spawned
//! `parsl-worker` it is the builtin of that name, which sleeps
//! [`HOLD_MS`].
//!
//! `cargo test --test executor_contract every_pair -- --nocapture` prints
//! the clause × instance table.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parsl::baselines::*;
use parsl::core::executor::{ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl::core::registry::{AppId, AppRegistry, ErasedAppFn, RegisteredApp};
use parsl::core::types::AppKind;
use parsl::executors::proto::{encode, Command, CommandReply, ToManager, WireApp};
use parsl::executors::*;
use parsl::nexus::Addr;
use parsl::prelude::*;
use parsl::wire;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use Clause::*;

/// What a `sleep_ms` hold sleeps in a worker process.
const HOLD_MS: u64 = 100;

/// First app id the in-proc inbox probe advertises; no real app has one.
const PROBE_APP: u64 = 1 << 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Clause {
    /// `submit` before `start` returns `NotRunning`.
    NotStarted,
    /// Through a DFK, 100 independent calls plus a 20-deep dependency
    /// chain return every value right.
    RoundTrip,
    /// One bare `submit_batch` of 1,000 specs gives exactly one outcome
    /// per id, each naming the worker that ran it.
    Batch,
    /// An app error arrives as `TaskError::App` with its message, and the
    /// next task still runs.
    AppFailure,
    /// `capacity()` (= `connected_workers()`) held tasks all start before
    /// any is released.
    Concurrency,
    /// A task submitted behind `capacity()` held blockers and then
    /// cancelled never runs its body and yields exactly one outcome, both
    /// queued at the broker and, with prefetch, held by a manager.
    CancelQueued,
    /// Killing the node that holds a task gives one `ExecutorLost`, and
    /// the next attempt, the one `retries(1)` submits, finishes on a
    /// replacement node.
    NodeLoss,
    /// Retiring a node under load loses and duplicates nothing, and
    /// `draining_blocks()` returns to 0.
    Drain,
    /// `shutdown` twice is safe; a later `submit` returns `NotRunning` and
    /// `connected_workers()` reads 0.
    Shutdown,
}

const CLAUSES: [Clause; 9] = [
    NotStarted,
    RoundTrip,
    Batch,
    AppFailure,
    Concurrency,
    CancelQueued,
    NodeLoss,
    Drain,
    Shutdown,
];

/// How an instance holds a task in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Hold {
    /// In-proc: the body reports its start, then waits for the gate.
    Gate,
    /// In a worker process: the `sleep_ms` builtin sleeps [`HOLD_MS`].
    Sleep,
}

/// The clauses an instance cannot offer, and why.
type Gaps = (&'static [Clause], &'static str);

/// One executor under test.
struct Instance {
    name: &'static str,
    /// Worker slots once started: `connected_workers()` and `capacity()`.
    slots: usize,
    /// A manager takes tasks beyond its running ones (HTEX's prefetch).
    prefetch: bool,
    /// `None`: tasks run inside `submit`, so none can be held.
    hold: Option<Hold>,
    build: fn() -> Built,
    gaps: Gaps,
}

/// A constructed, not yet started, executor, and its node lifecycle hooks
/// (`add_node`, `kill_node`, `remove_node`) when its workers live on nodes.
type Built = (Arc<dyn Executor>, Option<Arc<HtexExecutor>>);

fn plain(ex: impl Executor + 'static) -> Built {
    (Arc::new(ex), None)
}

fn nodes(ex: HtexExecutor) -> Built {
    let ex = Arc::new(ex);
    (ex.clone(), Some(ex))
}

const NONE: Gaps = (&[], "");
const INLINE: Gaps = (
    &[Concurrency, CancelQueued, NodeLoss, Drain],
    "runs each task inside `submit` (crates/core/src/executor.rs docs): no \
     task is ever in flight to hold",
);
const NODELESS: Gaps = (
    &[NodeLoss, Drain],
    "no nodes: a fixed pool of in-process threads (crates/executors/src/threadpool.rs docs)",
);
const LLEX: Gaps = (
    &[NodeLoss],
    "§4.3.3: LLEX has no fault tolerance; a lost worker is never detected \
     (crates/executors/src/llex.rs: heartbeat threshold `Duration::MAX`)",
);
const TCP: Gaps = (
    &[Concurrency],
    "a task's start inside a parsl-worker process is not observable \
     (crates/executors/src/builtin.rs: the sleep_ms hold only sleeps), so \
     overlap could only be inferred from timing",
);
const MODEL: Gaps = (
    &[CancelQueued, NodeLoss, Drain],
    "the baselines model each system's dispatch architecture only \
     (crates/baselines/src/lib.rs docs): no cancel, fixed workers",
);

fn instances() -> Vec<Instance> {
    let gate = Some(Hold::Gate);
    let instance = |name, slots, prefetch, hold, build, gaps| Instance {
        name,
        slots,
        prefetch,
        hold,
        build,
        gaps,
    };
    vec![
        instance("immediate", 1, false, None, immediate, INLINE),
        instance("threadpool", 2, false, gate, threadpool, NODELESS),
        instance("htex", 2, true, gate, htex, NONE),
        instance("llex", 2, false, gate, llex, LLEX),
        instance("exex", 2, false, gate, exex, NONE),
        instance("htex-tcp", 1, true, Some(Hold::Sleep), htex_tcp, TCP),
        instance("dask", 2, false, gate, dask, MODEL),
        instance("ipp", 2, false, gate, ipp, MODEL),
        instance("fireworks", 2, false, gate, fireworks, MODEL),
    ]
}

fn immediate() -> Built {
    plain(ImmediateExecutor::new())
}

fn threadpool() -> Built {
    plain(ThreadPoolExecutor::new(2))
}

fn htex() -> Built {
    let cfg = HtexConfig {
        workers_per_node: 2,
        prefetch: 1,
        ..Default::default()
    };
    nodes(HtexExecutor::new(cfg))
}

fn llex() -> Built {
    nodes(HtexExecutor::new(LlexConfig {
        workers: 2,
        ..Default::default()
    }))
}

fn exex() -> Built {
    let cfg = ExexConfig {
        ranks_per_pool: 3,
        ..Default::default()
    };
    nodes(HtexExecutor::new(cfg))
}

fn htex_tcp() -> Built {
    let cfg = HtexConfig {
        workers_per_node: 1,
        prefetch: 1,
        ..Default::default()
    };
    let worker_cmd = vec![env!("CARGO_BIN_EXE_parsl-worker").to_string()];
    let opts = TcpHtexOptions {
        worker_cmd,
        ..Default::default()
    };
    nodes(HtexExecutor::tcp(cfg, opts).expect("bind loopback hub"))
}

fn dask() -> Built {
    plain(DaskLikeExecutor::new(DaskConfig {
        workers: 2,
        ..Default::default()
    }))
}

fn ipp() -> Built {
    plain(IppExecutor::new(IppConfig {
        engines: 2,
        ..Default::default()
    }))
}

fn fireworks() -> Built {
    plain(FireworksExecutor::new(FireworksConfig {
        workers: 2,
        poll_interval: Duration::from_millis(1),
        db_service: Duration::ZERO,
        ..Default::default()
    }))
}

impl Instance {
    fn gap(&self, clause: Clause) -> Option<&'static str> {
        self.gaps.0.contains(&clause).then_some(self.gaps.1)
    }

    /// Why the suite could not run `clause` here, if it could not.
    fn unmet(&self, clause: Clause) -> Option<&'static str> {
        match clause {
            Concurrency | CancelQueued | NodeLoss | Drain if self.hold.is_none() => {
                Some("holds tasks, and this instance cannot")
            }
            Concurrency if self.hold != Some(Hold::Gate) => Some("sees starts: needs a gate"),
            NodeLoss | Drain if (self.build)().1.is_none() => Some("needs nodes"),
            _ => None,
        }
    }
}

/// Run `body` on every instance that does not declare `clause` a gap.
fn check(clause: Clause, body: fn(&Instance)) {
    let instances = instances();
    std::thread::scope(|scope| {
        for inst in instances.iter().filter(|inst| inst.gap(clause).is_none()) {
            std::thread::Builder::new()
                .name(format!("{clause:?} on {}", inst.name))
                .spawn_scoped(scope, move || body(inst))
                .expect("spawn an instance thread");
        }
    });
}

/// Wait, up to 10 s, for an observable condition: the suite's one sleep.
fn await_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The in-proc hold: `(ms, x) -> x` that sends `x` on `started`, then
/// waits until every gate sender is dropped.
fn gated(started: Sender<u64>, gate: Receiver<()>) -> impl Fn(u64, u64) -> u64 + Send + Sync {
    move |_ms, x| {
        let _ = started.send(x);
        let _ = gate.recv();
        x
    }
}

/// Register `name` with `body`, or with the body a `parsl-worker` binds.
fn register(registry: &AppRegistry, name: &str, body: Option<ErasedAppFn>) -> Arc<RegisteredApp> {
    let body = body.unwrap_or_else(|| parsl::executors::builtin::resolve(name, "").unwrap());
    registry.register(name, AppKind::Native, "", body, Default::default())
}

fn spec(app: &Arc<RegisteredApp>, id: u64, args: Vec<u8>) -> TaskSpec {
    TaskSpec {
        id: TaskId(id),
        app: Arc::clone(app),
        args: args.into(),
        resources: Default::default(),
        attempt: 0,
        tenant: Default::default(),
        items: 1,
    }
}

/// Indices into [`Harness`]'s apps.
const DOUBLE: usize = 0;
const FAIL: usize = 1;
const HOLD: usize = 2;

/// A started executor driven bare, without a DFK.
struct Harness {
    ex: Arc<dyn Executor>,
    nodes: Option<Arc<HtexExecutor>>,
    /// Tasks are held by the gate: the executor runs them in this process.
    gated: bool,
    registry: Arc<AppRegistry>,
    outcomes: Receiver<Vec<TaskOutcome>>,
    apps: [Arc<RegisteredApp>; 3],
    started: Receiver<u64>,
    /// Dropping it opens the gate for every held task, now and later.
    gate: Option<Sender<()>>,
}

impl Harness {
    /// Start `inst` and wait until all its slots are connected.
    fn start(inst: &Instance) -> Harness {
        let (ex, nodes) = (inst.build)();
        let registry = AppRegistry::new();
        let (started_tx, started) = unbounded();
        let (gate, gate_rx) = bounded(0);
        let hold = gated(started_tx, gate_rx);
        let hold: ErasedAppFn = Arc::new(move |args| {
            let (ms, x): (u64, u64) = wire::from_bytes(args).unwrap();
            Ok(wire::to_bytes(&hold(ms, x)).unwrap())
        });
        let apps = [
            register(&registry, "double", None),
            register(&registry, "fail", None),
            register(&registry, "sleep_ms", Some(hold)),
        ];
        let (completions, outcomes) = unbounded();
        let ctx = ExecutorContext {
            completions,
            registry: Arc::clone(&registry),
        };
        ex.start(ctx).unwrap();
        await_until("every slot", || ex.connected_workers() == inst.slots);
        assert_eq!(ex.capacity(), inst.slots);
        Harness {
            ex,
            nodes,
            gated: inst.hold == Some(Hold::Gate),
            registry,
            outcomes,
            apps,
            started,
            gate: Some(gate),
        }
    }

    /// Task `id` of app `DOUBLE`, `FAIL` or `HOLD`; a held task returns
    /// its id.
    fn task(&self, app: usize, id: u64) -> TaskSpec {
        let args = match app {
            HOLD => wire::to_bytes(&(HOLD_MS, id)),
            _ => wire::to_bytes(&(id,)),
        };
        spec(&self.apps[app], id, args.unwrap())
    }

    /// Wait for `n` gated tasks to start; their ids, sorted.
    fn await_starts(&self, n: usize) -> Vec<u64> {
        let wait = || self.started.recv_timeout(Duration::from_secs(10)).unwrap();
        let mut ids: Vec<u64> = (0..n).map(|_| wait()).collect();
        ids.sort_unstable();
        ids
    }

    /// Return once every in-proc manager has read all the broker sent it
    /// so far. A probe advertises an unused app id to each manager, which
    /// reads its inbox in order and binds the id in the registry it shares
    /// with the test. A worker process cannot be probed this way; there
    /// the `sleep_ms` hold outlasts any message's trip instead.
    fn await_managers_caught_up(&self) {
        let Some(nodes) = self.nodes.as_ref().filter(|_| self.gated) else {
            return;
        };
        let probe = nodes.fabric().bind(Addr::new("contract-probe")).unwrap();
        for (id, node) in (PROBE_APP..).zip(nodes.nodes()) {
            let (name, signature) = ("double".into(), String::new());
            let apps = ToManager::Apps(vec![WireApp {
                id,
                name,
                signature,
            }]);
            probe.send(&node, encode(&apps)).unwrap();
            await_until("the manager", || self.registry.get(AppId(id)).is_some());
        }
    }

    /// The next `n` outcomes, at most one per id.
    fn collect(&self, n: usize) -> HashMap<u64, TaskOutcome> {
        let mut got = HashMap::new();
        while got.len() < n {
            for o in self.outcomes.recv_timeout(Duration::from_secs(20)).unwrap() {
                let id = o.id.0;
                assert!(got.insert(id, o).is_none(), "task {id} answered twice");
            }
        }
        got
    }

    /// Quiescence: nothing outstanding, no stray outcome. Then stop.
    fn finish(self) {
        await_until("outstanding() to reach 0", || self.ex.outstanding() == 0);
        assert!(self.outcomes.try_recv().is_err(), "stray outcome");
        self.ex.shutdown();
    }
}

fn value(o: &TaskOutcome) -> u64 {
    wire::from_bytes(o.result.as_ref().expect("the task succeeds")).unwrap()
}

// ---------------------------------------------------------------------------
// The clauses
// ---------------------------------------------------------------------------

#[test]
fn not_started() {
    check(NotStarted, |inst| {
        let ex = (inst.build)().0;
        let task = spec(&register(&AppRegistry::new(), "double", None), 1, vec![]);
        let refused = |r| matches!(r, Err(ExecutorError::NotRunning));
        assert!(refused(ex.submit(task.clone())));
        assert!(refused(ex.submit_batch(vec![task])));
        assert_eq!((ex.connected_workers(), ex.outstanding()), (0, 0));
    });
}

#[test]
fn round_trip() {
    check(RoundTrip, |inst| {
        let ex = (inst.build)().0;
        let dfk = DataFlowKernel::builder()
            .executor_arc(ex.clone())
            .build()
            .unwrap();
        let double = dfk.python_app("double", |x: u64| x * 2);
        let add = dfk.python_app("add", |a: u64, b: u64| a + b);
        let futs: Vec<_> = (0..100u64).map(|i| parsl::core::call!(double, i)).collect();
        let mut chain = add.call((Dep::value(0u64), Dep::value(1u64)));
        for _ in 1..20 {
            chain = add.call((Dep::future(chain), Dep::value(1u64)));
        }
        let wait = Duration::from_secs(20);
        for (i, f) in (0u64..).zip(&futs) {
            assert_eq!(f.result_timeout(wait).unwrap(), 2 * i);
        }
        assert_eq!(chain.result_timeout(wait).unwrap(), 20);
        dfk.wait_for_all();
        assert_eq!(ex.outstanding(), 0);
        dfk.shutdown();
    });
}

#[test]
fn batch() {
    check(Batch, |inst| {
        let h = Harness::start(inst);
        h.ex.submit_batch((0..1000).map(|i| h.task(DOUBLE, i)).collect())
            .unwrap();
        let got = h.collect(1000);
        for i in 0..1000 {
            assert_eq!(value(&got[&i]), 2 * i);
            assert!(!got[&i].worker.as_deref().unwrap_or_default().is_empty());
        }
        h.finish();
    });
}

#[test]
fn app_failure() {
    check(AppFailure, |inst| {
        let h = Harness::start(inst);
        h.ex.submit(h.task(FAIL, 1)).unwrap();
        match &h.collect(1)[&1].result {
            Err(TaskError::App(e)) => assert!(e.to_string().contains("builtin failure"), "{e}"),
            other => panic!("expected an app error, got {other:?}"),
        }
        h.ex.submit(h.task(DOUBLE, 2)).unwrap();
        assert_eq!(value(&h.collect(1)[&2]), 4);
        h.finish();
    });
}

#[test]
fn concurrency() {
    check(Concurrency, |inst| {
        let mut h = Harness::start(inst);
        let n = h.ex.capacity() as u64;
        for id in 0..n {
            h.ex.submit(h.task(HOLD, id)).unwrap();
        }
        assert_eq!(h.await_starts(n as usize), (0..n).collect::<Vec<_>>());
        h.gate = None;
        let got = h.collect(n as usize);
        assert!((0..n).all(|id| value(&got[&id]) == id));
        h.finish();
    });
}

#[test]
fn cancel_queued() {
    check(CancelQueued, |inst| {
        let mut h = Harness::start(inst);
        let blockers = h.ex.capacity() as u64;
        // Behind the blockers: with prefetch, one task the manager holds,
        // then one queued at the broker.
        let cancelled: Vec<u64> = (blockers..=blockers + inst.prefetch as u64).collect();
        let queued = *cancelled.last().unwrap();
        h.ex.submit_batch((0..=queued).map(|id| h.task(HOLD, id)).collect())
            .unwrap();
        if h.gated {
            h.await_starts(blockers as usize);
        }
        for &id in &cancelled {
            h.ex.cancel(TaskId(id), 0);
        }
        let mut got = HashMap::new();
        if inst.prefetch {
            // The broker forwarded the held task's cancel before it
            // settled the queued one; once the manager has read it, no
            // blocker can end before the mark is set.
            got = h.collect(1);
            assert!(got.contains_key(&queued), "{got:?}");
            h.await_managers_caught_up();
        }
        h.gate = None;
        for (id, o) in h.collect((queued + 1) as usize - got.len()) {
            assert!(got.insert(id, o).is_none(), "task {id} answered twice");
        }
        assert!((0..blockers).all(|id| value(&got[&id]) == id));
        for id in &cancelled {
            let err = format!("{:?}", got[id].result.as_ref().unwrap_err());
            assert!(err.contains("cancelled"), "task {id}: {err}");
        }
        assert!(h.started.try_recv().is_err(), "a cancelled body ran");
        h.finish();
    });
}

#[test]
fn node_loss() {
    check(NodeLoss, |inst| {
        let mut h = Harness::start(inst);
        let nodes = h.nodes.clone().unwrap();
        let mut task = h.task(HOLD, 5);
        h.ex.submit(task.clone()).unwrap();
        if h.gated {
            h.await_starts(1);
        } else {
            // The broker answers a command after it has dispatched every
            // task submitted before it.
            let reply = nodes.command(Command::OutstandingInfo, Duration::from_secs(5));
            assert_eq!(reply.ok(), Some(CommandReply::Outstanding(1)));
        }
        for node in nodes.nodes() {
            nodes.kill_node(&node);
        }
        nodes.add_node();
        let lost = &h.collect(1)[&5];
        assert!(
            matches!(lost.result, Err(TaskError::ExecutorLost(_))),
            "{lost:?}"
        );
        // What `retries(1)` submits: the next attempt, which the
        // replacement node runs.
        task.attempt = 1;
        h.ex.submit(task).unwrap();
        h.gate = None;
        let retried = &h.collect(1)[&5];
        assert_eq!((retried.attempt, value(retried)), (1, 5));
        h.finish();
    });
}

#[test]
fn drain() {
    check(Drain, |inst| {
        let mut h = Harness::start(inst);
        let nodes = h.nodes.clone().unwrap();
        let scaling = nodes.scaling().unwrap();
        nodes.add_node();
        await_until("the new node", || h.ex.connected_workers() > inst.slots);
        // More than every slot, prefetch included: each node holds work
        // when the broker takes the retirement, which it reads after the
        // batch.
        let n = 3 * h.ex.connected_workers() as u64;
        h.ex.submit_batch((0..n).map(|id| h.task(HOLD, id)).collect())
            .unwrap();
        assert!(nodes.remove_node());
        assert_eq!(scaling.draining_blocks(), 1);
        h.gate = None;
        let got = h.collect(n as usize);
        assert!((0..n).all(|id| value(&got[&id]) == id));
        await_until("the drain", || {
            scaling.draining_blocks() == 0 && h.ex.connected_workers() == inst.slots
        });
        h.finish();
    });
}

#[test]
fn shutdown() {
    check(Shutdown, |inst| {
        let h = Harness::start(inst);
        h.ex.submit(h.task(DOUBLE, 1)).unwrap();
        assert_eq!(value(&h.collect(1)[&1]), 2);
        await_until("outstanding() to reach 0", || h.ex.outstanding() == 0);
        h.ex.shutdown();
        h.ex.shutdown();
        let refused = h.ex.submit(h.task(DOUBLE, 2));
        assert!(matches!(refused, Err(ExecutorError::NotRunning)));
        assert_eq!((h.ex.connected_workers(), h.ex.outstanding()), (0, 0));
    });
}

/// Every (instance × clause) pair either runs or is declared, with a
/// reason citing the paper (§) or the crate docs.
#[test]
fn every_pair_runs_or_is_declared() {
    let instances = instances();
    assert_eq!(instances.len(), 9);
    let names: Vec<_> = instances.iter().map(|i| i.name).collect();
    let header = format!(
        "| clause | {} |\n|---{}|",
        names.join(" | "),
        "|---".repeat(9)
    );
    println!("{header}");
    for clause in CLAUSES {
        let row: Vec<_> = instances
            .iter()
            .map(|inst| match (inst.gap(clause), inst.unmet(clause)) {
                (Some(why), _) if why.contains('§') || why.contains("crates/") => "gap",
                (Some(why), _) => panic!("{}: {clause:?}: {why} cites nothing", inst.name),
                (None, Some(unmet)) => panic!("{}: {clause:?} {unmet}, undeclared", inst.name),
                (None, None) => "✓",
            })
            .collect();
        println!("| {clause:?} | {} |", row.join(" | "));
    }
}
