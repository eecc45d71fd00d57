//! Straggler hedging is semantically invisible. For random diamond DAGs
//! with injected stragglers, a run with the hedge watcher enabled must be
//! observationally identical to an unhedged run: same per-node values,
//! same task count, every task `Done`, and **exactly one** checkpoint
//! record per task — the hedge race settles once, the loser's late result
//! is discarded, and the memo/checkpoint plane never double-commits.
//!
//! A deterministic companion test pins the mechanism itself: a primary
//! attempt blocked on a gate only the test releases can still resolve,
//! because the speculative duplicate wins the race.

use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::memo::Memoizer;
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::strategy::{HedgeConfig, StrategyConfig};
use parsl_core::types::TaskState;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// An inline thread-pool executor: workers pull specs off a shared channel
// and run them with real wall-clock timing, so stragglers genuinely
// occupy a worker and service-time quantiles are observed. (The crate's
// ImmediateExecutor runs on the submitting thread — a straggler there
// would block the DFK itself, and no attempt could ever overtake it.)
// ---------------------------------------------------------------------------

struct PoolExec {
    label: String,
    workers: usize,
    tx: parking_lot::Mutex<Option<std::sync::mpsc::Sender<TaskSpec>>>,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PoolExec {
    fn new(label: &str, workers: usize) -> Self {
        PoolExec {
            label: label.into(),
            workers,
            tx: parking_lot::Mutex::new(None),
            threads: parking_lot::Mutex::new(Vec::new()),
        }
    }
}

impl Executor for PoolExec {
    fn label(&self) -> &str {
        &self.label
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        let (tx, rx) = std::sync::mpsc::channel::<TaskSpec>();
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        let mut threads = self.threads.lock();
        for i in 0..self.workers {
            let rx = Arc::clone(&rx);
            let completions = ctx.completions.clone();
            let worker = format!("{}-w{i}", self.label);
            threads.push(
                std::thread::Builder::new()
                    .name(worker.clone())
                    .spawn(move || {
                        let next = || rx.lock().recv();
                        while let Ok(task) = next() {
                            let started = Instant::now();
                            let result = (task.app.func)(&task.args)
                                .map(bytes::Bytes::from)
                                .map_err(parsl_core::error::TaskError::App);
                            let _ = completions.send(vec![TaskOutcome {
                                id: task.id,
                                attempt: task.attempt,
                                result,
                                worker: Some(worker.clone()),
                                started: Some(started),
                                finished: Some(Instant::now()),
                            }]);
                        }
                    })
                    .expect("spawn pool worker"),
            );
        }
        *self.tx.lock() = Some(tx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.tx
            .lock()
            .as_ref()
            .ok_or(ExecutorError::NotRunning)?
            .send(task)
            .map_err(|_| ExecutorError::Comm("pool stopped".into()))
    }

    fn outstanding(&self) -> usize {
        0
    }

    fn connected_workers(&self) -> usize {
        self.workers
    }

    fn shutdown(&self) {
        self.tx.lock().take();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// Counts hedge launches off the monitor stream.
#[derive(Default)]
struct HedgeCount(AtomicUsize);

impl MonitorSink for HedgeCount {
    fn on_event(&self, e: &MonitorEvent) {
        if matches!(e, MonitorEvent::Hedge { .. }) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn unique_ckpt_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "parsl-hedging-{tag}-{}-{}.ckpt",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ))
}

// ---------------------------------------------------------------------------
// Random diamond DAGs: a fixed wide, fast first layer (it supplies the
// p99 samples that arm the hedge watcher), then random layers where each
// node reads two parents from the previous layer and may be a straggler.
// Values are pure functions of the DAG shape; stragglers only add delay —
// the first execution of a straggling task sleeps, any speculative
// re-execution returns immediately, so a hedge genuinely overtakes.
// ---------------------------------------------------------------------------

const ROOT_WIDTH: usize = 8;
const STRAGGLE_MS: u64 = 100;

#[derive(Debug, Clone)]
struct Dag {
    /// Per layer, per node: (parent a, parent b, straggles). Parent
    /// indices are taken modulo the previous layer's width.
    layers: Vec<Vec<(usize, usize, bool)>>,
}

fn dag_strategy() -> impl Strategy<Value = Dag> {
    // ~20% of nodes straggle.
    let node = (0usize..8, 0usize..8, (0usize..5).prop_map(|s| s == 0));
    vec(vec(node, 1..5), 1..3).prop_map(|layers| Dag { layers })
}

struct RunOutput {
    values: Vec<Vec<u64>>,
    task_count: usize,
    done: usize,
    checkpoint_frames: usize,
}

fn run(dag: &Dag, hedged: bool) -> RunOutput {
    let ckpt = unique_ckpt_path(if hedged { "hedged" } else { "plain" });
    let mut builder = DataFlowKernel::builder()
        .executor(PoolExec::new("e0", 4))
        .executor(PoolExec::new("e1", 4))
        .memoize(true)
        .checkpoint_file(&ckpt)
        .seed(7);
    if hedged {
        builder = builder.strategy(StrategyConfig::off().hedge(HedgeConfig {
            multiplier: 2.0,
            min_samples: 4,
            min_age: Duration::from_millis(20),
            check_interval: Duration::from_millis(5),
        }));
    }
    let dfk = builder.build().unwrap();

    // First-execution tracker: a straggling task sleeps only the first
    // time its (unique) base is seen, so the hedge attempt runs fast.
    let first = Arc::new(parking_lot::Mutex::new(HashSet::<u64>::new()));
    let node = dfk.python_app("node", move |base: u64, a: u64, b: u64, straggle: bool| {
        if straggle && first.lock().insert(base) {
            std::thread::sleep(Duration::from_millis(STRAGGLE_MS));
        }
        base.wrapping_add(a).wrapping_add(b)
    });

    let mut futures: Vec<Vec<AppFuture<u64>>> = Vec::new();
    let roots: Vec<AppFuture<u64>> = (0..ROOT_WIDTH)
        .map(|ni| {
            node.call((
                Dep::value(1000 + ni as u64),
                Dep::value(0u64),
                Dep::value(0u64),
                Dep::value(false),
            ))
        })
        .collect();
    futures.push(roots);
    for (li, layer) in dag.layers.iter().enumerate() {
        let prev_len = futures[li].len();
        let layer_futs = layer
            .iter()
            .enumerate()
            .map(|(ni, &(a, b, straggle))| {
                // Bases are globally unique: every task has its own memo
                // key, so checkpoint frames count tasks one-to-one.
                let base = (li as u64 + 2) * 1000 + ni as u64;
                node.call((
                    Dep::value(base),
                    Dep::future(futures[li][a % prev_len].clone()),
                    Dep::future(futures[li][b % prev_len].clone()),
                    Dep::value(straggle),
                ))
            })
            .collect();
        futures.push(layer_futs);
    }

    let values: Vec<Vec<u64>> = futures
        .iter()
        .map(|layer| layer.iter().map(|f| f.result().unwrap()).collect())
        .collect();
    dfk.wait_for_all();
    let task_count = dfk.task_count();
    let done = dfk
        .state_counts()
        .into_iter()
        .filter(|&(s, _)| s == TaskState::Done)
        .map(|(_, n)| n)
        .sum();
    dfk.shutdown();

    let checkpoint_frames = Memoizer::new(true)
        .load_checkpoint(&ckpt)
        .expect("readable checkpoint");
    let _ = std::fs::remove_file(&ckpt);
    RunOutput {
        values,
        task_count,
        done,
        checkpoint_frames,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hedged ≡ unhedged: identical values, identical task counts, every
    /// task terminal in `Done`, and exactly one checkpoint record per
    /// task in both runs — speculation never double-commits.
    #[test]
    fn hedged_run_equals_unhedged_run(dag in dag_strategy()) {
        let plain = run(&dag, false);
        let hedged = run(&dag, true);
        prop_assert_eq!(&plain.values, &hedged.values);
        prop_assert_eq!(plain.task_count, hedged.task_count);
        prop_assert_eq!(plain.done, plain.task_count, "unhedged: non-Done terminals");
        prop_assert_eq!(hedged.done, hedged.task_count, "hedged: non-Done terminals");
        prop_assert_eq!(plain.checkpoint_frames, plain.task_count,
            "unhedged: checkpoint not exactly-once");
        prop_assert_eq!(hedged.checkpoint_frames, hedged.task_count,
            "hedged: checkpoint not exactly-once");
    }
}

/// The mechanism, deterministically: a primary attempt parked behind a
/// gate only this test opens still resolves, because the hedge watcher
/// launches a duplicate that wins the race. The gate is then opened and
/// the loser's late result is discarded (the task settles exactly once).
#[test]
fn hedge_overtakes_a_blocked_primary() {
    let hedges = Arc::new(HedgeCount::default());
    let dfk = DataFlowKernel::builder()
        .executor(PoolExec::new("e0", 2))
        .executor(PoolExec::new("e1", 2))
        .strategy(StrategyConfig::off().hedge(HedgeConfig {
            multiplier: 2.0,
            min_samples: 4,
            min_age: Duration::from_millis(20),
            check_interval: Duration::from_millis(5),
        }))
        .monitor(Arc::clone(&hedges) as Arc<dyn MonitorSink>)
        .build()
        .unwrap();

    let release = Arc::new(AtomicBool::new(false));
    let executions = Arc::new(AtomicUsize::new(0));
    let gate = dfk.python_app("gate", {
        let release = Arc::clone(&release);
        let executions = Arc::clone(&executions);
        move |id: u64, blocking: bool| {
            // Only the FIRST execution of the blocking task waits on the
            // gate; the speculative duplicate returns immediately. The
            // watchdog bounds a failed test instead of hanging it.
            if blocking && executions.fetch_add(1, Ordering::SeqCst) == 0 {
                let watchdog = Instant::now();
                while !release.load(Ordering::SeqCst)
                    && watchdog.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            id
        }
    });

    // Fast tasks arm the p99 estimator (min_samples = 4).
    for i in 0..8u64 {
        let f = gate.call((Dep::value(i), Dep::value(false)));
        assert_eq!(f.result().unwrap(), i);
    }

    let blocked = gate.call((Dep::value(99u64), Dep::value(true)));
    // The primary is wedged on the gate; only a hedge can resolve this.
    let v = blocked
        .result_timeout(Duration::from_secs(5))
        .expect("hedge resolves the blocked task");
    assert_eq!(v, 99);
    assert!(
        !release.load(Ordering::SeqCst),
        "gate opened early: the primary could have finished on its own"
    );
    assert!(
        hedges.0.load(Ordering::SeqCst) >= 1,
        "no hedge was launched"
    );

    // Open the gate so the losing primary finishes; its late result is
    // discarded by the attempt filter and the pool can shut down.
    release.store(true, Ordering::SeqCst);
    dfk.wait_for_all();
    assert_eq!(
        dfk.state_counts()
            .into_iter()
            .find(|&(s, _)| s == TaskState::Done)
            .map(|(_, n)| n),
        Some(9),
        "every task settles exactly once"
    );
    dfk.shutdown();
}
