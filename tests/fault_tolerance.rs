//! Integration: the fault-tolerance story of §3.7 and §4.3.1 — node
//! failures detected by heartbeats, retries, dependency failure
//! propagation, and checkpoint-based recovery across "program runs".

use parsl::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn htex_survives_rolling_node_failures() {
    let htex = Arc::new(parsl::executors::HtexExecutor::new(
        parsl::executors::HtexConfig {
            workers_per_node: 2,
            nodes_per_block: 3,
            init_blocks: 1,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(150),
            ..Default::default()
        },
    ));
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .retries(4)
        .build()
        .unwrap();

    let work = dfk.python_app("work", |x: u64| {
        std::thread::sleep(Duration::from_millis(30));
        x + 1
    });
    let futs: Vec<_> = (0..60u64).map(|i| parsl::core::call!(work, i)).collect();

    // Kill nodes while the campaign runs; replacements keep capacity up.
    for round in 0..2 {
        std::thread::sleep(Duration::from_millis(60));
        let nodes = htex.nodes();
        if let Some(victim) = nodes.first() {
            htex.kill_node(victim);
            htex.add_node();
        }
        let _ = round;
    }

    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result().unwrap(),
            i as u64 + 1,
            "task {i} must survive failures"
        );
    }
    dfk.shutdown();
}

#[test]
fn manager_death_mid_batch_reports_and_retries_all_outstanding() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static EXECS: AtomicU32 = AtomicU32::new(0);
    EXECS.store(0, Ordering::SeqCst);

    // One node whose manager advertises a deep prefetch queue: the whole
    // fan-out lands on it as a single batch, most of it sitting unexecuted
    // in the manager's backlog.
    let htex = Arc::new(parsl::executors::HtexExecutor::new(
        parsl::executors::HtexConfig {
            workers_per_node: 2,
            prefetch: 16,
            batch_size: 16,
            init_blocks: 1,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(150),
            ..Default::default()
        },
    ));
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .retries(3)
        .build()
        .unwrap();

    let root = dfk.python_app("gate", || 0u64);
    let slow = dfk.python_app("slow", |gate: u64, x: u64| {
        EXECS.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(40));
        gate + x * 3
    });
    // Gated fan-out: all 12 children dispatch as one submit_batch when the
    // root completes (§4.3.1 batching through the interchange).
    let gate = parsl::core::call!(root);
    let futs: Vec<_> = (0..12u64)
        .map(|i| slow.call((Dep::future(gate.clone()), Dep::value(i))))
        .collect();

    // Let the batch land and partially execute, then kill the manager that
    // holds it. Every task still outstanding in the batch must be reported
    // back (heartbeat expiry → ManagerLost) and retried on the
    // replacement node.
    std::thread::sleep(Duration::from_millis(100));
    let nodes = htex.nodes();
    htex.kill_node(nodes.first().expect("one node up"));
    htex.add_node();

    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(30)).unwrap(),
            i as u64 * 3,
            "task {i} must survive the mid-batch manager loss"
        );
    }
    assert!(
        EXECS.load(Ordering::SeqCst) >= 12,
        "every task in the lost batch must have executed (some twice), saw {}",
        EXECS.load(Ordering::SeqCst)
    );
    let counts = dfk.state_counts();
    assert_eq!(
        counts.get(&TaskState::Done),
        Some(&13),
        "gate + 12 children all Done"
    );
    dfk.shutdown();
    assert_eq!(
        htex.outstanding(),
        0,
        "no task left marked outstanding after recovery"
    );
}

#[test]
fn manager_death_with_partially_reported_results_loses_and_duplicates_nothing() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static RUNS: AtomicU32 = AtomicU32::new(0);
    RUNS.store(0, Ordering::SeqCst);

    // Small result batches + slow tasks: the manager reports results a few
    // frames at a time, so when it is killed mid-campaign some of its batch
    // is already reported and the rest is still outstanding on it. The
    // interchange's ManagerLost report arrives as ONE outcome batch through
    // the batched completion plane; the DFK must retry exactly the
    // unreported remainder — nothing lost, nothing finalized twice.
    let htex = Arc::new(parsl::executors::HtexExecutor::new(
        parsl::executors::HtexConfig {
            workers_per_node: 2,
            prefetch: 16,
            batch_size: 2,
            init_blocks: 1,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(150),
            ..Default::default()
        },
    ));
    let store = Arc::new(parsl::monitor::MemoryStore::new());
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .retries(3)
        .monitor(store.clone())
        .build()
        .unwrap();

    let root = dfk.python_app("gate", || 0u64);
    let slow = dfk.python_app("slow", |gate: u64, x: u64| {
        RUNS.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(25));
        gate + x * 5
    });
    let gate = parsl::core::call!(root);
    let futs: Vec<_> = (0..12u64)
        .map(|i| slow.call((Dep::future(gate.clone()), Dep::value(i))))
        .collect();

    // Let several results flow back (2 workers × ~25 ms ≈ 6+ reported),
    // then kill the manager while the rest of the batch sits on it.
    std::thread::sleep(Duration::from_millis(120));
    let nodes = htex.nodes();
    htex.kill_node(nodes.first().expect("one node up"));
    htex.add_node();

    // Nothing lost: every future resolves with the right value.
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(30)).unwrap(),
            i as u64 * 5,
            "task {i} must survive the partially-reported batch loss"
        );
    }
    dfk.wait_for_all();

    // Nothing finalized twice: exactly one terminal monitor event per
    // task, and the terminal histogram is all-Done.
    let counts = dfk.state_counts();
    assert_eq!(counts.get(&TaskState::Done), Some(&13), "gate + 12 Done");
    let mut terminal_events: std::collections::HashMap<u64, usize> = Default::default();
    for e in store.events() {
        if let parsl::core::MonitorEvent::Task { task, state, .. } = e {
            if state.is_terminal() {
                *terminal_events.entry(task.0).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(terminal_events.len(), 13, "every task reached terminal");
    for (task, n) in &terminal_events {
        assert_eq!(*n, 1, "task {task} finalized {n} times");
    }
    // At least the unreported remainder re-ran; duplicates beyond one
    // re-execution per lost task would betray double-processing.
    let runs = RUNS.load(Ordering::SeqCst);
    assert!(
        (12..=24).contains(&runs),
        "expected 12..=24 executions (12 + retried remainder), saw {runs}"
    );
    dfk.shutdown();
    assert_eq!(htex.outstanding(), 0, "outstanding gauge restored");
}

#[test]
fn exex_pool_fate_sharing_is_recovered_by_retries() {
    let exex = Arc::new(parsl::executors::ExexExecutor::new(
        parsl::executors::ExexConfig {
            ranks_per_pool: 3,
            init_pools: 2,
            heartbeat_period: Duration::from_millis(30),
            heartbeat_threshold: Duration::from_millis(150),
            ..Default::default()
        },
    ));
    let dfk = DataFlowKernel::builder()
        .executor_arc(exex.clone())
        .retries(3)
        .build()
        .unwrap();
    // Every body reports that it started, then holds until the gate drops.
    let (started_tx, started) = std::sync::mpsc::channel();
    let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let gate_rx = std::sync::Mutex::new(gate_rx);
    let slow = dfk.python_app("slow", move |x: u64| {
        let _ = started_tx.send(());
        let _ = gate_rx.lock().unwrap().recv();
        x * 2
    });
    let futs: Vec<_> = (0..8u64).map(|i| parsl::core::call!(slow, i)).collect();
    // Both pools busy: 2 pools x 2 worker ranks.
    for _ in 0..4 {
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("both pools running tasks");
    }
    // Crash one pool: every rank in it dies together (MPI semantics).
    let pools = exex.nodes();
    exex.kill_node(&pools[0]);
    exex.add_node();
    drop(gate);
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), 2 * i as u64);
    }
    dfk.shutdown();
}

#[test]
fn dependency_failure_cascades_through_deep_graph() {
    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(2))
        .build()
        .unwrap();
    let root_fail = dfk.python_app_fallible("root", || -> Result<u64, AppError> {
        Err(AppError::msg("dead"))
    });
    let inc = dfk.python_app("inc", |x: u64| x + 1);
    // fail -> a -> b -> c: all three descendants must be DepFail.
    let f0 = parsl::core::call!(root_fail);
    let f1 = parsl::core::call!(inc, f0);
    let f2 = parsl::core::call!(inc, &f1);
    let f3 = parsl::core::call!(inc, &f2);
    for f in [&f1, &f2, &f3] {
        assert!(matches!(
            f.result(),
            Err(ParslError::Task(TaskError::DependencyFailed { .. }))
        ));
    }
    let counts = dfk.state_counts();
    assert_eq!(counts.get(&TaskState::DepFail), Some(&3));
    assert_eq!(counts.get(&TaskState::Failed), Some(&1));
    dfk.shutdown();
}

#[test]
fn walltime_plus_retries_recover_a_hung_task() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static CALLS: AtomicU32 = AtomicU32::new(0);
    CALLS.store(0, Ordering::SeqCst);

    let dfk = DataFlowKernel::builder()
        .executor(parsl::executors::ThreadPoolExecutor::new(2))
        .retries(1)
        .build()
        .unwrap();
    // The hung attempt blocks until the gate's sender drops.
    let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let gate_rx = std::sync::Mutex::new(gate_rx);
    let sometimes_hangs = dfk.python_app_cfg(
        "hangs_once",
        AppOptions {
            walltime: Some(Duration::from_millis(80)),
            ..Default::default()
        },
        move |x: u64| -> Result<u64, AppError> {
            if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = gate_rx.lock().unwrap().recv(); // hang
            }
            Ok(x)
        },
    );
    let f = parsl::core::call!(sometimes_hangs, 5u64);
    assert_eq!(f.result_timeout(Duration::from_secs(10)).unwrap(), 5);
    assert!(
        CALLS.load(Ordering::SeqCst) >= 2,
        "the hung attempt must have been retried"
    );
    drop(gate);
    dfk.shutdown();
}

/// A walltime expiry cancels the attempt it expired. Behind a gated
/// blocker on the only worker, the expired attempt waits in the manager's
/// prefetch slot (HTEX) or the pool's queue (thread pool); the cancel
/// arrives ahead of the retry, so opening the gate skips that attempt at
/// pick-up and the body runs once, for the retry.
#[test]
fn walltime_expiry_cancels_the_attempt_it_expired() {
    use parsl::executors::proto::{Command, CommandReply};

    let htex = Arc::new(parsl::executors::HtexExecutor::new(
        parsl::executors::HtexConfig {
            workers_per_node: 1,
            prefetch: 1,
            ..Default::default()
        },
    ));
    // Blocker and first attempt at the manager, the retry queued at the
    // interchange, which has by then forwarded the cancel the kernel sent
    // ahead of the retry.
    let ix = htex.clone();
    walltime_expiry_cancels(htex, move || {
        ix.command(Command::OutstandingInfo, Duration::from_secs(2))
            .ok()
            == Some(CommandReply::Outstanding(3))
    });

    // Blocker running, first attempt and retry queued: the cancel was
    // marked before the retry was submitted.
    let pool = Arc::new(parsl::executors::ThreadPoolExecutor::new(1));
    let queued = pool.clone();
    walltime_expiry_cancels(pool, move || queued.outstanding() == 3);
}

/// Run the walltime-cancel scenario on `executor`; `retried` says when the
/// expired attempt and its retry are both in the executor.
fn walltime_expiry_cancels(executor: Arc<dyn Executor>, retried: impl Fn() -> bool) {
    use std::sync::atomic::{AtomicU32, Ordering};

    let runs = Arc::new(AtomicU32::new(0));
    let dfk = DataFlowKernel::builder()
        .executor_arc(executor)
        .retries(1)
        .build()
        .unwrap();
    // The blocker holds the only worker until the gate's sender drops.
    let (gate, gate_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let gate_rx = std::sync::Mutex::new(gate_rx);
    let blocker = dfk.python_app("blocker", move || {
        let _ = gate_rx.lock().unwrap().recv();
        0u8
    });
    let counter = runs.clone();
    let expires = dfk.python_app_cfg(
        "expires",
        AppOptions {
            walltime: Some(Duration::from_millis(100)),
            ..Default::default()
        },
        move |x: u64| -> Result<u64, AppError> {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(x)
        },
    );
    let _blocked = parsl::core::call!(blocker);
    let f = parsl::core::call!(expires, 7u64);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !retried() {
        assert!(std::time::Instant::now() < deadline, "never retried");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(gate);
    assert_eq!(f.result_timeout(Duration::from_secs(10)).unwrap(), 7);
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the expired attempt ran");
    dfk.shutdown();
}

#[test]
fn checkpoint_recovers_partial_campaign() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let ckpt = std::env::temp_dir().join(format!("parsl-ft-ckpt-{}.dat", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let executions = Arc::new(AtomicU32::new(0));

    // "Run" 1: completes half the campaign, then the program "crashes"
    // (we simply stop submitting and shut down).
    {
        let dfk = DataFlowKernel::builder()
            .executor(parsl::executors::ThreadPoolExecutor::new(2))
            .memoize(true)
            .checkpoint_file(&ckpt)
            .build()
            .unwrap();
        let e = Arc::clone(&executions);
        let work = dfk.python_app("work", move |x: u64| {
            e.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        for i in 0..10u64 {
            assert_eq!(parsl::core::call!(work, i).result().unwrap(), i * 10);
        }
        dfk.shutdown();
    }
    assert_eq!(executions.load(Ordering::SeqCst), 10);

    // "Run" 2: the full campaign (20 tasks); the first 10 come from the
    // checkpoint, only 10 new ones execute.
    {
        let dfk = DataFlowKernel::builder()
            .executor(parsl::executors::ThreadPoolExecutor::new(2))
            .memoize(true)
            .load_checkpoint(&ckpt)
            .build()
            .unwrap();
        let e = Arc::clone(&executions);
        let work = dfk.python_app("work", move |x: u64| {
            e.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        for i in 0..20u64 {
            assert_eq!(parsl::core::call!(work, i).result().unwrap(), i * 10);
        }
        let counts = dfk.state_counts();
        assert_eq!(counts.get(&TaskState::Memoized), Some(&10));
        dfk.shutdown();
    }
    assert_eq!(
        executions.load(Ordering::SeqCst),
        20,
        "only the missing half re-ran"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn llex_drops_faults_silently_as_documented() {
    // LLEX cannot detect worker loss; without walltime/retries the future
    // simply never resolves. We assert the *absence* of spurious failure.
    let llex = Arc::new(parsl::executors::LlexExecutor::new(
        parsl::executors::LlexConfig {
            workers: 1,
            ..Default::default()
        },
    ));
    let dfk = DataFlowKernel::builder()
        .executor_arc(llex.clone())
        .build()
        .unwrap();
    let slow = dfk.python_app("slow", |x: u64| {
        std::thread::sleep(Duration::from_millis(300));
        x
    });
    let f = parsl::core::call!(slow, 1u64);
    std::thread::sleep(Duration::from_millis(50));
    // Kill the only worker mid-task.
    let addr = llex.nodes().remove(0);
    llex.kill_node(&addr);
    assert!(
        matches!(
            f.result_timeout(Duration::from_millis(600)),
            Err(ParslError::Timeout)
        ),
        "LLEX must not fabricate a result or an error for a lost task"
    );
    dfk.shutdown();
}

// ---------------------------------------------------------------------------
// Real-process fault injection: SIGKILL a `parsl-worker` process that
// holds a partially-executed batch over TCP. Heartbeat expiry at the
// interchange must report every task the process held as ManagerLost,
// the DFK must retry each exactly once on the replacement node, and no
// task may be finalized twice.
// ---------------------------------------------------------------------------

/// Per-task retry counts plus per-task terminal-event counts (the
/// double-finalize witness).
#[derive(Default)]
struct FaultLedger {
    retries: std::sync::Mutex<std::collections::HashMap<u64, u32>>,
    terminals: std::sync::Mutex<std::collections::HashMap<u64, u32>>,
}

impl parsl::core::monitor::MonitorSink for FaultLedger {
    fn on_event(&self, event: &parsl::core::monitor::MonitorEvent) {
        use parsl::core::monitor::MonitorEvent;
        match event {
            MonitorEvent::Retry { task, .. } => {
                *self.retries.lock().unwrap().entry(task.0).or_insert(0) += 1;
            }
            MonitorEvent::Task { task, state, .. } if state.is_terminal() => {
                *self.terminals.lock().unwrap().entry(task.0).or_insert(0) += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn sigkilled_tcp_worker_process_retries_outstanding_batch_exactly_once() {
    let ledger = Arc::new(FaultLedger::default());
    // One node whose manager prefetches deeply: the whole gated fan-out
    // lands on it as a single batch, mostly unexecuted.
    let htex = Arc::new(
        parsl::executors::HtexExecutor::tcp(
            parsl::executors::HtexConfig {
                workers_per_node: 2,
                prefetch: 16,
                batch_size: 16,
                init_blocks: 1,
                heartbeat_period: Duration::from_millis(50),
                heartbeat_threshold: Duration::from_millis(400),
                ..Default::default()
            },
            parsl::executors::TcpHtexOptions {
                worker_cmd: vec![env!("CARGO_BIN_EXE_parsl-worker").to_string()],
                ..Default::default()
            },
        )
        .expect("bind loopback hub"),
    );
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .retries(3)
        .monitor(ledger.clone())
        .build()
        .unwrap();

    // Builtin-table apps: bodies run inside the worker process.
    let root = dfk.python_app("gate", || 0u64);
    let work = dfk.python_app("gated_sleep_mul", |gate: u64, ms: u64, x: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        gate + x * 3
    });
    let gate = parsl::core::call!(root);
    let futs: Vec<_> = (0..8u64)
        .map(|i| {
            work.call((
                Dep::future(gate.clone()),
                Dep::value(1500u64),
                Dep::value(i),
            ))
        })
        .collect();

    // The gate resolves quickly; its completion releases all 8 children
    // as one submit_batch. Give the batch time to land on the process
    // (2 executing, 6 prefetched — none finishes inside 1.5 s), then
    // SIGKILL the process holding it and bring up a replacement.
    assert_eq!(gate.result_timeout(Duration::from_secs(20)).unwrap(), 0);
    std::thread::sleep(Duration::from_millis(500));
    let nodes = htex.nodes();
    htex.kill_node(nodes.first().expect("one node up"));
    htex.add_node();

    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(60)).unwrap(),
            i as u64 * 3,
            "task {i} must survive the SIGKILL"
        );
    }
    dfk.wait_for_all();
    assert_eq!(
        dfk.state_counts().get(&TaskState::Done),
        Some(&9),
        "gate + 8 children all Done"
    );

    // Every child was outstanding at the kill: retried exactly once, and
    // exactly one terminal event each — nothing lost, nothing finalized
    // twice.
    let retries = ledger.retries.lock().unwrap().clone();
    let child_ids: Vec<u64> = futs.iter().map(|f| f.task_id().0).collect();
    for id in &child_ids {
        assert_eq!(
            retries.get(id),
            Some(&1),
            "task {id} must be retried exactly once, saw {retries:?}"
        );
    }
    assert_eq!(
        retries.len(),
        child_ids.len(),
        "only the held batch retries"
    );
    let terminals = ledger.terminals.lock().unwrap().clone();
    for (id, n) in &terminals {
        assert_eq!(*n, 1, "task {id} finalized {n} times");
    }
    assert_eq!(terminals.len(), 9, "gate + 8 children each finalized once");
    dfk.shutdown();
}
