//! Figures 5–6: the elasticity study, on the real thread plane.
//!
//! The workflow (Figure 5): stage 1 = 20 wide tasks, stage 2 = 1 reduce
//! task, stage 3 = 20 wide tasks, stage 4 = 1 reduce task. In the paper
//! wide tasks sleep 100 s and reduce tasks 50 s on 20 Midway workers; the
//! reproduction scales every duration by 1/50 (wide 2 s, reduce 1 s,
//! strategy interval 5 s → 100 ms, block queue delay 8 s → 160 ms) so the
//! experiment runs in seconds. Utilization and the makespan *ratio* are
//! scale-free, so they compare directly with the paper's:
//!
//! - without elasticity: utilization 68.15 %, makespan 301 s;
//! - with elasticity: utilization 84.28 %, makespan 331 s (+9.9 %).
//!
//! Beyond the paper's reactive controller this bench also runs the
//! predictive controller, whose scale-in is a graceful *drain*: victim
//! managers stop receiving work, finish what they hold, and only then is
//! the provider job released — so the drain row must show zero
//! scale-in-race retries.

use bench::{fmt_f, section, Table};
use parsl_core::combinators::join_all;
use parsl_core::prelude::*;
use parsl_core::strategy::PredictiveConfig;
use parsl_core::Executor;
use parsl_executors::{HtexConfig, HtexExecutor};
use parsl_providers::{BlockPool, ProvidedExecutor};
use simcluster::SimProvider;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 1/50 of the paper's durations.
const WIDE_MS: u64 = 2_000;
const REDUCE_MS: u64 = 1_000;
const WIDTH: usize = 20;
const WORKERS_PER_BLOCK: usize = 5;
const MAX_BLOCKS: usize = 4;
/// Total useful task-seconds in the workflow (scaled).
const TASK_SECONDS: f64 = (WIDTH as f64) * 2.0 + 1.0 + (WIDTH as f64) * 2.0 + 1.0;

/// Which elasticity controller a run uses.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// All blocks up front, no strategy (the paper's baseline).
    Fixed,
    /// The paper's reactive controller; scale-in is abrupt.
    Simple,
    /// Little's-law controller; scale-in drains gracefully.
    Predictive,
}

struct RunResult {
    makespan: f64,
    utilization: f64,
    retries: usize,
}

fn main() {
    section("Figure 5 workflow — 20 wide / 1 reduce / 20 wide / 1 reduce (scaled 1/50)");
    println!(
        "wide {WIDE_MS} ms, reduce {REDUCE_MS} ms, {} workers max ({MAX_BLOCKS} blocks x {WORKERS_PER_BLOCK})",
        MAX_BLOCKS * WORKERS_PER_BLOCK
    );

    let fixed = run(Mode::Fixed);
    let elastic = run(Mode::Simple);
    let drained = run(Mode::Predictive);
    println!(
        "(task retries due to scale-in races: fixed {}, simple {}, predictive/drain {})",
        fixed.retries, elastic.retries, drained.retries
    );

    section("Figure 6 — utilization and makespan");
    let mut t = Table::new(&[
        "configuration",
        "utilization %",
        "paper %",
        "makespan s",
        "paper s (scaled)",
        "retries",
    ]);
    t.row(vec![
        "no elasticity".into(),
        fmt_f(fixed.utilization * 100.0),
        "68.15".into(),
        fmt_f(fixed.makespan),
        fmt_f(301.0 / 50.0),
        fixed.retries.to_string(),
    ]);
    t.row(vec![
        "simple (abrupt)".into(),
        fmt_f(elastic.utilization * 100.0),
        "84.28".into(),
        fmt_f(elastic.makespan),
        fmt_f(331.0 / 50.0),
        elastic.retries.to_string(),
    ]);
    t.row(vec![
        "predictive (drain)".into(),
        fmt_f(drained.utilization * 100.0),
        "-".into(),
        fmt_f(drained.makespan),
        "-".into(),
        drained.retries.to_string(),
    ]);
    t.print();
    println!(
        "\nutilization change: {:+.1} % (paper: +23.6 % relative), makespan change: {:+.1} % (paper: +9.9 %)",
        (elastic.utilization / fixed.utilization - 1.0) * 100.0,
        (elastic.makespan / fixed.makespan - 1.0) * 100.0,
    );
    assert_eq!(
        drained.retries, 0,
        "drain-based scale-in must not race running tasks into retries"
    );
}

fn run(mode: Mode) -> RunResult {
    let store = Arc::new(parsl_monitor::MemoryStore::new());
    let htex = Arc::new(HtexExecutor::new(HtexConfig {
        label: "midway-htex".into(),
        workers_per_node: WORKERS_PER_BLOCK,
        nodes_per_block: 1,
        init_blocks: if mode == Mode::Fixed { MAX_BLOCKS } else { 0 },
        prefetch: 0,
        batch_size: 4,
        ..Default::default()
    }));

    let dfk = if mode == Mode::Fixed {
        DataFlowKernel::builder()
            .executor_arc(htex.clone() as Arc<dyn Executor>)
            .monitor(store.clone())
            .build()
            .unwrap()
    } else {
        let provider = SimProvider::builder()
            .nodes(MAX_BLOCKS)
            .queue_delay(Duration::from_millis(160))
            .build();
        let mut pool = BlockPool::builder(provider)
            .nodes_per_block(1)
            .workers_per_node(WORKERS_PER_BLOCK)
            .min_blocks(1)
            .max_blocks(MAX_BLOCKS)
            .poll_interval(Duration::from_millis(20))
            .on_block_up({
                let htex = Arc::clone(&htex);
                move |nodes| {
                    for _ in 0..nodes {
                        htex.add_node();
                    }
                }
            })
            .on_block_down({
                // The abrupt path: a released provider job kills the
                // allocation out from under its manager (the paper's
                // scancel), so running tasks die and surface as retries
                // after heartbeat loss — the Figure 6 scale-in race.
                let htex = Arc::clone(&htex);
                move |nodes| {
                    for _ in 0..nodes {
                        if let Some(addr) = htex.nodes().last().cloned() {
                            htex.kill_node(&addr);
                        }
                    }
                }
            });
        if mode == Mode::Predictive {
            // Drain plane: retiring managers surrender their nodes right
            // away (graceful Retire through the interchange), and the
            // provider job is held until the executor reports the drain
            // finished.
            pool = pool
                .on_block_drain({
                    let htex = Arc::clone(&htex);
                    move |nodes| {
                        for _ in 0..nodes {
                            htex.remove_node();
                        }
                    }
                })
                .drained_probe({
                    let htex = Arc::clone(&htex);
                    move || htex.draining_nodes()
                });
        }
        let strategy = match mode {
            Mode::Simple => StrategyConfig::simple(1.0),
            _ => StrategyConfig::predictive(PredictiveConfig {
                target_utilization: 1.0,
                hysteresis: 0.0,
                default_service: Duration::from_millis(WIDE_MS),
                drain: true,
            }),
        };
        DataFlowKernel::builder()
            .executor(ProvidedExecutor::new(Arc::clone(&htex), pool.build()))
            .strategy(strategy.interval(Duration::from_millis(100)))
            // Manager loss during scale-in is handled by DFK retries, the
            // mechanism §4.3.1 describes for exactly this situation.
            .retries(3)
            .monitor(store.clone())
            .build()
            .unwrap()
    };

    // Worker sampler: connected workers every 20 ms, for worker-seconds.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let series: Arc<parking_lot::Mutex<Vec<(Instant, usize)>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sampler = {
        let stop = Arc::clone(&stop);
        let series = Arc::clone(&series);
        let htex = Arc::clone(&htex);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                series
                    .lock()
                    .push((Instant::now(), htex.connected_workers()));
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    if mode == Mode::Fixed {
        // The paper deploys workers and waits for them before starting.
        let deadline = Instant::now() + Duration::from_secs(10);
        while htex.connected_workers() < MAX_BLOCKS * WORKERS_PER_BLOCK && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let sleep_task = dfk.python_app("stage_task", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        1u8
    });
    let reduce_task = dfk.python_app("reduce_task", |_tokens: Vec<u8>, ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        1u8
    });
    let wide_after = dfk.python_app("wide_after", |_token: u8, ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        1u8
    });

    let t0 = Instant::now();
    // Stage 1: 20 wide tasks.
    let s1: Vec<_> = (0..WIDTH)
        .map(|_| parsl_core::call!(sleep_task, WIDE_MS))
        .collect();
    // Stage 2: reduce over all of stage 1.
    let j1 = join_all(&dfk, s1);
    let s2 = parsl_core::call!(reduce_task, j1, REDUCE_MS);
    // Stage 3: 20 wide tasks, each dependent on the reduce.
    let s3: Vec<_> = (0..WIDTH)
        .map(|_| parsl_core::call!(wide_after, &s2, WIDE_MS))
        .collect();
    // Stage 4: final reduce.
    let j3 = join_all(&dfk, s3);
    let s4 = parsl_core::call!(reduce_task, j3, REDUCE_MS);
    s4.result().expect("workflow completes");
    let makespan = t0.elapsed().as_secs_f64();

    stop.store(true, std::sync::atomic::Ordering::Release);
    let _ = sampler.join();

    // Integrate worker-seconds over [t0, t0+makespan].
    let series = series.lock();
    let mut worker_seconds = 0.0;
    for w in series.windows(2) {
        let (ta, v) = w[0];
        let (tb, _) = w[1];
        let a = ta.max(t0);
        let b = tb;
        if b > a && a >= t0 {
            worker_seconds += v as f64 * (b - a).as_secs_f64();
        }
    }

    dfk.shutdown();
    let mut retries = 0;
    for e in store.events() {
        if let parsl_core::MonitorEvent::Retry {
            task, reason, at, ..
        } = e
        {
            retries += 1;
            eprintln!("  retry {task} at {:.2}s: {reason}", at.as_secs_f64());
        }
    }
    RunResult {
        makespan,
        utilization: TASK_SECONDS / worker_seconds.max(1e-9),
        retries,
    }
}
