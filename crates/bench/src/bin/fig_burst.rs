//! Burst elasticity: square-wave load against the two controllers.
//!
//! The workload is a square wave — bursts of uniform short tasks
//! separated by idle gaps — the shape that punishes a reactive
//! controller twice: it pays the provider queue delay at the front of
//! every burst (it released everything during the gap), and its abrupt
//! scale-in at the burst tail kills running tasks, whose retries requeue
//! work and re-trigger scale-out (the fig6 thrash). The predictive
//! controller sizes on the arrival rate, rides its hysteresis band
//! through gaps, and drains instead of killing.
//!
//! Three guarded metrics, each a **simple / predictive** ratio so higher
//! is better and `bench_guard` can gate them:
//!
//! - `time_to_scale`: cold-start ramp — time from the first burst's
//!   start until 75% of peak workers are connected;
//! - `wasted_core_seconds`: worker-seconds not spent on first-attempt
//!   useful work (idle capacity + killed/re-executed attempts);
//! - `p99_ratio`: p99 task sojourn (submit → settled, retries included).
//!
//! The committed `BENCH_elasticity.json` baseline is a `--smoke` run, so
//! CI compares like for like.
//!
//! Usage: `fig_burst [--smoke] [--out FILE]`.

use bench::{fmt_f, section, Table};
use parsl_core::prelude::*;
use parsl_core::strategy::PredictiveConfig;
use parsl_executors::{HtexConfig, HtexExecutor};
use parsl_providers::{BlockPool, ProvidedExecutor};
use simcluster::SimProvider;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS_PER_BLOCK: usize = 4;
const MAX_BLOCKS: usize = 4;
const TASK_MS: u64 = 150;
const GAP_MS: u64 = 350;
/// Provider queue delay: what a reactive controller pays per re-request.
const QUEUE_DELAY_MS: u64 = 150;
/// "Scaled" means 75% of peak workers connected.
const SCALE_TARGET: usize = 3 * WORKERS_PER_BLOCK;
/// Resolution floor on timing metrics (sampler period + jitter).
const FLOOR_S: f64 = 0.025;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Reactive threshold controller, abrupt scale-in.
    Simple,
    /// Little's-law controller, graceful drain.
    Predictive,
}

struct RunResult {
    /// Cold-start seconds until `SCALE_TARGET` workers connected.
    time_to_scale: f64,
    /// Worker-seconds minus useful (single-attempt) task-seconds.
    wasted_core_seconds: f64,
    /// p99 task sojourn in seconds.
    p99: f64,
    retries: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    let (bursts, burst_tasks) = if smoke { (3, 32) } else { (4, 48) };

    section("Burst elasticity — square-wave load, reactive vs predictive");
    println!(
        "{bursts} bursts x {burst_tasks} tasks x {TASK_MS} ms, {GAP_MS} ms gaps, \
         {} workers max ({MAX_BLOCKS} blocks x {WORKERS_PER_BLOCK}), provider queue delay \
         {QUEUE_DELAY_MS} ms{}",
        MAX_BLOCKS * WORKERS_PER_BLOCK,
        if smoke { " (smoke)" } else { "" }
    );

    let simple = run(Mode::Simple, bursts, burst_tasks);
    let predictive = run(Mode::Predictive, bursts, burst_tasks);

    let mut t = Table::new(&[
        "controller",
        "time-to-scale s",
        "wasted core-s",
        "p99 s",
        "retries",
    ]);
    for (name, r) in [
        ("simple (abrupt)", &simple),
        ("predictive (drain)", &predictive),
    ] {
        t.row(vec![
            name.into(),
            fmt_f(r.time_to_scale),
            fmt_f(r.wasted_core_seconds),
            fmt_f(r.p99),
            r.retries.to_string(),
        ]);
    }
    t.print();

    let time_to_scale = floored_ratio(simple.time_to_scale, predictive.time_to_scale);
    let wasted_core_seconds =
        floored_ratio(simple.wasted_core_seconds, predictive.wasted_core_seconds);
    let p99_ratio = floored_ratio(simple.p99, predictive.p99);
    println!(
        "\nsimple/predictive ratios (higher = predictive wins): \
         time_to_scale {:.2}, wasted_core_seconds {:.2}, p99 {:.2}",
        time_to_scale, wasted_core_seconds, p99_ratio
    );
    assert_eq!(
        predictive.retries, 0,
        "drain-based scale-in must not race running tasks into retries"
    );

    let path = match (&out, smoke) {
        (Some(p), _) => p.clone(),
        (None, false) => "BENCH_elasticity.json".to_string(),
        (None, true) => {
            println!("smoke mode: skipping BENCH_elasticity.json (pass --out to write)");
            return;
        }
    };
    let json = format!(
        "{{\n  \"experiment\": \"fig_burst\",\n  \"workload\": \"{bursts} bursts x \
         {burst_tasks} tasks x {TASK_MS} ms, {GAP_MS} ms gaps, {} workers max\",\n  \
         \"simple\": {{ \"time_to_scale_s\": {:.3}, \"wasted_core_s\": {:.2}, \"p99_s\": \
         {:.3}, \"retries\": {} }},\n  \"predictive\": {{ \"time_to_scale_s\": {:.3}, \
         \"wasted_core_s\": {:.2}, \"p99_s\": {:.3}, \"retries\": {} }},\n  \
         \"time_to_scale\": {:.3},\n  \"wasted_core_seconds\": {:.3},\n  \"p99_ratio\": \
         {:.3}\n}}\n",
        MAX_BLOCKS * WORKERS_PER_BLOCK,
        simple.time_to_scale,
        simple.wasted_core_seconds,
        simple.p99,
        simple.retries,
        predictive.time_to_scale,
        predictive.wasted_core_seconds,
        predictive.p99,
        predictive.retries,
        time_to_scale,
        wasted_core_seconds,
        p99_ratio,
    );
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Higher-is-better ratio with a resolution floor on both sides, so a
/// near-zero predictive measurement cannot blow the ratio up (or a
/// near-zero simple one collapse it) on sampler noise.
fn floored_ratio(simple: f64, predictive: f64) -> f64 {
    simple.max(FLOOR_S) / predictive.max(FLOOR_S)
}

fn run(mode: Mode, bursts: usize, burst_tasks: usize) -> RunResult {
    let store = Arc::new(parsl_monitor::MemoryStore::new());
    let htex = Arc::new(HtexExecutor::new(HtexConfig {
        label: "burst-htex".into(),
        workers_per_node: WORKERS_PER_BLOCK,
        nodes_per_block: 1,
        init_blocks: 0,
        prefetch: 0,
        batch_size: 4,
        ..Default::default()
    }));

    let provider = SimProvider::builder()
        .nodes(MAX_BLOCKS)
        .queue_delay(Duration::from_millis(QUEUE_DELAY_MS))
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
            // The abrupt path: releasing a provider job kills the
            // allocation out from under its manager (the paper's
            // scancel), so running tasks die and surface as retries
            // after heartbeat loss.
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
        Mode::Predictive => StrategyConfig::predictive(PredictiveConfig {
            // Headroom (ρ = 0.7) plus a wide hysteresis band: capacity
            // rides through the short gaps instead of flapping, so the
            // next burst starts against warm workers.
            target_utilization: 0.7,
            hysteresis: 0.5,
            default_service: Duration::from_millis(TASK_MS),
            drain: true,
        }),
    };
    let dfk = DataFlowKernel::builder()
        .executor(ProvidedExecutor::new(Arc::clone(&htex), pool.build()))
        .strategy(strategy.interval(Duration::from_millis(50)))
        .retries(3)
        .monitor(store.clone())
        .build()
        .unwrap();

    // Sample connected workers for the worker-seconds integral and the
    // time-to-scale detection.
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
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let task = dfk.python_app("burst_task", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        1u8
    });

    let t0 = Instant::now();
    let mut burst_starts = Vec::with_capacity(bursts);
    let mut latencies: Vec<f64> = Vec::with_capacity(bursts * burst_tasks);
    for b in 0..bursts {
        let start = Instant::now();
        burst_starts.push(start);
        let futs: Vec<_> = (0..burst_tasks)
            .map(|_| parsl_core::call!(task, TASK_MS))
            .collect();
        for f in &futs {
            f.result().expect("burst task completes");
            latencies.push(start.elapsed().as_secs_f64());
        }
        if b + 1 < bursts {
            std::thread::sleep(Duration::from_millis(GAP_MS));
        }
    }
    let end = Instant::now();

    stop.store(true, std::sync::atomic::Ordering::Release);
    let _ = sampler.join();

    // Worker-seconds over [t0, end], and per-burst time-to-scale.
    let series = series.lock();
    let mut worker_seconds = 0.0;
    for w in series.windows(2) {
        let (ta, v) = w[0];
        let (tb, _) = w[1];
        let b = tb.min(end);
        if b > ta && ta >= t0 {
            worker_seconds += v as f64 * (b - ta).as_secs_f64();
        }
    }
    // Cold-start ramp: first burst only. Later bursts depend on what each
    // controller happened to hold through the gap (noisy either way);
    // the cold ramp is the stable responsiveness property worth gating.
    let start = burst_starts[0];
    let time_to_scale = series
        .iter()
        .find(|&&(at, v)| at >= start && v >= SCALE_TARGET)
        .map(|&(at, _)| (at - start).as_secs_f64())
        .unwrap_or_else(|| (end - start).as_secs_f64());
    drop(series);

    dfk.shutdown();
    let retries = store
        .events()
        .iter()
        .filter(|e| matches!(e, parsl_core::MonitorEvent::Retry { .. }))
        .count();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let p99_idx = ((latencies.len() as f64) * 0.99).ceil() as usize - 1;
    let useful = (bursts * burst_tasks) as f64 * (TASK_MS as f64 / 1e3);
    RunResult {
        time_to_scale,
        wasted_core_seconds: (worker_seconds - useful).max(0.0),
        p99: latencies[p99_idx.min(latencies.len() - 1)],
        retries,
    }
}
