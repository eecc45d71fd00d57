//! Scheduler-policy experiment: makespan under skewed executor speeds.
//!
//! The paper's multi-site scenario (§4.3) runs one DataFlowKernel over
//! several executors of different sizes. Random placement (§4.1) sends
//! each executor the *same* share of tasks, so the slowest executor sets
//! the makespan. This binary pits the paper's random placement against
//! join-shortest-queue on a deliberately skewed two-executor config — a
//! fast pool with 4x the worker slots of a slow one — and measures
//! end-to-end makespan and throughput for an embarrassingly parallel bag
//! of fixed-cost tasks:
//!
//! - `random_hash` splits ~50/50, drowning the slow pool;
//! - `least_outstanding` (join-shortest-queue) adapts with no config;
//! - a third run demonstrates backpressure: `least_outstanding` with a
//!   per-executor in-flight cap, which must not change the result.
//!
//! Arrivals are paced at the aggregate service rate (10 worker slots →
//! 10 tasks per task-length tick): the steady-state regime where routing
//! matters. In a single burst every queue is filled before the first
//! completion and no policy can rebalance after dispatch; under paced
//! arrivals a blind 50/50 split piles backlog onto the slow pool while
//! the fast pool idles, which is exactly what load-aware routing fixes.
//!
//! Usage: `fig_scheduler [--smoke] [--out FILE]`. The full run writes
//! `BENCH_scheduler.json`; `--out` redirects the JSON (used by CI to
//! compare a smoke run against the committed baseline).

use bench::{fmt_f, Table};
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::SchedulerPolicy;
use parsl_executors::ThreadPoolExecutor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker slots of the fast and slow executors: the 4x skew.
const FAST_WORKERS: usize = 8;
const SLOW_WORKERS: usize = 2;

/// Counts `Launched` events per executor label.
#[derive(Default)]
struct ShareSink(parking_lot::Mutex<std::collections::HashMap<String, usize>>);

impl MonitorSink for ShareSink {
    fn on_event(&self, e: &MonitorEvent) {
        if let MonitorEvent::Task {
            state: TaskState::Launched,
            executor: Some(l),
            ..
        } = e
        {
            *self.0.lock().entry(l.clone()).or_insert(0) += 1;
        }
    }
}

struct PolicyRun {
    makespan: Duration,
    tps: f64,
    fast_share: f64,
}

/// Drive `n` fixed-cost tasks through a fresh skewed two-executor kernel
/// under `policy`; returns makespan, throughput, and the fast pool's
/// traffic share.
fn run_policy(policy: SchedulerPolicy, n: usize, task_ms: u64, cap: Option<usize>) -> PolicyRun {
    let sink = Arc::new(ShareSink::default());
    let mut builder = DataFlowKernel::builder()
        .executor(ThreadPoolExecutor::with_label("fast", FAST_WORKERS))
        .executor(ThreadPoolExecutor::with_label("slow", SLOW_WORKERS))
        .scheduler(policy)
        .seed(7)
        .monitor(sink.clone());
    if let Some(c) = cap {
        builder = builder.max_inflight_per_executor(c);
    }
    let dfk = builder.build().unwrap();
    let work = dfk.python_app("work", move |_i: u64| {
        std::thread::sleep(Duration::from_millis(task_ms));
        0u8
    });
    // Pace arrivals at the aggregate service rate: one tick of task_ms
    // admits as many tasks as there are worker slots in total.
    let pace = (FAST_WORKERS + SLOW_WORKERS) as u64;
    let tick = Duration::from_millis(task_ms);
    let t0 = Instant::now();
    let mut futs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        futs.push(parsl_core::call!(work, i));
        if (i + 1) % pace == 0 {
            std::thread::sleep(tick);
        }
    }
    dfk.wait_for_all();
    let makespan = t0.elapsed();
    for f in &futs {
        f.result().unwrap();
    }
    let launched = sink.0.lock();
    let fast = *launched.get("fast").unwrap_or(&0);
    let total: usize = launched.values().sum();
    dfk.shutdown();
    PolicyRun {
        makespan,
        tps: n as f64 / makespan.as_secs_f64(),
        fast_share: fast as f64 / total.max(1) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    let (n, task_ms) = if smoke { (300, 2) } else { (2000, 2) };

    println!(
        "fig_scheduler: {n} tasks x {task_ms} ms, fast={FAST_WORKERS}w vs slow={SLOW_WORKERS}w \
         (4x skew){}",
        if smoke { " (smoke)" } else { "" }
    );

    let policies = [
        ("random_hash", SchedulerPolicy::RandomHash),
        ("least_outstanding", SchedulerPolicy::LeastOutstanding),
    ];

    let mut table = Table::new(&["policy", "makespan ms", "tasks/s", "fast share"]);
    let mut results: Vec<(&str, PolicyRun)> = Vec::new();
    for (name, policy) in policies {
        let r = run_policy(policy, n, task_ms, None);
        table.row(vec![
            name.into(),
            fmt_f(r.makespan.as_secs_f64() * 1e3),
            fmt_f(r.tps),
            format!("{:.2}", r.fast_share),
        ]);
        results.push((name, r));
    }
    // Backpressure demo: JSQ with a cap of 2 slots per worker; parked
    // tasks must drain and the makespan must stay in JSQ's ballpark.
    let capped = run_policy(
        SchedulerPolicy::LeastOutstanding,
        n,
        task_ms,
        Some(FAST_WORKERS * 2),
    );
    table.row(vec![
        "least_outstanding+cap".into(),
        fmt_f(capped.makespan.as_secs_f64() * 1e3),
        fmt_f(capped.tps),
        format!("{:.2}", capped.fast_share),
    ]);
    table.print();

    let get = |name: &str| &results.iter().find(|(k, _)| *k == name).unwrap().1;
    let random = get("random_hash");
    let least = get("least_outstanding");
    let speedup = random.makespan.as_secs_f64() / least.makespan.as_secs_f64();
    println!(
        "least_outstanding vs random_hash: {speedup:.2}x makespan improvement \
         ({} ms -> {} ms)",
        fmt_f(random.makespan.as_secs_f64() * 1e3),
        fmt_f(least.makespan.as_secs_f64() * 1e3),
    );
    if speedup <= 1.0 {
        println!("WARNING: least_outstanding did not beat random_hash");
    }

    let path = match (&out, smoke) {
        (Some(p), _) => p.clone(),
        (None, false) => "BENCH_scheduler.json".to_string(),
        (None, true) => {
            println!("smoke mode: skipping BENCH_scheduler.json (pass --out to write)");
            return;
        }
    };
    let row = |r: &PolicyRun| {
        format!(
            "{{ \"makespan_ms\": {:.1}, \"tps\": {:.1}, \"fast_share\": {:.3} }}",
            r.makespan.as_secs_f64() * 1e3,
            r.tps,
            r.fast_share
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"fig_scheduler\",\n  \"workload\": \"{n} x {task_ms} ms tasks, \
         fast {FAST_WORKERS}w vs slow {SLOW_WORKERS}w (4x skew)\",\n  \"random_hash\": {},\n  \
         \"least_outstanding\": {},\n  \"least_outstanding_capped\": {},\n  \
         \"random_hash_tps\": {:.1},\n  \"least_outstanding_tps\": {:.1},\n  \
         \"speedup_least_vs_random\": {speedup:.3}\n}}\n",
        row(random),
        row(least),
        row(&capped),
        random.tps,
        least.tps,
    );
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
