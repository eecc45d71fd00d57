//! Figure 3: distributions of task latencies when running 1000 tasks on
//! Midway with different executors.
//!
//! Two planes:
//! - the **DES plane** reproduces the paper's setup exactly (1000
//!   sequential no-op tasks over the Midway RTT) at calibrated costs;
//! - the **real plane** runs the same experiment through the actual
//!   thread-based executors on a latency-injected fabric. All three wire
//!   executors are one interchange and one manager loop, so only hop
//!   counts separate them: LLEX's manager runs the task inline and saves
//!   HTEX's manager → worker hop, while EXEX's rank 0 → worker rank hop
//!   matches HTEX's, so the real plane shows LLEX < HTEX ≈ EXEX. The
//!   paper's EXEX premium over HTEX (9.83 vs 6.87 ms) lives in the DES
//!   plane's calibration.
//!
//! Paper means (ms): ThreadPool ≈1.04*, LLEX 3.47, HTEX 6.87, EXEX 9.83,
//! IPP 11.72, Dask 16.19. (*derived: LLEX is "approximately 2.43 ms slower
//! than the local ThreadPool executor".)

use bench::{fmt_f, section, Table};
use simcluster::{machines, FrameworkModel};
use simnet::SimTime;
use std::time::{Duration, Instant};

fn main() {
    let midway = machines::midway();
    let one_way = midway.one_way_latency();

    section("Figure 3 — task latency, 1000 sequential no-op tasks (DES plane)");
    let lineup: Vec<(FrameworkModel, Option<f64>)> = vec![
        (FrameworkModel::threadpool(), Some(1.04)),
        (FrameworkModel::llex(), Some(3.47)),
        (FrameworkModel::htex(), Some(6.87)),
        (FrameworkModel::exex(), Some(9.83)),
        (FrameworkModel::ipp(), Some(11.72)),
        (FrameworkModel::dask(), Some(16.19)),
    ];
    let mut t = Table::new(&[
        "executor", "mean ms", "p5 ms", "p50 ms", "p95 ms", "stddev", "paper ms",
    ]);
    for (model, paper) in &lineup {
        let mut s = model.run_sequential_latency(1000, SimTime::ZERO, one_way, 42);
        t.row(vec![
            model.name.to_string(),
            fmt_f(s.mean()),
            fmt_f(s.quantile(0.05)),
            fmt_f(s.quantile(0.50)),
            fmt_f(s.quantile(0.95)),
            fmt_f(s.stddev()),
            paper.map(fmt_f).unwrap_or_else(|| "-".into()),
        ]);
    }
    t.print();

    section("Figure 3 — real thread plane (in-process, latency-injected fabric)");
    println!("absolute numbers differ from the paper's Python stack; one interchange and");
    println!("one manager loop serve all three, so hop counts alone order them:");
    println!("LLEX (inline worker) < HTEX ~ EXEX (one manager -> worker hop each)\n");
    let mut t = Table::new(&["executor", "mean us", "p50 us", "p95 us"]);
    for (name, stats) in [
        ("ThreadPool", real_plane_threadpool()),
        ("Parsl-LLEX", real_plane_llex(one_way)),
        ("Parsl-HTEX", real_plane_htex(one_way)),
        ("Parsl-EXEX", real_plane_exex(one_way)),
    ] {
        let mut s = stats;
        t.row(vec![
            name.to_string(),
            fmt_f(s.mean()),
            fmt_f(s.quantile(0.5)),
            fmt_f(s.quantile(0.95)),
        ]);
    }
    t.print();
}

const REAL_TASKS: usize = 300;

fn measure(dfk: &std::sync::Arc<parsl_core::DataFlowKernel>) -> simnet::Samples {
    let noop = dfk.python_app("noop", |x: u8| x);
    // Warm-up.
    for _ in 0..20 {
        let _ = parsl_core::call!(noop, 0u8).result().unwrap();
    }
    let mut samples = simnet::Samples::new();
    for _ in 0..REAL_TASKS {
        let t0 = Instant::now();
        let _ = parsl_core::call!(noop, 1u8).result().unwrap();
        samples.record(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

fn fabric(one_way: SimTime) -> nexus::Fabric {
    nexus::Fabric::with_config(nexus::FabricConfig {
        latency: Duration::from_nanos(one_way.as_nanos()),
        ..Default::default()
    })
}

fn real_plane_threadpool() -> simnet::Samples {
    let dfk = parsl_core::DataFlowKernel::builder()
        .executor(parsl_executors::ThreadPoolExecutor::new(1))
        .build()
        .unwrap();
    let s = measure(&dfk);
    dfk.shutdown();
    s
}

fn real_plane_llex(one_way: SimTime) -> simnet::Samples {
    let dfk = parsl_core::DataFlowKernel::builder()
        .executor(parsl_executors::LlexExecutor::on_fabric(
            parsl_executors::LlexConfig {
                workers: 1,
                ..Default::default()
            },
            fabric(one_way),
        ))
        .build()
        .unwrap();
    let s = measure(&dfk);
    dfk.shutdown();
    s
}

fn real_plane_htex(one_way: SimTime) -> simnet::Samples {
    let dfk = parsl_core::DataFlowKernel::builder()
        .executor(parsl_executors::HtexExecutor::on_fabric(
            parsl_executors::HtexConfig {
                workers_per_node: 1,
                nodes_per_block: 1,
                init_blocks: 1,
                ..Default::default()
            },
            fabric(one_way),
        ))
        .build()
        .unwrap();
    let s = measure(&dfk);
    dfk.shutdown();
    s
}

fn real_plane_exex(one_way: SimTime) -> simnet::Samples {
    let dfk = parsl_core::DataFlowKernel::builder()
        .executor(parsl_executors::ExexExecutor::on_fabric(
            parsl_executors::ExexConfig {
                ranks_per_pool: 2,
                init_pools: 1,
                ..Default::default()
            },
            fabric(one_way),
        ))
        .build()
        .unwrap();
    let s = measure(&dfk);
    dfk.shutdown();
    s
}
