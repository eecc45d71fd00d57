//! Figure-5-style throughput experiment: per-task vs batched submission.
//!
//! The paper's HTEX sustains >1k tasks/s by batching task traffic
//! (§4.3.1, §5.2). This binary measures the submission-path win on two
//! planes:
//!
//! - **real plane**: an `HtexExecutor` over the in-process fabric with a
//!   per-message cost modelling a real transport's syscall/framing floor
//!   (20 µs — conservative next to the 180 µs per-message share profiled
//!   into [`simcluster::calib::SUBMIT_PER_MSG`]). N noop tasks are driven
//!   end-to-end per-task ([`Executor::submit`], `batch_size: 1`) and
//!   batched ([`Executor::submit_batch`], `batch_size: 64`), plus the full
//!   DFK wide-fan-out path where the ready-queue drainer forms the
//!   batches itself;
//! - **model plane**: [`FrameworkModel::dispatch_rate`] at paper scale
//!   (512 workers), batch 1 / 8 / 64;
//! - **tcp plane**: the same HTEX over real loopback TCP, dispatching to
//!   spawned `parsl-worker` processes — the deployment shape, measured
//!   end-to-end per-task and batched.
//!
//! Usage: `fig5_throughput [--smoke] [--out FILE] [--transport T]` where
//! `T` is `inproc`, `tcp`, or `both` (default: `inproc` for smoke runs,
//! `both` for full runs — so the worker binary is only required when the
//! TCP plane is requested). The full run writes `BENCH_throughput.json`
//! to the working directory; `--smoke` is a small CI-sized run that
//! exercises the same paths and skips the file unless `--out` names one
//! (CI uses that to feed the bench-regression guard).

use bench::{fmt_f, Table};
use crossbeam::channel::unbounded;
use parsl_core::executor::{Executor, ExecutorContext, TaskSpec};
use parsl_core::registry::{AppOptions, AppRegistry, RegisteredApp};
use parsl_core::types::{ResourceSpec, TaskId};
use parsl_core::DataFlowKernel;
use parsl_executors::{FrameworkModel, HtexConfig, HtexExecutor, TcpHtexOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-message transport cost charged by the fabric (see module docs).
const PER_MESSAGE_COST: Duration = Duration::from_micros(20);

fn fabric() -> nexus::Fabric {
    nexus::Fabric::with_config(nexus::FabricConfig {
        per_message_cost: PER_MESSAGE_COST,
        ..Default::default()
    })
}

/// `batched` runs the full batching stack (`submit_batch`, dispatch and
/// result frames of 64); per-task turns the paper's batching knob off end
/// to end (`batch_size: 1`: `submit`, and every hop one frame per task —
/// which also keeps the client from coalescing single submits under
/// backlog, so the arm still measures one frame per task).
fn htex_config(label: &str, batched: bool) -> HtexConfig {
    HtexConfig {
        label: label.into(),
        workers_per_node: 4,
        nodes_per_block: 2,
        init_blocks: 1,
        prefetch: 64,
        batch_size: if batched { 64 } else { 1 },
        ..Default::default()
    }
}

fn noop_app(registry: &Arc<AppRegistry>) -> Arc<RegisteredApp> {
    registry.register(
        "noop",
        parsl_core::types::AppKind::Native,
        "(u64)->u64",
        Arc::new(|args| {
            let (x,): (u64,) = wire::from_bytes(args)
                .map_err(|e| parsl_core::error::AppError::Serialization(e.to_string()))?;
            wire::to_bytes(&x)
                .map_err(|e| parsl_core::error::AppError::Serialization(e.to_string()))
        }),
        AppOptions::default(),
    )
}

fn specs(app: &Arc<RegisteredApp>, base: u64, n: usize) -> Vec<TaskSpec> {
    (0..n as u64)
        .map(|i| TaskSpec {
            id: TaskId(base + i),
            app: Arc::clone(app),
            args: bytes::Bytes::from(wire::to_bytes(&(i,)).unwrap()),
            resources: ResourceSpec::default(),
            attempt: 0,
            tenant: parsl_core::types::TenantId::DEFAULT,
            items: 1,
        })
        .collect()
}

/// Drive `n` noop tasks through a fresh HTEX, per-task or batched.
/// Returns end-to-end tasks/second.
fn run_htex(n: usize, batched: bool) -> f64 {
    let htex = HtexExecutor::on_fabric(htex_config("htex", batched), fabric());
    drive_htex(htex, n, batched)
}

/// The same workload over real loopback TCP: the interchange listens on a
/// [`nexus::TcpHub`] and `parsl-worker` processes connect back (resolve
/// the binary with `PARSL_WORKER_BIN` or as a sibling of this one). The
/// client is a hub-local port beside the interchange, so only the
/// interchange ↔ manager frames cross a socket.
///
/// Loopback sockets carry no modelled per-message cost, so the contrast
/// is the real per-frame cost of [`htex_config`]'s two settings.
fn run_htex_tcp(n: usize, batched: bool) -> f64 {
    // One node keeps the thread count down: on small CI boxes the real
    // processes time-slice against the client, and scheduler noise
    // swamps the measurement. Median of three runs for the same reason.
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let mut cfg = htex_config("htex-tcp", batched);
            cfg.nodes_per_block = 1;
            cfg.workers_per_node = 2;
            let htex =
                HtexExecutor::tcp(cfg, TcpHtexOptions::default()).expect("bind loopback hub");
            drive_htex(htex, n, batched)
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[1]
}

fn drive_htex(htex: HtexExecutor, n: usize, batched: bool) -> f64 {
    let registry = AppRegistry::new();
    let app = noop_app(&registry);
    let (tx, rx) = unbounded();
    htex.start(ExecutorContext {
        completions: tx,
        registry: Arc::clone(&registry),
    })
    .expect("start htex");

    // Completion frames carry batches; count outcomes, not messages.
    let drain = |count: usize, timeout: Duration| {
        let mut seen = 0;
        while seen < count {
            seen += rx.recv_timeout(timeout).expect("tasks complete").len();
        }
    };

    // Warm-up: managers registered, queues primed.
    let warm = 50.min(n);
    htex.submit_batch(specs(&app, 1_000_000, warm)).unwrap();
    drain(warm, Duration::from_secs(10));

    let tasks = specs(&app, 0, n);
    let t0 = Instant::now();
    if batched {
        htex.submit_batch(tasks).unwrap();
    } else {
        for t in tasks {
            htex.submit(t).unwrap();
        }
    }
    drain(n, Duration::from_secs(60));
    let elapsed = t0.elapsed();
    htex.shutdown();
    n as f64 / elapsed.as_secs_f64()
}

/// The full DFK path: one root gating an `n`-wide fan-out on HTEX. The
/// completion cascade makes all children ready at once, so the DFK's
/// ready-queue drainer ships them as `submit_batch` frames.
fn run_dfk_fanout(n: usize) -> f64 {
    let htex = HtexExecutor::on_fabric(htex_config("htex", true), fabric());
    let dfk = DataFlowKernel::builder()
        .executor_arc(Arc::new(htex))
        .build()
        .unwrap();
    let root = dfk.python_app("root", || 0u64);
    let child = dfk.python_app("child", |gate: u64, i: u64| gate + i);
    let t0 = Instant::now();
    let g = parsl_core::call!(root);
    let futs: Vec<_> = (0..n as u64)
        .map(|i| {
            child.call((
                parsl_core::Dep::future(g.clone()),
                parsl_core::Dep::value(i),
            ))
        })
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result().unwrap(), i as u64, "fan-out child {i}");
    }
    let elapsed = t0.elapsed();
    dfk.shutdown();
    (n + 1) as f64 / elapsed.as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    let transport = args
        .iter()
        .position(|a| a == "--transport")
        .map(|i| args.get(i + 1).expect("--transport needs a value").clone())
        .unwrap_or_else(|| {
            if smoke {
                "inproc".into()
            } else {
                "both".into()
            }
        });
    let (run_inproc, run_tcp) = match transport.as_str() {
        "inproc" => (true, false),
        "tcp" => (false, true),
        "both" => (true, true),
        other => panic!("--transport must be inproc|tcp|both, got {other}"),
    };
    let n = if smoke { 300 } else { 5000 };

    println!(
        "fig5_throughput: HTEX submission path, n={n}, transport {transport}, \
         per-message cost {:?}{}",
        PER_MESSAGE_COST,
        if smoke { " (smoke)" } else { "" }
    );

    let mut table = Table::new(&["path", "tasks/s"]);
    // JSON fields accumulate per plane so a single-plane run writes a
    // partial file the bench guard can still key into.
    let mut fields: Vec<String> = vec![
        "\"experiment\": \"fig5_throughput\"".into(),
        format!("\"workload\": \"wide fan-out, {n} noop tasks, HTEX {transport} path\""),
        format!("\"per_message_cost_us\": {}", PER_MESSAGE_COST.as_micros()),
    ];

    let mut inproc_speedup = None;
    if run_inproc {
        let per_task = run_htex(n, false);
        let batched = run_htex(n, true);
        let speedup = batched / per_task;
        inproc_speedup = Some(speedup);
        let dfk_fanout = run_dfk_fanout(n);
        table.row(vec!["htex per-task submit".into(), fmt_f(per_task)]);
        table.row(vec!["htex submit_batch".into(), fmt_f(batched)]);
        table.row(vec![
            "htex batched speedup".into(),
            format!("{speedup:.2}x"),
        ]);
        table.row(vec!["dfk fan-out (batched e2e)".into(), fmt_f(dfk_fanout)]);
        fields.push(format!("\"htex_per_task_tps\": {per_task:.1}"));
        fields.push(format!("\"htex_batched_tps\": {batched:.1}"));
        fields.push(format!("\"batched_speedup\": {speedup:.3}"));
        fields.push(format!("\"dfk_fanout_tps\": {dfk_fanout:.1}"));
    }

    let mut tcp_speedup = None;
    if run_tcp {
        // Loopback TCP completes 300 tasks in ~1.5 ms — pure noise. The
        // TCP plane needs a floor on n for the rates to mean anything,
        // smoke or not.
        let n = n.max(2000);
        let per_task = run_htex_tcp(n, false);
        let batched = run_htex_tcp(n, true);
        let speedup = batched / per_task;
        tcp_speedup = Some(speedup);
        table.row(vec!["tcp per-task submit".into(), fmt_f(per_task)]);
        table.row(vec!["tcp submit_batch".into(), fmt_f(batched)]);
        table.row(vec!["tcp batched speedup".into(), format!("{speedup:.2}x")]);
        fields.push(format!("\"htex_tcp_per_task_tps\": {per_task:.1}"));
        fields.push(format!("\"htex_tcp_batched_tps\": {batched:.1}"));
        fields.push(format!("\"tcp_batched_speedup\": {speedup:.3}"));
    }

    // Model plane: paper-scale dispatch rates.
    let model = FrameworkModel::htex();
    let m1 = model.dispatch_rate(512, 1).unwrap();
    let m8 = model.dispatch_rate(512, 8).unwrap();
    let m64 = model.dispatch_rate(512, 64).unwrap();
    table.row(vec!["model: 512 workers, batch 1".into(), fmt_f(m1)]);
    table.row(vec!["model: 512 workers, batch 8".into(), fmt_f(m8)]);
    table.row(vec!["model: 512 workers, batch 64".into(), fmt_f(m64)]);
    table.print();
    fields.push(format!(
        "\"model_512w_tps\": {{ \"batch_1\": {m1:.1}, \"batch_8\": {m8:.1}, \"batch_64\": {m64:.1} }}"
    ));

    let path = match (&out, smoke) {
        (Some(p), _) => p.clone(),
        (None, false) => "BENCH_throughput.json".to_string(),
        (None, true) => {
            println!("smoke mode: skipping BENCH_throughput.json (pass --out to write)");
            return;
        }
    };

    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    if let Some(s) = inproc_speedup {
        if s < 1.5 {
            println!("WARNING: batched speedup {s:.2}x below the 1.5x target");
        }
    }
    if let Some(s) = tcp_speedup {
        if s < 3.0 {
            println!("WARNING: tcp batched speedup {s:.2}x below the 3x target");
        }
    }
}
