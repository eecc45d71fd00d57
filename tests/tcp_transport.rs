//! Integration: HTEX over real loopback TCP (§4.3.1's deployment shape).
//!
//! These tests spawn actual `parsl-worker` *processes* that connect back
//! to the interchange's [`nexus::TcpHub`] over loopback sockets, register
//! capacity, and serve length-prefixed `wire` frames — the same protocol
//! the in-proc fabric carries, over a real transport. Apps resolve in the
//! worker by name against the compiled-in builtin table
//! (`parsl_executors::builtin`), so every app used here must be one the
//! worker knows.

use parsl::executors::{HtexConfig, HtexExecutor, LlexConfig, LlexExecutor, TcpHtexOptions};
use parsl::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The worker binary built alongside this test (root package bin).
fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_parsl-worker").to_string()]
}

fn tcp_htex(cfg: HtexConfig) -> Arc<HtexExecutor> {
    Arc::new(
        HtexExecutor::tcp(
            cfg,
            TcpHtexOptions {
                worker_cmd: worker_cmd(),
                ..Default::default()
            },
        )
        .expect("bind loopback hub"),
    )
}

/// Block until `want` workers have registered over TCP (process spawn +
/// connect + register is asynchronous).
fn await_workers(htex: &HtexExecutor, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while htex.connected_workers() < want {
        assert!(
            Instant::now() < deadline,
            "only {}/{want} workers registered in time",
            htex.connected_workers()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn tcp_roundtrip_executes_tasks_in_worker_processes() {
    let htex = tcp_htex(HtexConfig {
        workers_per_node: 2,
        nodes_per_block: 2,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .build()
        .unwrap();
    // Bodies run in the worker process via the builtin table; these
    // client-side closures only fix the types and signatures.
    let double = dfk.python_app("double", |x: u64| x * 2);
    let add = dfk.python_app("add", |a: u64, b: u64| a + b);

    // Dependency chains force result→argument flow across the socket.
    let futs: Vec<_> = (0..40u64)
        .map(|i| {
            let d = parsl::core::call!(double, i);
            add.call((Dep::future(d), Dep::value(i)))
        })
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(
            f.result_timeout(Duration::from_secs(30)).unwrap(),
            3 * i as u64,
            "add(double({i}), {i})"
        );
    }
    assert_eq!(htex.outstanding(), 0);
    dfk.shutdown();
}

#[test]
fn tcp_unknown_app_fails_cleanly_instead_of_hanging() {
    let htex = tcp_htex(HtexConfig {
        workers_per_node: 1,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex)
        .build()
        .unwrap();
    // Not in the builtin table: the worker cannot bind it, the task fails
    // with the registry's missing-app error and surfaces like an app error.
    let stranger = dfk.python_app("no_such_builtin", |x: u64| x);
    let f = parsl::core::call!(stranger, 1u64);
    let err = f
        .result_timeout(Duration::from_secs(30))
        .expect_err("unknown app must fail");
    let rendered = err.to_string();
    assert!(
        rendered.contains("app"),
        "error should mention the app problem, got: {rendered}"
    );
    dfk.shutdown();
}

/// This process's children whose command line mentions `needle`.
fn children_naming(needle: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let entries = std::fs::read_dir("/proc").expect("procfs");
    entries
        .flatten()
        .filter_map(|entry| {
            let pid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // After the parenthesised command name: state, then ppid.
            let ppid = stat.rsplit_once(") ")?.1.split(' ').nth(1)?.to_string();
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
            let named = String::from_utf8_lossy(&cmdline).contains(needle);
            (ppid == me && named).then_some(pid)
        })
        .collect()
}

/// Whether a thread of this process has a name starting with `prefix`.
fn thread_named(prefix: &str) -> bool {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks.flatten().any(|task| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
    })
}

/// The client and the interchange share the hub as local ports: only the
/// manager is behind a socket. So the client is no hub connection that
/// `drop_node_conn` could sever, and no spoke reader thread runs in this
/// process.
#[test]
fn client_reaches_the_interchange_without_a_socket() {
    let htex = tcp_htex(HtexConfig {
        label: "direct".into(),
        workers_per_node: 1,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .build()
        .unwrap();
    let noop = dfk.python_app("noop", |x: u64| x);
    let futs: Vec<_> = (0..100u64).map(|i| parsl::core::call!(noop, i)).collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result_timeout(Duration::from_secs(30)).unwrap(), i as u64);
    }
    assert!(
        !htex.drop_node_conn(&parsl::nexus::Addr::new("direct:client")),
        "the client is a hub connection"
    );
    assert!(
        !thread_named("nexus-tcp-spoke"),
        "a spoke reader runs in the kernel process"
    );
    // The interchange settles results itself: no client thread receives
    // them (a thread's name is cut to 15 bytes, so match its prefix).
    assert!(
        !thread_named("direct:client"),
        "a client receive thread runs in the kernel process"
    );
    dfk.shutdown();
}

/// A spawned `parsl-worker` runs its manager and its worker threads and
/// nothing else: the manager reads its own socket (no `nexus-tcp-spoke`
/// thread) and each worker thread flushes its own results.
#[test]
fn a_worker_process_runs_its_manager_and_workers_only() {
    let htex = tcp_htex(HtexConfig {
        label: "lean".into(),
        workers_per_node: 2,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .build()
        .unwrap();
    await_workers(&htex, 2);
    let noop = dfk.python_app("noop", |x: u64| x);
    let futs: Vec<_> = (0..100u64).map(|i| parsl::core::call!(noop, i)).collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.result_timeout(Duration::from_secs(30)).unwrap(), i as u64);
    }
    let pid = children_naming("lean:mgr-0")[0];
    let threads: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("procfs")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect();
    assert_eq!(threads.len(), 1 + 2, "threads of the worker: {threads:?}");
    assert!(
        !threads.iter().any(|t| t == "nexus-tcp-spoke"),
        "a spoke reader runs in the worker: {threads:?}"
    );
    dfk.shutdown();
}

/// The hub address this process's `parsl-worker` child named `node`
/// was told to connect to.
fn hub_of(node: &str) -> String {
    let pid = children_naming(node)[0];
    let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).expect("procfs");
    let args: Vec<String> = cmdline
        .split(|&b| b == 0)
        .map(|a| String::from_utf8_lossy(a).into_owned())
        .collect();
    let at = args
        .iter()
        .position(|a| a == "--connect")
        .expect("--connect");
    args[at + 1].clone()
}

/// Anything that can connect to the hub is a peer of the interchange,
/// not its client: a stranger's `Shutdown`, `ShutdownExecutor` command
/// and `Submit` are ignored like undecodable frames. The kernel's next
/// 100 tasks still complete, and no task the kernel never submitted is
/// run or settled (the outstanding gauge returns to exactly 0).
#[test]
fn plane_peers_cannot_stop_or_feed_the_interchange() {
    use parsl::executors::proto::{encode, Command, ToInterchange, WireTask};
    use parsl::nexus::{Addr, Port, SpokeConfig, TcpSpoke};

    let htex = tcp_htex(HtexConfig {
        label: "guarded".into(),
        workers_per_node: 1,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .build()
        .unwrap();
    let noop = dfk.python_app("noop", |x: u64| x);
    let first = parsl::core::call!(noop, 0u64);
    assert_eq!(first.result_timeout(Duration::from_secs(30)).unwrap(), 0);

    let me = Addr::new("stranger");
    let stranger = TcpSpoke::connect(hub_of("guarded:mgr-0"), me.clone(), SpokeConfig::default())
        .expect("connect to the hub");
    let ix = Addr::new("guarded:ix");
    let forged = WireTask {
        id: 999_999,
        attempt: 0,
        app_id: 0,
        tenant: 0,
        items: 1,
        args: Vec::new(),
    };
    for msg in [
        ToInterchange::Shutdown,
        ToInterchange::Command(Command::ShutdownExecutor),
        ToInterchange::Submit(forged),
    ] {
        stranger.send(&ix, encode(&msg)).unwrap();
    }
    // The hub routes one connection's frames in order: once the stranger
    // hears its own echo, all three are in the interchange's inbox.
    stranger.send(&me, encode(&())).unwrap();
    stranger
        .recv_timeout(Duration::from_secs(10))
        .expect("the echo returns");

    let futs: Vec<_> = (1..=100u64).map(|i| parsl::core::call!(noop, i)).collect();
    for (i, f) in (1..).zip(&futs) {
        assert_eq!(f.result_timeout(Duration::from_secs(10)).unwrap(), i);
    }
    assert_eq!(htex.outstanding(), 0);
    dfk.shutdown();
}

/// Shutting down right after start stops every node, including the ones
/// the interchange had not registered yet: it never told those to stop,
/// so they are killed instead of waited on. A spawned worker used to sit
/// out a 5 s grace period; an LLEX-shape node, whose heartbeat threshold
/// never expires, would never exit at all.
#[test]
fn shutdown_stops_nodes_the_interchange_never_registered() {
    let tcp = tcp_htex(HtexConfig {
        label: "quit-tcp".into(),
        workers_per_node: 1,
        nodes_per_block: 2,
        ..Default::default()
    });
    let llex = Arc::new(LlexExecutor::new(LlexConfig {
        label: "quit-llex".into(),
        workers: 2,
    }));
    let start = |ex: Arc<HtexExecutor>| DataFlowKernel::builder().executor_arc(ex).build();
    let shut_down_at_once = |dfk: Arc<DataFlowKernel>| {
        let t = Instant::now();
        dfk.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            t.elapsed()
        );
    };

    let dfk = start(tcp).unwrap();
    let workers = children_naming("quit-tcp:mgr-");
    assert_eq!(workers.len(), 2, "both worker processes were spawned");
    shut_down_at_once(dfk);
    for pid in workers {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "parsl-worker {pid} outlived shutdown"
        );
    }

    shut_down_at_once(start(llex).unwrap());
    // In-proc nodes stand in for processes and are not joined: they exit
    // on their own once stopped.
    let deadline = Instant::now() + Duration::from_secs(1);
    while thread_named("quit-llex-mgr") {
        assert!(Instant::now() < deadline, "an LLEX node outlived shutdown");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Reconnect (heartbeat/reconnect layer): dropping a manager's TCP
// connection mid-stream must be transparent — the spoke reconnects, the
// manager re-registers carrying its held set, and the run's results,
// states, and attempt counts match an uninterrupted run.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RetryCount(std::sync::Mutex<std::collections::HashMap<u64, u32>>);

impl parsl::core::monitor::MonitorSink for RetryCount {
    fn on_event(&self, event: &parsl::core::monitor::MonitorEvent) {
        if let parsl::core::monitor::MonitorEvent::Retry { task, .. } = event {
            *self.0.lock().unwrap().entry(task.0).or_insert(0) += 1;
        }
    }
}

struct ReconnectRun {
    values: Vec<u64>,
    done: usize,
    retries: Vec<(u64, u32)>,
    outstanding: usize,
}

fn reconnect_run(cut_conn: bool) -> ReconnectRun {
    let retries = Arc::new(RetryCount::default());
    let htex = tcp_htex(HtexConfig {
        workers_per_node: 4,
        prefetch: 8,
        batch_size: 8,
        init_blocks: 1,
        heartbeat_period: Duration::from_millis(50),
        // Far beyond the reconnect time: the drop must be healed by the
        // transport layer, not surfaced as a manager loss.
        heartbeat_threshold: Duration::from_secs(5),
        ..Default::default()
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(htex.clone())
        .retries(2)
        .monitor(retries.clone())
        .build()
        .unwrap();
    let sleepy = dfk.python_app("sleep_ms", |ms: u64, x: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        x
    });
    let futs: Vec<_> = (0..12u64)
        .map(|i| sleepy.call((Dep::value(800u64), Dep::value(i))))
        .collect();

    if cut_conn {
        // Wait for the tasks to be dispatched and held in the worker
        // process, then sever its socket mid-stream.
        await_workers(&htex, 4);
        std::thread::sleep(Duration::from_millis(300));
        let nodes = htex.nodes();
        assert!(
            htex.drop_node_conn(&nodes[0]),
            "manager connection should exist to be dropped"
        );
    }

    let values: Vec<u64> = futs
        .iter()
        .map(|f| f.result_timeout(Duration::from_secs(30)).unwrap())
        .collect();
    dfk.wait_for_all();
    let done = *dfk
        .state_counts()
        .get(&TaskState::Done)
        .expect("some tasks done");
    let outstanding = htex.outstanding();
    let mut sorted: Vec<(u64, u32)> = retries
        .0
        .lock()
        .unwrap()
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    sorted.sort();
    dfk.shutdown();
    ReconnectRun {
        values,
        done,
        retries: sorted,
        outstanding,
    }
}

#[test]
fn dropped_manager_conn_heals_without_losing_or_retrying_tasks() {
    let baseline = reconnect_run(false);
    let cut = reconnect_run(true);
    assert_eq!(baseline.values, (0..12u64).collect::<Vec<_>>());
    assert_eq!(
        cut.values, baseline.values,
        "results must match uninterrupted run"
    );
    assert_eq!(cut.done, baseline.done, "state histogram must match");
    assert_eq!(
        baseline.retries,
        vec![],
        "uninterrupted run retries nothing"
    );
    assert_eq!(
        cut.retries, baseline.retries,
        "reconnect must not consume retry budget"
    );
    assert_eq!(baseline.outstanding, 0);
    assert_eq!(cut.outstanding, 0, "accounting must drain after reconnect");
}
