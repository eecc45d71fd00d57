//! Isolated probes: one layer at a time, through its public functions.
//!
//! Each number is the median of [`Scale::blocks`] timed blocks. Probes that
//! time a wake-up or a round trip (`*_p50_us`, `set_wake_us`) run with the
//! process restricted to one CPU, for the reason `seq_noop_htex_tcp` does;
//! the rest use every CPU. Every value a probe gets back is checked.

use crate::stats;
use crate::sysinfo;
use crate::workloads::Checks;
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use nexus::{Addr, Fabric, Port, SpokeConfig, TcpHub, TcpSpoke, Transport};
use parking_lot::Mutex;
use parsl_core::executor::{ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::future::FutureState;
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::registry::{AppRegistry, RegisteredApp};
use parsl_core::scheduler::ExecutorSnapshot;
use parsl_core::types::{AppKind, ResourceSpec};
use parsl_core::{memo_key, Memoizer};
use parsl_executors::proto::{self, ToClient, ToInterchange, WireResult, WireTask};
use parsl_executors::{
    ExexConfig, ExexExecutor, HtexConfig, HtexExecutor, LlexConfig, LlexExecutor, TcpHtexOptions,
    ThreadPoolExecutor,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much each probe does.
#[derive(Clone, Copy)]
struct Scale {
    /// Timed blocks per probe; the reported number is their median.
    blocks: usize,
    /// Divides every probe's operation count (1 for a full run).
    shrink: usize,
}

impl Scale {
    fn ops(self, full: usize) -> usize {
        (full / self.shrink).max(8)
    }

    fn median(self, mut block: impl FnMut() -> f64) -> f64 {
        stats::median(&(0..self.blocks).map(|_| block()).collect::<Vec<f64>>())
    }

    /// Nanoseconds per call of `op`.
    fn ns_per_op(self, full_ops: usize, mut op: impl FnMut()) -> f64 {
        let ops = self.ops(full_ops);
        self.median(|| {
            let t = Instant::now();
            for _ in 0..ops {
                op();
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
    }

    /// Median over blocks of the p50 of `ops` samples.
    fn p50_of(self, full_ops: usize, mut sample: impl FnMut() -> f64) -> f64 {
        let ops = self.ops(full_ops);
        self.median(|| {
            let mut v: Vec<f64> = (0..ops).map(|_| sample()).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            stats::percentile(&v, 50.0)
        })
    }

    /// Median over blocks of the p50 of `ops` timings of `op`, in µs.
    fn p50_us(self, full_ops: usize, mut op: impl FnMut()) -> f64 {
        self.p50_of(full_ops, || {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e6
        })
    }
}

/// Run `f` with this thread, and the threads and processes it starts,
/// on one CPU.
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let all = sysinfo::allowed_cpus();
    let pinned = all.last().is_some_and(|&c| sysinfo::set_affinity(&[c]));
    let out = f();
    if pinned {
        sysinfo::set_affinity(&all);
    }
    out
}

struct Probes {
    scale: Scale,
    values: HashMap<&'static str, f64>,
    checks: Checks,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

const SIGNATURE: &str = "(u64)->u64";

fn noop_app(registry: &AppRegistry) -> Arc<RegisteredApp> {
    registry.register(
        "noop",
        AppKind::Native,
        SIGNATURE,
        parsl_executors::builtin::resolve("noop", SIGNATURE).expect("noop is a builtin"),
        AppOptions::default(),
    )
}

fn spec(app: &Arc<RegisteredApp>, id: u64, value: u64) -> TaskSpec {
    TaskSpec {
        id: TaskId(id),
        app: Arc::clone(app),
        args: Bytes::from(wire::to_bytes(&(value,)).expect("a u64 encodes")),
        resources: ResourceSpec::default(),
        attempt: 0,
        tenant: TenantId::DEFAULT,
        items: 1,
    }
}

/// The value task `id` carries in the executor probes.
fn value_of(id: u64) -> u64 {
    id.wrapping_mul(2_654_435_761) % (1 << 24)
}

fn wire_task(id: u64) -> WireTask {
    WireTask {
        id,
        attempt: 0,
        app_id: 1,
        tenant: 0,
        items: 1,
        args: wire::to_bytes(&(value_of(id),)).expect("a u64 encodes"),
    }
}

fn probe_wire(p: &mut Probes) {
    let s = p.scale;
    let task = wire_task(123_456);
    let bytes = wire::to_bytes(&task).expect("a task encodes");
    p.put(
        "wire.encode_task_ns",
        s.ns_per_op(50_000, || {
            black_box(wire::to_bytes(black_box(&task)).expect("a task encodes"));
        }),
    );
    p.put(
        "wire.decode_task_ns",
        s.ns_per_op(50_000, || {
            black_box(wire::from_bytes::<WireTask>(black_box(&bytes)).expect("decodes"));
        }),
    );
    p.checks.expect(wire::from_bytes::<WireTask>(&bytes), &task);

    let payload = [7u8; 64];
    let mut buf = BytesMut::with_capacity(128);
    let mut decoder = wire::StreamDecoder::new();
    p.put(
        "wire.frame_ns",
        s.ns_per_op(50_000, || {
            buf.clear();
            wire::write_frame(&mut buf, &payload).expect("a small frame");
            decoder.feed(&buf);
            black_box(decoder.next_frame().expect("a whole frame"));
        }),
    );

    // The argument payload of one fused chunk of 4 096 items.
    let items: Vec<Vec<u8>> = (0..4096u64)
        .map(|i| wire::to_bytes(&value_of(i)).expect("a u64 encodes"))
        .collect();
    let bulk = wire::to_bytes(&items).expect("a chunk encodes");
    let mb = bulk.len() as f64 / 1e6;
    p.put(
        "wire.encode_bulk_mb_s",
        mb * 1e9
            / s.ns_per_op(200, || {
                black_box(wire::to_bytes(black_box(&items)).expect("a chunk encodes"));
            }),
    );
    p.put(
        "wire.decode_bulk_mb_s",
        mb * 1e9
            / s.ns_per_op(200, || {
                black_box(wire::from_bytes::<Vec<Vec<u8>>>(black_box(&bulk)).expect("decodes"));
            }),
    );
    p.checks
        .expect(wire::from_bytes::<Vec<Vec<u8>>>(&bulk), &items);
}

fn probe_proto(p: &mut Probes) {
    let s = p.scale;
    let registry = AppRegistry::new();
    let app = noop_app(&registry);
    let one = spec(&app, 42, value_of(42));
    p.put(
        "proto.from_spec_ns",
        s.ns_per_op(50_000, || {
            black_box(WireTask::from_spec(black_box(&one)));
        }),
    );

    const BATCH: usize = 64;
    let batch = ToInterchange::SubmitBatch((0..BATCH as u64).map(wire_task).collect());
    let encoded = proto::encode(&batch);
    p.put(
        "proto.encode_batch_ns_per_task",
        s.ns_per_op(2_000, || {
            black_box(proto::encode(black_box(&batch)));
        }) / BATCH as f64,
    );
    p.put(
        "proto.decode_batch_ns_per_task",
        s.ns_per_op(2_000, || {
            black_box(proto::decode::<ToInterchange>(black_box(&encoded)).expect("decodes"));
        }) / BATCH as f64,
    );

    // A result frame's way back: encode at the worker, decode at the
    // client, convert to the kernel's outcomes.
    let results = ToClient::Results(
        (0..BATCH as u64)
            .map(|id| WireResult {
                id,
                attempt: 0,
                outcome: Ok(wire::to_bytes(&value_of(id)).expect("a u64 encodes")),
                worker: "htex:mgr-0:w1".into(),
            })
            .collect(),
    );
    let mut outcomes = Vec::new();
    p.put(
        "proto.results_ns_per_task",
        s.ns_per_op(2_000, || {
            let frame = proto::encode(black_box(&results));
            if let Ok(ToClient::Results(r)) = proto::decode::<ToClient>(&frame) {
                outcomes = proto::outcomes_from_results(r);
            }
        }) / BATCH as f64,
    );
    p.checks.expect_eq(outcomes.len(), BATCH);
    for o in &outcomes {
        let got = o.result.as_ref().map(|b| wire::from_bytes::<u64>(b).ok());
        p.checks.expect(got, &Some(value_of(o.id.0)));
    }
}

/// Answer every message on `port` with its own payload until an empty one
/// arrives.
fn echo(port: Box<dyn Port>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(env) = port.recv() {
            if env.payload.is_empty() || port.send(&env.from, env.payload).is_err() {
                return;
            }
        }
    })
}

/// Count messages on `port`; after each `n`, report on `done`. Ends on an
/// empty message.
fn sink(port: Box<dyn Port>, n: usize, done: Sender<()>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut seen = 0;
        while let Ok(env) = port.recv() {
            if env.payload.is_empty() {
                return;
            }
            seen += 1;
            if seen % n == 0 && done.send(()).is_err() {
                return;
            }
        }
    })
}

/// One send and the echo's answer, checked.
fn ping(port: &dyn Port, to: &Addr, payload: &Bytes, checks: &mut Checks) {
    let sent = port.send(to, payload.clone()).is_ok();
    let got = port
        .recv_timeout(Duration::from_secs(10))
        .map(|e| e.payload);
    checks.expect(got.map_err(|_| ()), payload);
    debug_assert!(sent);
}

/// Messages per second of `n` sends of `payload`, until the sink has all.
fn stream(
    s: Scale,
    port: &dyn Port,
    to: &Addr,
    payload: &Bytes,
    n: usize,
    done: &Receiver<()>,
    checks: &mut Checks,
) -> f64 {
    s.median(|| {
        let t = Instant::now();
        for _ in 0..n {
            let _ = port.send(to, payload.clone());
        }
        checks.expect_eq(done.recv_timeout(Duration::from_secs(60)).is_ok(), true);
        n as f64 / t.elapsed().as_secs_f64()
    })
}

fn probe_fabric(p: &mut Probes) {
    let s = p.scale;
    let small = Bytes::from(vec![7u8; 64]);
    let (a_addr, b_addr) = (Addr::new("a"), Addr::new("b"));

    let mut checks = Checks::default();
    let rtt = on_one_cpu(|| {
        let fabric = Fabric::new();
        let a = fabric.bind(a_addr.clone()).expect("a is free");
        let b = fabric.bind(b_addr.clone()).expect("b is free");
        let echo = echo(Box::new(b));
        let rtt = s.p50_us(2_000, || ping(&a, &b_addr, &small, &mut checks));
        let _ = a.send(&b_addr, Bytes::new());
        let _ = echo.join();
        rtt
    });
    p.put("nexus.fabric.pingpong_p50_us", rtt);

    let fabric = Fabric::new();
    let a = fabric.bind(a_addr).expect("a is free");
    let b = fabric.bind(b_addr.clone()).expect("b is free");
    let n = s.ops(100_000);
    let (done_tx, done_rx) = unbounded();
    let counter = sink(Box::new(b), n, done_tx);
    let rate = stream(s, &a, &b_addr, &small, n, &done_rx, &mut checks);
    let _ = a.send(&b_addr, Bytes::new());
    let _ = counter.join();
    p.put("nexus.fabric.stream_msgs_per_s", rate);
    p.checks.add(checks);
}

fn connect(hub: &TcpHub, name: &str) -> TcpSpoke {
    TcpSpoke::connect(hub.local_addr(), Addr::new(name), SpokeConfig::default())
        .expect("connect to the hub on loopback")
}

fn probe_tcp(p: &mut Probes) {
    let s = p.scale;
    let small = Bytes::from(vec![7u8; 64]);
    let big = Bytes::from(vec![7u8; 128 * 1024]);
    let local = Addr::new("hub-local");
    let mut checks = Checks::default();

    // Round trips, on one CPU: spoke ↔ a port attached to the hub, and
    // spoke → hub → spoke.
    let (direct, relay) = on_one_cpu(|| {
        let hub = TcpHub::bind("127.0.0.1:0").expect("bind the hub on loopback");
        let echo_local = echo(hub.attach(local.clone()).expect("attach to the hub"));
        let a = connect(&hub, "spoke-a");
        let direct = s.p50_us(2_000, || ping(&a, &local, &small, &mut checks));
        let b_addr = Addr::new("spoke-b");
        let b = connect(&hub, "spoke-b");
        // The hub knows a spoke once it has read its hello; a message
        // relayed before that would be dropped, so wait for b to answer.
        let _ = b.send(&local, small.clone());
        let _ = b.recv_timeout(Duration::from_secs(10));
        let echo_b = echo(Box::new(b));
        let relay = s.p50_us(2_000, || ping(&a, &b_addr, &small, &mut checks));
        let _ = a.send(&b_addr, Bytes::new());
        let _ = a.send(&local, Bytes::new());
        let _ = echo_b.join();
        let _ = echo_local.join();
        hub.shutdown();
        (direct, relay)
    });
    p.put("nexus.tcp.pingpong_p50_us", direct);
    p.put("nexus.tcp.relay_pingpong_p50_us", relay);

    // One-way streams from a spoke into the hub's process.
    let hub = TcpHub::bind("127.0.0.1:0").expect("bind the hub on loopback");
    let a = connect(&hub, "spoke-a");
    for (name, payload, full) in [
        ("nexus.tcp.stream_msgs_per_s", &small, 100_000),
        ("nexus.tcp.stream_mb_s", &big, 1_000),
    ] {
        let n = s.ops(full);
        let (done_tx, done_rx) = unbounded();
        let port = hub.attach(local.clone()).expect("attach to the hub");
        let counter = sink(port, n, done_tx);
        let rate = stream(s, &a, &local, payload, n, &done_rx, &mut checks);
        let _ = a.send(&local, Bytes::new());
        let _ = counter.join();
        let per_s = if name.ends_with("mb_s") {
            rate * payload.len() as f64 / 1e6
        } else {
            rate
        };
        p.put(name, per_s);
    }

    // Connect, say hello, and get one answer back.
    let echo_local = echo(hub.attach(local.clone()).expect("attach to the hub"));
    let mut n = 0;
    let connect_ms = s.median(|| {
        n += 1;
        let t = Instant::now();
        let spoke = connect(&hub, &format!("spoke-{n}"));
        ping(&spoke, &local, &small, &mut checks);
        t.elapsed().as_secs_f64() * 1e3
    });
    p.put("nexus.tcp.connect_ms", connect_ms);
    let _ = a.send(&local, Bytes::new());
    let _ = echo_local.join();
    hub.shutdown();
    p.checks.add(checks);
}

/// An executor under a context the harness owns, no kernel.
struct Bench {
    executor: Box<dyn Executor>,
    app: Arc<RegisteredApp>,
    outcomes: Receiver<Vec<TaskOutcome>>,
    next_id: u64,
}

impl Bench {
    fn start(executor: Box<dyn Executor>, workers: usize, checks: &mut Checks) -> Bench {
        let registry = AppRegistry::new();
        let app = noop_app(&registry);
        let (tx, outcomes) = unbounded();
        let started = executor.start(ExecutorContext {
            completions: tx,
            registry,
        });
        checks.expect_eq(started.is_ok(), true);
        let deadline = Instant::now() + Duration::from_secs(30);
        while executor.connected_workers() < workers && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        checks.expect_eq(executor.connected_workers() >= workers, true);
        Bench {
            executor,
            app,
            outcomes,
            next_id: 0,
        }
    }

    fn specs(&mut self, n: usize) -> Vec<TaskSpec> {
        let first = self.next_id;
        self.next_id += n as u64;
        (first..self.next_id)
            .map(|id| spec(&self.app, id, value_of(id)))
            .collect()
    }

    /// Receive `n` outcomes and check each against its task's value.
    fn collect(&self, n: usize, checks: &mut Checks) {
        let mut seen = 0;
        while seen < n {
            let Ok(batch) = self.outcomes.recv_timeout(Duration::from_secs(60)) else {
                checks.attempted += (n - seen) as u64;
                checks.failed += (n - seen) as u64;
                return;
            };
            for o in batch {
                seen += 1;
                let got = o.result.map(|b| wire::from_bytes::<u64>(&b).ok());
                checks.expect(got, &Some(value_of(o.id.0)));
            }
        }
    }

    /// Tasks per second of one `submit_batch` of `n` and all its outcomes.
    fn tasks_per_s(&mut self, s: Scale, n: usize, checks: &mut Checks) -> f64 {
        s.median(|| {
            let specs = self.specs(n);
            let t = Instant::now();
            checks.expect_eq(self.executor.submit_batch(specs).is_ok(), true);
            self.collect(n, checks);
            n as f64 / t.elapsed().as_secs_f64()
        })
    }

    /// `submit` then wait for the outcome, one at a time.
    fn roundtrip_p50_us(&mut self, s: Scale, checks: &mut Checks) -> f64 {
        let specs = self.specs(s.ops(1_000) * s.blocks);
        let mut specs = specs.into_iter();
        s.p50_us(1_000, || {
            let one = specs.next().expect("one spec per round trip");
            let _ = self.executor.submit(one);
            self.collect(1, checks);
        })
    }
}

/// The HTEX shape of the TCP workloads: one node, two workers.
fn htex_config() -> HtexConfig {
    crate::workloads::htex_config(2, 1)
}

fn tcp_htex() -> Box<dyn Executor> {
    Box::new(
        HtexExecutor::tcp(htex_config(), TcpHtexOptions::default())
            .expect("bind the hub on loopback"),
    )
}

fn probe_executors(p: &mut Probes) {
    let s = p.scale;
    let mut checks = Checks::default();
    // Two worker threads everywhere, as in the workloads; an EXEX pool of
    // three ranks is one manager and two workers.
    // The batch is 50 000 specs, but 2 000 for EXEX, which completes
    // about 3 000 tasks a second.
    type Make = fn() -> Box<dyn Executor>;
    let kinds: [(&str, &str, usize, Make); 5] = [
        (
            "executors.threadpool.tasks_per_s",
            "executors.threadpool.roundtrip_p50_us",
            50_000,
            || Box::new(ThreadPoolExecutor::new(2)),
        ),
        (
            "executors.htex_inproc.tasks_per_s",
            "executors.htex_inproc.roundtrip_p50_us",
            50_000,
            || Box::new(HtexExecutor::new(htex_config())),
        ),
        (
            "executors.htex_tcp.tasks_per_s",
            "executors.htex_tcp.roundtrip_p50_us",
            50_000,
            tcp_htex,
        ),
        (
            "executors.llex.tasks_per_s",
            "executors.llex.roundtrip_p50_us",
            50_000,
            || {
                Box::new(LlexExecutor::new(LlexConfig {
                    workers: 2,
                    ..Default::default()
                }))
            },
        ),
        (
            "executors.exex.tasks_per_s",
            "executors.exex.roundtrip_p50_us",
            2_000,
            || {
                Box::new(ExexExecutor::new(ExexConfig {
                    ranks_per_pool: 3,
                    batch_size: 64,
                    ..Default::default()
                }))
            },
        ),
    ];
    for (throughput, roundtrip, batch, make) in kinds {
        let mut bench = Bench::start(make(), 2, &mut checks);
        let rate = bench.tasks_per_s(s, s.ops(batch), &mut checks);
        bench.executor.shutdown();
        p.put(throughput, rate);
        let rtt = on_one_cpu(|| {
            let mut bench = Bench::start(make(), 2, &mut checks);
            let rtt = bench.roundtrip_p50_us(s, &mut checks);
            bench.executor.shutdown();
            rtt
        });
        p.put(roundtrip, rtt);
    }

    let registry = AppRegistry::new();
    let app = noop_app(&registry);
    let task = WireTask::from_spec(&spec(&app, 7, value_of(7)));
    p.put(
        "executors.kernel.execute_ns",
        s.ns_per_op(50_000, || {
            black_box(parsl_executors::kernel::execute(
                &registry,
                black_box(&task),
                "w0",
            ));
        }),
    );

    // Hub bound, interchange up, worker process spawned, both of its
    // threads registered.
    let start_ms = s.median(|| {
        let t = Instant::now();
        let bench = Bench::start(tcp_htex(), 2, &mut checks);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        bench.executor.shutdown();
        ms
    });
    p.put("executors.htex_tcp.start_ms", start_ms);
    p.checks.add(checks);
}

/// An executor that only queues what it is given. `release()` runs the
/// queued tasks' bodies and returns all their outcomes as one batch; from
/// then on a submitted task is answered at once, on the caller's thread.
#[derive(Default)]
struct QueueExecutor {
    ctx: Mutex<Option<ExecutorContext>>,
    queued: Mutex<Vec<TaskSpec>>,
    released: std::sync::atomic::AtomicBool,
}

fn outcome_of(task: &TaskSpec) -> TaskOutcome {
    TaskOutcome::new(
        task.id,
        task.attempt,
        (task.app.func)(&task.args)
            .map(Bytes::from)
            .map_err(TaskError::App),
    )
}

impl QueueExecutor {
    /// Prepare the queued tasks' outcomes, then hand them over in one
    /// batch; returns when they were handed over, and how many.
    fn release(&self) -> (Instant, usize) {
        let outcomes: Vec<TaskOutcome> = self
            .queued
            .lock()
            .drain(..)
            .map(|t| outcome_of(&t))
            .collect();
        let n = outcomes.len();
        self.released
            .store(true, std::sync::atomic::Ordering::Release);
        let t = Instant::now();
        if let Some(ctx) = self.ctx.lock().as_ref() {
            let _ = ctx.completions.send(outcomes);
        }
        (t, n)
    }
}

impl Executor for QueueExecutor {
    fn label(&self) -> &str {
        "queue"
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock() = Some(ctx);
        Ok(())
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        if self.released.load(std::sync::atomic::Ordering::Acquire) {
            let ctx = self.ctx.lock().clone().ok_or(ExecutorError::NotRunning)?;
            return ctx
                .completions
                .send(vec![outcome_of(&task)])
                .map_err(|_| ExecutorError::NotRunning);
        }
        self.queued.lock().push(task);
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.queued.lock().len()
    }

    fn connected_workers(&self) -> usize {
        1
    }

    fn shutdown(&self) {
        self.ctx.lock().take();
    }
}

fn queue_kernel() -> (Arc<DataFlowKernel>, Arc<QueueExecutor>) {
    let executor = Arc::new(QueueExecutor::default());
    let dfk = DataFlowKernel::builder()
        .executor_arc(Arc::clone(&executor) as Arc<dyn Executor>)
        .build()
        .expect("start the kernel");
    (dfk, executor)
}

fn probe_dfk(p: &mut Probes) {
    let s = p.scale;
    let mut checks = Checks::default();

    // Resident bytes a finished task leaves in the kernel. Measured first
    // in the process, before the allocator has freed memory to reuse.
    let n = s.ops(200_000);
    let before = sysinfo::own_rss_bytes();
    let (dfk, executor) = queue_kernel();
    let noop = dfk.python_app("noop", |x: u64| x);
    for v in 0..n as u64 {
        drop(noop.call((Dep::value(v),)));
    }
    executor.release();
    dfk.wait_for_all();
    p.put(
        "core.dfk.bytes_per_task",
        (sysinfo::own_rss_bytes() - before) / n as f64,
    );
    checks.expect_eq(dfk.task_count(), n);
    dfk.shutdown();
    drop(dfk);

    // call(): the submit side alone, the executor only queues. Then the
    // completion side alone: all outcomes arrive as one batch.
    let n = s.ops(20_000);
    let mut call_ns = Vec::new();
    let mut complete_ns = Vec::new();
    for _ in 0..s.blocks {
        let (dfk, executor) = queue_kernel();
        let noop = dfk.python_app("noop", |x: u64| x);
        let t = Instant::now();
        let futures: Vec<AppFuture<u64>> =
            (0..n as u64).map(|v| noop.call((Dep::value(v),))).collect();
        call_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        let (t, released) = executor.release();
        dfk.wait_for_all();
        complete_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        checks.expect_eq(released, n);
        for (v, f) in futures.iter().enumerate() {
            checks.expect(f.result_timeout(Duration::from_secs(10)), &(v as u64));
        }
        dfk.shutdown();
    }
    p.put("core.dfk.call_ns", stats::median(&call_ns));
    p.put("core.dfk.complete_ns_per_task", stats::median(&complete_ns));

    // A chain: each task becomes ready when the one before it completes,
    // so one hop is dependency resolution, dispatch and collection.
    let n = s.ops(5_000);
    let chain_ns = s.median(|| {
        let (dfk, executor) = queue_kernel();
        let inc = dfk.python_app("inc", |x: u64| x + 1);
        let mut f = inc.call((Dep::value(0),));
        for _ in 1..n {
            f = inc.call((Dep::from(&f),));
        }
        let (t, _) = executor.release();
        checks.expect(f.result_timeout(Duration::from_secs(60)), &(n as u64));
        let ns = t.elapsed().as_nanos() as f64 / n as f64;
        dfk.shutdown();
        ns
    });
    p.put("core.dfk.chain_ns_per_task", chain_ns);

    // map(): encode, cut into chunks and submit them, per item.
    let n = s.ops(200_000);
    let submit_ns = s.median(|| {
        let (dfk, executor) = queue_kernel();
        let noop = dfk.python_app("noop", |x: u64| x);
        let t = Instant::now();
        let handle = noop.map((0..n as u64).map(value_of));
        let ns = t.elapsed().as_nanos() as f64 / n as f64;
        executor.release();
        checks.expect_eq(handle.wait_timeout(Duration::from_secs(60)), true);
        for (i, r) in handle.results().into_iter().enumerate() {
            checks.expect(r, &value_of(i as u64));
        }
        dfk.shutdown();
        ns
    });
    p.put("core.fusion.map_submit_ns_per_item", submit_ns);
    p.checks.add(checks);
}

fn probe_memo(p: &mut Probes, dir: &Path) {
    let s = p.scale;
    let registry = AppRegistry::new();
    let app = noop_app(&registry);
    let n = s.ops(50_000);
    let args: Vec<Vec<u8>> = (0..2 * n as u64)
        .map(|i| wire::to_bytes(&((1u64 << 62) | i,)).expect("a u64 encodes"))
        .collect();
    let keys: Vec<u64> = args.iter().map(|a| memo_key(&app, a)).collect();
    let (present, absent) = keys.split_at(n);
    let value = Bytes::from(wire::to_bytes(&value_of(1)).expect("a u64 encodes"));

    let mut i = 0;
    p.put(
        "core.memo.key_ns",
        s.ns_per_op(50_000, || {
            i = (i + 1) % args.len();
            black_box(memo_key(&app, black_box(&args[i])));
        }),
    );

    let table = Memoizer::new(true);
    for k in present {
        table.record(*k, &value);
    }
    for (name, keys) in [
        ("core.memo.lookup_hit_ns", present),
        ("core.memo.lookup_miss_ns", absent),
    ] {
        let mut i = 0;
        p.put(
            name,
            s.ns_per_op(50_000, || {
                i = (i + 1) % keys.len();
                black_box(table.lookup(black_box(keys[i])));
            }),
        );
    }
    // Every timed lookup and these two: all of one kind.
    p.checks
        .expect_eq(table.lookup(present[0]), Some(value.clone()));
    p.checks.expect_eq(table.lookup(absent[0]), None);

    // Recording new keys, without and with the checkpoint file behind it.
    let file = dir.join("probe-checkpoint.bin");
    for (name, checkpoint) in [
        ("core.memo.record_ns", false),
        ("core.memo.record_checkpoint_ns", true),
    ] {
        let ns = s.median(|| {
            let _ = std::fs::remove_file(&file);
            let table = Memoizer::new(true);
            if checkpoint {
                table
                    .set_checkpoint_file(&file)
                    .expect("open the checkpoint file");
            }
            let t = Instant::now();
            for k in present {
                table.record(*k, &value);
            }
            let flushed = table.flush();
            let ns = t.elapsed().as_nanos() as f64 / n as f64;
            p.checks.expect(flushed.map_err(|_| ()), &n);
            ns
        });
        p.put(name, ns);
    }

    // The last block left a checkpoint of n entries behind.
    let rate = s.median(|| {
        let table = Memoizer::new(true);
        let t = Instant::now();
        let loaded = table.load_checkpoint(&file);
        let rate = n as f64 / t.elapsed().as_secs_f64();
        p.checks.expect(loaded.map_err(|_| ()), &n);
        rate
    });
    p.put("core.memo.load_entries_per_s", rate);
    let _ = std::fs::remove_file(&file);
}

fn probe_core_rest(p: &mut Probes) {
    let s = p.scale;

    let scheduler = SchedulerPolicy::default().build(7);
    let candidates: Vec<ExecutorSnapshot> = (0..4)
        .map(|index| ExecutorSnapshot {
            index,
            outstanding: 10 * index,
            capacity: 2,
            tenant_outstanding: 0,
            resident_bytes: 0,
            transfer_cost: 0.0,
            draining: false,
        })
        .collect();
    let mut seq = 0;
    let mut picked = 0;
    p.put(
        "core.scheduler.assign_ns",
        s.ns_per_op(200_000, || {
            seq += 1;
            picked = scheduler.assign(black_box(&candidates), seq);
        }),
    );
    p.checks.expect_eq(picked < candidates.len(), true);

    // The body a worker runs for one fused chunk of 4 096 noops.
    const CHUNK: usize = 4096;
    let inner = parsl_executors::builtin::resolve("noop", SIGNATURE).expect("noop is a builtin");
    let fused = parsl_core::fused_map_body(inner);
    let items: Vec<Vec<u8>> = (0..CHUNK as u64)
        .map(|i| wire::to_bytes(&value_of(i)).expect("a u64 encodes"))
        .collect();
    let payload = wire::to_bytes(&items).expect("a chunk encodes");
    let mut out = Vec::new();
    p.put(
        "core.fusion.body_ns_per_item",
        s.ns_per_op(200, || {
            out = fused(black_box(&payload)).expect("the chunk runs");
        }) / CHUNK as f64,
    );
    let out: Result<parsl_core::FusedOutput, _> = wire::from_bytes(&out);
    p.checks.expect(out.map(|o| o.ok), &items);

    // A waiter blocked in wait(); from set() to its return. The sleep
    // lets the waiter reach wait() before the clock starts.
    let (to_waiter, futures) = unbounded::<Arc<FutureState>>();
    let (stamps, woken) = unbounded::<Instant>();
    let value = Bytes::from(wire::to_bytes(&1u64).expect("a u64 encodes"));
    let mut checks = Checks::default();
    let wake = on_one_cpu(|| {
        let waiter = std::thread::spawn(move || {
            for f in futures.iter() {
                let ok = f.wait().is_ok();
                if !ok || stamps.send(Instant::now()).is_err() {
                    return;
                }
            }
        });
        let wake = s.p50_of(500, || {
            let f = FutureState::new(TaskId(1));
            let _ = to_waiter.send(Arc::clone(&f));
            std::thread::sleep(Duration::from_micros(50));
            let t = Instant::now();
            f.set(Ok(value.clone()));
            let at = woken.recv_timeout(Duration::from_secs(10));
            checks.expect_eq(at.is_ok(), true);
            at.map_or(f64::NAN, |at| {
                at.saturating_duration_since(t).as_secs_f64() * 1e6
            })
        });
        drop(to_waiter);
        let _ = waiter.join();
        wake
    });
    p.put("core.future.set_wake_us", wake);
    p.checks.add(checks);

    let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let ns = s.ns_per_op(50_000, || {
        let f = FutureState::new(TaskId(1));
        let fired = Arc::clone(&fired);
        f.on_done(move |_| {
            fired.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        f.set(Ok(value.clone()));
    });
    p.put("core.future.on_done_ns", ns);
    p.checks.expect_eq(
        fired.load(std::sync::atomic::Ordering::Relaxed),
        (s.ops(50_000) * s.blocks) as u64,
    );
}

fn probe_monitor(p: &mut Probes, dir: &Path) {
    let s = p.scale;
    let event = MonitorEvent::Task {
        task: TaskId(123_456),
        app: "noop".into(),
        state: TaskState::Done,
        executor: Some("htex".into()),
        attempt: 0,
        tenant: TenantId::DEFAULT,
        items: 1,
        at: Duration::from_micros(1_234_567),
    };
    let file = dir.join("probe-monitor.csv");
    let csv = parsl_monitor::CsvSink::create(&file).expect("create the monitor CSV");
    let ns = s.ns_per_op(50_000, || csv.on_event(black_box(&event)));
    p.checks.expect_eq(csv.flush().is_ok(), true);
    p.put("monitor.csv.event_ns", ns);
    let _ = std::fs::remove_file(&file);

    let ops = s.ops(50_000);
    let mut seen = 0;
    let ns = s.median(|| {
        let store = parsl_monitor::MemoryStore::new();
        let t = Instant::now();
        for _ in 0..ops {
            store.on_event(black_box(&event));
        }
        let ns = t.elapsed().as_nanos() as f64 / ops as f64;
        seen = store.event_count();
        ns
    });
    p.checks.expect_eq(seen, ops);
    p.put("monitor.memory.event_ns", ns);
}

/// Run every probe; values in the order of `report::PROBE_METRICS`.
pub fn run(smoke: bool, dir: &Path) -> (Vec<f64>, Checks) {
    let scale = if smoke {
        Scale {
            blocks: 3,
            shrink: 20,
        }
    } else {
        Scale {
            blocks: 9,
            shrink: 1,
        }
    };
    let mut p = Probes {
        scale,
        values: HashMap::new(),
        checks: Checks::default(),
    };
    std::fs::create_dir_all(dir).expect("create the probes' scratch directory");
    probe_dfk(&mut p);
    probe_wire(&mut p);
    probe_proto(&mut p);
    probe_fabric(&mut p);
    probe_tcp(&mut p);
    probe_executors(&mut p);
    probe_memo(&mut p, dir);
    probe_core_rest(&mut p);
    probe_monitor(&mut p, dir);
    let _ = std::fs::remove_dir_all(dir);
    let values = crate::report::PROBE_METRICS
        .iter()
        .map(|(name, _, _)| p.values.get(name).copied().unwrap_or(f64::NAN))
        .collect();
    (values, p.checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_executor_holds_tasks_until_released() {
        let (dfk, executor) = queue_kernel();
        let inc = dfk.python_app("inc", |x: u64| x + 1);
        let a = inc.call((Dep::value(1),));
        let b = inc.call((Dep::from(&a),));
        assert!(!a.done());
        assert_eq!(executor.outstanding(), 1);
        let (_, released) = executor.release();
        assert_eq!(released, 1);
        assert_eq!(b.result_timeout(Duration::from_secs(10)).unwrap(), 3);
        dfk.shutdown();
    }
}
