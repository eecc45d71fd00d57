//! The five workloads, one epoch at a time.
//!
//! Every epoch builds a fresh `DataFlowKernel` and executor, times that
//! set-up together with a fixed first batch, runs a fixed amount of work
//! in a closed loop from one submitting thread, checks every value, and
//! shuts down. The program under test sees only inputs generated from
//! the seed.

use crate::sysinfo;
use crate::trace::{TraceSink, TracedExecutor, Tracer};
use parsl_core::monitor::MonitorSink;
use parsl_core::prelude::*;
use parsl_core::{App, AppArgs};
use parsl_executors::{HtexConfig, HtexExecutor, TcpHtexOptions, ThreadPoolExecutor};
use parsl_monitor::CsvSink;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads in every executor: the host's two cores.
const WORKER_THREADS: usize = 2;
/// Tasks in flight in `bag_noop_htex_tcp`: far more than the worker
/// holds (2 running + 64 prefetched), so the interchange always has a
/// backlog. Submitting all 200 000 at once made the epoch's time depend
/// on how the submitting thread was scheduled against the pipeline
/// (0.42–1.1 s for the same work on this host).
const BAG_WINDOW: usize = 16_384;
/// Diamonds in flight in `dag_memo_threadpool`. A bounded window repeats
/// to 1–2 % on this host where a burst varies by 5 %.
const DAG_WINDOW: usize = 256;
/// In-proc HTEX shape of `sleep_mix_htex_inproc`.
const SLEEP_NODES: usize = 2;
const SLEEP_WORKERS_PER_NODE: usize = 8;
/// No result is waited for longer than this after its epoch's work began;
/// a future still unsettled then is counted as failed.
const SETTLE_LIMIT: Duration = Duration::from_secs(90);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BagNoopHtexTcp,
    SeqNoopHtexTcp,
    DagMemoThreadpool,
    MapFusedHtexTcp,
    SleepMixHtexInproc,
}

/// How much one epoch does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Units of the work window: tasks, round trips, diamonds or map items.
    pub work: usize,
    /// Units of the first batch, which belongs to set-up.
    pub first_batch: usize,
    /// Measured epochs in a run of the declared length.
    pub epochs: usize,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BagNoopHtexTcp,
        Workload::SeqNoopHtexTcp,
        Workload::DagMemoThreadpool,
        Workload::MapFusedHtexTcp,
        Workload::SleepMixHtexInproc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BagNoopHtexTcp => "bag_noop_htex_tcp",
            Workload::SeqNoopHtexTcp => "seq_noop_htex_tcp",
            Workload::DagMemoThreadpool => "dag_memo_threadpool",
            Workload::MapFusedHtexTcp => "map_fused_htex_tcp",
            Workload::SleepMixHtexInproc => "sleep_mix_htex_inproc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BagNoopHtexTcp => {
                "independent noops over loopback TCP, 16384 in flight: per-task cost of dfk, proto, nexus::tcp, htex and worker in small frames (paper Fig 5)"
            }
            Workload::SeqNoopHtexTcp => {
                "one call-then-result at a time over the same TCP path: every hop idle, so waits and wake-ups show (paper Fig 3)"
            }
            Workload::DagMemoThreadpool => {
                "diamond DAGs on the thread pool, half memo hits half misses, checkpoint and CSV monitor on; wire, proto, nexus, htex bypassed"
            }
            Workload::MapFusedHtexTcp => {
                "one fused noop.map over TCP: fusion chunking and bulk wire frames, per-task kernel cost amortised about 1000 times"
            }
            Workload::SleepMixHtexInproc => {
                "10 ms and 100 ms sleeps on in-proc HTEX, 16 workers: overhead hidden, keeping workers fed counts; only user of nexus::Fabric"
            }
        }
    }

    /// What one unit of `items` is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::DagMemoThreadpool => "diamonds of 4 tasks",
            Workload::MapFusedHtexTcp => "map items",
            Workload::SeqNoopHtexTcp => "sequential round trips",
            _ => "tasks",
        }
    }

    /// What one latency sample is.
    pub fn latency_of(self) -> &'static str {
        match self {
            Workload::BagNoopHtexTcp => "task, call() to result(), 16384 in flight",
            Workload::SeqNoopHtexTcp => "task, call() to result(), 1 in flight",
            Workload::DagMemoThreadpool => {
                "diamond, first call() to the join's result(), 256 in flight"
            }
            Workload::MapFusedHtexTcp => "the epoch's one map call, map() to all results decoded",
            Workload::SleepMixHtexInproc => "task, call() to result(), all in flight",
        }
    }

    /// A workload that never has more than one runnable thread runs on one
    /// CPU. At depth 1 a round trip is a chain of a dozen wake-ups; across
    /// two CPUs each may or may not need an inter-processor interrupt into
    /// a halted virtual CPU, and whole epochs came out at 45 or 320 µs.
    pub fn single_cpu(self) -> bool {
        self == Workload::SeqNoopHtexTcp
    }

    pub fn size(self, smoke: bool) -> Size {
        let (work, first_batch, epochs) = match (self, smoke) {
            (Workload::BagNoopHtexTcp, false) => (100_000, 20_000, 21),
            (Workload::BagNoopHtexTcp, true) => (20_000, 2_000, 1),
            (Workload::SeqNoopHtexTcp, false) => (12_500, 20_000, 26),
            (Workload::SeqNoopHtexTcp, true) => (2_500, 2_000, 1),
            (Workload::DagMemoThreadpool, false) => (20_000, 5_000, 25),
            (Workload::DagMemoThreadpool, true) => (4_000, 500, 1),
            (Workload::MapFusedHtexTcp, false) => (1_000_000, 20_000, 34),
            (Workload::MapFusedHtexTcp, true) => (200_000, 2_000, 1),
            (Workload::SleepMixHtexInproc, false) => (800, 64, 17),
            (Workload::SleepMixHtexInproc, true) => (320, 64, 1),
        };
        Size {
            work,
            first_batch,
            epochs,
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Item values: below 2^24, so their varint width does not depend on the
/// seed, and any two runs move the same number of bytes.
fn values(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.below(1 << 24)).collect()
}

/// Counts what was checked and what was wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// One operation whose outcome is `got` and should be `want`. An
    /// error, which includes a future that never settled, is a failure.
    pub fn expect<T: PartialEq, E>(&mut self, got: Result<T, E>, want: &T) {
        self.attempted += 1;
        if got.ok().as_ref() != Some(want) {
            self.failed += 1;
        }
    }

    /// A count that has a closed form.
    pub fn expect_eq<T: PartialEq>(&mut self, got: T, want: T) {
        self.expect(Ok::<T, ()>(got), &want);
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one epoch measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Epoch {
    pub setup_s: f64,
    pub work_s: f64,
    /// Logical items completed in the work window.
    pub items: u64,
    /// User plus system CPU of the runner and its workers in the window.
    pub cpu_s: f64,
    /// Peak resident memory of the runner plus its workers.
    pub rss_mb: f64,
    /// Host steal and total ticks over the window.
    pub steal: (f64, f64),
    pub checks: Checks,
    pub latencies_us: Vec<f64>,
    /// Of a traced epoch: the `trace.*` metrics in the order of
    /// `report::TRACE_METRICS`, short of the last, which compares epochs.
    pub trace: Vec<f64>,
}

impl Epoch {
    pub fn rate(&self) -> f64 {
        self.items as f64 / self.work_s
    }

    /// The epoch as text, for the parent process: one line of scalars,
    /// one of latencies, one of trace metrics.
    pub fn to_text(&self) -> String {
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "epoch {}\nlatencies_us {}\ntrace {}\n",
            join(&[
                self.setup_s,
                self.work_s,
                self.items as f64,
                self.cpu_s,
                self.rss_mb,
                self.steal.0,
                self.steal.1,
                self.checks.attempted as f64,
                self.checks.failed as f64,
            ]),
            join(&self.latencies_us),
            join(&self.trace)
        )
    }

    pub fn from_text(text: &str) -> Option<Epoch> {
        let row = |key: &str| -> Option<Vec<f64>> {
            let line = text.lines().find(|l| l.split(' ').next() == Some(key))?;
            line.split_whitespace()
                .skip(1)
                .map(|x| x.parse().ok())
                .collect()
        };
        let s = row("epoch")?;
        if s.len() != 9 {
            return None;
        }
        Some(Epoch {
            setup_s: s[0],
            work_s: s[1],
            items: s[2] as u64,
            cpu_s: s[3],
            rss_mb: s[4],
            steal: (s[5], s[6]),
            checks: Checks {
                attempted: s[7] as u64,
                failed: s[8] as u64,
            },
            latencies_us: row("latencies_us")?,
            trace: row("trace")?,
        })
    }
}

/// Everything an epoch needs to know.
pub struct EpochCtx<'a> {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    /// 0 is the discarded warm-up epoch.
    pub epoch: usize,
    pub tracer: Option<Arc<Tracer>>,
    /// Scratch directory of this run, inside the checkout.
    pub dir: &'a Path,
}

impl EpochCtx<'_> {
    fn rng(&self, stream: u64) -> Rng {
        let mut r = Rng::new(self.seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    fn wrap(&self, executor: Arc<dyn Executor>) -> Arc<dyn Executor> {
        match &self.tracer {
            Some(t) => Arc::new(TracedExecutor::new(executor, Arc::clone(t))),
            None => executor,
        }
    }

    /// The monitor sink of this epoch: the tracer's, in front of `next`.
    fn sink(&self, next: Option<Arc<dyn MonitorSink>>) -> Option<Arc<dyn MonitorSink>> {
        match &self.tracer {
            Some(t) => Some(Arc::new(TraceSink::new(Arc::clone(t), next))),
            None => next,
        }
    }
}

/// What only the workload knows about a traced epoch.
#[derive(Default)]
struct TraceExtra {
    memo_hit_share: f64,
    checkpoint_bytes_per_task: f64,
    /// Messages of the in-proc fabric; `None` where there is none.
    fabric_msgs: Option<u64>,
    map_chunks: f64,
    /// Seconds the workload asked its tasks to sleep.
    asked_busy_s: f64,
    worker_slots: usize,
}

/// The work window: wall time, CPU of the runner and its workers, host
/// steal, from `open` to `close`.
struct Window {
    t0: Instant,
    trace_t0: u64,
    /// Monitor events the tracer had seen when the window opened.
    events0: u64,
    cpu0: f64,
    host0: (f64, f64),
    /// This process and the `parsl-worker`s it spawned.
    pids: Vec<u32>,
}

fn cpu_now(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| sysinfo::cpu_seconds(p)).sum()
}

impl Window {
    fn open(ctx: &EpochCtx) -> Window {
        let mut pids = sysinfo::children_named("parsl-worker");
        pids.push(std::process::id());
        Window {
            cpu0: cpu_now(&pids),
            host0: sysinfo::host_ticks(),
            pids,
            trace_t0: ctx.tracer.as_ref().map_or(0, |t| t.now()),
            events0: ctx.tracer.as_ref().map_or(0, |t| t.monitor_events()),
            t0: Instant::now(),
        }
    }

    fn deadline(&self) -> Instant {
        self.t0 + SETTLE_LIMIT
    }

    /// Close the window over `items` and, in a traced epoch, turn the
    /// stamps taken inside it into the `trace.*` metrics.
    fn close(self, ctx: &EpochCtx, e: &mut Epoch, items: u64, extra: TraceExtra) {
        e.work_s = self.t0.elapsed().as_secs_f64();
        e.items = items;
        e.cpu_s = cpu_now(&self.pids) - self.cpu0;
        let host1 = sysinfo::host_ticks();
        e.steal = (host1.0 - self.host0.0, host1.1 - self.host0.1);
        e.rss_mb = self
            .pids
            .iter()
            .filter_map(|&p| sysinfo::peak_rss_mb(p))
            .sum();

        let Some(tracer) = &ctx.tracer else { return };
        let lines = tracer.timelines();
        let s = lines.summary(self.trace_t0);
        let path = ctx.dir.join(format!(
            "../trace-{}-seed{}-epoch{}.jsonl",
            ctx.workload.name(),
            ctx.seed,
            ctx.epoch
        ));
        if let Err(err) = lines.write_jsonl(&path, 2_000) {
            eprintln!("parsl_bench: cannot write {}: {err}", path.display());
        }
        // Without a fabric to ask, count the messages the executor's
        // caller can see: its calls out and the outcome batches back.
        // Frames between interchange and worker are out of sight.
        let msgs = extra
            .fabric_msgs
            .unwrap_or(s.submit_calls + s.outcome_batches);
        // Where the executor reports when a task ran, that is its busy
        // time; otherwise what the workload asked for.
        let busy_s = if s.exec_seconds > 0.0 {
            s.exec_seconds
        } else {
            extra.asked_busy_s
        };
        e.trace = vec![
            s.call_us,
            s.dispatch_wait_us,
            s.exec_submit_us_per_task,
            s.flight_us,
            s.exec_us,
            s.collect_us,
            s.wake_us,
            s.submit_batch_mean,
            s.outcome_batch_mean,
            100.0 * extra.memo_hit_share,
            extra.checkpoint_bytes_per_task,
            (tracer.monitor_events() - self.events0) as f64 / s.tasks.max(1) as f64,
            msgs as f64 / items.max(1) as f64,
            extra.map_chunks,
            100.0 * busy_s / (extra.worker_slots.max(1) as f64 * e.work_s),
        ];
    }
}

/// `call()` with the tracer's stamps around it when tracing.
fn call<A: AppArgs, R: TaskValue>(ctx: &EpochCtx, app: &App<A, R>, deps: A::Deps) -> AppFuture<R> {
    match &ctx.tracer {
        None => app.call(deps),
        Some(t) => {
            let t0 = t.now();
            let f = app.call(deps);
            t.call(&[f.task_id()], t0, t.now());
            t.watch(&f);
            f
        }
    }
}

/// `result()` bounded by the epoch's settle limit, stamped when tracing.
fn result<R: TaskValue>(
    ctx: &EpochCtx,
    f: &AppFuture<R>,
    deadline: Instant,
) -> Result<R, ParslError> {
    let left = deadline.saturating_duration_since(Instant::now());
    match &ctx.tracer {
        None => f.result_timeout(left),
        Some(t) => {
            let t0 = t.now();
            let r = f.result_timeout(left);
            t.result(f.task_id(), t0, t.now());
            r
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The closed loop every task workload runs: submit `inputs` in order
/// from this one thread, never more than `window` in flight, settling the
/// oldest first. Each unit's value is checked against `want` and its
/// `call()`-to-`result()` time is pushed on `latencies_us`.
#[allow(clippy::too_many_arguments)]
fn closed_loop<K: Copy, R: TaskValue + PartialEq>(
    ctx: &EpochCtx,
    window: usize,
    inputs: &[K],
    submit: impl Fn(K) -> AppFuture<R>,
    want: impl Fn(K) -> R,
    deadline: Instant,
    checks: &mut Checks,
    latencies_us: &mut Vec<f64>,
) {
    let mut flying: VecDeque<(Instant, K, AppFuture<R>)> = VecDeque::new();
    let mut settle = |(t0, k, f): (Instant, K, AppFuture<R>)| {
        checks.expect(result(ctx, &f, deadline), &want(k));
        latencies_us.push(micros(t0.elapsed()));
    };
    for &k in inputs {
        if flying.len() >= window {
            settle(flying.pop_front().expect("window is at least one"));
        }
        flying.push_back((Instant::now(), k, submit(k)));
    }
    flying.into_iter().for_each(settle);
}

/// Poll until `n` workers have registered with the executor.
fn wait_workers(executor: &dyn Executor, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while executor.connected_workers() < n {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// The executor shape every HTEX workload uses, as `fig_map` does.
pub fn htex_config(workers_per_node: usize, nodes: usize) -> HtexConfig {
    HtexConfig {
        workers_per_node,
        nodes_per_block: nodes,
        init_blocks: 1,
        prefetch: 64,
        batch_size: 64,
        ..Default::default()
    }
}

/// A kernel over HTEX on loopback TCP with one spawned `parsl-worker`
/// of two threads, ready when both have registered.
fn tcp_kernel(ctx: &EpochCtx, checks: &mut Checks) -> Arc<DataFlowKernel> {
    let htex = HtexExecutor::tcp(htex_config(WORKER_THREADS, 1), TcpHtexOptions::default())
        .expect("bind the hub on loopback");
    let executor = ctx.wrap(Arc::new(htex));
    let mut builder = DataFlowKernel::builder().executor_arc(Arc::clone(&executor));
    if let Some(sink) = ctx.sink(None) {
        builder = builder.monitor(sink);
    }
    let dfk = builder.build().expect("start the kernel");
    checks.expect_eq(wait_workers(executor.as_ref(), WORKER_THREADS), true);
    dfk
}

/// The executor reaps its workers in `shutdown()`; none may be left.
fn shutdown_tcp(dfk: &Arc<DataFlowKernel>, checks: &mut Checks) {
    dfk.shutdown();
    checks.expect_eq(sysinfo::children_named("parsl-worker").len(), 0);
}

/// `bag_noop_htex_tcp` and `seq_noop_htex_tcp`: the same noops over the
/// same TCP path, `window` in flight.
fn epoch_noops(ctx: &EpochCtx, window: usize) -> Epoch {
    let mut e = Epoch::default();
    let mut rng = ctx.rng(ctx.epoch as u64);
    let first = values(&mut rng, ctx.size.first_batch);
    let vals = values(&mut rng, ctx.size.work);

    let t0 = Instant::now();
    let dfk = tcp_kernel(ctx, &mut e.checks);
    let noop = dfk.python_app("noop", |x: u64| x);
    let submit = |v: u64| call(ctx, &noop, (Dep::value(v),));
    let mut first_latencies = Vec::new();
    closed_loop(
        ctx,
        BAG_WINDOW,
        &first,
        submit,
        |v| v,
        t0 + SETTLE_LIMIT,
        &mut e.checks,
        &mut first_latencies,
    );
    e.setup_s = t0.elapsed().as_secs_f64();

    let w = Window::open(ctx);
    let mut lat = Vec::with_capacity(vals.len());
    closed_loop(
        ctx,
        window,
        &vals,
        submit,
        |v| v,
        w.deadline(),
        &mut e.checks,
        &mut lat,
    );
    let extra = TraceExtra {
        worker_slots: WORKER_THREADS,
        ..Default::default()
    };
    w.close(ctx, &mut e, vals.len() as u64, extra);
    e.latencies_us = lat;
    shutdown_tcp(&dfk, &mut e.checks);
    e
}

/// The value a diamond over `key` joins to: `src` is injective, so no
/// two keys share a memo entry at any of the four tasks.
fn diamond_value(key: u64) -> u64 {
    let s = key.wrapping_mul(3).wrapping_add(1);
    s.wrapping_mul(2)
        .wrapping_add(s.wrapping_mul(2).wrapping_add(1))
}

struct DiamondApps {
    src: App<(u64,), u64>,
    left: App<(u64,), u64>,
    right: App<(u64,), u64>,
    join: App<(u64, u64), u64>,
}

impl DiamondApps {
    fn register(dfk: &Arc<DataFlowKernel>) -> Self {
        DiamondApps {
            src: dfk.python_app("src", |k: u64| k.wrapping_mul(3).wrapping_add(1)),
            left: dfk.python_app("left", |s: u64| s.wrapping_mul(2)),
            right: dfk.python_app("right", |s: u64| s.wrapping_mul(2).wrapping_add(1)),
            join: dfk.python_app("join", |l: u64, r: u64| l.wrapping_add(r)),
        }
    }

    /// src → left, right → join; the join's future stands for the diamond.
    fn submit(&self, ctx: &EpochCtx, key: u64) -> AppFuture<u64> {
        let s = call(ctx, &self.src, (Dep::value(key),));
        let l = call(ctx, &self.left, (Dep::from(&s),));
        let r = call(ctx, &self.right, (Dep::from(&s),));
        let j = call(ctx, &self.join, (Dep::from(&l), Dep::from(&r)));
        if let Some(t) = &ctx.tracer {
            t.link(l.task_id(), s.task_id());
            t.link(r.task_id(), s.task_id());
            t.link(j.task_id(), l.task_id());
            t.link(j.task_id(), r.task_id());
        }
        j
    }
}

/// `(first batch, work, reused)`: the keys of an epoch's diamonds and how
/// many of the work keys the warm-up epoch has already recorded.
fn dag_keys(ctx: &EpochCtx) -> (Vec<u64>, Vec<u64>, u64) {
    let n = ctx.size.work as u64;
    let epoch = ctx.epoch as u64;
    assert!(n < 1 << 24 && epoch < 1 << 12, "key fields overflow");
    // seed part | purpose | epoch | index: no two purposes or epochs share
    // a key, and every key of one seed has the same encoded width.
    let base = (1 << 62) | (ctx.rng(0).below(1 << 20) << 40);
    let key = |purpose: u64, epoch: u64, i: u64| base | (purpose << 36) | (epoch << 24) | i;
    let (warm, fresh, first_batch) = (0, 1, 2);
    let first: Vec<u64> = (0..ctx.size.first_batch as u64)
        .map(|i| key(first_batch, epoch, i))
        .collect();
    // The warm-up epoch records the warm keys; a measured epoch reuses a
    // seeded half of them and adds a fresh half of its own.
    let mut keys: Vec<u64> = (0..n).map(|i| key(warm, 0, i)).collect();
    if ctx.epoch == 0 {
        return (first, keys, 0);
    }
    let mut rng = ctx.rng(epoch);
    rng.shuffle(&mut keys);
    let reused = n / 2;
    keys.truncate(reused as usize);
    keys.extend((0..n - reused).map(|i| key(fresh, epoch, i)));
    rng.shuffle(&mut keys);
    (first, keys, reused)
}

fn checkpoint_path(ctx: &EpochCtx, epoch: usize) -> PathBuf {
    ctx.dir.join(format!("checkpoint-epoch{epoch}.bin"))
}

fn epoch_dag(ctx: &EpochCtx) -> Epoch {
    let mut e = Epoch::default();
    let (first, keys, reused) = dag_keys(ctx);
    let checkpoint = checkpoint_path(ctx, ctx.epoch);
    let _ = std::fs::remove_file(&checkpoint);

    let t0 = Instant::now();
    let csv: Arc<dyn MonitorSink> = Arc::new(
        CsvSink::create(&ctx.dir.join(format!("monitor-epoch{}.csv", ctx.epoch)))
            .expect("create the monitor CSV"),
    );
    let executor = ctx.wrap(Arc::new(ThreadPoolExecutor::new(WORKER_THREADS)));
    let mut builder = DataFlowKernel::builder()
        .executor_arc(executor)
        .memoize(true)
        .checkpoint_file(&checkpoint)
        .monitor(ctx.sink(Some(csv)).expect("the CSV sink is always there"));
    if ctx.epoch > 0 {
        builder = builder.load_checkpoint(checkpoint_path(ctx, 0));
    }
    let dfk = builder.build().expect("start the kernel");
    let apps = DiamondApps::register(&dfk);
    let submit = |key: u64| apps.submit(ctx, key);
    let mut first_latencies = Vec::new();
    closed_loop(
        ctx,
        DAG_WINDOW,
        &first,
        submit,
        diamond_value,
        t0 + SETTLE_LIMIT,
        &mut e.checks,
        &mut first_latencies,
    );
    e.setup_s = t0.elapsed().as_secs_f64();

    let w = Window::open(ctx);
    let mut lat = Vec::with_capacity(keys.len());
    closed_loop(
        ctx,
        DAG_WINDOW,
        &keys,
        submit,
        diamond_value,
        w.deadline(),
        &mut e.checks,
        &mut lat,
    );
    let tasks = 4 * (keys.len() + first.len()) as u64;
    let written = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    let extra = TraceExtra {
        memo_hit_share: 4.0 * reused as f64 / (4 * keys.len()) as f64,
        // The first batch's share of the file is in proportion to its
        // tasks; memo hits write nothing.
        checkpoint_bytes_per_task: written as f64 / (tasks - 4 * reused) as f64,
        worker_slots: WORKER_THREADS,
        ..Default::default()
    };
    w.close(ctx, &mut e, keys.len() as u64, extra);
    e.latencies_us = lat;

    // Closed form: a reused diamond hits at all four tasks, a new one
    // misses at all four, and the first batch was all new.
    let (hits, misses) = dfk.memo_stats();
    e.checks.expect_eq(hits, 4 * reused);
    e.checks.expect_eq(misses, tasks - 4 * reused);
    e.checks.expect_eq(dfk.checkpoint().is_ok(), true);
    dfk.shutdown();
    e
}

fn epoch_map(ctx: &EpochCtx) -> Epoch {
    let mut e = Epoch::default();
    let mut rng = ctx.rng(ctx.epoch as u64);
    let first = values(&mut rng, ctx.size.first_batch);
    let vals = values(&mut rng, ctx.size.work);

    // One map call, every value checked in order; returns its chunks.
    let run_map = |noop: &App<(u64,), u64>, vals: &[u64], checks: &mut Checks| -> usize {
        let t0 = ctx.tracer.as_ref().map(|t| t.now());
        let handle = noop.map(vals.iter().copied());
        if let (Some(t), Some(t0)) = (&ctx.tracer, t0) {
            // The chunk tasks are created inside map().
            t.bulk_call(t0, t.now());
        }
        // results() has no deadline of its own, so wait with one first.
        if handle.wait_timeout(SETTLE_LIMIT) {
            for (got, want) in handle.results().into_iter().zip(vals) {
                checks.expect(got, want);
            }
        } else {
            checks.attempted += vals.len() as u64;
            checks.failed += vals.len() as u64;
        }
        handle.chunk_count()
    };

    let t0 = Instant::now();
    let dfk = tcp_kernel(ctx, &mut e.checks);
    let noop = dfk.python_app("noop", |x: u64| x);
    run_map(&noop, &first, &mut e.checks);
    e.setup_s = t0.elapsed().as_secs_f64();

    // The whole window is one map call, and its one latency sample.
    let w = Window::open(ctx);
    let chunks = run_map(&noop, &vals, &mut e.checks);
    let extra = TraceExtra {
        map_chunks: chunks as f64,
        worker_slots: WORKER_THREADS,
        ..Default::default()
    };
    w.close(ctx, &mut e, vals.len() as u64, extra);
    e.latencies_us = vec![e.work_s * 1e6];
    shutdown_tcp(&dfk, &mut e.checks);
    e
}

fn epoch_sleep(ctx: &EpochCtx) -> Epoch {
    let mut e = Epoch::default();
    // Exactly 90 % short and 10 % long, so every seed has the same ideal
    // makespan; the seed decides the order.
    let long = ctx.size.work / 10;
    let mut rng = ctx.rng(ctx.epoch as u64);
    let mut sleeps: Vec<u64> = vec![10; ctx.size.work - long];
    sleeps.extend(std::iter::repeat_n(100, long));
    rng.shuffle(&mut sleeps);
    let tasks: Vec<(u64, u64)> = sleeps
        .iter()
        .copied()
        .zip(values(&mut rng, ctx.size.work))
        .collect();
    // The first batch sleeps 5 ms a task: four rounds on sixteen workers.
    let first: Vec<(u64, u64)> = values(&mut rng, ctx.size.first_batch)
        .into_iter()
        .map(|x| (5, x))
        .collect();
    let slots = SLEEP_NODES * SLEEP_WORKERS_PER_NODE;

    let t0 = Instant::now();
    let htex = Arc::new(HtexExecutor::new(htex_config(
        SLEEP_WORKERS_PER_NODE,
        SLEEP_NODES,
    )));
    let fabric = htex.fabric().clone();
    let executor = ctx.wrap(htex);
    let mut builder = DataFlowKernel::builder().executor_arc(Arc::clone(&executor));
    if let Some(sink) = ctx.sink(None) {
        builder = builder.monitor(sink);
    }
    let dfk = builder.build().expect("start the kernel");
    e.checks
        .expect_eq(wait_workers(executor.as_ref(), slots), true);
    let sleep_ms = dfk.python_app("sleep_ms", |ms: u64, x: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        x
    });
    let submit = |(ms, x): (u64, u64)| call(ctx, &sleep_ms, (Dep::value(ms), Dep::value(x)));
    let mut first_latencies = Vec::new();
    closed_loop(
        ctx,
        usize::MAX,
        &first,
        submit,
        |(_, x)| x,
        t0 + SETTLE_LIMIT,
        &mut e.checks,
        &mut first_latencies,
    );
    e.setup_s = t0.elapsed().as_secs_f64();

    let w = Window::open(ctx);
    let sent0 = fabric.stats().sent();
    let mut lat = Vec::with_capacity(tasks.len());
    closed_loop(
        ctx,
        usize::MAX,
        &tasks,
        submit,
        |(_, x)| x,
        w.deadline(),
        &mut e.checks,
        &mut lat,
    );
    let extra = TraceExtra {
        fabric_msgs: Some(fabric.stats().sent() - sent0),
        asked_busy_s: sleeps.iter().sum::<u64>() as f64 / 1e3,
        worker_slots: slots,
        ..Default::default()
    };
    w.close(ctx, &mut e, tasks.len() as u64, extra);
    e.latencies_us = lat;
    dfk.shutdown();
    e
}

/// Run one epoch of `ctx.workload`.
pub fn run_epoch(ctx: &EpochCtx) -> Epoch {
    match ctx.workload {
        Workload::BagNoopHtexTcp => epoch_noops(ctx, BAG_WINDOW),
        Workload::SeqNoopHtexTcp => epoch_noops(ctx, 1),
        Workload::DagMemoThreadpool => epoch_dag(ctx),
        Workload::MapFusedHtexTcp => epoch_map(ctx),
        Workload::SleepMixHtexInproc => epoch_sleep(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_wrong_result_is_counted_and_flips_correct() {
        let mut c = Checks::default();
        c.expect(Ok::<u64, ()>(7), &7);
        c.expect(Ok::<u64, ()>(8), &7);
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        let line = crate::report::result_line(c.attempted, c.failed, &[]);
        assert!(line.contains("\"correct\": false"));
        assert!(line.contains("\"failed\": 1"));
    }

    #[test]
    fn one_unsettled_future_is_counted_and_flips_correct() {
        // A future nothing will ever assign: result_timeout() gives up,
        // and the error is a failure like a wrong value.
        let never: AppFuture<u64> =
            AppFuture::from_shared_state(parsl_core::future::FutureState::new(TaskId(1)));
        let mut c = Checks::default();
        c.expect(never.result_timeout(Duration::from_millis(5)), &0);
        c.expect(AppFuture::ready(&3u64).result(), &3);
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        assert!(crate::report::result_line(c.attempted, c.failed, &[])
            .starts_with("{\"correct\": false"));
    }

    fn test_ctx(workload: Workload, seed: u64, epoch: usize, dir: &Path) -> EpochCtx<'_> {
        EpochCtx {
            workload,
            size: workload.size(true),
            seed,
            epoch,
            tracer: None,
            dir,
        }
    }

    #[test]
    fn closed_loop_keeps_to_its_window_and_settles_everything() {
        let dir = std::env::temp_dir();
        let ctx = test_ctx(Workload::SeqNoopHtexTcp, 1, 1, &dir);
        let dfk = DataFlowKernel::builder()
            .executor(ImmediateExecutor::new())
            .build()
            .unwrap();
        let inc = dfk.python_app("inc", |x: u64| x + 1);
        let inputs: Vec<u64> = (0..50).collect();
        let (mut checks, mut lat) = (Checks::default(), Vec::new());
        let issued = std::cell::Cell::new(0usize);
        let settled = std::cell::Cell::new(0usize);
        closed_loop(
            &ctx,
            4,
            &inputs,
            |v| {
                issued.set(issued.get() + 1);
                assert!(issued.get() - settled.get() <= 4, "window exceeded");
                inc.call((Dep::value(v),))
            },
            |v| {
                settled.set(settled.get() + 1);
                // One deliberate mismatch: input 10 is expected wrongly.
                if v == 10 {
                    0
                } else {
                    v + 1
                }
            },
            Instant::now() + Duration::from_secs(10),
            &mut checks,
            &mut lat,
        );
        dfk.shutdown();
        assert_eq!(
            checks,
            Checks {
                attempted: 50,
                failed: 1
            }
        );
        assert_eq!(lat.len(), 50);
    }

    #[test]
    fn dag_keys_give_the_closed_form_hit_count() {
        let dir = std::env::temp_dir();
        let ctx = |seed, epoch| test_ctx(Workload::DagMemoThreadpool, seed, epoch, &dir);
        let (first0, warm, reused0) = dag_keys(&ctx(9, 0));
        let (first1, keys1, reused1) = dag_keys(&ctx(9, 1));
        let (_, keys2, _) = dag_keys(&ctx(9, 2));
        assert_eq!(reused0, 0);
        assert_eq!(reused1 as usize, keys1.len() / 2);
        let warm: std::collections::HashSet<u64> = warm.into_iter().collect();
        let hits = |keys: &[u64]| keys.iter().filter(|k| warm.contains(k)).count();
        assert_eq!(hits(&keys1), reused1 as usize);
        assert_eq!(hits(&keys2), keys2.len() / 2);
        assert_eq!(hits(&first0) + hits(&first1), 0);
        // Fresh keys of different epochs never collide.
        let fresh1: std::collections::HashSet<u64> = keys1
            .iter()
            .copied()
            .filter(|k| !warm.contains(k))
            .collect();
        assert!(keys2.iter().all(|k| !fresh1.contains(k)));
        // Same seed, same inputs; another seed, other inputs.
        assert_eq!(dag_keys(&ctx(9, 1)).1, keys1);
        assert_ne!(dag_keys(&ctx(10, 1)).1, keys1);
    }

    #[test]
    fn epoch_text_round_trips() {
        let e = Epoch {
            setup_s: 0.125,
            work_s: 1.5,
            items: 200_000,
            cpu_s: 2.25,
            rss_mb: 140.5,
            steal: (1.0, 300.0),
            checks: Checks {
                attempted: 220_002,
                failed: 0,
            },
            latencies_us: vec![10.5, 11.25, 900.0],
            trace: vec![],
        };
        assert_eq!(Epoch::from_text(&e.to_text()), Some(e.clone()));
        let traced = Epoch {
            trace: vec![1.0, 2.5],
            latencies_us: vec![],
            ..e
        };
        assert_eq!(Epoch::from_text(&traced.to_text()), Some(traced));
        assert_eq!(Epoch::from_text("epoch 1 2 3\n"), None);
    }
}
