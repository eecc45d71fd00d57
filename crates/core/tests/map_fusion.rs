//! Edge cases of the fused `app.map` plane: degenerate iterators, chunk
//! geometry, per-item failure attribution with split-retry, how often
//! the fused twin (and its sibling combinator apps) get registered, the
//! chunk frames' bytes against serde's, and hostile frames.

use bytes::Bytes;
use parsl_core::executor::{Executor, ExecutorContext, ExecutorError, TaskOutcome, TaskSpec};
use parsl_core::fusion::{fused_map_body, FusedOutput, MapOptions};
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use parsl_core::ErasedAppFn;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn dfk() -> Arc<DataFlowKernel> {
    DataFlowKernel::builder()
        .executor(ImmediateExecutor::new())
        .build()
        .unwrap()
}

fn with_chunk(chunk: usize) -> MapOptions {
    MapOptions {
        chunk_size: Some(chunk),
        ..MapOptions::default()
    }
}

#[test]
fn empty_iterator_resolves_immediately() {
    let dfk = dfk();
    let id = dfk.python_app("id", |x: u64| x);
    let handle = id.map(std::iter::empty::<u64>());
    assert!(handle.is_empty());
    assert_eq!(handle.len(), 0);
    assert_eq!(handle.chunk_count(), 0);
    assert!(handle.done());
    assert!(handle.results().is_empty());
    // No fused task was ever submitted.
    assert_eq!(dfk.task_count(), 0);
    dfk.shutdown();
}

#[test]
fn chunk_size_one_degenerates_to_per_item_tasks() {
    let dfk = dfk();
    let sq = dfk.python_app("sq", |x: u64| x * x);
    let handle = sq.map_with(0..10u64, with_chunk(1));
    assert_eq!(handle.chunk_count(), 10);
    let out: Vec<u64> = handle.results().into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(out, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
    assert_eq!(dfk.task_count(), 10);
    dfk.shutdown();
}

#[test]
fn item_count_not_divisible_by_chunk_size() {
    let dfk = dfk();
    let inc = dfk.python_app("inc", |x: i64| x + 1);
    // 10 items at chunk 4 → 4 + 4 + 2.
    let handle = inc.map_with(0..10i64, with_chunk(4));
    assert_eq!(handle.chunk_count(), 3);
    let out: Vec<i64> = handle.results().into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(out, (1..=10i64).collect::<Vec<_>>());
    assert_eq!(dfk.task_count(), 3);
    dfk.shutdown();
}

#[test]
fn oversized_chunk_covers_everything_in_one_task() {
    let dfk = dfk();
    let neg = dfk.python_app("neg", |x: i64| -x);
    let handle = neg.map_with(0..5i64, with_chunk(10_000));
    assert_eq!(handle.chunk_count(), 1);
    let out: Vec<i64> = handle.results().into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(out, vec![0, -1, -2, -3, -4]);
    assert_eq!(dfk.task_count(), 1);
    dfk.shutdown();
}

#[test]
fn mid_chunk_panic_fails_exactly_one_item_and_retries_only_the_remainder() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    CALLS.store(0, Ordering::SeqCst);
    let dfk = dfk();
    let picky = dfk.python_app("picky", |x: u64| {
        CALLS.fetch_add(1, Ordering::SeqCst);
        if x == 7 {
            panic!("item 7 is cursed");
        }
        x * 10
    });
    let handle = picky.map_with(0..20u64, with_chunk(20));
    let results = handle.results();
    assert_eq!(results.len(), 20);
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            match r {
                Err(ParslError::Task(TaskError::App(AppError::Panic(m)))) => {
                    assert!(m.contains("cursed"), "panic message lost: {m}");
                }
                other => panic!("item 7 should carry its panic, got {other:?}"),
            }
        } else {
            assert_eq!(
                *r.as_ref().unwrap(),
                i as u64 * 10,
                "chunk-mate {i} must be unaffected"
            );
        }
    }
    // Items 0..=7 ran in the original chunk, 8..=19 in the split-retry
    // remainder: 20 invocations total. Anything more means completed
    // items were re-executed; anything less means items were dropped.
    assert_eq!(CALLS.load(Ordering::SeqCst), 20);
    // One fused chunk plus one remainder chunk.
    dfk.wait_for_all();
    assert_eq!(dfk.task_count(), 2);
    dfk.shutdown();
}

#[test]
fn every_item_failing_still_attributes_individually() {
    let dfk = dfk();
    let doomed = dfk.python_app_fallible("doomed", |x: u64| -> Result<u64, AppError> {
        Err(AppError::msg(format!("no {x}")))
    });
    let handle = doomed.map_with(0..6u64, with_chunk(6));
    let results = handle.results();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Err(ParslError::Task(TaskError::App(AppError::Failure(m)))) => {
                assert_eq!(m, format!("no {i}"));
            }
            other => panic!("expected per-item failure, got {other:?}"),
        }
    }
    // Each failure strands a remainder that resubmits: 6 fused tasks.
    dfk.wait_for_all();
    assert_eq!(dfk.task_count(), 6);
    dfk.shutdown();
}

/// Sums `items` over terminal Done task events — the fused twin of
/// counting finished tasks.
#[derive(Default)]
struct LogicalDone {
    items: AtomicUsize,
    events: AtomicUsize,
}

impl MonitorSink for LogicalDone {
    fn on_event(&self, event: &MonitorEvent) {
        if let MonitorEvent::Task { state, items, .. } = event {
            if *state == TaskState::Done {
                self.items.fetch_add(*items as usize, Ordering::Relaxed);
                self.events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[test]
fn fused_monitor_events_expand_to_logical_item_counts() {
    let sink = Arc::new(LogicalDone::default());
    let dfk = DataFlowKernel::builder()
        .executor(ImmediateExecutor::new())
        .monitor(Arc::clone(&sink) as Arc<dyn MonitorSink>)
        .build()
        .unwrap();
    let id = dfk.python_app("id", |x: u64| x);
    let handle = id.map_with(0..100u64, with_chunk(8));
    assert!(handle.results().iter().all(|r| r.is_ok()));
    dfk.wait_for_all();
    // 13 fused Done events, expanding to 100 logical completions.
    assert_eq!(sink.events.load(Ordering::Relaxed), 13);
    assert_eq!(sink.items.load(Ordering::Relaxed), 100);
    dfk.shutdown();
}

/// A combinator app whose body depends only on its key — a fused twin on
/// its inner app, a join on its arity and element type — registers once
/// per kernel, however often it is used: the registry never removes an
/// entry, so one registration per call would grow it without bound.
#[test]
fn combinator_apps_register_once_per_kernel() {
    let dfk = dfk();
    let id = dfk.python_app("id", |x: u32| x);
    let before = dfk.registry().len();
    for i in 0..1_000u32 {
        let all = parsl_core::join_all(&dfk, vec![call!(id, i), call!(id, i + 1)]);
        assert_eq!(all.result().unwrap(), vec![i, i + 1]);
    }
    assert_eq!(
        dfk.registry().len(),
        before + 1,
        "one join app for (2, u32)"
    );
    for _ in 0..2 {
        assert!(id.map(0..10u32).results().iter().all(Result::is_ok));
    }
    assert_eq!(dfk.registry().len(), before + 2, "one fused twin for `id`");
    dfk.shutdown();
}

/// Runs each task on the submitting thread, as `ImmediateExecutor` does,
/// keeps every fused chunk's argument frame, and answers each chunk with
/// what `rewrite` makes of its argument frame and its body's output.
struct Answering {
    ctx: Mutex<Option<ExecutorContext>>,
    frames: Mutex<Vec<Vec<u8>>>,
    rewrite: fn(&[u8], Vec<u8>) -> Vec<u8>,
}

impl Executor for Answering {
    fn label(&self) -> &str {
        "answering"
    }
    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        *self.ctx.lock().unwrap() = Some(ctx);
        Ok(())
    }
    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        let mut result = (task.app.func)(&task.args).map_err(TaskError::App);
        if task.app.name.starts_with("_parsl_fmap_") {
            self.frames.lock().unwrap().push(task.args.to_vec());
            result = result.map(|out| (self.rewrite)(&task.args, out));
        }
        let outcome = TaskOutcome::new(task.id, task.attempt, result.map(Bytes::from));
        let ctx = self.ctx.lock().unwrap().clone().expect("started");
        ctx.completions
            .send(vec![outcome])
            .expect("the kernel is up");
        Ok(())
    }
    fn outstanding(&self) -> usize {
        0
    }
    fn connected_workers(&self) -> usize {
        1
    }
    fn shutdown(&self) {
        self.ctx.lock().unwrap().take();
    }
}

fn answering(rewrite: fn(&[u8], Vec<u8>) -> Vec<u8>) -> (Arc<DataFlowKernel>, Arc<Answering>) {
    let executor = Arc::new(Answering {
        ctx: Mutex::new(None),
        frames: Mutex::new(Vec::new()),
        rewrite,
    });
    let dfk = DataFlowKernel::builder()
        .executor_arc(Arc::clone(&executor) as Arc<dyn Executor>)
        .build()
        .unwrap();
    (dfk, executor)
}

/// An element the `echo` apps fail on: longer than any generated one.
fn poisoned(v: &[u8]) -> bool {
    v.len() == 41
}

/// serde's encoding of a chunk whose elements are the encodings of `values`.
fn serde_frame<T: serde::Serialize>(values: &[T]) -> Vec<u8> {
    let elements: Vec<Vec<u8>> = values.iter().map(|v| wire::to_bytes(v).unwrap()).collect();
    wire::to_bytes(&elements).unwrap()
}

/// Map `values` through an app that echoes each and fails the poisoned
/// ones; returns the argument frames it submitted, sorted, after checking
/// every result.
fn submitted_frames(values: &[Vec<u8>], chunk: usize) -> Vec<Vec<u8>> {
    let (dfk, executor) = answering(|_, out| out);
    let echo = dfk.python_app_fallible("echo", |v: Vec<u8>| {
        if poisoned(&v) {
            Err(AppError::msg("poisoned"))
        } else {
            Ok(v)
        }
    });
    let results = echo.map_with(values.to_vec(), with_chunk(chunk)).results();
    for (v, r) in values.iter().zip(results) {
        match r {
            Ok(got) => assert_eq!(&got, v),
            Err(e) => assert!(poisoned(v), "{e:?}"),
        }
    }
    dfk.wait_for_all();
    dfk.shutdown();
    let mut frames = executor.frames.lock().unwrap().clone();
    frames.sort();
    frames
}

/// What `submitted_frames` must see: serde's encoding of each chunk, and
/// of each remainder left after a poisoned element.
fn expected_frames(values: &[Vec<u8>], chunk: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for mut c in values.chunks(chunk) {
        loop {
            frames.push(serde_frame(c));
            match c.iter().position(|v| poisoned(v)) {
                Some(at) if at + 1 < c.len() => c = &c[at + 1..],
                _ => break,
            }
        }
    }
    frames.sort();
    frames
}

fn with_poison(mut values: Vec<Vec<u8>>, at: Vec<usize>) -> Vec<Vec<u8>> {
    for i in at {
        if let Some(v) = values.get_mut(i) {
            *v = vec![0xab; 41];
        }
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunk frames and split remainders carry memo and checkpoint keys:
    /// they are serde's bytes for the same elements, byte for byte.
    #[test]
    fn submitted_frames_are_serdes_bytes(
        values in vec(vec(any::<u8>(), 0..40), 0..30),
        poison in vec(0usize..30, 0..4),
        chunk in 1usize..8,
    ) {
        let values = with_poison(values, poison);
        prop_assert_eq!(submitted_frames(&values, chunk), expected_frames(&values, chunk));
    }

    #[test]
    fn fused_output_is_serdes_bytes(
        items in vec(vec(any::<u8>(), 0..40), 0..30),
        poison in proptest::option::of(0usize..30),
    ) {
        let items = with_poison(items, poison.into_iter().collect());
        prop_assert_eq!(run_fused(&items), serde_output(&items));
    }
}

fn echo_body() -> ErasedAppFn {
    Arc::new(|item: &[u8]| {
        if poisoned(item) {
            Err(AppError::msg("poisoned"))
        } else {
            Ok(item.to_vec())
        }
    })
}

fn run_fused(items: &[Vec<u8>]) -> Vec<u8> {
    fused_map_body(echo_body())(&wire::to_bytes(&items.to_vec()).unwrap()).unwrap()
}

fn serde_output(items: &[Vec<u8>]) -> Vec<u8> {
    let ran = items.iter().position(|v| poisoned(v));
    let out = FusedOutput {
        ok: items[..ran.unwrap_or(items.len())].to_vec(),
        err: ran.map(|_| AppError::msg("poisoned")),
    };
    wire::to_bytes(&out).unwrap()
}

#[test]
fn frames_of_none_of_empty_and_of_4096_elements_are_serdes_bytes() {
    // Bytes at and above 0x80 take two bytes in the format.
    let wide: Vec<Vec<u8>> = (0..4096u32).map(|i| i.to_le_bytes().to_vec()).collect();
    assert_eq!(submitted_frames(&wide, 4096), vec![serde_frame(&wide)]);
    assert_eq!(submitted_frames(&wide, 1000), expected_frames(&wide, 1000));
    assert!(submitted_frames(&[], 3).is_empty());
    for items in [Vec::new(), wide, vec![Vec::new(); 5]] {
        assert_eq!(run_fused(&items), serde_output(&items));
    }

    // `()` encodes as nothing: elements of length zero.
    let (dfk, executor) = answering(|_, out| out);
    let unit = dfk.python_app("unit", |_: ()| 7u8);
    let out = unit.map_with(vec![(); 5], with_chunk(2)).results();
    assert!(out.into_iter().all(|r| r.unwrap() == 7));
    let mut frames = executor.frames.lock().unwrap().clone();
    frames.sort();
    let mut want = vec![
        serde_frame(&[(), ()]),
        serde_frame(&[(), ()]),
        serde_frame(&[()]),
    ];
    want.sort();
    assert_eq!(frames, want);
    dfk.shutdown();
}

/// Four kinds of malformed result frame, one per chunk of 10 over
/// `0..60`; the last two chunks answer honestly.
fn hostile(args: &[u8], out: Vec<u8>) -> Vec<u8> {
    let elements: Vec<Vec<u8>> = wire::from_bytes(args).unwrap();
    let (first,): (u64,) = wire::from_bytes(&elements[0]).unwrap();
    match first / 10 {
        // Truncated.
        0 => out[..out.len() - 3].to_vec(),
        // One result whose "byte" is the varint 300.
        1 => vec![1, 1, 0xac, 0x02, 0],
        // An `ok` count larger than the frame holds.
        2 => vec![200, 1, 5, 0],
        // Garbage after `err`.
        3 => [out, vec![0xde, 0xad]].concat(),
        _ => out,
    }
}

#[test]
fn hostile_result_frames_fail_only_their_own_chunk() {
    let (dfk, _executor) = answering(hostile);
    let id = dfk.python_app("id", |x: u64| x);
    let results = id.map_with(0..60u64, with_chunk(10)).results();
    assert_eq!(results.len(), 60);
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => assert!(i >= 40 && v == i as u64, "item {i}: {v}"),
            Err(ParslError::Task(TaskError::App(AppError::Serialization(_)))) => {
                assert!(i < 40, "item {i} failed")
            }
            Err(e) => panic!("item {i}: {e:?}"),
        }
    }
    dfk.shutdown();
}

#[test]
fn a_malformed_argument_frame_fails_before_any_element_runs() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let fused = fused_map_body(Arc::new(|item: &[u8]| {
        CALLS.fetch_add(1, Ordering::SeqCst);
        Ok(item.to_vec())
    }));
    let good = wire::to_bytes(&vec![vec![1u8], vec![2, 3]]).unwrap();
    assert!(fused(&good).is_ok());
    CALLS.store(0, Ordering::SeqCst);
    let bad = [
        good[..good.len() - 1].to_vec(),
        [good.clone(), vec![0]].concat(),
        // The second element holds a "byte" of 300.
        vec![2, 1, 1, 1, 0xac, 0x02],
        // More elements than bytes.
        vec![5, 0],
    ];
    for frame in bad {
        match fused(&frame) {
            Err(AppError::Serialization(_)) => {}
            other => panic!("{frame:?}: {other:?}"),
        }
    }
    assert_eq!(CALLS.load(Ordering::SeqCst), 0);
}

/// A value whose encoding fails for multiples of five.
#[derive(Debug, Clone, Copy)]
struct Picky(u64);

impl serde::Serialize for Picky {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        if self.0 % 5 == 0 {
            return Err(serde::ser::Error::custom("multiples of five do not encode"));
        }
        s.serialize_u64(self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Picky {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        u64::deserialize(d).map(Picky)
    }
}

fn picky_app(dfk: &Arc<DataFlowKernel>) -> App<(Picky,), u64> {
    dfk.python_app_fallible("twice", |p: Picky| {
        if p.0 % 7 == 3 {
            Err(AppError::msg("sevens"))
        } else {
            Ok(p.0 * 2)
        }
    })
}

#[test]
fn unencodable_and_failing_elements_keep_their_places() {
    const N: u64 = 5_000;
    for chunk in [Some(1), Some(3), None] {
        let dfk = dfk();
        let twice = picky_app(&dfk);
        let opts = MapOptions {
            chunk_size: chunk,
            ..MapOptions::default()
        };
        let handle = twice.map_with((0..N).map(Picky), opts);
        let results = handle.results();
        assert_eq!(results.len(), N as usize);
        for (i, r) in (0..N).zip(results) {
            match r {
                Ok(v) => assert!(i % 5 != 0 && i % 7 != 3 && v == 2 * i, "{i}: {v}"),
                Err(ParslError::Task(TaskError::App(AppError::Serialization(_)))) => {
                    assert_eq!(i % 5, 0, "{i}")
                }
                Err(ParslError::Task(TaskError::App(AppError::Failure(m)))) => {
                    assert!(i % 5 != 0 && i % 7 == 3 && m == "sevens", "{i}: {m}")
                }
                Err(e) => panic!("{i}: {e:?}"),
            }
        }
        // One fused task per chunk, plus one per element that failed
        // before the end of its chunk (its remainder).
        let good: Vec<u64> = (0..N).filter(|i| i % 5 != 0).collect();
        let size = handle.chunk_size();
        assert_eq!(handle.chunk_count(), good.len().div_ceil(size));
        let remainders: usize = good
            .chunks(size)
            .map(|c| c[..c.len() - 1].iter().filter(|&&i| i % 7 == 3).count())
            .sum();
        dfk.wait_for_all();
        assert_eq!(
            dfk.task_count(),
            handle.chunk_count() + remainders,
            "chunk {size}"
        );
        dfk.shutdown();
    }
}

#[test]
fn map_reduce_fails_on_an_element_that_fails_or_will_not_encode() {
    let dfk = dfk();
    let twice = picky_app(&dfk);
    let sum = |inputs: std::ops::Range<u64>| {
        twice
            .map_reduce_with(inputs.map(Picky), 0, |a, b| a + b, with_chunk(100))
            .result()
    };
    assert_eq!(sum(1..3).unwrap(), 6);
    match sum(1..7) {
        Err(ParslError::Task(TaskError::App(AppError::Serialization(_)))) => {}
        other => panic!("{other:?}"),
    }
    match sum(1..5) {
        Err(ParslError::Task(TaskError::App(AppError::Failure(m)))) => assert_eq!(m, "sevens"),
        other => panic!("{other:?}"),
    }
    dfk.shutdown();
}
