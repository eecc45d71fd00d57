//! Edge cases of the fused `app.map` plane: degenerate iterators, chunk
//! geometry, per-item failure attribution with split-retry, and how often
//! the fused twin (and its sibling combinator apps) get registered.

use parsl_core::fusion::MapOptions;
use parsl_core::monitor::{MonitorEvent, MonitorSink};
use parsl_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
