//! A map's heap cost per element, counted: a 200,000-item `noop.map` and
//! its `results()` on `ImmediateExecutor`, every value checked.
//!
//! Elements travel inside their chunks' frames from encode to `results()`,
//! so what a map allocates per element is the inner app's one result
//! buffer, and what it holds per element at its peak is little more than
//! the returned `Vec` (32 bytes an element). A counting
//! `#[global_allocator]` keeps global counters — allocations, live bytes
//! and their high-water mark — so every thread's work is in the numbers
//! (the submitting thread, the collector, the executor), and this binary
//! holds one test.

use parsl_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics, so touching them neither allocates nor needs thread-local
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ITEMS: usize = 200_000;

#[test]
fn a_map_allocates_about_once_and_holds_under_64_bytes_per_item() {
    let dfk = DataFlowKernel::builder()
        .executor(ImmediateExecutor::new())
        .build()
        .unwrap();
    let noop = dfk.python_app("noop", |x: u64| x);
    // Register the fused twin and warm the kernel's own tables first.
    assert!(noop.map(0..1_000u64).results().iter().all(Result::is_ok));
    dfk.wait_for_all();

    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let results = noop.map(0..ITEMS as u64).results();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let peak = PEAK.load(Ordering::Relaxed) - live;

    assert_eq!(results.len(), ITEMS);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r.as_ref().unwrap(), i as u64);
    }
    let per_item = allocations as f64 / ITEMS as f64;
    let peak_per_item = peak as f64 / ITEMS as f64;
    println!("{per_item:.3} allocations and {peak_per_item:.1} peak live bytes per item");
    assert!(
        per_item <= 1.1,
        "{per_item:.3} allocations per item (budget 1.1)"
    );
    assert!(
        peak_per_item <= 64.0,
        "{peak_per_item:.1} peak live bytes per item (budget 64)"
    );
    drop(results);
    dfk.shutdown();
}
