//! The memo table's heap cost per entry, counted.
//!
//! A memo entry is a key and a result; a small result (a `u64`'s 10-byte
//! encoding here) lives inside its `Bytes`, so recording one, loading
//! one from a checkpoint and hitting one allocate nothing. The budget,
//! 0.01 allocations per entry, leaves room only for the table's own
//! growth. The counter is per thread, and everything counted runs on the
//! test's thread.
//!
//! One test, as in `alloc_budget.rs`.

use bytes::Bytes;
use parsl_core::memo::Memoizer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per entry the calling thread makes while running `f`.
fn per_entry(entries: u64, f: impl FnOnce()) -> f64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    (ALLOCATIONS.with(Cell::get) - before) as f64 / entries as f64
}

/// The result recorded under `key`: 10 bytes, as `wire` encodes a large
/// `u64`.
fn result_of(key: u64) -> [u8; 10] {
    let mut r = [0x80; 10];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[9] = 1;
    r
}

#[test]
fn memo_entries_stay_within_budget() {
    const ENTRIES: u64 = 100_000;
    let dir = std::env::temp_dir().join(format!("parsl-memo-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.dat");
    let _ = std::fs::remove_file(&path);

    // Recorded as results arrive, written through to a checkpoint.
    let memo = Memoizer::new(true);
    memo.set_checkpoint_file(&path).unwrap();
    let per_record = per_entry(ENTRIES, || {
        for key in 0..ENTRIES {
            memo.record(key, &Bytes::copy_from_slice(&result_of(key)));
        }
    });
    assert_eq!(memo.flush().unwrap(), ENTRIES as usize);

    // Loaded from that checkpoint by a new run.
    let loaded = Memoizer::new(true);
    let per_load = per_entry(ENTRIES, || {
        assert_eq!(loaded.load_checkpoint(&path).unwrap(), ENTRIES as usize);
    });

    // Every lookup a hit.
    let per_hit = per_entry(ENTRIES, || {
        for key in 0..ENTRIES {
            let hit = loaded.lookup(key).expect("recorded");
            assert_eq!(hit.as_ref(), result_of(key));
        }
    });
    std::fs::remove_file(&path).unwrap();

    eprintln!(
        "allocations per entry: {per_record:.4} recorded, {per_load:.4} loaded, \
         {per_hit:.4} hit"
    );
    assert!(per_record <= 0.01, "{per_record} allocations per record");
    assert!(per_load <= 0.01, "{per_load} allocations per loaded entry");
    assert_eq!(per_hit, 0.0, "a hit allocates");
}
