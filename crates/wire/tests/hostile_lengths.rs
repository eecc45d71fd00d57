//! A declared length the input cannot hold costs no allocation: a few
//! hostile bytes claiming 2^40 elements fail before any buffer is sized
//! from the claim. A counting `#[global_allocator]` keeps one byte
//! counter per thread, so the test harness's other threads are not in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the calling thread allocates while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn a_hostile_length_fails_without_allocating_for_it() {
    // A count of 2^40, then ten bytes that could be its first elements.
    let mut input = Vec::new();
    wire::encode_varint(1 << 40, &mut input);
    input.extend_from_slice(&[7; 10]);
    assert!(input.len() <= 16);

    let (vec, bytes) = allocated_by(|| wire::from_bytes::<Vec<u64>>(&input).is_err());
    assert!(
        vec,
        "a 2^40-element Vec<u64> decoded from {} bytes",
        input.len()
    );
    assert!(bytes <= input.len(), "Vec<u64>: {bytes} bytes allocated");

    let (string, bytes) = allocated_by(|| wire::from_bytes::<String>(&input).is_err());
    assert!(
        string,
        "a 2^40-byte String decoded from {} bytes",
        input.len()
    );
    assert!(bytes <= input.len(), "String: {bytes} bytes allocated");

    let (nested, bytes) = allocated_by(|| wire::from_bytes::<Vec<Vec<u8>>>(&input).is_err());
    assert!(nested);
    assert!(
        bytes <= input.len(),
        "Vec<Vec<u8>>: {bytes} bytes allocated"
    );
}
