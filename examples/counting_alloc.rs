//! A counting global allocator for binaries that measure heap allocations
//! (pulled in with `#[path = ...] mod counting;`; the product crates install
//! none). It counts the `alloc`, `alloc_zeroed` and `realloc` calls each
//! thread makes and forwards everything to the system allocator, so a count
//! read before and after a step is exact, the same in every process and in
//! debug and release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;
