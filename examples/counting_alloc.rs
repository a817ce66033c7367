//! A counting global allocator for binaries that measure heap allocations
//! (pulled in with `#[path = ...] mod counting;`; the product crates install
//! none). It counts the `alloc`, `alloc_zeroed` and `realloc` calls each
//! thread makes and forwards everything to the system allocator, so a count
//! read before and after a step is exact, the same in every process and in
//! debug and release builds.
//!
//! A binary that registers a slot function with [`charge_slots_by`] also
//! gets each allocation charged to the slot that function names when it is
//! made — the host profile passes the runtime's open section.

// Each binary that pulls this module in uses only part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

struct Counting;

/// Slots in the per-thread table [`charge_slots_by`] fills; a slot function's
/// answer at or past the last one is charged to the last.
pub const SLOTS: usize = 32;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BY_SLOT: [Cell<u64>; SLOTS] = const { [const { Cell::new(0) }; SLOTS] };
}

/// Names the slot an allocation is charged to; set once per process.
static SLOT_OF: OnceLock<fn() -> usize> = OnceLock::new();

/// Allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// From now on, charge every allocation also to slot `slot_of()`. The
/// function runs inside the allocator: it must not allocate. Only the
/// first registration in a process takes effect.
pub fn charge_slots_by(slot_of: fn() -> usize) {
    let _ = SLOT_OF.set(slot_of);
}

/// Allocations this thread has charged to `slot` so far.
pub fn allocations_in(slot: usize) -> u64 {
    BY_SLOT.with(|table| table[slot].get())
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if let Some(slot_of) = SLOT_OF.get() {
        let slot = slot_of().min(SLOTS - 1);
        let _ = BY_SLOT.try_with(|table| table[slot].set(table[slot].get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-local `Cell`s and the slot function
// promises not to allocate, so counting never allocates.
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
