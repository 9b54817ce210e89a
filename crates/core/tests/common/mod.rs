//! The counting global allocator of the allocation tests. A test binary
//! installs [`Counting`] as its `#[global_allocator]` with its own floor
//! and opens [`WINDOW`] around the code it counts; [`ALLOCS`] then holds
//! the allocations of at least `floor` bytes made inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's simulation is inside the counted window.
    pub static WINDOW: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made inside the window.
    pub static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocations of at least `floor` bytes
/// while its window is open. Counters are per thread: a simulation runs on
/// the thread that calls `run`, and the test harness runs tests in
/// parallel.
pub struct Counting {
    /// The smallest allocation, in bytes, that counts.
    pub floor: usize,
}

impl Counting {
    fn note(&self, size: usize) {
        if size >= self.floor && WINDOW.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller. `note` only reads and sets
// const-initialised thread-local `Cell`s, which neither allocate nor
// register a destructor, so it never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
