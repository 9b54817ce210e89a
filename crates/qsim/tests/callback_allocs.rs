//! Heap traffic of device callbacks. `SimHandle::call_at` and `call_after`
//! keep each scheduled closure in a block the simulation recycles, so once
//! its pool has grown to the most callbacks queued at once, scheduling and
//! running a callback allocates nothing. This binary has its own counting
//! global allocator, and requires zero heap allocations in a round of
//! callbacks run after an identical warm-up round in the same simulation:
//! a chain of 10,000 that each schedule the next, and 256 queued at once.
//!
//! Every callback is scheduled 1 ms ahead, past the calendar queue's
//! 262 µs wheel, so it waits in the queue's overflow heap and moves from
//! there to the front bucket without passing through a wheel slot. The
//! queue's own buffers, grown in the warm-up round, therefore stay where
//! they are, and only the callbacks' storage could allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use qsim::{Dur, SimHandle, Simulation};

/// How far ahead every callback is scheduled: past the wheel.
const AHEAD: Dur = Dur::from_us(1_000);
/// Links in the chain of each round.
const CHAIN: usize = 10_000;
/// Callbacks queued at once in each round.
const IN_FLIGHT: usize = 256;

thread_local! {
    /// Whether this thread's simulation is inside the counted round.
    static WINDOW: Cell<bool> = const { Cell::new(false) };
    /// Heap allocations this thread made inside the window.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocations while its window is open.
/// Counters are per thread: a simulation runs on the thread that calls
/// `run`, and the test harness runs tests in parallel.
struct Counting;

fn note() {
    if WINDOW.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller. `note` only reads and sets
// const-initialised thread-local `Cell`s, which neither allocate nor
// register a destructor, so it never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Open the counting window; the counted round's first callback does.
fn open_window() {
    ALLOCS.set(0);
    WINDOW.set(true);
}

/// Run a simulation whose callbacks count their runs in `ran`, and return
/// the allocations its counted round made.
fn counted(start: impl FnOnce(&SimHandle, Rc<Cell<usize>>)) -> (usize, Rc<Cell<usize>>) {
    let sim = Simulation::new();
    let ran = Rc::new(Cell::new(0));
    start(&sim.handle(), ran.clone());
    sim.run().unwrap();
    assert!(!WINDOW.get(), "the counted round never finished");
    (ALLOCS.get(), ran)
}

/// One link of a chain with `left` links to go, this one included. The
/// warm-up chain's last link starts the counted chain.
fn link(left: usize, ran: Rc<Cell<usize>>, warm_up: bool) -> impl FnOnce(&SimHandle) + 'static {
    move |h| {
        ran.set(ran.get() + 1);
        if left > 1 {
            h.call_after(AHEAD, link(left - 1, ran, warm_up));
        } else if warm_up {
            h.call_after(AHEAD, |h| {
                open_window();
                h.call_after(AHEAD, link(CHAIN, ran, false));
            });
        } else {
            WINDOW.set(false);
        }
    }
}

#[test]
fn a_chain_of_callbacks_allocates_nothing_after_warm_up() {
    let (allocs, ran) = counted(|h, ran| h.call_after(AHEAD, link(CHAIN, ran, true)));
    assert_eq!(ran.get(), 2 * CHAIN);
    // Every closure that captured it has been dropped.
    assert_eq!(Rc::strong_count(&ran), 1);
    assert_eq!(
        allocs, 0,
        "heap allocations in a chain of {CHAIN} callbacks"
    );
}

/// Schedule `IN_FLIGHT` callbacks due at one instant. The warm-up round's
/// last one starts the counted round, which opens the window.
fn round(ran: Rc<Cell<usize>>, warm_up: bool) -> impl FnOnce(&SimHandle) + 'static {
    move |h| {
        if !warm_up {
            open_window();
        }
        for _ in 0..IN_FLIGHT {
            let ran = ran.clone();
            h.call_after(AHEAD, move |h| {
                ran.set(ran.get() + 1);
                if ran.get() == IN_FLIGHT {
                    h.call_after(AHEAD, round(ran, false));
                } else if ran.get() == 2 * IN_FLIGHT {
                    WINDOW.set(false);
                }
            });
        }
    }
}

#[test]
fn callbacks_queued_at_once_allocate_nothing_after_warm_up() {
    let (allocs, ran) = counted(|h, ran| h.call_after(AHEAD, round(ran, true)));
    assert_eq!(ran.get(), 2 * IN_FLIGHT);
    assert_eq!(Rc::strong_count(&ran), 1);
    assert_eq!(
        allocs, 0,
        "heap allocations in {IN_FLIGHT} callbacks in flight"
    );
}
