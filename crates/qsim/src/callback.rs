//! Device callbacks without a heap allocation each.
//!
//! [`crate::SimHandle::call_at`] moves its closure into a fixed-size
//! [`Block`] taken from the simulation's [`CallPool`], and the queued event
//! is a [`Callback`]: a pointer to that block plus a `'static` table of
//! the closure type's call and drop functions. That is 16 bytes, the size
//! of the `Box<dyn FnOnce>` it replaces, so queue entries do not grow.
//!
//! A closure larger than [`BLOCK_BYTES`], or aligned to more than a block,
//! is a compile-time error: there is no second, boxed path. Large state
//! goes behind a `Box` or an `Rc` that the closure captures.
//!
//! Dispatch moves the closure out of its block onto the stack, returns the
//! block to the free list and only then runs the closure. So a block holds
//! at most one live closure, and a callback may schedule its successor
//! into the block it came from. The free list is last in, first out: a
//! steady chain of callbacks keeps reusing the same few cache-warm blocks.
//!
//! A callback dropped without running (still queued when its run ends, or
//! left in a dispatch batch that a panic cut short) drops its closure in
//! place. Its block does not go back on the free list; every block is
//! freed with the pool, when the simulation is.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;

use crate::handle::SimHandle;

/// Bytes of captured state one callback may hold. Every closure the stack
/// schedules fits; the largest are the Tport's, just over 96.
const BLOCK_BYTES: usize = 128;

/// Storage for one closure. While the block is free, its first word links
/// the next free block.
#[repr(C, align(16))]
struct Block(MaybeUninit<[u8; BLOCK_BYTES]>);

/// Blocks the pool allocates at once when its free list runs dry (8 KiB).
const CHUNK_BLOCKS: usize = 64;

type Chunk = [Block; CHUNK_BLOCKS];

/// A simulation's closure blocks: a free list threaded through the free
/// blocks, and the chunks that own them all.
pub(crate) struct CallPool {
    /// The most recently freed block, or null.
    free: Cell<*mut Block>,
    /// Every chunk allocated so far, each a leaked `Box`.
    chunks: RefCell<Vec<NonNull<Chunk>>>,
}

impl CallPool {
    pub(crate) fn new() -> CallPool {
        CallPool {
            free: Cell::new(std::ptr::null_mut()),
            chunks: RefCell::new(Vec::new()),
        }
    }

    /// A block holding no live closure, off the free list.
    #[inline]
    fn take(&self) -> NonNull<Block> {
        let Some(block) = NonNull::new(self.free.get()) else {
            return self.grow();
        };
        // SAFETY: a block on the free list is owned by a live chunk, and
        // its first word is the link that `release` wrote.
        self.free.set(unsafe { block.cast::<*mut Block>().read() });
        block
    }

    /// Put `block` on the free list.
    ///
    /// # Safety
    ///
    /// `block` is one of this pool's, holds no live closure, and is not
    /// on the free list already.
    #[inline]
    unsafe fn release(&self, block: NonNull<Block>) {
        // SAFETY: by the contract, nothing else reads or writes the block
        // until `take` hands it out again; a block is aligned for a
        // pointer.
        unsafe { block.cast::<*mut Block>().write(self.free.get()) };
        self.free.set(block.as_ptr());
    }

    /// Allocate a chunk, free all of its blocks but the first, and hand
    /// that one out.
    #[cold]
    fn grow(&self) -> NonNull<Block> {
        let chunk = Box::new([const { Block(MaybeUninit::uninit()) }; CHUNK_BLOCKS]);
        let chunk = NonNull::from(Box::leak(chunk));
        self.chunks.borrow_mut().push(chunk);
        let first = chunk.cast::<Block>();
        for i in (1..CHUNK_BLOCKS).rev() {
            // SAFETY: `i` is in bounds of the new chunk, whose blocks hold
            // nothing and are on no list yet.
            unsafe { self.release(first.add(i)) };
        }
        first
    }
}

impl Drop for CallPool {
    fn drop(&mut self) {
        for chunk in self.chunks.get_mut().drain(..) {
            // SAFETY: `grow` leaked `chunk` from a `Box` and freed it
            // nowhere else. The kernel drops every queued callback before
            // the pool, so no block holds a live closure any more.
            drop(unsafe { Box::from_raw(chunk.as_ptr()) });
        }
    }
}

/// How to run or drop the closure type one block holds.
struct Ops {
    /// Move the closure out, free its block, run it.
    call: unsafe fn(NonNull<Block>, &SimHandle),
    /// Drop the closure in place.
    drop: unsafe fn(NonNull<Block>),
}

/// The [`Ops`] of closure type `F`, one `'static` table per type.
struct OpsOf<F>(PhantomData<F>);

impl<F: FnOnce(&SimHandle) + 'static> OpsOf<F> {
    const OPS: Ops = Ops {
        call: call::<F>,
        drop: drop_in_place::<F>,
    };
}

/// # Safety
///
/// `block` holds a live `F` of the running simulation's pool, which this
/// call consumes.
unsafe fn call<F: FnOnce(&SimHandle)>(block: NonNull<Block>, sim: &SimHandle) {
    // SAFETY: by the contract, the block holds a live `F`, aligned by
    // `Callback::new`'s check. Reading moves it out: the block is not read
    // as an `F` again.
    let f = unsafe { block.cast::<F>().read() };
    // SAFETY: the closure has left the block, which came off this pool's
    // free list when it was scheduled.
    unsafe { sim.shared.pool.release(block) };
    f(sim);
}

/// # Safety
///
/// `block` holds a live `F`, which is dropped here.
unsafe fn drop_in_place<F>(block: NonNull<Block>) {
    // SAFETY: by the contract; the block is never read as an `F` again.
    unsafe { block.cast::<F>().drop_in_place() };
}

/// A scheduled closure: the block it lives in and how to run or drop it.
pub(crate) struct Callback {
    block: NonNull<Block>,
    ops: &'static Ops,
}

impl Callback {
    /// Move `f` into a block of `pool`. A closure that does not fit is
    /// rejected when the program is built.
    #[inline]
    pub(crate) fn new<F: FnOnce(&SimHandle) + 'static>(pool: &CallPool, f: F) -> Callback {
        const {
            assert!(
                size_of::<F>() <= BLOCK_BYTES && align_of::<F>() <= align_of::<Block>(),
                "a device callback captures at most 128 bytes, aligned to at most 16: \
                 capture a Box or an Rc of larger state"
            )
        };
        let block = pool.take();
        // SAFETY: a block off the free list holds no live closure, and `F`
        // fits it in size and alignment (checked above).
        unsafe { block.cast::<F>().write(f) };
        Callback {
            block,
            ops: &OpsOf::<F>::OPS,
        }
    }

    /// Run the closure, freeing its block first.
    ///
    /// # Safety
    ///
    /// The callback was made from the pool of the simulation `sim` is a
    /// handle onto: its block goes back on that pool's free list.
    #[inline]
    pub(crate) unsafe fn run(self, sim: &SimHandle) {
        let this = ManuallyDrop::new(self);
        // SAFETY: the block holds the live closure `ops` was made for,
        // from `sim`'s pool by the caller's contract, and `this` is never
        // dropped, so nothing else consumes it.
        unsafe { (this.ops.call)(this.block, sim) }
    }
}

impl Drop for Callback {
    fn drop(&mut self) {
        // SAFETY: the block holds the live closure `ops` was made for: only
        // `run` consumes it, and `run` never drops the callback.
        unsafe { (self.ops.drop)(self.block) }
    }
}

#[cfg(test)]
mod tests {
    //! The block pool's lifecycle: whatever ends a run, each closure it
    //! scheduled is run or dropped exactly once.

    use std::rc::Rc;

    use crate::sync::Local;
    use crate::{Dur, SimError, SimHandle, Simulation, Time};

    /// Schedule a callback at `at_ns` that would record that it ran.
    fn pending(h: &SimHandle, at_ns: u64, witness: &Rc<()>, ran: &Rc<Local<bool>>) {
        let (witness, ran) = (witness.clone(), ran.clone());
        h.call_at(Time::from_ns(at_ns), move |_| {
            let _keep = witness;
            *ran.lock() = true;
        });
    }

    #[test]
    fn closures_drop_once_when_a_run_deadlocks() {
        let sim = Simulation::new();
        let witness = Rc::new(());
        let ran = Rc::new(Local::new(false));
        pending(&sim.handle(), 1_000, &witness, &ran);
        sim.spawn("stuck", |p| {
            let s = p.signal();
            p.wait(&s).expect_signaled();
        });
        assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
        // The queue drains before a deadlock is declared: the closure ran.
        assert!(*ran.lock());
        assert_eq!(Rc::strong_count(&witness), 1);
    }

    #[test]
    fn queued_closures_drop_once_at_the_event_limit() {
        let sim = Simulation::new();
        sim.set_event_limit(10);
        let h = sim.handle();
        let witness = Rc::new(());
        let ran = Rc::new(Local::new(false));
        // Each holds a handle too: a queued closure that kept one would
        // keep the simulation alive.
        for i in 0..100u64 {
            let (w, h2) = (witness.clone(), h.clone());
            h.call_at(Time::from_ns(1_000 + i), move |_| drop((w, h2)));
        }
        pending(&h, 1_000_000, &witness, &ran);
        assert!(matches!(sim.run(), Err(SimError::EventLimit { limit: 10 })));
        assert!(!*ran.lock());
        assert_eq!(Rc::strong_count(&witness), 1);
        assert_eq!(Rc::strong_count(&h.shared), 1);
    }

    #[test]
    fn queued_closures_drop_once_after_a_process_panics() {
        let sim = Simulation::new();
        let h = sim.handle();
        let witness = Rc::new(());
        let ran = Rc::new(Local::new(false));
        let (w, r) = (witness.clone(), ran.clone());
        sim.spawn("bad", move |p| {
            pending(&p.sim(), 5_000, &w, &r);
            p.advance(Dur::from_us(1));
            panic!("boom");
        });
        assert!(matches!(sim.run(), Err(SimError::ProcPanic { .. })));
        assert!(!*ran.lock());
        assert_eq!(Rc::strong_count(&witness), 1);
        assert_eq!(Rc::strong_count(&h.shared), 1);
    }

    #[test]
    fn queued_closures_drop_once_when_a_simulation_is_dropped_unrun() {
        let sim = Simulation::new();
        let h = sim.handle();
        let witness = Rc::new(());
        let ran = Rc::new(Local::new(false));
        for at in [0, 1_000, 1_000_000_000] {
            pending(&h, at, &witness, &ran);
        }
        let h2 = h.clone();
        h.call_after(Dur::ZERO, move |_| drop(h2));
        assert_eq!(Rc::strong_count(&witness), 4);
        drop(sim);
        assert!(!*ran.lock());
        assert_eq!(Rc::strong_count(&witness), 1);
        assert_eq!(Rc::strong_count(&h.shared), 1);
    }

    #[test]
    fn a_panicking_callback_is_its_drivers_panic_and_drops_once() {
        let sim = Simulation::new();
        let witness = Rc::new(());
        let ran = Rc::new(Local::new(false));
        let (w, r) = (witness.clone(), ran.clone());
        sim.spawn("driver", move |p| {
            let h = p.sim();
            let w2 = w.clone();
            h.call_after(Dur::from_us(1), move |_| {
                let _keep = w2;
                panic!("callback boom");
            });
            // Same timestamp, same dispatch batch, after the panicking one.
            pending(&h, 1_000, &w, &r);
            // Parking drives the queue on this process's stack.
            p.advance(Dur::from_us(2));
        });
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "driver");
                assert!(message.contains("callback boom"), "{message}");
            }
            other => panic!("expected the callback's panic, got {other:?}"),
        }
        assert!(!*ran.lock());
        assert_eq!(Rc::strong_count(&witness), 1);
    }

    #[test]
    fn full_empty_and_self_scheduling_closures_run_in_time_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(Local::new(Vec::new()));
        // Exactly one block: 120 bytes of state beside the 8-byte `Rc`.
        let full = [7u8; 120];
        let l = log.clone();
        let fills_a_block = move |s: &SimHandle| {
            assert!(full.iter().all(|&b| b == 7));
            l.lock().push(("full", s.now().as_ns()));
        };
        assert_eq!(std::mem::size_of_val(&fills_a_block), 128);
        h.call_at(Time::from_ns(30), fills_a_block);
        fn empty(s: &SimHandle) {
            assert_eq!(s.now(), Time::from_ns(20));
        }
        h.call_at(Time::from_ns(20), empty);
        // A chain that schedules its successor from inside itself, into
        // the block it was just moved out of.
        fn chain(
            log: Rc<Local<Vec<(&'static str, u64)>>>,
            left: u32,
        ) -> impl FnOnce(&SimHandle) + 'static {
            move |s| {
                log.lock().push(("chain", s.now().as_ns()));
                if left > 0 {
                    s.call_after(Dur::from_ns(10), chain(log, left - 1));
                }
            }
        }
        h.call_at(Time::from_ns(10), chain(log.clone(), 3));
        sim.run().unwrap();
        assert_eq!(
            *log.lock(),
            vec![
                ("chain", 10),
                ("chain", 20),
                ("full", 30),
                ("chain", 30),
                ("chain", 40)
            ]
        );
        assert_eq!(Rc::strong_count(&log), 1);
    }
}
