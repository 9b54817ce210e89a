//! Virtual-time synchronization helpers built on [`Signal`]: a single-owner
//! mailbox (used for out-of-band control messages) and a rendezvous cell —
//! plus the [`Mutex`] the whole stack uses for host-side shared state.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::handle::SimHandle;
use crate::proc::Proc;
use crate::signal::{Signal, Wait};
use crate::time::Dur;

/// Busy-wait iterations before a contended [`Mutex::lock`] starts yielding
/// its OS thread.
const SPINS_BEFORE_YIELD: u32 = 64;

/// The mutex the whole stack uses for host-side shared state: a spin lock
/// that takes the lock with one compare-exchange and releases it with one
/// store.
///
/// Every simulated process of a run executes on one OS thread, so the lock
/// is uncontended by construction there. It stays a real cross-thread lock
/// ([`crate::SimHandle`] is `Send`): a contended `lock()` spins briefly,
/// then yields its thread until the holder releases.
///
/// `lock()` returns the guard directly, and there is no poisoning: a
/// panicking simulated process unwinds through kernel teardown and must not
/// wedge every other rank's endpoint state. The guard releases the lock
/// during the unwind, and the value keeps whatever the panicking holder
/// last wrote.
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock hands out access to `value` to one thread at a time
// (`locked`'s Acquire/Release pairing orders the accesses), so sharing or
// sending the mutex only ever moves a `T` between threads: `T: Send`
// suffices, as for `std::sync::Mutex`. `locked` is an atomic.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above; `&Mutex<T>` grants `&mut T` only through a guard.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, spinning (then yielding the OS thread) while
    /// another thread holds it.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if !self.try_acquire() {
            self.lock_contended();
        }
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// One attempt to take the lock; its `Acquire` pairs with the `Release`
    /// store of the guard that last released it.
    #[inline]
    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[cold]
    fn lock_contended(&self) {
        let mut spins = 0u32;
        loop {
            // Wait on a plain load, so a waiter does not keep stealing the
            // cache line from the holder.
            while self.locked.load(Ordering::Relaxed) {
                if spins < SPINS_BEFORE_YIELD {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if self.try_acquire() {
                return;
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.try_acquire() {
            return f.write_str("Mutex(<locked>)");
        }
        let guard = MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        };
        f.debug_tuple("Mutex").field(&&*guard).finish()
    }
}

/// Guard returned by [`Mutex::lock`]; releases the lock when dropped.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    /// Keeps the guard on the thread that took the lock, as std's guard.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared guard hands out only `&T`, so it may be shared between
// threads exactly when `T` may.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so no `&mut T` exists elsewhere.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock, and `&mut self` makes this the
        // only reference derived from it.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Pairs with the `Acquire` of the next `try_acquire`: everything
        // this holder wrote is visible to the next one.
        self.mutex.locked.store(false, Ordering::Release);
    }
}

struct MailboxInner<T> {
    queue: Mutex<VecDeque<T>>,
    signal: Signal,
}

/// Receiving side of a virtual-time mailbox; owned by one process.
pub struct Mailbox<T> {
    inner: Arc<MailboxInner<T>>,
}

/// Sending side; freely cloneable across processes and device callbacks.
pub struct MailboxTx<T> {
    inner: Arc<MailboxInner<T>>,
}

impl<T> Clone for MailboxTx<T> {
    fn clone(&self) -> Self {
        MailboxTx {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Mailbox<T> {
    /// Create a mailbox owned by `proc`.
    pub fn new(proc: &Proc) -> (MailboxTx<T>, Mailbox<T>) {
        let inner = Arc::new(MailboxInner {
            queue: Mutex::new(VecDeque::new()),
            signal: proc.signal(),
        });
        (
            MailboxTx {
                inner: inner.clone(),
            },
            Mailbox { inner },
        )
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().pop_front()
    }

    /// Block (in virtual time) until a message is available.
    pub fn recv(&self, proc: &Proc) -> Result<T, Wait> {
        loop {
            if let Some(v) = self.try_recv() {
                return Ok(v);
            }
            match proc.wait(&self.inner.signal) {
                Wait::Signaled => continue,
                Wait::Shutdown => return Err(Wait::Shutdown),
            }
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().is_empty()
    }
}

impl<T: Send + 'static> MailboxTx<T> {
    /// Deliver immediately (at the current virtual instant).
    pub fn send(&self, sim: &SimHandle, value: T) {
        self.inner.queue.lock().push_back(value);
        self.inner.signal.notify(sim);
    }

    /// Deliver after `delay` of virtual time (models a control-network hop).
    pub fn send_after(&self, sim: &SimHandle, delay: Dur, value: T) {
        let inner = self.inner.clone();
        sim.call_after(delay, move |sim| {
            inner.queue.lock().push_back(value);
            inner.signal.notify(sim);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use crate::time::Time;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn mailbox_delivers_in_order_and_in_time() {
        let sim = Simulation::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        #[allow(clippy::type_complexity)]
        let (tx_slot, rx_slot): (
            Arc<Mutex<Option<MailboxTx<u32>>>>,
            Arc<Mutex<Option<MailboxTx<u32>>>>,
        ) = {
            let s = Arc::new(Mutex::new(None));
            (s.clone(), s)
        };

        sim.spawn("receiver", move |p| {
            let (tx, rx) = Mailbox::<u32>::new(&p);
            *rx_slot.lock() = Some(tx);
            for _ in 0..3 {
                let v = rx.recv(&p).unwrap();
                got2.lock().push((v, p.now()));
            }
        });
        let tx_slot2 = tx_slot.clone();
        sim.spawn("sender", move |p| {
            // Let the receiver run first and publish its tx.
            p.advance(Dur::from_ns(10));
            let tx = tx_slot2.lock().clone().unwrap();
            tx.send(&p.sim(), 1);
            tx.send_after(&p.sim(), Dur::from_us(5), 3);
            tx.send_after(&p.sim(), Dur::from_us(2), 2);
        });
        sim.run().unwrap();
        let got = got.lock();
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert_eq!(got[2].0, 3);
        assert_eq!(got[1].1, Time::from_ns(2_010));
        assert_eq!(got[2].1, Time::from_ns(5_010));
    }

    #[test]
    fn two_threads_add_under_one_lock() {
        let total = Mutex::new(0u64);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..100_000 {
                        *total.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(total.into_inner(), 200_000);
    }

    #[test]
    fn a_panic_while_held_leaves_the_lock_usable() {
        let m = Mutex::new(vec![1]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            g.push(2);
            panic!("holder panicked");
        }));
        assert!(r.is_err());
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn debug_shows_the_value_unless_held() {
        let m = Mutex::new(7u32);
        assert_eq!(format!("{m:?}"), "Mutex(7)");
        let g = m.lock();
        assert_eq!(format!("{m:?}"), "Mutex(<locked>)");
        drop(g);
        assert_eq!(format!("{m:?}"), "Mutex(7)");
    }

    #[test]
    fn daemon_mailbox_sees_shutdown() {
        let sim = Simulation::new();
        let woke = Arc::new(AtomicU64::new(0));
        let woke2 = woke.clone();
        sim.spawn_daemon("progress", move |p| {
            let (_tx, rx) = Mailbox::<u32>::new(&p);
            match rx.recv(&p) {
                Err(Wait::Shutdown) => {
                    woke2.store(1, Ordering::SeqCst);
                }
                other => panic!("unexpected: {other:?}"),
            }
        });
        sim.spawn("main", |p| {
            p.advance(Dur::from_us(1));
        });
        sim.run().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }
}
