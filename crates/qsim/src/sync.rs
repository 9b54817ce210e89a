//! Host-side state of a run: [`Local`], the cell every layer of the stack
//! keeps its run state in, plus two virtual-time helpers built on
//! [`Signal`] — a single-owner mailbox (used for out-of-band control
//! messages) and its sending side.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::panic::Location;
use std::rc::Rc;

use crate::handle::SimHandle;
use crate::proc::Proc;
use crate::signal::{Signal, Wait};
use crate::time::Dur;

/// Run state shared by the processes and device callbacks of one
/// simulation: a [`RefCell`] handed out whole by [`Local::lock`].
///
/// Every simulated process of a run executes on one OS thread, and a
/// simulation never leaves the thread that builds it ([`crate::SimHandle`]
/// is not `Send`), so the state needs no lock: `lock()` is a borrow flag,
/// checked and set. What a lock would do wrong here, it catches instead. A
/// guard held across a call that gives up control (`advance`, the waits)
/// stays held while other processes run; the next `lock()` of the same
/// state — by them, or a re-entrant one by the holder — panics with a
/// message naming its own call site and the holder's, where a lock would
/// wait forever on the one thread that could release it.
///
/// A panicking holder releases the state as its guard drops during the
/// unwind, and the value keeps whatever the holder last wrote.
pub struct Local<T> {
    /// Call site of the last `lock()` that succeeded: the holder, while a
    /// guard is live (read only then).
    taken_at: Cell<&'static Location<'static>>,
    value: RefCell<T>,
}

impl<T> Local<T> {
    /// New run state holding `value`.
    pub fn new(value: T) -> Local<T> {
        Local {
            taken_at: Cell::new(Location::caller()),
            value: RefCell::new(value),
        }
    }

    /// Consume the cell, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Exclusive access until the guard drops.
    ///
    /// # Panics
    ///
    /// If a guard from an earlier `lock()` is still live; the message names
    /// this call site and that one.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> RefMut<'_, T> {
        match self.value.try_borrow_mut() {
            Ok(guard) => {
                self.taken_at.set(Location::caller());
                guard
            }
            Err(_) => self.held(Location::caller()),
        }
    }

    #[cold]
    #[inline(never)]
    fn held(&self, at: &Location<'_>) -> ! {
        panic!(
            "run state locked at {at} is still held by the guard taken at {}",
            self.taken_at.get()
        )
    }
}

impl<T: Default> Default for Local<T> {
    fn default() -> Self {
        Local::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Local<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value.try_borrow() {
            Ok(v) => f.debug_tuple("Local").field(&&*v).finish(),
            Err(_) => f.write_str("Local(<held>)"),
        }
    }
}

struct MailboxInner<T> {
    queue: RefCell<VecDeque<T>>,
    signal: Signal,
}

/// Receiving side of a virtual-time mailbox; owned by one process.
pub struct Mailbox<T> {
    inner: Rc<MailboxInner<T>>,
}

/// Sending side; freely cloneable across processes and device callbacks.
pub struct MailboxTx<T> {
    inner: Rc<MailboxInner<T>>,
}

impl<T> Clone for MailboxTx<T> {
    fn clone(&self) -> Self {
        MailboxTx {
            inner: self.inner.clone(),
        }
    }
}

impl<T: 'static> Mailbox<T> {
    /// Create a mailbox owned by `proc`.
    pub fn new(proc: &Proc) -> (MailboxTx<T>, Mailbox<T>) {
        let inner = Rc::new(MailboxInner {
            queue: RefCell::new(VecDeque::new()),
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
        self.inner.queue.borrow_mut().pop_front()
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
        self.inner.queue.borrow().len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.borrow().is_empty()
    }
}

impl<T: 'static> MailboxTx<T> {
    /// Deliver immediately (at the current virtual instant).
    pub fn send(&self, sim: &SimHandle, value: T) {
        self.inner.queue.borrow_mut().push_back(value);
        self.inner.signal.notify(sim);
    }

    /// Deliver after `delay` of virtual time (models a control-network hop).
    ///
    /// `value` travels in a device callback beside this sender's `Rc`, so
    /// it may be at most 120 bytes: send a `Box` or an `Rc` of a larger
    /// value (see [`SimHandle::call_after`]).
    pub fn send_after(&self, sim: &SimHandle, delay: Dur, value: T) {
        let inner = self.inner.clone();
        sim.call_after(delay, move |sim| {
            inner.queue.borrow_mut().push_back(value);
            inner.signal.notify(sim);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{SimError, Simulation};
    use crate::time::Time;
    use std::cell::Cell;

    #[test]
    fn mailbox_delivers_in_order_and_in_time() {
        let sim = Simulation::new();
        let got = Rc::new(Local::new(Vec::new()));
        let got2 = got.clone();
        #[expect(clippy::type_complexity)]
        let (tx_slot, rx_slot): (
            Rc<Local<Option<MailboxTx<u32>>>>,
            Rc<Local<Option<MailboxTx<u32>>>>,
        ) = {
            let s = Rc::new(Local::new(None));
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
    fn a_panic_while_held_leaves_the_lock_usable() {
        let m = Local::new(vec![1]);
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
    fn a_guard_held_across_a_park_fails_the_next_lock_at_its_call_site() {
        let sim = Simulation::new();
        let state = Rc::new(Local::new(0u32));
        let held = state.clone();
        let holder_line = line!() + 2;
        sim.spawn("holder", move |p| {
            let mut g = held.lock();
            *g += 1;
            // Parks with the guard live: "second" runs meanwhile.
            p.advance(Dur::from_us(2));
            *g += 1;
        });
        let second_line = line!() + 3;
        sim.spawn("second", move |p| {
            p.advance(Dur::from_us(1));
            *state.lock() += 10;
        });
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "second");
                let at = |line: u32| format!("{}:{line}:", file!());
                assert!(message.contains(&at(second_line)), "{message}");
                assert!(message.contains(&at(holder_line)), "{message}");
            }
            other => panic!("expected the second lock to panic, got {other:?}"),
        }
    }

    #[test]
    fn a_reentrant_lock_panics_instead_of_deadlocking() {
        let m = Local::new(0u32);
        let outer = m.lock();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| *m.lock() += 1));
        drop(outer);
        let message = *r
            .expect_err("the inner lock panicked")
            .downcast::<String>()
            .unwrap();
        assert!(
            message.contains("is still held by the guard taken at"),
            "{message}"
        );
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn debug_shows_the_value_unless_held() {
        let m = Local::new(7u32);
        assert_eq!(format!("{m:?}"), "Local(7)");
        let g = m.lock();
        assert_eq!(format!("{m:?}"), "Local(<held>)");
        drop(g);
        assert_eq!(format!("{m:?}"), "Local(7)");
    }

    #[test]
    fn daemon_mailbox_sees_shutdown() {
        let sim = Simulation::new();
        let woke = Rc::new(Cell::new(0u64));
        let woke2 = woke.clone();
        sim.spawn_daemon("progress", move |p| {
            let (_tx, rx) = Mailbox::<u32>::new(&p);
            match rx.recv(&p) {
                Err(Wait::Shutdown) => {
                    woke2.set(1);
                }
                other => panic!("unexpected: {other:?}"),
            }
        });
        sim.spawn("main", |p| {
            p.advance(Dur::from_us(1));
        });
        sim.run().unwrap();
        assert_eq!(woke.get(), 1);
    }
}
