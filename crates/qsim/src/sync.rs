//! Host-side state of a run: [`Local`], the cell every layer of the stack
//! keeps its run state in.

use std::cell::{Cell, RefCell, RefMut};
use std::panic::Location;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{SimError, Simulation};
    use crate::time::Dur;
    use std::rc::Rc;

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
}
