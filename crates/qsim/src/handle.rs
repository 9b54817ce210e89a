//! [`SimHandle`] — the capability that device models and processes use to
//! read the clock and schedule future work.

use std::rc::Rc;

use crate::callback::Callback;
use crate::kernel::{Event, Shared};
use crate::time::{Dur, Time};

/// A cloneable handle onto the simulation kernel.
///
/// Device models (NICs, switches) capture a `SimHandle` and use
/// [`SimHandle::call_after`] to schedule their internal state transitions.
/// Scheduled closures run inline in whichever context is dispatching (the
/// caller of [`crate::Simulation::run`], or a process that parked or
/// finished), serialized with every simulated process on the one thread
/// that runs the simulation. Device state therefore lives in a
/// [`crate::Local`] (a `RefCell`), and the handle is not `Send`: a
/// simulation stays on the thread that built it.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(qsim::Simulation::new().handle());
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Rc<Shared>,
}

impl SimHandle {
    pub(crate) fn new(shared: Rc<Shared>) -> Self {
        SimHandle { shared }
    }

    /// Current virtual time (reads the kernel's clock mirror).
    pub fn now(&self) -> Time {
        Time::from_ns(self.shared.now_ns.get())
    }

    /// Run `f` after `delay` of virtual time.
    ///
    /// `f` is stored in a 128-byte block the simulation recycles, not on
    /// the heap, so scheduling allocates nothing once the pool has grown to
    /// the most callbacks queued at once. A closure that captures more than
    /// 128 bytes, or needs an alignment over 16, does not build:
    ///
    /// ```compile_fail
    /// let sim = qsim::Simulation::new();
    /// let big = [0u8; 129];
    /// sim.handle().call_after(qsim::Dur::ZERO, move |_| assert_eq!(big.len(), 129));
    /// ```
    ///
    /// Capture a `Box` or an `Rc` of large state instead:
    ///
    /// ```
    /// let sim = qsim::Simulation::new();
    /// let big = Box::new([0u8; 4096]);
    /// sim.handle().call_after(qsim::Dur::ZERO, move |_| assert_eq!(big.len(), 4096));
    /// sim.run().unwrap();
    /// ```
    ///
    /// A callback still queued when its run ends, or when its simulation
    /// is dropped unrun, is dropped without running.
    pub fn call_after(&self, delay: Dur, f: impl FnOnce(&SimHandle) + 'static) {
        let call = Callback::new(&self.shared.pool, f);
        let mut st = self.shared.state.borrow_mut();
        let at = st.now + delay;
        st.push_event(at, Event::Call(call));
    }

    /// Run `f` at the absolute virtual time `at`. A past `at` is clamped to
    /// the current time (and counted in the report's `sched_past`): the
    /// virtual clock never moves backwards. `f` is stored as in
    /// [`SimHandle::call_after`]: at most 128 bytes of captures.
    pub fn call_at(&self, at: Time, f: impl FnOnce(&SimHandle) + 'static) {
        let call = Callback::new(&self.shared.pool, f);
        let mut st = self.shared.state.borrow_mut();
        st.push_event(at, Event::Call(call));
    }
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimHandle({})", self.now())
    }
}

#[cfg(test)]
mod tests {
    use crate::sync::Local;
    use crate::{Dur, Simulation, Time};
    use std::rc::Rc;

    #[test]
    fn call_at_in_the_past_clamps_to_now() {
        let sim = Simulation::new();
        let order = Rc::new(Local::new(Vec::new()));
        let h = sim.handle();
        let o = order.clone();
        h.call_after(Dur::from_us(5), move |s| {
            // Scheduling for t=1us while now=5us must fire "now", not hang
            // or travel back.
            let o2 = o.clone();
            s.call_at(Time::from_ns(1_000), move |s2| {
                o2.lock().push(s2.now().as_ns());
            });
        });
        let report = sim.run().unwrap();
        assert_eq!(*order.lock(), vec![5_000]);
        // The clamp is counted, not silent.
        assert_eq!(report.sched_past, 1);
    }

    #[test]
    fn nested_calls_preserve_fifo_at_equal_times() {
        let sim = Simulation::new();
        let order = Rc::new(Local::new(Vec::new()));
        let h = sim.handle();
        for i in 0..4u32 {
            let o = order.clone();
            h.call_after(Dur::from_us(1), move |_| o.lock().push(i));
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }
}
