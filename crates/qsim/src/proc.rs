//! [`Proc`] — the handle a simulated process uses to interact with virtual
//! time: advancing the clock, creating and waiting on signals, spawning
//! further processes.

use std::cell::{Cell, RefMut};
use std::rc::Rc;

use crate::context::Context;
use crate::handle::SimHandle;
use crate::kernel::{drive, spawn_proc, Driven, Event, Go, KernelState, ParkKind, ProcId};
use crate::signal::{Signal, SignalInner, TimedWait, Wait};
use crate::time::{Dur, Time};

/// Per-process handle. Not `Clone`: exactly one simulated process owns
/// it, and the calls that give up control (`advance`, the waits) must be
/// made by that process, on its own coroutine. Not `Send` either: like the
/// rest of its simulation, it stays on the thread that built it.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// let sim = qsim::Simulation::new();
/// sim.spawn("p", |p| send(p));
/// ```
pub struct Proc {
    pid: ProcId,
    sim: SimHandle,
    ctx: Rc<Context>,
}

impl Proc {
    pub(crate) fn new(pid: ProcId, sim: SimHandle, ctx: Rc<Context>) -> Self {
        Proc { pid, sim, ctx }
    }

    fn lock(&self) -> RefMut<'_, KernelState> {
        self.sim.shared.state.borrow_mut()
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.pid
    }

    /// A sharable handle for scheduling device callbacks.
    pub fn sim(&self) -> SimHandle {
        self.sim.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Model `d` of computation: the process gives up control and resumes
    /// once virtual time has advanced by `d`.
    ///
    /// When nothing queued is due by then, no other process or callback
    /// can run in between, and the wake is dispatched in place without
    /// giving up control.
    pub fn advance(&self, d: Dur) {
        let mut st = self.lock();
        let target = st.now + d;
        if self.sim.shared.wake_in_place(&mut st, self.pid, target) {
            return;
        }
        st.push_event(target, Event::Wake(self.pid));
        loop {
            st.procs.get_mut(self.pid.index()).park = ParkKind::Timer;
            match self.park(st) {
                Go::Run if self.now() >= target => return,
                // A stale wake (e.g. the leftover timer of an earlier
                // `wait_timeout` that raced its signal): our own wake is
                // still queued, so just park again until it arrives.
                Go::Run => st = self.lock(),
                // Already unwinding (see `park`): a second panic would
                // abort, so return and let the unwind go on.
                Go::Shutdown if std::thread::panicking() => return,
                // Forced shutdown while sleeping: unwind this process. The
                // kernel treats the unwind as process completion during
                // teardown.
                Go::Shutdown => std::panic::panic_any(ShutdownUnwind),
            }
        }
    }

    /// Create a signal owned by this process.
    pub fn signal(&self) -> Signal {
        let mut st = self.lock();
        let id = st.next_signal_id;
        st.next_signal_id += 1;
        Signal {
            inner: Rc::new(SignalInner {
                id,
                owner: self.pid,
                pending: Cell::new(false),
            }),
        }
    }

    /// Block until `s` is (or already was) notified.
    pub fn wait(&self, s: &Signal) -> Wait {
        assert_eq!(
            s.inner.owner, self.pid,
            "a process may only wait on signals it owns"
        );
        loop {
            let mut st = self.lock();
            if s.inner.pending.replace(false) {
                return Wait::Signaled;
            }
            if st.shutdown {
                return Wait::Shutdown;
            }
            st.procs.get_mut(self.pid.index()).park = ParkKind::Signal(s.inner.id);
            if let Go::Shutdown = self.park(st) {
                return Wait::Shutdown;
            }
        }
    }

    /// Block until `s` is notified or `timeout` of virtual time elapses,
    /// whichever happens first.
    ///
    /// Used by progress watchdogs: the queued timeout event keeps the kernel
    /// from declaring deadlock while the owner is blocked, and on
    /// [`TimedWait::TimedOut`] the caller gets control back to inspect why
    /// no progress happened. On early return (signal or shutdown) the queued
    /// timer event is cancelled so it cannot later wake the process
    /// spuriously.
    pub fn wait_timeout(&self, s: &Signal, timeout: Dur) -> TimedWait {
        assert_eq!(
            s.inner.owner, self.pid,
            "a process may only wait on signals it owns"
        );
        let mut st = self.lock();
        if s.inner.pending.replace(false) {
            return TimedWait::Signaled;
        }
        if st.shutdown {
            return TimedWait::Shutdown;
        }
        let at = st.now + timeout;
        let key = st.push_event(at, Event::Wake(self.pid));
        loop {
            st.procs.get_mut(self.pid.index()).park = ParkKind::Signal(s.inner.id);
            if let Go::Shutdown = self.park(st) {
                self.lock().queue.cancel(key);
                return TimedWait::Shutdown;
            }
            st = self.lock();
            if s.inner.pending.replace(false) {
                st.queue.cancel(key);
                return TimedWait::Signaled;
            }
            if st.shutdown {
                st.queue.cancel(key);
                return TimedWait::Shutdown;
            }
            if !st.queue.contains(key) {
                // Our timer fired and nothing else woke us up.
                return TimedWait::TimedOut;
            }
        }
    }

    /// Spawn a sibling (non-daemon) process that starts at the current time.
    pub fn spawn(&self, name: &str, f: impl FnOnce(Proc) + 'static) -> ProcId {
        spawn_proc(&self.sim.shared, name, false, f)
    }

    /// Spawn a daemon process (e.g. an asynchronous progress thread).
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(Proc) + 'static) -> ProcId {
        spawn_proc(&self.sim.shared, name, true, f)
    }

    /// Schedule a device callback after `delay`. As with
    /// [`SimHandle::call_after`], `f` captures at most 128 bytes: capture a
    /// `Box` or an `Rc` of larger state.
    pub fn call_after(&self, delay: Dur, f: impl FnOnce(&SimHandle) + 'static) {
        self.sim.call_after(delay, f);
    }

    /// Give up control, already marked parked under `st`: keep the driver
    /// token and dispatch events on this coroutine until either our own
    /// wake comes up (free resume, no switch) or another process is woken
    /// and we switch to it, to be resumed by whichever context later
    /// dispatches our wake.
    ///
    /// A process unwinding a panic (or a forced shutdown) observes shutdown
    /// instead and keeps the CPU: the run's processes share one thread, so
    /// a switch would carry its unwind into another process.
    fn park(&self, st: RefMut<'_, KernelState>) -> Go {
        if std::thread::panicking() {
            return Go::Shutdown;
        }
        match drive(&self.sim, Some(self.pid), st) {
            Driven::Resume(go) => go,
            // SAFETY: `drive` asserted that we run on this process's own
            // stack, so its context is the running one, and it hands back
            // a suspended context of the same simulation.
            Driven::Switch(to, go) => unsafe { self.sim.shared.switch(&self.ctx, to, go) },
            Driven::Ended => Go::Shutdown,
        }
    }
}

/// Panic payload used to unwind a process during forced shutdown.
pub(crate) struct ShutdownUnwind;

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Proc({})", self.pid)
    }
}
