//! Edge-triggered wakeup signals.
//!
//! A [`Signal`] is owned by exactly one simulated process (the one that will
//! wait on it) but may be notified from anywhere: another process, a device
//! callback, an interrupt model. A notification that arrives while the owner
//! is running is latched and consumed by the owner's next wait, so wakeups
//! are never lost.

use std::cell::Cell;
use std::rc::Rc;

use crate::handle::SimHandle;
use crate::kernel::{Event, KernelState, ParkKind, ProcId};

pub(crate) struct SignalInner {
    pub id: u64,
    pub owner: ProcId,
    /// Latched pending flag.
    pub pending: Cell<bool>,
}

/// A one-owner, many-notifier wakeup flag in virtual time.
#[derive(Clone)]
pub struct Signal {
    pub(crate) inner: Rc<SignalInner>,
}

impl Signal {
    /// Latch the signal and wake the owner if it is parked on this signal.
    ///
    /// May be called from device callbacks or from other processes.
    pub fn notify(&self, sim: &SimHandle) {
        let mut st = sim.shared.state.borrow_mut();
        self.notify_locked(&mut st);
    }

    pub(crate) fn notify_locked(&self, st: &mut KernelState) {
        self.inner.pending.set(true);
        let slot = st.procs.get_mut(self.inner.owner.index());
        if !slot.finished && slot.park == ParkKind::Signal(self.inner.id) {
            slot.park = ParkKind::Timer; // wake is now queued
            let at = st.now;
            st.push_event(at, Event::Wake(self.inner.owner));
        }
    }

    /// Non-destructive check of the pending flag (e.g. polling loops that do
    /// their own cost accounting).
    pub fn is_pending(&self) -> bool {
        self.inner.pending.get()
    }

    /// Drop a latched notification. A signal reused across waits calls
    /// this before each one, so a notification meant for an earlier wait
    /// does not end the next at once.
    pub fn clear(&self) {
        self.inner.pending.set(false);
    }

    /// Owner of this signal.
    pub fn owner(&self) -> ProcId {
        self.inner.owner
    }
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Signal#{}(owner={}, pending={})",
            self.inner.id,
            self.inner.owner,
            self.is_pending()
        )
    }
}

/// Result of waiting on a [`Signal`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Wait {
    /// The signal fired.
    Signaled,
    /// The simulation is shutting down (all non-daemon processes finished).
    Shutdown,
}

impl Wait {
    /// Panic if the wait ended because of shutdown. For use in non-daemon
    /// process code where shutdown mid-wait indicates a bug.
    pub fn expect_signaled(self) {
        assert_eq!(
            self,
            Wait::Signaled,
            "simulation shut down while a process was blocked"
        );
    }
}

/// Result of waiting on a [`Signal`] with a timeout
/// ([`crate::Proc::wait_timeout`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TimedWait {
    /// The signal fired before the timeout.
    Signaled,
    /// The timeout elapsed without a notification.
    TimedOut,
    /// The simulation is shutting down (all non-daemon processes finished).
    Shutdown,
}
