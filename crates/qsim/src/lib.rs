//! # qsim — deterministic discrete-event simulation kernel
//!
//! The substrate for the Open MPI / Quadrics-Elan4 reproduction: a virtual
//! clock, an event queue, and cooperative *simulated processes*.
//!
//! Simulated processes are stackful coroutines, which lets MPI ranks be
//! written as ordinary blocking Rust code: each runs on a stack of its own,
//! all of them on the thread that calls [`Simulation::run`]. At most one
//! process runs at a time, and control passes only through the event queue:
//! dispatching another process's wake is one register switch into its
//! coroutine, with no OS context switch. Events at equal times execute in
//! insertion order, so a simulation is a deterministic function of its
//! inputs — latencies measured in virtual time are exactly reproducible.
//!
//! Three consequences of sharing one OS thread:
//!
//! * a simulation never leaves the thread that builds it: [`Simulation`],
//!   [`SimHandle`] and [`Proc`] are not `Send`, and process bodies and
//!   device callbacks need not be either. Run state shared between them is
//!   an `Rc` of a [`Local`] (a `RefCell`) or a `Cell`, never a lock or an
//!   atomic;
//! * thread-locals, `std::thread::current()` and `std::thread::panicking()`
//!   are the same for every process of a run. No process switches away
//!   while it unwinds, so `panicking()` still means "this process is
//!   unwinding";
//! * a process must not hold a [`Local`] guard across a call that gives up
//!   control (`advance`, the waits): the next `lock()` of that state, by
//!   any process, panics and names both call sites.
//!
//! Maps are [`FastMap`]s and sets [`FastSet`]s: every key the stack hashes
//! is one it made itself, so a fixed multiply-rotate hash replaces std's
//! randomly keyed SipHash, and a map iterates in the same order on every
//! run. Bounded logs are [`Ring`]s, which keep the newest entries and count
//! the ones they evict.
//!
//! Only x86_64 Linux is supported: the switch is System V assembly and
//! the stacks are Linux mappings (see the `context` module).
//!
//! ## Example
//!
//! ```
//! use qsim::{Simulation, Dur};
//! use std::{cell::Cell, rc::Rc};
//!
//! let sim = Simulation::new();
//! let end = Rc::new(Cell::new(0));
//! let end2 = end.clone();
//! sim.spawn("worker", move |p| {
//!     p.advance(Dur::from_us(3));          // model 3us of work
//!     end2.set(p.now().as_ns());
//! });
//! sim.run().unwrap();
//! assert_eq!(end.get(), 3_000);
//! ```

#![warn(missing_docs)]

mod callback;
mod context;
mod handle;
mod hash;
mod kernel;
mod proc;
mod queue;
mod ring;
pub mod rng;
mod signal;
mod sync;
mod time;

pub use handle::SimHandle;
pub use hash::{FastHasher, FastMap, FastSet};
pub use kernel::{ProcId, Report, SimError, Simulation};
pub use proc::Proc;
pub use queue::{default_queue_kind, set_default_queue_kind, QueueKind};
pub use ring::Ring;
pub use rng::Pcg32;
pub use signal::{Signal, TimedWait, Wait};
pub use sync::{Local, Mailbox, MailboxTx};
pub use time::{Dur, Time};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Local;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn empty_simulation_completes() {
        let report = Simulation::new().run().unwrap();
        assert_eq!(report.end_time, Time::ZERO);
        assert_eq!(report.procs_spawned, 0);
    }

    #[test]
    fn advance_accumulates() {
        let sim = Simulation::new();
        let t = Rc::new(Cell::new(0));
        let t2 = t.clone();
        sim.spawn("p", move |p| {
            p.advance(Dur::from_ns(100));
            p.advance(Dur::from_ns(250));
            t2.set(p.now().as_ns());
        });
        let report = sim.run().unwrap();
        assert_eq!(t.get(), 350);
        assert_eq!(report.end_time, Time::from_ns(350));
    }

    #[test]
    fn calls_fire_in_time_order_with_fifo_ties() {
        let sim = Simulation::new();
        let order = Rc::new(Local::new(Vec::new()));
        let h = sim.handle();
        for (i, d) in [(0u32, 50u64), (1, 20), (2, 20), (3, 0)] {
            let order = order.clone();
            h.call_after(Dur::from_ns(d), move |_| order.lock().push(i));
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![3, 1, 2, 0]);
    }

    #[test]
    fn signal_before_wait_is_not_lost() {
        let sim = Simulation::new();
        let done = Rc::new(Cell::new(0));
        let done2 = done.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            let s2 = s.clone();
            // Notification fires while we are still running.
            s2.notify(&p.sim());
            p.wait(&s).expect_signaled();
            done2.set(p.now().as_ns() + 1);
        });
        sim.run().unwrap();
        assert_eq!(done.get(), 1);
    }

    #[test]
    fn signal_wakes_parked_process_at_notify_time() {
        let sim = Simulation::new();
        let woke_at = Rc::new(Cell::new(0));
        let woke_at2 = woke_at.clone();
        let sig_slot: Rc<Local<Option<Signal>>> = Rc::new(Local::new(None));
        let sig_slot2 = sig_slot.clone();
        sim.spawn("waiter", move |p| {
            let s = p.signal();
            *sig_slot2.lock() = Some(s.clone());
            p.wait(&s).expect_signaled();
            woke_at2.set(p.now().as_ns());
        });
        let h = sim.handle();
        h.call_after(Dur::from_us(7), move |sim| {
            sig_slot.lock().as_ref().unwrap().notify(sim);
        });
        sim.run().unwrap();
        assert_eq!(woke_at.get(), 7_000);
    }

    #[test]
    fn wait_timeout_times_out_at_deadline() {
        let sim = Simulation::new();
        let out = Rc::new(Cell::new(0));
        let out2 = out.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            assert_eq!(p.wait_timeout(&s, Dur::from_us(5)), TimedWait::TimedOut);
            out2.set(p.now().as_ns());
        });
        sim.run().unwrap();
        assert_eq!(out.get(), 5_000);
    }

    #[test]
    fn wait_timeout_signal_wins_and_cancels_timer() {
        let sim = Simulation::new();
        let out = Rc::new(Cell::new(0));
        let out2 = out.clone();
        let sig_slot: Rc<Local<Option<Signal>>> = Rc::new(Local::new(None));
        let sig_slot2 = sig_slot.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            *sig_slot2.lock() = Some(s.clone());
            assert_eq!(p.wait_timeout(&s, Dur::from_us(100)), TimedWait::Signaled);
            // The cancelled timer must not cut this sleep short.
            p.advance(Dur::from_us(500));
            out2.set(p.now().as_ns());
        });
        let h = sim.handle();
        h.call_after(Dur::from_us(3), move |sim| {
            sig_slot.lock().as_ref().unwrap().notify(sim);
        });
        let report = sim.run().unwrap();
        assert_eq!(out.get(), 503_000);
        assert_eq!(report.end_time, Time::from_ns(503_000));
    }

    #[test]
    fn wait_timeout_latched_signal_returns_immediately() {
        let sim = Simulation::new();
        let out = Rc::new(Cell::new(u64::MAX));
        let out2 = out.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            s.notify(&p.sim());
            assert_eq!(p.wait_timeout(&s, Dur::from_us(9)), TimedWait::Signaled);
            out2.set(p.now().as_ns());
        });
        sim.run().unwrap();
        assert_eq!(out.get(), 0);
    }

    #[test]
    fn wait_timeout_loop_keeps_sim_alive_until_signal() {
        // A watchdog-style loop: repeated timeouts keep the event queue
        // non-empty (no deadlock) until a very late notification arrives.
        let sim = Simulation::new();
        let ticks = Rc::new(Cell::new(0));
        let ticks2 = ticks.clone();
        let sig_slot: Rc<Local<Option<Signal>>> = Rc::new(Local::new(None));
        let sig_slot2 = sig_slot.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            *sig_slot2.lock() = Some(s.clone());
            loop {
                match p.wait_timeout(&s, Dur::from_us(10)) {
                    TimedWait::Signaled => break,
                    TimedWait::TimedOut => {
                        ticks2.set(ticks2.get() + 1);
                    }
                    TimedWait::Shutdown => panic!("unexpected shutdown"),
                }
            }
        });
        let h = sim.handle();
        h.call_after(Dur::from_us(55), move |sim| {
            sig_slot.lock().as_ref().unwrap().notify(sim);
        });
        sim.run().unwrap();
        assert_eq!(ticks.get(), 5);
    }

    #[test]
    fn past_scheduled_event_cannot_move_time_backwards() {
        // Regression: `push_event` used to accept past timestamps in release
        // builds (debug_assert only), letting the dispatch loop rewind the
        // virtual clock. Now the event is clamped to `now` and counted.
        let sim = Simulation::new();
        let times = Rc::new(Local::new(Vec::new()));
        let h = sim.handle();
        let t2 = times.clone();
        h.call_after(Dur::from_us(5), move |s| {
            let t3 = t2.clone();
            // Attempt to schedule 4µs into the past.
            s.call_at(Time::from_ns(1_000), move |s2| {
                t3.lock().push(s2.now().as_ns());
            });
            let t4 = t2.clone();
            s.call_after(Dur::from_ns(10), move |s2| {
                t4.lock().push(s2.now().as_ns());
            });
        });
        let report = sim.run().unwrap();
        // The past event fired at now (5µs), not at 1µs, and later events
        // still see a monotone clock.
        assert_eq!(*times.lock(), vec![5_000, 5_010]);
        assert_eq!(report.sched_past, 1);
        assert_eq!(report.end_time, Time::from_ns(5_010));
    }

    #[test]
    fn stale_wakes_are_counted_separately() {
        // A wait_timeout whose signal lands at exactly the timer deadline:
        // the notify queues a second wake behind the timer wake, the process
        // returns `Signaled` and finishes, and the leftover wake pops as a
        // stale no-op. It must be counted in `stale_wakes`, not inflate
        // `wakes_executed` or the headline events/s.
        let sim = Simulation::new();
        let sig_slot: Rc<Local<Option<Signal>>> = Rc::new(Local::new(None));
        let ss = sig_slot.clone();
        let h = sim.handle();
        h.call_after(Dur::from_us(5), move |s| {
            ss.lock().as_ref().unwrap().notify(s);
        });
        let ss2 = sig_slot.clone();
        sim.spawn("p", move |p| {
            let s = p.signal();
            *ss2.lock() = Some(s.clone());
            assert_eq!(p.wait_timeout(&s, Dur::from_us(5)), TimedWait::Signaled);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.stale_wakes, 1);
        assert_eq!(report.wakes_executed, 2); // spawn wake + timer wake
        assert_eq!(report.calls_executed, 1);
        assert_eq!(report.events_processed, 4);
    }

    #[test]
    fn daemons_shut_down_in_spawn_order() {
        let sim = Simulation::new();
        let order = Rc::new(Local::new(Vec::new()));
        for i in 0..3u32 {
            let o = order.clone();
            sim.spawn_daemon(&format!("d{i}"), move |p| {
                let s = p.signal();
                match p.wait(&s) {
                    Wait::Shutdown => o.lock().push(i),
                    Wait::Signaled => panic!("unexpected signal"),
                }
            });
        }
        sim.spawn("main", |p| p.advance(Dur::from_us(1)));
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn dropping_unrun_simulation_drops_bodies() {
        // A simulation dropped without `run` must drop the bodies of its
        // processes without entering them: a body holding a handle would
        // otherwise keep the simulation alive through the process table.
        let sim = Simulation::new();
        let handle = sim.handle();
        let ran = Rc::new(Cell::new(0));
        let (h, r) = (handle.clone(), ran.clone());
        sim.spawn("p", move |p| {
            r.set(1);
            h.call_after(Dur::from_us(1), |_| {});
            p.advance(Dur::from_us(1));
        });
        drop(sim);
        assert_eq!(ran.get(), 0);
        assert_eq!(Rc::strong_count(&handle.shared), 1);
    }

    #[test]
    fn proc_panic_is_reported() {
        let sim = Simulation::new();
        sim.spawn("bad", |_p| panic!("boom"));
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let sim = Simulation::new();
        sim.spawn("stuck", |p| {
            let s = p.signal();
            p.wait(&s).expect_signaled();
        });
        match sim.run() {
            Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn daemons_do_not_block_completion() {
        let sim = Simulation::new();
        let observed = Rc::new(Cell::new(0));
        let observed2 = observed.clone();
        sim.spawn_daemon("d", move |p| {
            let s = p.signal();
            match p.wait(&s) {
                Wait::Shutdown => observed2.set(1),
                Wait::Signaled => panic!("unexpected signal"),
            }
        });
        sim.spawn("main", |p| p.advance(Dur::from_us(2)));
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, Time::from_us_like(2));
        assert_eq!(observed.get(), 1);
    }

    #[test]
    fn nested_spawn_runs_at_spawn_time() {
        let sim = Simulation::new();
        let child_start = Rc::new(Cell::new(u64::MAX));
        let cs = child_start.clone();
        sim.spawn("parent", move |p| {
            p.advance(Dur::from_us(4));
            let cs = cs.clone();
            p.spawn("child", move |c| {
                cs.set(c.now().as_ns());
                c.advance(Dur::from_us(1));
            });
            p.advance(Dur::from_us(10));
        });
        sim.run().unwrap();
        assert_eq!(child_start.get(), 4_000);
    }

    #[test]
    fn event_limit_guards_runaway() {
        let sim = Simulation::new();
        sim.set_event_limit(100);
        sim.spawn("spin", |p| loop {
            p.advance(Dur::from_ns(1));
        });
        match sim.run() {
            Err(SimError::EventLimit { limit }) => assert_eq!(limit, 100),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn two_procs_interleave_deterministically() {
        // Run the identical two-process program twice; event traces must match.
        fn trace() -> Vec<(u64, u32)> {
            let sim = Simulation::new();
            let log = Rc::new(Local::new(Vec::new()));
            for id in 0..2u32 {
                let log = log.clone();
                sim.spawn(&format!("p{id}"), move |p| {
                    for i in 0..5u64 {
                        p.advance(Dur::from_ns(10 + id as u64 * 3 + i));
                        log.lock().push((p.now().as_ns(), id));
                    }
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(trace(), trace());
    }

    impl Time {
        fn from_us_like(us: u64) -> Time {
            Time::from_ns(us * 1000)
        }
    }
}
