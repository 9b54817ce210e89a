//! Scheduler determinism: the same program must produce the same schedule —
//! across repeated runs, and across event-queue implementations (the
//! calendar queue vs. the reference `BTreeMap`). Equality is checked on
//! `(end_time, events_processed)` and on the kernel's per-event schedule
//! hash, which folds every dispatched `(time, kind, proc)` triple.

use qsim::{Dur, Pcg32, QueueKind, Report, SimError, Simulation, TimedWait, Wait};
use std::cell::Cell;
use std::rc::Rc;

/// A workload exercising every scheduling primitive: timed advances with
/// PRNG-jittered delays, signal ping-pong, watchdog-style `wait_timeout`
/// loops, nested spawns, device callbacks, and a daemon.
fn mixed_workload(sim: &Simulation) {
    // Signal ping-pong pairs with jittered compute.
    for pair in 0..3u64 {
        let a_sig: Rc<qsim::Local<Option<qsim::Signal>>> = Rc::new(qsim::Local::new(None));
        let b_sig: Rc<qsim::Local<Option<qsim::Signal>>> = Rc::new(qsim::Local::new(None));
        let (a2, b2) = (a_sig.clone(), b_sig.clone());
        sim.spawn(&format!("a{pair}"), move |p| {
            let mut rng = Pcg32::new(0x5EED + pair);
            let s = p.signal();
            *a2.lock() = Some(s.clone());
            for _ in 0..150 {
                p.advance(Dur::from_ns(100 + (rng.next_u32() % 700) as u64));
                loop {
                    if let Some(bs) = b2.lock().as_ref() {
                        bs.notify(&p.sim());
                        break;
                    }
                    p.advance(Dur::from_ns(50));
                }
                p.wait(&s).expect_signaled();
            }
        });
        let (a3, b3) = (a_sig, b_sig);
        sim.spawn(&format!("b{pair}"), move |p| {
            let mut rng = Pcg32::new(0xB0B + pair);
            let s = p.signal();
            *b3.lock() = Some(s.clone());
            for _ in 0..150 {
                p.wait(&s).expect_signaled();
                p.advance(Dur::from_ns(80 + (rng.next_u32() % 300) as u64));
                a3.lock().as_ref().unwrap().notify(&p.sim());
            }
        });
    }
    // A watchdog-style timeout loop ended by a late notification.
    let w_sig: Rc<qsim::Local<Option<qsim::Signal>>> = Rc::new(qsim::Local::new(None));
    let w2 = w_sig.clone();
    sim.spawn("watchdog", move |p| {
        let s = p.signal();
        *w2.lock() = Some(s.clone());
        loop {
            match p.wait_timeout(&s, Dur::from_us(10)) {
                TimedWait::Signaled => break,
                TimedWait::TimedOut => {}
                TimedWait::Shutdown => panic!("unexpected shutdown"),
            }
        }
    });
    let h = sim.handle();
    h.call_after(Dur::from_us(95), move |sim| {
        w_sig.lock().as_ref().unwrap().notify(sim);
    });
    // Nested spawns at staggered times, each with device callbacks.
    sim.spawn("spawner", |p| {
        for i in 0..5u64 {
            p.advance(Dur::from_us(2 * (i + 1)));
            p.spawn(&format!("child{i}"), move |c| {
                let done = Rc::new(Cell::new(0));
                let d2 = done.clone();
                c.call_after(Dur::from_ns(300 + 17 * i), move |_| {
                    d2.set(1);
                });
                c.advance(Dur::from_us(1));
                assert_eq!(done.get(), 1);
            });
        }
    });
    // A daemon parked until shutdown (a daemon must not keep timer events
    // queued, or the run would never drain the queue and complete).
    sim.spawn_daemon("daemon", |p| {
        let s = p.signal();
        match p.wait(&s) {
            Wait::Shutdown => {}
            Wait::Signaled => panic!("nobody notifies the daemon"),
        }
    });
}

fn run_workload(kind: QueueKind) -> Report {
    let sim = Simulation::with_queue(kind);
    mixed_workload(&sim);
    sim.run().unwrap()
}

/// End time, events, wakes, calls, stale wakes, queue-depth high-water
/// mark and schedule hash.
fn fingerprint(r: &Report) -> (u64, u64, u64, u64, u64, usize, u64) {
    (
        r.end_time.as_ns(),
        r.events_processed,
        r.wakes_executed,
        r.calls_executed,
        r.stale_wakes,
        r.max_queue_depth,
        r.schedule_hash,
    )
}

/// The mixed workload's schedule as queueing every wake produces it:
/// dispatching wakes in place must not move one dispatch.
const MIXED_SCHEDULE: (u64, u64, u64, u64, u64, usize, u64) =
    (107_050, 1_840, 1_834, 6, 0, 10, 0x8442_e814_0149_9a6c);

#[test]
fn repeated_runs_produce_identical_schedules() {
    let first = run_workload(QueueKind::Calendar);
    assert!(
        first.events_processed > 1500,
        "workload too small to trust: {} events",
        first.events_processed
    );
    for _ in 0..3 {
        let again = run_workload(QueueKind::Calendar);
        assert_eq!(fingerprint(&first), fingerprint(&again));
    }
}

#[test]
fn calendar_and_btree_queues_produce_identical_schedules() {
    let cal = run_workload(QueueKind::Calendar);
    let btree = run_workload(QueueKind::BTree);
    assert_eq!(
        fingerprint(&cal),
        fingerprint(&btree),
        "queue implementations diverged on the same program"
    );
    assert_eq!(cal.stale_wakes, btree.stale_wakes);
    assert_eq!(cal.sched_past, btree.sched_past);
    assert_eq!(
        fingerprint(&cal),
        MIXED_SCHEDULE,
        "calendar queue moved a dispatch"
    );
    assert_eq!(
        fingerprint(&btree),
        MIXED_SCHEDULE,
        "BTree queue moved a dispatch"
    );
}

/// A 256-rank NIC-offloaded allreduce on the full MPI stack: every
/// inter-hop transfer is a NIC-chained event (QDMA deposit → counted-event
/// fire → chained QDMA), so the schedule folds device callbacks, signal
/// wakeups, and per-rank progress threads at scale. The queue being swapped
/// underneath must not change a single dispatched triple.
fn nic_allreduce_run(kind: QueueKind) -> Report {
    use openmpi_core::{Placement, ReduceOp, StackConfig, Transports, Universe};
    let mut cfg = StackConfig::best();
    cfg.coll_nic_offload = true;
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig {
            nodes: 256,
            ..Default::default()
        },
        cfg,
        Transports::default(),
    );
    let sim = Simulation::with_queue(kind);
    const N: usize = 256;
    const LANES: usize = 8;
    uni.launch_world(&sim, N, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(LANES * 8);
        let mut bytes = Vec::with_capacity(LANES * 8);
        for _ in 0..LANES {
            bytes.extend_from_slice(&(mpi.rank() as u64 + 1).to_le_bytes());
        }
        mpi.write(&buf, 0, &bytes);
        mpi.allreduce(&w, ReduceOp::SumU64, &buf, LANES * 8);
        let out = mpi.read(&buf, 0, LANES * 8);
        let expect = (N as u64 * (N as u64 + 1)) / 2;
        for lane in 0..LANES {
            let v = u64::from_le_bytes(out[lane * 8..lane * 8 + 8].try_into().unwrap());
            assert_eq!(v, expect, "rank {} lane {lane} reduced wrong", mpi.rank());
        }
    });
    let report = sim.run().unwrap();
    assert!(
        uni.cluster.stats().event_writes > 0,
        "allreduce never touched the NIC event path — the cross-check \
         would not be exercising chained events"
    );
    report
}

#[test]
fn nic_offloaded_allreduce_schedules_identically_across_queues() {
    let cal = nic_allreduce_run(QueueKind::Calendar);
    assert!(
        cal.events_processed > 10_000,
        "256-rank allreduce too small to trust: {} events",
        cal.events_processed
    );
    let again = nic_allreduce_run(QueueKind::Calendar);
    assert_eq!(
        fingerprint(&cal),
        fingerprint(&again),
        "repeat run diverged on the NIC-offloaded collective"
    );
    let btree = nic_allreduce_run(QueueKind::BTree);
    assert_eq!(
        fingerprint(&cal),
        fingerprint(&btree),
        "queue implementations diverged on the NIC-offloaded collective"
    );
    assert_eq!(cal.stale_wakes, btree.stale_wakes);
    assert_eq!(cal.sched_past, btree.sched_past);
    // Recorded like `MIXED_SCHEDULE`: MPI_Init's one shared modex fetch
    // and the program's per-edge setup over its own radix tree.
    assert_eq!(
        fingerprint(&cal),
        (
            191_304,
            13_979,
            10_919,
            3_060,
            0,
            512,
            0x8a80_f22d_1fbb_853f
        ),
        "the NIC-offloaded collective moved a dispatch"
    );
}

#[test]
fn deadlock_reports_all_parked_procs_under_new_dispatch() {
    let sim = Simulation::new();
    for i in 0..3u32 {
        sim.spawn(&format!("stuck{i}"), |p| {
            let s = p.signal();
            p.wait(&s).expect_signaled();
        });
    }
    sim.spawn("finishes", |p| p.advance(Dur::from_us(1)));
    match sim.run() {
        Err(SimError::Deadlock { parked }) => {
            assert_eq!(parked, vec!["stuck0", "stuck1", "stuck2"]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn daemon_shutdown_is_deterministic() {
    // Shutdown order (spawn order) must not depend on wall-clock timing.
    fn order() -> Vec<u32> {
        let sim = Simulation::new();
        let order = Rc::new(qsim::Local::new(Vec::new()));
        for i in 0..4u32 {
            let o = order.clone();
            sim.spawn_daemon(&format!("d{i}"), move |p| {
                let s = p.signal();
                match p.wait(&s) {
                    Wait::Shutdown => o.lock().push(i),
                    Wait::Signaled => panic!("unexpected signal"),
                }
            });
        }
        sim.spawn("main", |p| p.advance(Dur::from_us(3)));
        sim.run().unwrap();
        let v = order.lock().clone();
        v
    }
    let first = order();
    assert_eq!(first, vec![0, 1, 2, 3]);
    assert_eq!(first, order());
}

/// An advance whose target ties with a queued callback leaves its wake to
/// the queue, where the callback's smaller sequence number runs it first;
/// an advance that nothing queued precedes is dispatched in place. Both
/// queue kinds agree on every dispatch either way.
#[test]
fn a_callback_due_at_the_target_runs_before_the_wake() {
    fn run(kind: QueueKind, call_at_ns: u64) -> (Vec<&'static str>, Report) {
        let sim = Simulation::with_queue(kind);
        let order = Rc::new(qsim::Local::new(Vec::new()));
        let o = order.clone();
        sim.spawn("p", move |p| {
            let o2 = o.clone();
            p.call_after(Dur::from_ns(call_at_ns), move |_| o2.lock().push("call"));
            p.advance(Dur::from_ns(100));
            o.lock().push("woke");
        });
        let report = sim.run().unwrap();
        let order = order.lock().clone();
        (order, report)
    }
    for kind in [QueueKind::Calendar, QueueKind::BTree] {
        let (order, tie) = run(kind, 100);
        assert_eq!(order, ["call", "woke"], "{kind:?}");
        // The spawn wake and the advance's wake both went through the queue.
        assert_eq!((tie.wakes_executed, tie.wakes_in_place), (2, 0), "{kind:?}");
        let (order, later) = run(kind, 101);
        assert_eq!(order, ["woke", "call"], "{kind:?}");
        assert_eq!(
            (later.wakes_executed, later.wakes_in_place),
            (2, 1),
            "{kind:?}"
        );
        assert_eq!(
            later.max_queue_depth, 2,
            "{kind:?}: the in-place wake counts as queued"
        );
    }
    assert_eq!(
        fingerprint(&run(QueueKind::Calendar, 101).1),
        fingerprint(&run(QueueKind::BTree, 101).1)
    );
}

#[test]
fn a_process_advancing_alone_wakes_in_place() {
    let sim = Simulation::new();
    sim.spawn("alone", |p| {
        for _ in 0..3 {
            p.advance(Dur::from_ns(10));
        }
        assert_eq!(p.now().as_ns(), 30);
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.as_ns(), 30);
    // Only the spawn wake was queued.
    assert_eq!((report.wakes_executed, report.wakes_in_place), (4, 3));
    assert_eq!(report.events_processed, 4);
}
