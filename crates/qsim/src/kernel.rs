//! The event kernel: a priority queue of timed events plus a set of
//! cooperative simulated processes.
//!
//! Simulated processes are stackful coroutines ([`crate::context`]) on the
//! thread that calls [`Simulation::run`], so **exactly one** of them runs
//! at any instant. Event ordering is `(time, insertion sequence)`, so
//! identical programs produce identical schedules — the whole simulation
//! is a deterministic function of its inputs.
//!
//! ## Dispatch model: the driver token
//!
//! There is no dedicated scheduler context while the simulation runs. The
//! dispatch loop ([`drive`]) executes on whichever context holds the
//! *driver token* — initially the controller (the caller of
//! [`Simulation::run`]), and from then on whichever simulated process most
//! recently parked or finished. When a process gives up control it does
//! not bounce through a scheduler: it drives the event queue forward
//! itself, executing device callbacks ([`Event::Call`]) inline and batching
//! runs of same-timestamp callbacks under a single borrow of its state.
//! Control passes to another process only when an [`Event::Wake`] for a
//! *different* process is dispatched, and then it is one register switch
//! straight into that process's coroutine; a wake for the driving process
//! itself costs no switch at all. A process's stack is mapped when it is
//! first woken and unmapped, once it finishes, by the next context to run.
//!
//! A process that parks borrows the kernel state once: it queues its wake
//! (if any), marks itself parked and enters [`drive`] holding that one
//! borrow, and pop, accounting and handoff happen under it. `drive` drops
//! the borrow only to run a batch of callbacks or to hand off, and a
//! resumed process reads the clock from its mirror. Cheaper still is an `advance`
//! whose own wake would be the next event dispatched: nothing queued is due
//! at or before its target, so [`Shared::wake_in_place`] dispatches it on
//! the spot, never touching the queue and recording exactly what a push
//! then a pop would have (sequence number, clock, counters, queue-depth
//! high-water, schedule hash).
//!
//! The kernel state lives in a `RefCell` behind an `Rc`, not a lock behind
//! an `Arc`: a simulation never leaves the thread that builds it
//! ([`Simulation`], [`crate::SimHandle`] and [`crate::Proc`] are not
//! `Send`), so taking the state is a borrow-flag check, and the state is
//! never borrowed across a switch.
//!
//! ## Teardown
//!
//! Once the outcome is decided (every process finished, a process
//! panicked, deadlock, or the event limit), [`drive`] stops dispatching
//! and never switches again: a process that parks observes shutdown and
//! keeps the CPU, unwinding or returning, until it finishes and passes the
//! CPU back to the controller. The controller then enters each remaining
//! process with [`Go::Shutdown`] in spawn order, and drops the body of any
//! process that never started without entering it. A process never
//! switches while it unwinds, which keeps `std::thread::panicking` — one
//! flag for every process of the run — meaning "this process is
//! unwinding".
//!
//! ## Clock monotonicity
//!
//! Virtual time never moves backwards. [`KernelState::push_event`] clamps
//! past-stamped events to `now` and counts them (`sched_past`); the
//! dispatch loop asserts monotonicity in all build profiles. (The previous
//! kernel only `debug_assert`ed, so a release build could silently rewind
//! the clock and corrupt every latency measurement downstream.)

use std::cell::{Cell, RefCell, RefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::callback::{CallPool, Callback};
use crate::context::{Context, Stack};
use crate::handle::SimHandle;
use crate::proc::{Proc, ShutdownUnwind};
use crate::queue::{default_queue_kind, EventQueue, QueueKind};
use crate::time::Time;

/// Identifies a simulated process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// Dense index of this process (spawn order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Command handed to a parked process when it is woken.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Go {
    Run,
    Shutdown,
}

impl Go {
    /// The word a [`Context::switch`] carries.
    fn to_msg(self) -> usize {
        self as usize
    }

    fn from_msg(msg: usize) -> Go {
        if msg == Go::Run as usize {
            Go::Run
        } else {
            Go::Shutdown
        }
    }
}

/// Why a parked process is parked. Used by the termination logic: when the
/// event queue is empty no process can be parked on a timer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum ParkKind {
    /// Not parked (running, or never started).
    Running,
    /// Waiting for a `Wake` already in the event queue (e.g. `advance`).
    Timer,
    /// Waiting for a [`crate::Signal`] with the given id.
    Signal(u64),
}

/// What a simulated process runs.
pub(crate) type Body = Box<dyn FnOnce(Proc)>;

pub(crate) enum Event {
    Wake(ProcId),
    Call(Callback),
}

// A mid-bucket insert shifts queue entries, so an event stays two words.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

pub(crate) struct ProcSlot {
    pub name: String,
    pub daemon: bool,
    pub finished: bool,
    pub park: ParkKind,
    /// The process body, until its coroutine starts running it.
    pub body: Option<Body>,
    /// The coroutine's stack, from its first wake until it finishes.
    pub stack: Option<Stack>,
    /// Where the coroutine's registers are kept while it is suspended.
    pub ctx: Rc<Context>,
}

impl ProcSlot {
    /// The context to switch to for this process. On its first wake this
    /// maps its stack and lays out a frame that enters [`coroutine_main`].
    fn enter(&mut self, shared: &Rc<Shared>, pid: ProcId) -> *const Context {
        if self.stack.is_none() {
            // The new coroutine owns this reference from its first
            // instruction on (see `coroutine_main`).
            let arg = Rc::into_raw(shared.clone()) as usize;
            // SAFETY: a process without a stack has never been entered,
            // and this dispatch is the only one that can enter it now.
            self.stack = Some(unsafe { self.ctx.start(coroutine_main, arg, pid.index()) });
        }
        Rc::as_ptr(&self.ctx)
    }
}

/// Chunked slab for [`ProcSlot`]s: pushes never move existing slots, so
/// spawn-heavy churn workloads (thousands of short-lived ranks) stop
/// paying reallocation copies of the whole process table.
pub(crate) struct ProcArena {
    chunks: Vec<Vec<ProcSlot>>,
    len: usize,
}

const ARENA_CHUNK: usize = 128;

impl ProcArena {
    fn new() -> ProcArena {
        ProcArena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, slot: ProcSlot) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == ARENA_CHUNK) {
            self.chunks.push(Vec::with_capacity(ARENA_CHUNK));
        }
        self.chunks.last_mut().unwrap().push(slot);
        self.len += 1;
        self.len - 1
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> &ProcSlot {
        &self.chunks[idx / ARENA_CHUNK][idx % ARENA_CHUNK]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> &mut ProcSlot {
        &mut self.chunks[idx / ARENA_CHUNK][idx % ARENA_CHUNK]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &ProcSlot)> {
        self.chunks.iter().flatten().enumerate()
    }
}

/// FNV-1a offset basis / prime for the schedule hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Schedule-hash tags, one per dispatch category.
const HASH_CALL: u64 = 1;
const HASH_WAKE: u64 = 2;
const HASH_STALE: u64 = 3;

pub(crate) struct KernelState {
    pub now: Time,
    pub seq: u64,
    pub queue: EventQueue,
    pub procs: ProcArena,
    /// Daemons are being shut down; waits observe `Wait::Shutdown`.
    pub shutdown: bool,
    /// The run outcome is decided; no thread may drive any further.
    pub teardown: bool,
    pub result: Option<Result<Report, SimError>>,
    pub events_processed: u64,
    pub event_limit: u64,
    pub next_signal_id: u64,
    /// High-water mark of the event-queue length (profiling).
    pub max_queue_depth: usize,
    /// Process wakeups executed (vs. device-callback events).
    pub wakes_executed: u64,
    /// The subset of `wakes_executed` dispatched in place.
    pub wakes_in_place: u64,
    /// Device-callback closures executed (the `Event::Call` category).
    pub calls_executed: u64,
    /// Wakes popped for already-finished processes (skipped, and excluded
    /// from the headline events/s figure).
    pub stale_wakes: u64,
    /// Events whose requested timestamp was in the past and was clamped to
    /// `now` instead of rewinding the clock.
    pub sched_past: u64,
    /// Running FNV-1a fold of every dispatched event `(time, kind, proc)` —
    /// the determinism fingerprint compared across queue implementations.
    pub schedule_hash: u64,
    /// [`drive`]'s buffer for a batch of same-timestamp callbacks, kept
    /// here so a dispatch does not allocate one.
    call_buf: Vec<Callback>,
}

impl KernelState {
    /// Queue `ev` at `at` (clamped to `now`: the virtual clock is monotone
    /// as a hard invariant, and a past-stamped event is counted in
    /// `sched_past` rather than silently rewinding time). Returns the
    /// unique `(time, seq)` key of the queued event.
    pub(crate) fn push_event(&mut self, at: Time, ev: Event) -> (Time, u64) {
        let at = if at < self.now {
            self.sched_past += 1;
            self.now
        } else {
            at
        };
        let key = (at, self.seq);
        self.seq += 1;
        self.queue.insert(at, key.1, ev);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        key
    }

    #[inline]
    fn fold_hash(&mut self, t: Time, tag: u64, pid: u64) {
        let mut h = self.schedule_hash;
        for v in [t.as_ns(), (tag << 32) | pid] {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.schedule_hash = h;
    }

    /// A switch saves the running registers into `me`'s context, so only
    /// `me`, on its own stack, may give up its turn.
    fn assert_on_own_stack(&self, me: ProcId) {
        let probe = 0u8;
        let stack = self.procs.get(me.index()).stack.as_ref();
        assert!(
            stack.is_some_and(|s| s.contains(&probe)),
            "{me} parked from outside its own coroutine"
        );
    }

    /// Decide the run outcome (first decision wins) and stop all driving.
    fn finish(&mut self, result: Result<Report, SimError>) {
        if self.result.is_none() {
            self.result = Some(result);
        }
        self.teardown = true;
    }

    fn report(&self) -> Report {
        Report {
            end_time: self.now,
            events_processed: self.events_processed,
            procs_spawned: self.procs.len(),
            max_queue_depth: self.max_queue_depth,
            wakes_executed: self.wakes_executed,
            wakes_in_place: self.wakes_in_place,
            calls_executed: self.calls_executed,
            stale_wakes: self.stale_wakes,
            sched_past: self.sched_past,
            schedule_hash: self.schedule_hash,
            wall_ns: 0, // filled in by `run`
        }
    }
}

pub(crate) struct Shared {
    pub state: RefCell<KernelState>,
    /// The blocks queued callbacks live in. Declared after `state`, so a
    /// callback still queued when the simulation is freed drops before
    /// its block does.
    pub pool: CallPool,
    /// Mirror of `state.now`, read without borrowing the state
    /// (`SimHandle::now`).
    pub now_ns: Cell<u64>,
    /// The context of [`Simulation::run`]'s caller while processes run.
    controller: Context,
    /// The stack of a process that has just finished: it cannot unmap the
    /// stack it runs on, so the next context to run does ([`Shared::reap`]).
    dead_stack: Cell<*mut u8>,
}

impl Shared {
    /// Suspend the running context `from` and resume `to` with `go`;
    /// returns the command the running context is later resumed with.
    ///
    /// # Safety
    ///
    /// `from` must be the running context, and `to` a suspended one of
    /// this simulation (a slot's or the controller's).
    pub(crate) unsafe fn switch(&self, from: &Context, to: *const Context, go: Go) -> Go {
        // SAFETY: by the caller's contract; slot and controller contexts
        // live as long as `self`, and their stacks stay mapped until they
        // finish.
        let msg = unsafe { from.switch(&*to, go.to_msg()) };
        self.reap();
        Go::from_msg(msg)
    }

    /// Unmap the stack of the process that finished just before the
    /// running context resumed, if one did.
    fn reap(&self) {
        let base = self.dead_stack.replace(std::ptr::null_mut());
        if !base.is_null() {
            // SAFETY: `bury` stored it from `Stack::into_raw`, and the
            // process on it has switched away for good.
            drop(unsafe { Stack::from_raw(base) });
        }
    }

    /// Leave the finishing process's stack for the next context to unmap.
    fn bury(&self, stack: Stack) {
        let old = self.dead_stack.replace(stack.into_raw());
        debug_assert!(old.is_null(), "a dead stack was never reaped");
    }

    /// Move the clock to `t` for the event being dispatched, and count it.
    #[inline]
    fn dispatch_at(&self, st: &mut KernelState, t: Time) {
        // Hard invariant in every build profile: the virtual clock is
        // monotone (push_event clamps, so this can only fire on a kernel
        // bug).
        assert!(t >= st.now, "virtual clock would move backwards");
        st.now = t;
        self.now_ns.set(t.as_ns());
        st.events_processed += 1;
    }

    /// Dispatch `me`'s wake at `at` in place, as the running process
    /// advances to `at`, when pushing it and driving would pop it straight
    /// back: nothing queued is due at or before `at` (an event queued at
    /// `at` itself has a smaller sequence number, so it comes first). Records
    /// what that push and pop would have, and returns true; otherwise
    /// changes nothing and returns false.
    ///
    /// The ordinary path is kept while the process unwinds (its park must
    /// not dispatch), while daemons shut down, in teardown, and at the
    /// event limit, where `drive` decides the outcome instead.
    pub(crate) fn wake_in_place(&self, st: &mut KernelState, me: ProcId, at: Time) -> bool {
        if st.teardown
            || st.shutdown
            || st.events_processed >= st.event_limit
            || std::thread::panicking()
        {
            return false;
        }
        st.assert_on_own_stack(me);
        if st.queue.peek().is_some_and(|(t, _)| t <= at) {
            return false;
        }
        // `push_event`'s share: a sequence number, and the depth with the
        // wake queued.
        st.seq += 1;
        st.max_queue_depth = st.max_queue_depth.max(st.queue.len() + 1);
        // `drive`'s share: the dispatch of a wake for a live process.
        self.dispatch_at(st, at);
        st.wakes_executed += 1;
        st.wakes_in_place += 1;
        st.fold_hash(at, HASH_WAKE, me.0 as u64);
        true
    }
}

/// Error terminating a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// A simulated process panicked.
    ProcPanic {
        /// Name the process was spawned with.
        proc: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The event queue drained while non-daemon processes were still parked.
    Deadlock {
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// More events were processed than the configured limit (runaway guard).
    EventLimit {
        /// The configured event limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcPanic { proc, message } => {
                write!(f, "simulated process `{proc}` panicked: {message}")
            }
            SimError::Deadlock { parked } => write!(
                f,
                "simulation deadlock: event queue empty but processes parked: {}",
                parked.join(", ")
            ),
            SimError::EventLimit { limit } => {
                write!(f, "simulation exceeded event limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed run, including the kernel-level profile the
/// telemetry layer surfaces next to per-endpoint metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Virtual time at which the last event executed.
    pub end_time: Time,
    /// Number of events the kernel dispatched (including skipped stale
    /// wakes, matching the event-limit accounting).
    pub events_processed: u64,
    /// Total simulated processes created over the run.
    pub procs_spawned: usize,
    /// High-water mark of event-queue occupancy over the run.
    pub max_queue_depth: usize,
    /// Process wakeups actually executed (stale wakes for finished
    /// processes are *not* counted here — they are `stale_wakes`).
    pub wakes_executed: u64,
    /// The subset of `wakes_executed` dispatched in place: a process's own
    /// wake that was due next as it advanced, run without entering the
    /// event queue.
    pub wakes_in_place: u64,
    /// Device-callback events among the executed events.
    pub calls_executed: u64,
    /// Wakes popped for already-finished processes: skipped, counted
    /// separately, and excluded from [`Report::events_per_sec`].
    pub stale_wakes: u64,
    /// Events scheduled with a past timestamp and clamped to `now`.
    pub sched_past: u64,
    /// FNV-1a fold of the full dispatch schedule `(time, kind, proc)`;
    /// equal hashes mean bit-identical schedules.
    pub schedule_hash: u64,
    /// Wall-clock time the kernel spent driving the run, in nanoseconds.
    pub wall_ns: u64,
}

impl Report {
    /// Simulated events executed per wall-clock second — the headline
    /// throughput figure for the simulator itself. Stale wakes (skipped
    /// no-ops) are excluded so the figure counts only real work.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            let executed = self.events_processed - self.stale_wakes;
            executed as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// What a [`drive`] call decided for the calling context.
pub(crate) enum Driven {
    /// Keep running the calling process with this command: its own wake
    /// came up, or it is the daemon being shut down. No switch.
    Resume(Go),
    /// Switch to this (suspended) process context, handing it the command.
    Switch(*const Context, Go),
    /// The run outcome is decided: observe shutdown without switching.
    Ended,
}

/// Dispatch events on the calling context until control must leave it.
///
/// `me` is the calling process when it is parking (so a wake for itself is
/// a free resume), or `None` for the controller and finished processes.
/// `st` is the caller's borrow of the kernel state: a park queues its wake
/// and marks itself parked under the same borrow that dispatches.
pub(crate) fn drive<'a>(
    sim: &'a SimHandle,
    me: Option<ProcId>,
    mut st: RefMut<'a, KernelState>,
) -> Driven {
    let shared = &sim.shared;
    if let Some(me) = me {
        st.assert_on_own_stack(me);
    }
    loop {
        if st.teardown {
            return Driven::Ended;
        }
        if st.events_processed >= st.event_limit {
            let limit = st.event_limit;
            st.finish(Err(SimError::EventLimit { limit }));
            return Driven::Ended;
        }
        let Some((t, _seq, ev)) = st.queue.pop() else {
            // Queue drained: completion, daemon shutdown, or deadlock.
            // Every unfinished process is parked (the driver token is
            // here, so nothing else runs).
            let mut parked_nondaemon = Vec::new();
            let mut first_daemon = None;
            for (idx, slot) in st.procs.iter() {
                if slot.finished {
                    continue;
                }
                if slot.daemon {
                    if first_daemon.is_none() {
                        first_daemon = Some(idx);
                    }
                } else {
                    parked_nondaemon.push(slot.name.clone());
                }
            }
            if !parked_nondaemon.is_empty() {
                st.finish(Err(SimError::Deadlock {
                    parked: parked_nondaemon,
                }));
                return Driven::Ended;
            }
            let Some(idx) = first_daemon else {
                let report = st.report();
                st.finish(Ok(report));
                return Driven::Ended;
            };
            // Shut daemons down one at a time, in spawn order; each one
            // finishing drives us back here for the next.
            st.shutdown = true;
            let pid = ProcId(idx as u32);
            let slot = st.procs.get_mut(idx);
            slot.park = ParkKind::Running;
            if me == Some(pid) {
                return Driven::Resume(Go::Shutdown);
            }
            return Driven::Switch(slot.enter(shared, pid), Go::Shutdown);
        };
        shared.dispatch_at(&mut st, t);
        match ev {
            Event::Call(f) => {
                st.calls_executed += 1;
                st.fold_hash(t, HASH_CALL, 0);
                let mut calls = std::mem::take(&mut st.call_buf);
                calls.push(f);
                // Batch-drain the run of same-timestamp callbacks without
                // re-borrowing between them.
                while st.events_processed < st.event_limit && st.queue.next_is_call_at(t) {
                    let Some((_, _, Event::Call(f2))) = st.queue.pop() else {
                        unreachable!("probe said next is a call");
                    };
                    st.events_processed += 1;
                    st.calls_executed += 1;
                    st.fold_hash(t, HASH_CALL, 0);
                    calls.push(f2);
                }
                drop(st);
                for f in calls.drain(..) {
                    // SAFETY: only `SimHandle::call_at`/`call_after` make
                    // callbacks, from the pool of the simulation whose
                    // queue they push them on, and `sim` drives that one.
                    unsafe { f.run(sim) };
                }
                st = shared.state.borrow_mut();
                st.call_buf = calls;
            }
            Event::Wake(pid) => {
                if st.procs.get(pid.index()).finished {
                    // A stale wake (e.g. the leftover timer of a wait that
                    // raced its signal): skip it, and keep it out of the
                    // headline throughput.
                    st.stale_wakes += 1;
                    st.fold_hash(t, HASH_STALE, pid.0 as u64);
                    continue;
                }
                st.wakes_executed += 1;
                st.fold_hash(t, HASH_WAKE, pid.0 as u64);
                let slot = st.procs.get_mut(pid.index());
                slot.park = ParkKind::Running;
                if me == Some(pid) {
                    return Driven::Resume(Go::Run);
                }
                return Driven::Switch(slot.enter(shared, pid), Go::Run);
            }
        }
    }
}

pub(crate) fn spawn_proc(
    shared: &Rc<Shared>,
    name: &str,
    daemon: bool,
    f: impl FnOnce(Proc) + 'static,
) -> ProcId {
    let mut st = shared.state.borrow_mut();
    let pid = ProcId(st.procs.len() as u32);
    st.procs.push(ProcSlot {
        name: name.to_string(),
        daemon,
        finished: false,
        park: ParkKind::Timer, // will be woken by the spawn event
        body: Some(Box::new(f)),
        stack: None,
        ctx: Rc::new(Context::new()),
    });
    let at = st.now;
    st.push_event(at, Event::Wake(pid));
    pid
}

/// Where every process coroutine starts, on its own stack, when its first
/// wake is dispatched: run the body, record how it ended, and pass the CPU
/// on for good.
///
/// # Safety
///
/// Called only as the first frame of `pid`'s coroutine, laid out by
/// [`ProcSlot::enter`]: `shared` is an `Rc<Shared>` that `enter` turned
/// into a raw pointer, and its ownership moves here.
unsafe extern "C" fn coroutine_main(shared: usize, pid: usize) -> ! {
    let raw = shared as *const Shared;
    let pid = ProcId(pid as u32);
    let (to, go) = {
        // SAFETY: by this function's contract, `raw` came from
        // `Rc::into_raw` for this coroutine alone, entered exactly once.
        let sim = SimHandle::new(unsafe { Rc::from_raw(raw) });
        sim.shared.reap();
        let panic_msg = run_body(&sim, pid);
        finish_proc(&sim, pid, panic_msg)
        // Our reference drops here, like everything else this coroutine
        // owns: its stack is unmapped without running any destructor.
    };
    // SAFETY: `Simulation::run` holds an `Rc<Shared>` until every process
    // it entered has finished, and this one has not switched away yet.
    let shared = unsafe { &*raw };
    // A finished process is never resumed: this context only receives the
    // stack pointer of a stack about to be unmapped.
    let grave = Context::new();
    // SAFETY: this coroutine is the running context; `to` is suspended.
    unsafe { shared.switch(&grave, to, go) };
    // A finished process resumed: nothing sound can follow.
    std::process::abort()
}

/// Run the body of `pid` and catch its end: `None` if it returned (or was
/// unwound by a forced shutdown), the panic message if it panicked.
fn run_body(sim: &SimHandle, pid: ProcId) -> Option<String> {
    let (body, ctx) = {
        let mut st = sim.shared.state.borrow_mut();
        let slot = st.procs.get_mut(pid.index());
        let body = slot.body.take().expect("a process body runs once");
        (body, slot.ctx.clone())
    };
    let proc = Proc::new(pid, sim.clone(), ctx);
    match catch_unwind(AssertUnwindSafe(move || body(proc))) {
        Ok(()) => None,
        // Forced unwind during teardown, not a real panic.
        Err(payload) if payload.is::<ShutdownUnwind>() => None,
        Err(payload) => Some(payload_to_string(&*payload)),
    }
}

/// Mark `pid` finished, record its panic if it panicked, and pick the
/// context to pass the CPU to for good: the next process that `drive`
/// wakes, or the controller once the run outcome is decided.
fn finish_proc(sim: &SimHandle, pid: ProcId, panic_msg: Option<String>) -> (*const Context, Go) {
    let shared = &sim.shared;
    let mut st = shared.state.borrow_mut();
    let slot = st.procs.get_mut(pid.index());
    slot.finished = true;
    shared.bury(slot.stack.take().expect("a running process has a stack"));
    if let Some(message) = panic_msg {
        let proc = slot.name.clone();
        st.finish(Err(SimError::ProcPanic { proc, message }));
    }
    if !st.teardown {
        // The finishing process keeps the driver token and pushes the
        // schedule forward until control passes elsewhere or the run ends.
        // A device callback that panics here is this process's panic, as
        // it would be had the process parked instead of finishing.
        match catch_unwind(AssertUnwindSafe(|| drive(sim, None, st))) {
            Ok(Driven::Switch(to, go)) => return (to, go),
            Ok(_) => {}
            Err(payload) => {
                let mut st = shared.state.borrow_mut();
                let proc = st.procs.get(pid.index()).name.clone();
                let message = payload_to_string(&*payload);
                st.finish(Err(SimError::ProcPanic { proc, message }));
            }
        }
    }
    (&shared.controller, Go::Run)
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A whole simulation: build, spawn root processes, then [`Simulation::run`].
pub struct Simulation {
    shared: Rc<Shared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// A fresh simulation at t = 0 with an empty event queue, using the
    /// process-global default queue kind (see
    /// [`crate::set_default_queue_kind`]).
    pub fn new() -> Self {
        Self::with_queue(default_queue_kind())
    }

    /// A fresh simulation using a specific event-queue implementation.
    pub fn with_queue(kind: QueueKind) -> Self {
        let shared = Rc::new(Shared {
            state: RefCell::new(KernelState {
                now: Time::ZERO,
                seq: 0,
                queue: EventQueue::new(kind),
                procs: ProcArena::new(),
                shutdown: false,
                teardown: false,
                result: None,
                events_processed: 0,
                event_limit: u64::MAX,
                next_signal_id: 0,
                max_queue_depth: 0,
                wakes_executed: 0,
                wakes_in_place: 0,
                calls_executed: 0,
                stale_wakes: 0,
                sched_past: 0,
                schedule_hash: FNV_OFFSET,
                call_buf: Vec::new(),
            }),
            pool: CallPool::new(),
            now_ns: Cell::new(0),
            controller: Context::new(),
            dead_stack: Cell::new(std::ptr::null_mut()),
        });
        Simulation { shared }
    }

    /// Guard against runaway simulations (e.g. a polling loop that never
    /// advances time correctly would still consume events).
    pub fn set_event_limit(&self, limit: u64) {
        self.shared.state.borrow_mut().event_limit = limit;
    }

    /// Handle usable by device models and test scaffolding.
    pub fn handle(&self) -> SimHandle {
        SimHandle::new(self.shared.clone())
    }

    /// Spawn a root (non-daemon) simulated process starting at t=0.
    pub fn spawn(&self, name: &str, f: impl FnOnce(Proc) + 'static) -> ProcId {
        spawn_proc(&self.shared, name, false, f)
    }

    /// Spawn a daemon process: the run ends once all non-daemon processes
    /// finish; parked daemons then observe `Wait::Shutdown`.
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(Proc) + 'static) -> ProcId {
        spawn_proc(&self.shared, name, true, f)
    }

    /// Drive the simulation to completion.
    pub fn run(self) -> Result<Report, SimError> {
        let started = std::time::Instant::now();
        let sim = self.handle();
        let shared = &sim.shared;
        // The controller drives until the first handoff; after that the
        // token circulates among the processes until one of them decides
        // the outcome, finishes, and switches back here.
        match drive(&sim, None, shared.state.borrow_mut()) {
            // SAFETY: this is the running context, and `drive` returns a
            // suspended process context of this simulation.
            Driven::Switch(to, go) => unsafe {
                shared.switch(&shared.controller, to, go);
            },
            Driven::Ended => {}
            Driven::Resume(_) => unreachable!("the controller is not a process"),
        }
        shared.teardown();
        let result = shared
            .state
            .borrow_mut()
            .result
            .take()
            .expect("run ended without a result");
        result.map(|mut report| {
            report.wall_ns = started.elapsed().as_nanos() as u64;
            report
        })
    }
}

impl Shared {
    /// Finish every process that has not finished, in spawn order, on the
    /// controller's context: drop the body of one that never started
    /// without entering it, and enter a suspended one with
    /// [`Go::Shutdown`] until it finishes and switches back. Then drop the
    /// events still queued. A body or a queued callback may hold a handle
    /// onto this simulation, a cycle that would keep it alive for good if
    /// either stayed where it was.
    fn teardown(&self) {
        let mut idx = 0;
        loop {
            let (body, to) = {
                let mut st = self.state.borrow_mut();
                st.teardown = true;
                if idx == st.procs.len() {
                    break;
                }
                let slot = st.procs.get_mut(idx);
                idx += 1;
                if slot.finished {
                    continue;
                }
                match slot.body.take() {
                    Some(body) => {
                        slot.finished = true;
                        (Some(body), None)
                    }
                    None => (None, Some(Rc::as_ptr(&slot.ctx))),
                }
            };
            drop(body);
            if let Some(to) = to {
                // SAFETY: teardown runs on the controller's context, and a
                // started, unfinished process is suspended.
                unsafe { self.switch(&self.controller, to, Go::Shutdown) };
            }
        }
        // One at a time, unborrowed: a closure's captures may schedule
        // more as they drop.
        loop {
            let ev = self.state.borrow_mut().queue.pop();
            let Some(ev) = ev else { break };
            drop(ev);
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // After `run` this finds nothing to do; a simulation dropped
        // without running still owns the bodies of its processes.
        self.shared.teardown();
    }
}

#[cfg(test)]
mod tests {
    //! Coroutine lifecycle: stacks are released however a run ends, and no
    //! process switches away while it unwinds.

    use std::cell::Cell;
    use std::rc::Rc;

    use crate::context::live_stacks;
    use crate::sync::Local;
    use crate::{Dur, Proc, SimError, Simulation, Wait};

    #[test]
    fn sequential_simulations_release_every_stack() {
        let before = live_stacks();
        for round in 0..1000u64 {
            let sim = Simulation::new();
            let handle = sim.handle();
            // A daemon left parked until shutdown, and 63 processes that
            // interleave on their timers.
            sim.spawn_daemon("d", |p| {
                let s = p.signal();
                assert_eq!(p.wait(&s), Wait::Shutdown);
            });
            for i in 1..64u64 {
                sim.spawn(&format!("p{i}"), move |p| {
                    p.advance(Dur::from_ns(1 + (i + round) % 7));
                    p.advance(Dur::from_ns(1 + i % 3));
                });
            }
            let report = sim.run().unwrap();
            assert_eq!(report.procs_spawned, 64);
            assert_eq!(live_stacks(), before, "round {round} left stacks mapped");
            // Nothing else holds the simulation: no finished coroutine kept
            // its reference, and no body stayed behind in the process table.
            assert_eq!(Rc::strong_count(&handle.shared), 1, "round {round}");
        }
    }

    /// Tries to give up the CPU while its process unwinds, and records
    /// what it saw.
    struct ParkWhileUnwinding<'a> {
        p: &'a Proc,
        seen: Rc<Local<Vec<String>>>,
    }

    impl Drop for ParkWhileUnwinding<'_> {
        fn drop(&mut self) {
            let t0 = self.p.now();
            self.p.advance(Dur::from_us(5));
            let s = self.p.signal();
            let waited = self.p.wait_timeout(&s, Dur::from_us(5));
            self.seen.lock().push(format!(
                "unwinding={} moved={} {waited:?}",
                std::thread::panicking(),
                self.p.now() != t0
            ));
        }
    }

    /// Counts the processes that were unwound or returned.
    struct Finished(Rc<Cell<usize>>);

    impl Drop for Finished {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn a_panic_among_parked_processes_ends_the_run_without_switching() {
        let before = live_stacks();
        let sim = Simulation::new();
        let handle = sim.handle();
        let seen = Rc::new(Local::new(Vec::new()));
        let finished = Rc::new(Cell::new(0usize));
        for i in 0..64usize {
            let (seen, done) = (seen.clone(), Finished(finished.clone()));
            let (h, finished) = (handle.clone(), finished.clone());
            sim.spawn(&format!("p{i}"), move |p| {
                let _done = done;
                let log = |what: &str| {
                    let unwinding = std::thread::panicking();
                    seen.lock()
                        .push(format!("p{i} {what} unwinding={unwinding}"));
                };
                match i {
                    32 => {
                        let _probe = ParkWhileUnwinding {
                            p: &p,
                            seen: seen.clone(),
                        };
                        p.advance(Dur::from_ns(500));
                        // Never started: its body is dropped at teardown.
                        let late = Finished(finished.clone());
                        p.spawn("late", move |_| {
                            let _late = late;
                            unreachable!("a process spawned after the panic ran");
                        });
                        panic!("boom in p32");
                    }
                    _ if i % 3 == 0 => {
                        p.advance(Dur::from_us(1));
                        log("advanced");
                    }
                    _ if i % 3 == 1 => {
                        let s = p.signal();
                        let s2 = s.clone();
                        h.call_after(Dur::from_us(1), move |h| s2.notify(h));
                        let w = p.wait(&s);
                        log(&format!("{w:?}"));
                    }
                    _ => {
                        let s = p.signal();
                        let w = p.wait_timeout(&s, Dur::from_us(1));
                        log(&format!("{w:?}"));
                    }
                }
            });
        }
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "p32");
                assert!(message.contains("boom in p32"), "{message}");
            }
            other => panic!("expected p32's panic, got {other:?}"),
        }
        let seen = seen.lock().clone();
        // p32's unwind kept the CPU: its parks returned at once, with no
        // virtual time passing and no other process running meanwhile.
        assert_eq!(seen[0], "unwinding=true moved=false Shutdown");
        // Every other process was parked at 0.5 µs, and then entered once
        // the run had ended: the advancing ones unwound, the waiting ones
        // observed shutdown, and none of them saw an unwind not its own.
        let mut rest = seen[1..].to_vec();
        rest.sort();
        let mut want: Vec<String> = (0..64)
            .filter(|i| i % 3 != 0 && *i != 32)
            .map(|i| format!("p{i} Shutdown unwinding=false"))
            .collect();
        want.sort();
        assert_eq!(rest, want);
        assert_eq!(finished.get(), 64 + 1);
        assert_eq!(live_stacks(), before);
        assert_eq!(Rc::strong_count(&handle.shared), 1);
    }

    #[test]
    fn a_callback_panicking_while_a_finished_process_drives_is_its_panic() {
        let before = live_stacks();
        let sim = Simulation::new();
        sim.spawn("short", |p| {
            // Runs on this process's stack as it finishes and drives on.
            p.call_after(Dur::ZERO, |_| panic!("callback boom"));
        });
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "short");
                assert!(message.contains("callback boom"), "{message}");
            }
            other => panic!("expected the callback's panic, got {other:?}"),
        }
        assert_eq!(live_stacks(), before);
    }

    #[test]
    fn a_proc_used_by_another_process_panics_instead_of_switching() {
        let sim = Simulation::new();
        let lent: Rc<Local<Option<&'static Proc>>> = Rc::new(Local::new(None));
        let lent2 = lent.clone();
        sim.spawn("owner", move |p| {
            let p: &'static Proc = Box::leak(Box::new(p));
            *lent2.lock() = Some(p);
            p.advance(Dur::from_us(10));
        });
        sim.spawn("borrower", move |p| {
            p.advance(Dur::from_us(1));
            let owners = lent.lock().expect("the owner ran first");
            owners.advance(Dur::from_us(1));
        });
        match sim.run() {
            Err(SimError::ProcPanic { proc, message }) => {
                assert_eq!(proc, "borrower");
                assert!(message.contains("outside its own coroutine"), "{message}");
            }
            other => panic!("expected the borrower's panic, got {other:?}"),
        }
    }

    #[test]
    fn a_world_of_4096_processes_runs_and_releases_its_stacks() {
        const N: usize = 4096;
        let before = live_stacks();
        let sim = Simulation::new();
        let peak = Rc::new(Cell::new(0usize));
        let done = Rc::new(Cell::new(0usize));
        for i in 0..N {
            let (peak, done) = (peak.clone(), done.clone());
            sim.spawn(&format!("r{i}"), move |p| {
                p.advance(Dur::from_ns(1 + (i % 13) as u64));
                peak.set(peak.get().max(live_stacks()));
                p.advance(Dur::from_ns(1 + (i % 5) as u64));
                done.set(done.get() + 1);
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.procs_spawned, N);
        assert_eq!(done.get(), N);
        // All of them were alive at once: each started at t = 0.
        assert_eq!(peak.get(), before + N);
        assert_eq!(live_stacks(), before);
    }
}
