//! The per-rank communication endpoint: NIC resources, PML state, progress
//! engines, and blocking-wait logic.
//!
//! A rank's endpoint owns its Elan4 context (claimed dynamically from the
//! capability — paper §4.1/§5), its receive queue(s), an optional TCP inbox,
//! and its PML state (`EpState`), in a [`qsim::Local`] cell. Progress is
//! driven either by the application thread (polling / interrupt modes) or by
//! one or two asynchronous progress threads over the shared completion queue
//! (paper §4.3).

use std::cell::Cell;
use std::rc::Rc;

use elan4::{Cluster, ElanCtx, HostBuf, RxQueue};
use ompi_rte::{ProcName, Rte};
use qsim::{Dur, Local, Proc, Signal, Time, TimedWait, Wait};

use crate::config::{CompletionMode, ProgressMode, StackConfig};
use crate::peer::{ElanPeer, PeerInfo, TcpPeer};
use crate::proto;
use crate::ptl::{PtlInfo, PtlKind, PtlRegistry};
use crate::ptl_tcp::{TcpInbox, TcpNet};
use crate::state::EpState;

/// Receive-queue depth (QSLOTS) of every queue an endpoint creates.
pub const QSLOTS: usize = 128;

/// Slots in each endpoint's preallocated receive-side bounce pool (each
/// slot holds one eager payload). Unexpected eager payloads stage here
/// instead of a per-message allocation; when the pool is dry the fallback
/// allocation is charged [`crate::HostConfig::bounce_alloc`]. It also caps
/// the per-peer credit window (`flow.credits`), so one sender cannot
/// overrun it.
pub const FLOW_BOUNCE_POOL: usize = 64;

/// Virtual-time bound on blocked waits while the watchdog is armed; each
/// expiry counts as a progress tick, so a wedged rank keeps ticking (and
/// eventually diagnosing) instead of deadlocking silently.
pub const WATCHDOG_TICK: Dur = Dur::from_us(200);

/// Ring capacity of each endpoint's timeline sampler; when full, the
/// oldest samples are evicted and counted.
pub const TIMELINE_CAPACITY: usize = 1024;

/// Which transports an endpoint activates.
#[derive(Clone, Debug)]
pub struct Transports {
    /// Number of Elan4 rails used (0 disables the Elan4 PTL).
    pub elan_rails: usize,
    /// Activate the TCP PTL.
    pub tcp: bool,
}

impl Default for Transports {
    fn default() -> Self {
        Transports {
            elan_rails: 1,
            tcp: false,
        }
    }
}

/// Instrumentation for the paper's §6.3 layering analysis.
#[derive(Default)]
pub struct Instr {
    /// Set when a match-class packet is handed to the PML.
    pub last_rx: Option<Time>,
    /// Accumulated PML-and-above time between receipt and next send.
    pub pml_accum: Dur,
    /// Number of accumulated intervals.
    pub pml_samples: u64,
}

/// One rank's endpoint.
pub struct Endpoint {
    /// This process's name.
    pub name: ProcName,
    /// The node it runs on.
    pub node: usize,
    /// Protocol configuration, with a configured 0 `flow_credits` resolved
    /// to the job-sized window.
    pub cfg: StackConfig,
    /// Activated transports.
    pub transports: Transports,
    /// The simulated machine.
    pub cluster: Rc<Cluster>,
    /// The runtime environment.
    pub rte: Rc<Rte>,
    /// This rank's Elan4 context (claimed dynamically at init).
    pub ectx: Rc<ElanCtx>,
    /// Main QDMA receive queue (when the Elan PTL is active).
    pub main_q: Option<Rc<RxQueue>>,
    /// Separate shared-completion queue (two-queue strategy).
    pub comp_q: Option<Rc<RxQueue>>,
    /// The Ethernet, when the TCP PTL is active.
    pub tcp_net: Option<Rc<TcpNet>>,
    /// Incoming TCP frames.
    pub tcp_inbox: Option<Rc<TcpInbox>>,
    /// PML state (requests, matching, peers).
    pub(crate) state: Local<EpState>,
    /// Component lifecycle registry (paper §2.2's five stages).
    pub ptls: Local<PtlRegistry>,
    /// The progress driver's wakeup signal (polling/interrupt modes).
    pub doorbell: Local<Option<Signal>>,
    /// §6.3 layer-cost instrumentation.
    pub instr: Local<Instr>,
    /// Protocol event trace (populated when `cfg.trace` is set).
    pub trace: Local<crate::trace::TraceLog>,
    /// Always-on post-mortem flight recorder: the tail of the trace events
    /// [`crate::trace::TraceEvent::in_flight`] admits (gated on the
    /// runtime-writable `flight.enable` cvar, on by default). Leaf lock: may
    /// be taken while holding any other endpoint lock.
    pub flight: Local<crate::trace::TraceLog>,
    /// Telemetry counters + histograms (populated when `cfg.metrics` is set).
    pub metrics: Local<crate::metrics::Metrics>,
    /// Registration (pin-down) cache for rendezvous/RMA MMU mappings. Its
    /// lock is never held across a map/unmap (both advance virtual time).
    pub reg: Local<crate::regcache::RegCache>,
    /// Every knob's live value, behind the cvar registry; the hot path
    /// reads these instead of the frozen [`StackConfig`] copies.
    pub tunables: crate::config::Tunables,
    /// Watchdog bookkeeping and recorded stall diagnostics. May be locked
    /// while holding the state lock, never the reverse.
    pub introspect: Local<crate::introspect::IntrospectState>,
    /// Periodic time-series snapshots of queue depths / link occupancy
    /// (gated on the `timeline.interval_ns` cvar). Leaf lock.
    pub timeline: Local<crate::introspect::Timeline>,
    /// Collective-operation ids: `coll_seq` allocates, `coll_depth` tracks
    /// nesting (bcast inside allreduce keeps the outer id), and `cur_coll`
    /// is the id point-to-point sends stamp on their trace events (0 when
    /// outside any collective).
    pub coll_seq: Cell<u64>,
    /// Nesting depth of in-progress collectives on this rank.
    pub coll_depth: Cell<u64>,
    /// Id of the outermost in-progress collective (0 = none).
    pub cur_coll_id: Cell<u64>,
    /// Compiled NIC-resident collective event programs, keyed by
    /// communicator + shape and reused across calls ([`crate::coll`]).
    /// Lives on the endpoint (not the communicator) because communicator
    /// handles are cloned per call. Leaf lock, never held across waits.
    pub nic_progs: Local<qsim::FastMap<crate::coll::ProgKey, Rc<crate::coll::NicProgram>>>,
    /// This rank's published addressing.
    pub my_info: PeerInfo,
}

impl Endpoint {
    /// Bring a rank's endpoint up: claim a context, create queues, publish
    /// addressing via the modex, and synchronize with the rest of the job.
    #[expect(clippy::too_many_arguments)]
    pub fn init(
        proc: &Proc,
        name: ProcName,
        node: usize,
        mut cfg: StackConfig,
        transports: Transports,
        cluster: Rc<Cluster>,
        rte: Rc<Rte>,
        tcp_net: Option<Rc<TcpNet>>,
    ) -> Rc<Endpoint> {
        cfg.validate();
        assert!(
            transports.elan_rails <= cluster.rails(),
            "more rails requested than the fabric has"
        );
        // Dynamic join: claim an Elan4 context whenever this process starts.
        let ectx =
            Rc::new(ElanCtx::attach(&cluster, node).expect("Elan4 capability exhausted on node"));

        let (main_q, comp_q) = if transports.elan_rails > 0 {
            let main = Rc::new(ectx.create_queue(QSLOTS, crate::hdr::SLOT_LEN));
            let comp = match cfg.completion {
                CompletionMode::SharedQueueSeparate => {
                    Some(Rc::new(ectx.create_queue(QSLOTS, crate::hdr::SLOT_LEN)))
                }
                _ => None,
            };
            (Some(main), comp)
        } else {
            (None, None)
        };

        let tcp_inbox = if transports.tcp {
            let net = tcp_net.as_ref().expect("tcp enabled without a TcpNet");
            let inbox = TcpInbox::new();
            net.bind(name, node, inbox.clone());
            Some(inbox)
        } else {
            None
        };

        let my_info = PeerInfo {
            name,
            elan: main_q.as_ref().map(|q| ElanPeer {
                vpid: ectx.vpid(),
                main_q: q.id(),
                comp_q: comp_q.as_ref().map(|c| c.id()),
                rails: transports.elan_rails as u8,
            }),
            tcp: transports.tcp.then_some(TcpPeer { node: node as u32 }),
        };

        // Publish addressing and wait for the whole job (the paper's
        // collective connection setup during MPI_Init), then fetch the
        // job's addressing in one OOB request: a table every rank shares.
        // A peer is decoded from it the first time this rank talks to it
        // (`EpState::peer`), so init costs the same three OOB hops at any
        // job size and a rank holds only the peers it uses.
        rte.modex_put(proc, name, "ptl", my_info.to_bytes());
        rte.barrier(proc, name.job);
        let mut state = EpState::new();
        state.ptl_table = Some((name.job, rte.modex_table(proc, name.job, "ptl")));
        state.peers.insert(name, my_info.clone());
        let job_size = rte.job_size(name.job);

        // Drive each component through the open -> init -> activate stages
        // of §2.2. Opening/initializing happened physically above (queues,
        // inbox); the registry records the lifecycle and feeds the PML
        // scheduling heuristics.
        let mut ptls = PtlRegistry::new();
        for rail in 0..transports.elan_rails {
            let info = PtlInfo::elan4(rail);
            let kind = info.kind;
            ptls.open(info);
            ptls.init(kind).expect("fresh component");
            ptls.activate(kind).expect("initialized component");
        }
        if transports.tcp {
            ptls.open(PtlInfo::tcp());
            ptls.init(PtlKind::Tcp).expect("fresh component");
            ptls.activate(PtlKind::Tcp).expect("initialized component");
        }

        // Preallocate the unexpected-message bounce pool: eager payloads of
        // unmatched messages stage in these fixed slots instead of a
        // per-message allocation; a pool miss falls back to the allocator and
        // charges `host.bounce_alloc` (GASNet's elan-conduit bounce-buffer
        // strategy). Always active, so the flow-off path of the incast bench
        // measures exactly this exhaustion cost.
        let slot_len = cfg.eager_limit.max(1);
        let slots: Vec<HostBuf> = (0..FLOW_BOUNCE_POOL)
            .map(|_| ectx.alloc(slot_len))
            .collect();
        state.bounce_pool.seed(slots, slot_len);

        // A configured credit window of 0 means auto-scale: split the bounce
        // pool across the peers that can send to us, so even an all-to-all
        // burst of unexpected eager messages fits in preallocated staging.
        // Resolved whether or not flow control is on yet: a runtime
        // `flow.enable` write must find a real window.
        if cfg.flow_credits == 0 {
            let peers = job_size.saturating_sub(1).max(1);
            cfg.flow_credits = (FLOW_BOUNCE_POOL / peers).clamp(2, 16);
        }
        let trace_capacity = cfg.trace_capacity;
        let tunables = crate::config::Tunables::new(&cfg);
        Rc::new(Endpoint {
            name,
            node,
            cfg,
            transports,
            cluster,
            rte,
            ectx,
            main_q,
            comp_q,
            tcp_net,
            tcp_inbox,
            state: Local::new(state),
            ptls: Local::new(ptls),
            doorbell: Local::new(None),
            instr: Local::new(Instr::default()),
            trace: Local::new(crate::trace::TraceLog::with_capacity(trace_capacity)),
            flight: Local::new(crate::trace::TraceLog::with_capacity(
                crate::flight::FLIGHT_CAPACITY,
            )),
            metrics: Local::new(crate::metrics::Metrics::default()),
            reg: Local::new(crate::regcache::RegCache::default()),
            tunables,
            introspect: Local::new(crate::introspect::IntrospectState::default()),
            timeline: Local::new(crate::introspect::Timeline::with_capacity(
                TIMELINE_CAPACITY,
            )),
            coll_seq: Cell::new(0),
            coll_depth: Cell::new(0),
            cur_coll_id: Cell::new(0),
            nic_progs: Local::new(qsim::FastMap::default()),
            my_info,
        })
    }

    /// Install progress machinery for the configured mode. Must be called by
    /// the rank's own process before any communication.
    pub fn start_progress(self: &Rc<Self>, proc: &Proc) {
        match self.cfg.progress {
            ProgressMode::Polling | ProgressMode::Interrupt => {
                let bell = proc.signal();
                let irq = self.cfg.progress == ProgressMode::Interrupt;
                for q in [&self.main_q, &self.comp_q].into_iter().flatten() {
                    q.set_signal(bell.clone());
                    q.arm_irq(irq);
                }
                if let Some(ib) = &self.tcp_inbox {
                    ib.set_doorbell(bell.clone());
                }
                *self.doorbell.lock() = Some(bell);
            }
            ProgressMode::OneThread | ProgressMode::TwoThreads => {
                // The main progress thread first, then the completion
                // thread: the spawn order fixes the process ids.
                let spawn = |role: &str, q: &Option<Rc<RxQueue>>, main: bool| {
                    let (ep, q) = (self.clone(), q.clone());
                    let name = format!("{role}-{}-{}", self.name.job.0, self.name.rank);
                    proc.spawn_daemon(&name, move |p| {
                        if let Some(q) = q {
                            progress_thread(&p, &ep, &q, main);
                        }
                    });
                };
                spawn("progress", &self.main_q, true);
                if self.cfg.progress == ProgressMode::TwoThreads {
                    spawn("compl", &self.comp_q, false);
                }
            }
        }
    }

    /// The signal the current progress driver blocks on (polling/interrupt
    /// modes only).
    pub fn doorbell(&self) -> Option<Signal> {
        self.doorbell.lock().clone()
    }

    // ---- memory helpers ----------------------------------------------------

    /// Allocate host memory on this rank's node.
    pub fn alloc(&self, len: usize) -> HostBuf {
        self.ectx.alloc(len)
    }

    /// Free a buffer.
    pub fn free(&self, buf: HostBuf) {
        self.ectx.free(buf);
    }

    /// Untimed host store into a buffer.
    pub fn write_buf(&self, buf: &HostBuf, off: usize, data: &[u8]) {
        self.ectx.write(buf, off, data);
    }

    /// Untimed host load from a buffer.
    pub fn read_buf(&self, buf: &HostBuf, off: usize, len: usize) -> Vec<u8> {
        self.ectx.read(buf, off, len)
    }

    /// Host memcpy cost from the copy model.
    pub fn memcpy_cost(&self, len: usize) -> Dur {
        self.cfg.copy.memcpy(len)
    }

    // ---- blocking progress --------------------------------------------------

    /// Upper bound on one blocked wait, when a timer needs servicing: the
    /// watchdog tick and/or the earliest retransmit deadline (whichever is
    /// sooner). `None` means an unbounded wait is safe — no watchdog armed
    /// and no sequence-stamped control frame awaiting its receipt.
    fn wait_bound(&self, now: Time) -> Option<Dur> {
        let tick = (self.tunables.watchdog_interval() > 0).then_some(WATCHDOG_TICK);
        let earliest = if self.cfg.tcp_reliability {
            self.state
                .lock()
                .ctl_inflight
                .iter()
                .map(|e| e.deadline)
                .min()
        } else {
            None
        };
        // A deadline already due still waits 1 ns, so time moves on.
        let retransmit = earliest.map(|d| d.saturating_sub(now).max(Dur::from_ns(1)));
        tick.into_iter().chain(retransmit).min()
    }

    /// Service the timers: the watchdog tick, the timeline sampler and the
    /// retransmit scan. Every progress pass runs them, and so does every
    /// bounded wait that expired.
    pub(crate) fn timers_tick(self: &Rc<Self>, proc: &Proc) {
        crate::introspect::watchdog_tick(proc, self);
        crate::introspect::timeline_tick(proc, self);
        proto::reliability_tick(proc, self);
    }

    /// Sleep on `sig` until it fires, then charge `wake_cost`. The wait is
    /// bounded whenever the watchdog is armed or a control frame awaits its
    /// receipt ([`Endpoint::wait_bound`]): an expiry services those timers
    /// instead, so a wedged rank keeps diagnosing (and healing) rather than
    /// deadlocking. `false` when the simulation shut down.
    fn park(self: &Rc<Self>, proc: &Proc, sig: &Signal, wake_cost: Dur) -> bool {
        let woke = match self.wait_bound(proc.now()) {
            Some(bound) => proc.wait_timeout(sig, bound),
            None => match proc.wait(sig) {
                Wait::Signaled => TimedWait::Signaled,
                Wait::Shutdown => TimedWait::Shutdown,
            },
        };
        match woke {
            TimedWait::Signaled => proc.advance(wake_cost),
            TimedWait::TimedOut => self.timers_tick(proc),
            TimedWait::Shutdown => return false,
        }
        true
    }

    /// Drive progress until `done()` (checked under the state lock) returns
    /// true. Used by request waits, barriers, and finalize. In the polling
    /// modes the caller runs progress passes and sleeps on the doorbell;
    /// under progress threads it sleeps on one signal per call that they
    /// notify, paying the thread handoff on each wakeup.
    pub(crate) fn wait_until(
        self: &Rc<Self>,
        proc: &Proc,
        mut done: impl FnMut(&mut EpState) -> bool,
    ) {
        let host = &self.cfg.host;
        let (sig, polls, wake_cost) = match self.cfg.progress {
            ProgressMode::Polling | ProgressMode::Interrupt => (
                self.doorbell().expect("progress not started"),
                true,
                self.cluster.cfg().poll_check,
            ),
            ProgressMode::OneThread => (proc.signal(), false, host.thread_handoff),
            ProgressMode::TwoThreads => (
                proc.signal(),
                false,
                host.thread_handoff + host.thread_contention,
            ),
        };
        loop {
            if polls {
                if done(&mut self.state.lock()) {
                    return;
                }
                if proto::progress_pass(proc, self) {
                    continue;
                }
                if done(&mut self.state.lock()) {
                    return;
                }
            } else {
                // Drop a notification latched since the last park: the
                // check below sees whatever it announced.
                sig.clear();
                let mut st = self.state.lock();
                if done(&mut st) {
                    return;
                }
                st.waiters.push(sig.clone());
            }
            if !self.park(proc, &sig, wake_cost) {
                panic!("simulation shut down during MPI wait");
            }
        }
    }

    /// Record a trace event. The full ring is gated on the runtime-writable
    /// `telemetry.trace` cvar; the same funnel also feeds the always-on
    /// flight recorder (`flight.enable`) with the events it keeps, so
    /// protocol code has a single instrumentation call site.
    pub fn trace(&self, now: Time, ev: crate::trace::TraceEvent) {
        if self.tunables.flight_recorder() && ev.in_flight() {
            self.flight.lock().push((now, ev));
        }
        if self.tunables.trace() {
            self.trace.lock().push((now, ev));
        }
    }

    /// Freeze the flight recorder's retained tail into a dump document in
    /// [`crate::introspect::IntrospectState::flight_dumps`], unless
    /// `flight.enable` is off. The caller must not hold the introspect lock.
    pub fn flight_dump(&self, reason: &str, now: Time) {
        if self.tunables.flight_recorder() {
            let dump = crate::flight::dump_json(&self.flight.lock(), self.name.rank, reason, now);
            self.introspect.lock().flight_dumps.push(dump);
        }
    }

    /// Enter a collective: allocates a fresh collective id at the outermost
    /// nesting level (returned for the span), keeps the enclosing id for
    /// nested collectives (e.g. the bcast inside an allreduce).
    pub fn coll_enter(&self) -> Option<u64> {
        let depth = self.coll_depth.get();
        self.coll_depth.set(depth + 1);
        if depth == 0 {
            let cid = self.coll_seq.get() + 1;
            self.coll_seq.set(cid);
            self.cur_coll_id.set(cid);
            Some(cid)
        } else {
            None
        }
    }

    /// Leave a collective; clears the current id at the outermost level.
    pub fn coll_exit(&self) {
        let depth = self.coll_depth.get() - 1;
        self.coll_depth.set(depth);
        if depth == 0 {
            self.cur_coll_id.set(0);
        }
    }

    /// Id of the collective currently in progress on this rank (0 = none);
    /// stamped on `SendPosted` trace events for fan-in/fan-out attribution.
    pub fn cur_coll(&self) -> u64 {
        self.cur_coll_id.get()
    }

    /// Update telemetry (no-op unless the runtime-writable
    /// `telemetry.metrics` cvar is on). The metrics lock may be taken while
    /// holding the state lock, never the reverse.
    pub fn metric(&self, f: impl FnOnce(&mut crate::metrics::Metrics)) {
        if self.tunables.metrics() {
            f(&mut self.metrics.lock());
        }
    }

    /// A copy of the endpoint's telemetry as of now. Registration-cache
    /// counters are merged in from the cache itself (their single source of
    /// truth, maintained independently of the `telemetry.metrics` gate).
    pub fn metrics_snapshot(&self) -> crate::metrics::Metrics {
        let mut m = self.metrics.lock().clone();
        let s = self.reg_stats();
        m.counters.reg_hits = s.hits;
        m.counters.reg_misses = s.misses;
        m.counters.reg_evictions = s.evictions;
        m.counters.reg_mapped_bytes = s.mapped_bytes;
        m
    }

    /// Live registration-cache counters.
    pub fn reg_stats(&self) -> crate::regcache::RegStats {
        self.reg.lock().stats()
    }

    /// Live mappings in this rank's Elan4 MMU (leak checks in tests; after
    /// [`Endpoint::finalize`] this is zero).
    pub fn mapping_count(&self) -> usize {
        self.ectx.mapping_count()
    }

    /// Bounce-pool slots currently staging unexpected payloads (leak checks
    /// in tests; after [`Endpoint::finalize`] this is zero).
    pub fn bounce_in_use(&self) -> usize {
        self.state.lock().bounce_pool.in_use()
    }

    /// Record the PML-handoff timestamp (paper §6.3 instrumentation).
    pub fn instr_mark_rx(&self, now: Time) {
        self.instr.lock().last_rx = Some(now);
    }

    /// A first fragment is leaving through the PTL: close the PML interval.
    pub fn instr_mark_tx(&self, now: Time) {
        let mut i = self.instr.lock();
        if let Some(rx) = i.last_rx.take() {
            i.pml_accum += now - rx;
            i.pml_samples += 1;
        }
    }

    /// Average "PML layer and above" cost per message, if measured.
    pub fn pml_layer_cost(&self) -> Option<Dur> {
        let i = self.instr.lock();
        if i.pml_samples == 0 {
            None
        } else {
            Some(i.pml_accum / i.pml_samples)
        }
    }

    /// Tear the endpoint down: drain pending traffic, synchronize, release
    /// the context (paper §4.1: finalize only after pending messages are
    /// drained synchronously so no leftover DMA can regenerate traffic).
    pub fn finalize(self: &Rc<Self>, proc: &Proc) {
        self.wait_until(proc, |st| {
            st.finalizing = true;
            // Drain the retransmit buffer too: a peer blocked on a lost
            // control frame needs our resend before the barrier, or both
            // ranks park forever.
            st.all_requests_done() && st.ctl_inflight.is_empty()
        });
        self.rte.barrier(proc, self.name.job);
        // A message that was never received (e.g. its receive was aborted)
        // can still sit unexpected with its payload staged in the bounce
        // pool: release those stages, then drain the pool — the drain
        // asserts every slot came back, catching any leak past a
        // completion or failure path.
        let (slots, leaked) = {
            let mut st = self.state.lock();
            let leaked = st.release_stages(None);
            (st.bounce_pool.drain(), leaked)
        };
        for b in slots.into_iter().chain(leaked) {
            self.free(b);
        }
        // Every request is done, so no mapping is referenced any more:
        // drain the registration cache (charged unmaps) and verify nothing
        // leaked past a completion or failure path.
        crate::regcache::drain(proc, self);
        assert_eq!(
            self.mapping_count(),
            0,
            "rank {} leaked MMU mappings past finalize",
            self.name.rank
        );
        // Stages 4 and 5: finalize and close every component, then release
        // the context back to the capability (disjoin).
        self.ptls.lock().shutdown();
        if let Some(net) = &self.tcp_net {
            net.unbind(self.name);
        }
        self.cluster.release_ctx(self.ectx.vpid());
    }
}

/// Body of an asynchronous progress thread: block on queue `q`'s interrupt,
/// drain it, dispatch frames, wake any waiting application threads. The
/// `main` thread also drains the TCP inbox and pumps the work parked
/// between dispatches, since nothing else polls in the thread modes.
fn progress_thread(proc: &Proc, ep: &Rc<Endpoint>, q: &RxQueue, main: bool) {
    let sig = proc.signal();
    q.set_signal(sig.clone());
    q.arm_irq(true);
    if let Some(ib) = ep.tcp_inbox.as_ref().filter(|_| main) {
        ib.set_doorbell(sig.clone());
    }
    loop {
        ep.metric(|m| m.counters.progress_iterations += 1);
        if main {
            proto::reliability_tick(proc, ep);
        }
        let mut worked = proto::drain_queue(proc, ep, q);
        if main {
            worked |= proto::drain_tcp_inbox(proc, ep);
            worked |= proto::pump(proc, ep);
        }
        if !worked && !ep.park(proc, &sig, ep.cluster.cfg().poll_check) {
            return;
        }
    }
}
